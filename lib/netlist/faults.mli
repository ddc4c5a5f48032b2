(** Stuck-at fault simulation.

    The classic manufacturing-test model: a fault fixes one gate output (or
    primary input) at 0 or 1; a test vector {e detects} it when some primary
    output differs from the fault-free response.  The faulty machine is a
    circuit ({!inject}), so fault simulation runs on the compiled {!View}
    evaluator, word-parallel (63 vectors per pass) and serial in faults,
    and SAT-based ATPG encodes the same faulty netlist.

    Logic locking interacts with testability in both directions: an
    unactivated (wrongly keyed) circuit cannot be meaningfully tested, and
    the lock's own gates must be covered by production tests — this module
    quantifies both (see the [testability] example and the locking tests). *)

type fault = {
  node : int;  (** faulty node id (gate output or primary input wire) *)
  stuck_at : bool;
}

(** All collapsed single stuck-at faults: two per primary input and per gate
    output (constants and key inputs excluded — key inputs are pinned by
    activation, not testable logic). *)
val enumerate : Circuit.t -> fault list

(** [inject c fault] is the faulty machine: a copy of [c] with the fault
    site forced to a constant.  A gate site becomes a [Const]; the
    consumers (and output ports) of an input site are redirected to a
    [Const], so the interface is unchanged. *)
val inject : Circuit.t -> fault -> Circuit.t

(** [detects c ~keys ~inputs fault] — whether any of the packed test vectors
    detects [fault] (the key word vector is applied to both good and faulty
    machine).  Cyclic circuits use fixpoint evaluation; a lane detects the
    fault where the good machine settles and the faulty machine settles to
    a different value or not at all. *)
val detects : Circuit.t -> keys:int array -> inputs:int array -> fault -> bool

(** [batches vectors] packs a test set into words of {!View.lanes} vectors
    each ({!View.pack}); the unused lanes of a short last batch repeat its
    first vector, so every lane holds a vector of the set. *)
val batches : bool array list -> int array list

type coverage = {
  total : int;
  detected : int;
  undetected : fault list;
}

(** [coverage c ~keys ~vectors] — fault coverage of a test set (scalar
    vectors, internally packed).  [keys] are scalar key values applied
    throughout (use the correct key for an activated part). *)
val coverage : Circuit.t -> keys:bool array -> vectors:bool array list -> coverage

(** [random_coverage c ~keys ~count ~seed] — coverage of [count] random
    vectors. *)
val random_coverage :
  Circuit.t -> keys:bool array -> count:int -> seed:int -> coverage

val coverage_fraction : coverage -> float
val pp_coverage : Format.formatter -> coverage -> unit
