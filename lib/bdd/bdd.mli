(** Reduced ordered binary decision diagrams (ROBDD).

    Hash-consed Shannon cofactor trees with a unique table and a computed
    cache: equal functions share one canonical node, so equivalence is
    pointer equality, and model counting is a linear walk.  The paper's
    reference [29] uses BDD analysis for its locking trade-off study; here
    BDDs supply exact corruption numbers (cross-checking the sampled
    estimators) and a canonical equivalence oracle independent of the SAT
    path.

    Sizes are bounded by [node_limit]; circuits that blow past it (locked
    netlists are designed to!) raise {!Too_large} — itself a measurement. *)

type manager
type node

exception Too_large

(** [create ~num_vars ()] — variables are indexed [0 .. num_vars-1] and
    ordered by index.  [node_limit] defaults to 1_000_000. *)
val create : ?node_limit:int -> num_vars:int -> unit -> manager

val fls : node
val tru : node

(** [var m i] — the projection function of variable [i]. *)
val var : manager -> int -> node

val mk_not : manager -> node -> node
val mk_and : manager -> node -> node -> node
val mk_or : manager -> node -> node -> node
val mk_xor : manager -> node -> node -> node

(** [ite m i t e] — if-then-else composition. *)
val ite : manager -> node -> node -> node -> node

(** Canonical: equal functions are physically the same node. *)
val equal : node -> node -> bool

(** Number of internal nodes reachable from [n] (constants excluded). *)
val size : manager -> node -> int

(** Exact number of satisfying assignments over all [num_vars] variables. *)
val sat_count : manager -> node -> float

val eval : manager -> node -> bool array -> bool

(** A satisfying assignment ([None] for the constant false). *)
val any_sat : manager -> node -> bool array option

(** {1 Circuits} *)

(** [of_circuit m c ~keys] builds one BDD per output over the circuit's
    primary inputs (variable [i] = input [i]); key inputs are pinned to
    [keys].  Acyclic circuits only.
    @raise Invalid_argument on cyclic circuits, key/variable mismatches.
    @raise Too_large when the manager overflows. *)
val of_circuit : manager -> Fl_netlist.Circuit.t -> keys:bool array -> node array

(** [exact_corruption locked ~key] — the exact fraction of (input, output)
    pairs on which the locked circuit under [key] differs from the oracle;
    {!Fl_locking.Locked.output_corruption} samples its mean over random
    wrong keys.
    @raise Too_large / Invalid_argument as {!of_circuit}. *)
val exact_corruption :
  ?node_limit:int -> Fl_locking.Locked.t -> key:bool array -> float

(** [circuit_size ?node_limit c ~keys] — total BDD nodes of all outputs
    ([None] when the build exceeds the limit): the obfuscation metric of the
    BDD trade-off analysis. *)
val circuit_size :
  ?node_limit:int -> Fl_netlist.Circuit.t -> keys:bool array -> int option
