(** SAT-based automatic test-pattern generation (ATPG) for single stuck-at
    faults.

    A fault's test miter instantiates the good and the faulty netlist on
    shared primary inputs (the faulty copy is {!Fl_netlist.Faults.inject},
    the same netlist fault simulation evaluates) and asks a SAT backend for an input that makes some output
    differ.  UNSAT is a {e proof} that the fault is untestable (redundant
    logic — locked netlists contain plenty around deselected MUX paths).

    Key inputs are pinned to the activation key in both copies, modelling
    production test of an activated part. *)

type outcome =
  | Test of bool array  (** input vector detecting the fault *)
  | Untestable  (** proved redundant under the given key *)
  | Unknown  (** budget exhausted *)

type report = {
  tests : bool array list;  (** generated vectors (deduplicated) *)
  testable : int;
  untestable : int;
  unknown : int;
}

(** [generate ?budget c ~keys fault] — a test for [fault = (node,
    stuck_at)].
    @raise Invalid_argument on cyclic circuits or a key-length mismatch. *)
val generate :
  ?budget:Cdcl.budget ->
  Fl_netlist.Circuit.t ->
  keys:bool array ->
  node:int ->
  stuck_at:bool ->
  outcome

(** [cover ?budget c ~keys ~faults] runs [generate] for each (node,
    stuck-at) pair, fault-simulating accumulated vectors first so easy
    faults don't all pay a SAT call. *)
val cover :
  ?budget_per_fault:float ->
  Fl_netlist.Circuit.t ->
  keys:bool array ->
  faults:(int * bool) list ->
  report

val pp_report : Format.formatter -> report -> unit
