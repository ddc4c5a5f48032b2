(** CycSAT (Zhou, Shamsi et al., ICCAD'17) — the cycle-aware SAT attack the
    paper uses for Table 4.

    Preprocessing computes, for every feedback edge, a "no structural cycle"
    (NC) condition over the key variables: somewhere along each potential
    cycle a key-selected MUX must deselect the cycle edge.  The conditions
    are conjoined onto both miter key copies and onto the key-recovery
    formula, after which the ordinary DIP loop runs.  This is CycSAT-I: NC
    may over-constrain (it rejects keys with structural-but-functionally-open
    cycles), which is the attack's documented incompleteness. *)

(** [no_cycle_condition c] analyses the locked circuit and returns an
    emitter that asserts the NC conditions over a key-variable vector
    (ordered like [c.keys]) inside a formula.  Circuits whose cycles cannot
    be blocked by any key make the formula unsatisfiable. *)
val no_cycle_condition :
  Fl_netlist.Circuit.t -> Fl_cnf.Formula.t -> int array -> unit

(** Number of feedback edges the preprocessing breaks (0 for acyclic
    circuits — then {!run} degenerates to the plain SAT attack). *)
val num_feedback_edges : Fl_netlist.Circuit.t -> int

(** [run ?timeout ?max_conflicts ?progress ?preprocess ?inprocess
    ?inprocess_every ?inprocess_min_conflicts locked] — CycSAT attack;
    parameters as in {!Sat_attack.run}. *)
val run :
  ?timeout:float ->
  ?max_conflicts:int ->
  ?progress:Sat_attack.progress ->
  ?preprocess:bool ->
  ?inprocess:bool ->
  ?inprocess_every:int ->
  ?inprocess_min_conflicts:int ->
  Fl_locking.Locked.t ->
  Sat_attack.result
