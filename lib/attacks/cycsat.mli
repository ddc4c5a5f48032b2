(** CycSAT (Zhou, Shamsi et al., ICCAD'17) — the cycle-aware SAT attack the
    paper uses for Table 4.

    Preprocessing builds a "no structural cycle" (NC) condition over the
    key variables: every structural cycle must pass through an edge that a
    key blocks, i.e. a data slot of a key-selected MUX that the key
    deselects.  The condition is conjoined onto both miter key copies and
    onto the key-recovery formula, after which the ordinary DIP loop runs.
    This is CycSAT-I: NC may over-constrain (it rejects keys with
    structural-but-functionally-open cycles), which is the attack's
    documented incompleteness. *)

(** [no_cycle_condition c] analyses the locked circuit and returns an
    emitter that asserts NC over a key-variable vector (ordered like
    [c.keys]) inside a formula.

    The encoding names only edges a key can block.  A {e port} is a
    key-selected MUX fed from its own SCC; every other intra-SCC edge is
    always open.  For each port [y], one reach variable per port reachable
    from [y] records a key-unblocked path from [y] into that port, stepping
    from port to port over always-open closures; the goal clause says no
    such path returns to [y].  That is at most P² variables per key copy
    for P ports, and the closures are computed once per circuit.  A model
    exists for exactly the keys under which no structural cycle stays open;
    circuits with a cycle of always-open edges, which no key can cut, make
    the formula unsatisfiable.  Each emission adds its size to the
    [cycsat.nc_vars] and [cycsat.nc_clauses] counters. *)
val no_cycle_condition :
  Fl_netlist.Circuit.t -> Fl_cnf.Formula.t -> int array -> unit

(** Number of feedback edges the preprocessing breaks (0 for acyclic
    circuits — then {!run} degenerates to the plain SAT attack). *)
val num_feedback_edges : Fl_netlist.Circuit.t -> int

(** [run ?timeout ?max_conflicts ?progress ?preprocess locked] — CycSAT
    attack; parameters as in {!Sat_attack.run}. *)
val run :
  ?timeout:float ->
  ?max_conflicts:int ->
  ?progress:Sat_attack.progress ->
  ?preprocess:bool ->
  Fl_locking.Locked.t ->
  Sat_attack.result
