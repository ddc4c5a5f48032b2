(** Shared state of an oracle-guided attack: the miter, the accumulated
    observation constraints, and the key-recovery formula.  {!Sat_attack},
    {!Cycsat} (via its key-condition emitter) and {!Appsat} all drive their
    loops through this module. *)

type t

(** [create ?extra_key_constraint ?label ?max_conflicts ?preprocess
    ~deadline locked]
    builds the miter and the key-recovery formula; [extra_key_constraint]
    is asserted over both miter key copies and the recovery keys.
    [deadline] is an absolute Unix time.  [max_conflicts] additionally
    caps the total solver conflicts the session may spend — a
    machine-load-independent budget, so sweeps run under {!Fl_par} reach
    the same outcome at any [--jobs] width (the wall deadline is
    contention-sensitive).  [label] (default ["sat"]) names the
    attack in every {!Fl_obs} record the session emits.

    [preprocess] (default [true]) builds the base miter as {!base_miter}
    does: {!Fl_sat.Preprocess} (subsumption, self-subsuming resolution and
    bounded variable elimination) runs once over one circuit copy with
    [extra_key_constraint], its inputs, keys and outputs frozen, and the
    miter's second copy is its renaming.  The clauses the attack loop adds
    later mention only frozen and fresh variables, so they remain sound
    against the reduced formula.  DIPs and pool keys are read from the
    solver's values of frozen variables, on which model reconstruction is
    the identity.  Pass [~preprocess:false] for the reference
    unpreprocessed path. *)
val create :
  ?extra_key_constraint:(Fl_cnf.Formula.t -> int array -> unit) ->
  ?label:string ->
  ?max_conflicts:int ->
  ?preprocess:bool ->
  deadline:float ->
  Fl_locking.Locked.t ->
  t

(** [base_miter ?extra_key_constraint ?label ~preprocess c] is the miter
    {!create} starts from, with the preprocessing run that made it.
    Without [preprocess] it is {!Fl_cnf.Miter.build}[ c] followed by
    [extra_key_constraint] over [keys_a], then over [keys_b].  With
    [preprocess], one {!Fl_cnf.Tseytin.encode} copy of [c] gets
    [extra_key_constraint] over its keys and is simplified by
    {!Fl_sat.Preprocess} with {!Fl_cnf.Miter.copy_interface} frozen; the
    miter is {!Fl_cnf.Miter.of_copy} of the result, so both copies and
    both key constraints come out simplified, copy B sharing the key-free
    logic of copy A, while the difference XORs are not.  The run is
    [None] without [preprocess], and also when it found the copy
    unsatisfiable: the miter is then the unpreprocessed one.  [label]
    (default ["sat"]) names the ["preprocess.done"] event. *)
val base_miter :
  ?extra_key_constraint:(Fl_cnf.Formula.t -> int array -> unit) ->
  ?label:string ->
  preprocess:bool ->
  Fl_netlist.Circuit.t ->
  Fl_sat.Preprocess.t option * Fl_cnf.Miter.t

(** [find_dip s] finds the next discriminating input pattern.  Increments
    the iteration counter on success.

    Before touching the solver it {e screens} candidate vectors through the
    circuit's word evaluator ({!Fl_netlist.View.eval_words_per_key}, 63
    vectors per pass, one whole evaluation for the first pool key and one
    key-cone evaluation for each further one): the session keeps a small
    pool of key witnesses harvested from earlier miter models — all
    consistent with every observation so far — and any input on which two
    pool keys disagree (on a settled lane) is itself a satisfying miter assignment, i.e. a genuine DIP, returned
    without a solver call.  Observing a screened DIP evicts at least one
    of the disagreeing witnesses from the pool, so at most pool-size
    consecutive screened iterations can occur before the miter is solved
    again; termination and correctness match {!find_dip_reference}.

    When an {!Fl_obs} sink is installed, every iteration emits one
    structured record — ["attack.iteration"] (with the DIP) on success,
    ["attack.exhausted"] / ["attack.timeout"] for the final solve — carrying
    the attack label, scheme, iteration index, the formula's clause/var
    counts and ratio, elapsed seconds, and the solver-stat deltas of that
    solve.  Screened iterations carry a ["screened" = true] field and
    all-zero deltas, so summing the deltas over all records of a session
    still reproduces {!solver_stats} exactly.  The session solvers also
    report ["cdcl.progress"] deltas every 2048 conflicts mid-solve.  The
    ["session.dip.screened"] / ["session.dip.solver"] counters split DIPs
    by source; ["session.screen.passes"] counts word-evaluator sweeps. *)
val find_dip : t -> [ `Dip of bool array | `Exhausted | `Timeout ]

(** [find_dip_reference s] is the pure-solver path: every DIP comes from a
    miter solve, no screening pool is consulted or populated.  Kept as the
    oracle for tests asserting that the screened loop recovers the same
    keys. *)
val find_dip_reference : t -> [ `Dip of bool array | `Exhausted | `Timeout ]

(** [observe s dip] queries the oracle on [dip] and constrains both key
    copies and the recovery formula with the observed behaviour.  One
    evaluation with the keys at X ({!Fl_netlist.View.eval_under_inputs})
    and one fold to the circuit's key cone under [dip]
    ({!Fl_cnf.Tseytin.fold_observation}) serve all three copies.  Both
    miter key copies get the fold with its local variables eliminated once
    ({!Fl_cnf.Tseytin.eliminate_locals}); the recovery formula gets the
    raw fold at the next {!candidate_key}, in observation order, so every
    key solve sees the formula that adding it at once would have given.
    Screening-pool keys the observation rules out are dropped
    ({!consistent_keys}). *)
val observe : t -> bool array -> unit

(** [constrain_io s ~inputs ~outputs] adds an arbitrary I/O observation
    (AppSAT's random queries). *)
val constrain_io : t -> inputs:bool array -> outputs:bool array -> unit

(** [consistent_keys view ~inputs ~outputs keys] is the keys, at most
    {!Fl_netlist.View.lanes} of them, under which the circuit of [view]
    settles to [outputs] on [inputs], in order.  One word evaluation
    serves them all: key [i] rides lane [i], the inputs are broadcast.  A
    lane evaluates as the scalar {!Fl_netlist.View.eval} under its key
    would, so this is the keys for which that returns [outputs] without
    raising {!Fl_netlist.View.Unresolved}.
    @raise Invalid_argument on more than {!Fl_netlist.View.lanes} keys. *)
val consistent_keys :
  Fl_netlist.View.t ->
  inputs:bool array ->
  outputs:bool array ->
  bool array list ->
  bool array list

(** [candidate_key s] solves the recovery formula for a key consistent with
    every observation so far.  It first adds the observations made since
    its previous call. *)
val candidate_key : t -> [ `Key of bool array | `None | `Timeout ]

val iterations : t -> int
val solver_stats : t -> Fl_sat.Cdcl.stats

(** Clauses-to-variables ratio of the session's miter formula (reduced, when
    preprocessing ran, plus all incremental observation constraints).  Each
    observation enters as its folded key cone
    ({!Fl_cnf.Tseytin.fold_observation}), so this is the ratio of the
    formula the solver actually sees, not of full circuit copies; the
    [clause_var_ratio] of [attack.iteration] records is the same figure. *)
val clause_var_ratio : t -> float

(** Statistics of the one-shot preprocessing pass, which ran over one
    circuit copy with its extra key constraint (not over the whole miter);
    [None] when the session was created with [~preprocess:false] (or the
    defensive unpreprocessed fallback engaged). *)
val preprocess_stats : t -> Fl_sat.Preprocess.stats option

val elapsed : t -> float
