(** The oracle-guided SAT attack of Subramanyan, Ray and Malik (HOST'15).

    Each iteration solves the miter for a discriminating input pattern
    (DIP), queries the oracle, and adds the observed I/O behaviour as a
    constraint on both key copies.  When the miter goes UNSAT, any key
    consistent with the accumulated observations is functionally correct
    (for acyclic circuits).

    On cyclic locked circuits the plain attack is unsound — the CNF admits
    spurious stabilisations, so the recovered key may be wrong or the loop
    may not converge; that failure mode is the paper's motivation for
    CycSAT, and {!result.key_check} reports it honestly. *)

type status =
  | Broken of bool array  (** recovered key *)
  | Timeout  (** budget exhausted — wall clock or conflict cap *)
  | No_key_found  (** miter UNSAT but no consistent key (cyclic pathology) *)

(** The functional check of a recovered key.  On an acyclic locked
    netlist it is {!Fl_sat.Equiv.check_key}; on a cyclic one, simulation
    ({!Fl_locking.Locked.key_matches}). *)
type key_check =
  | Key_correct  (** proved equivalent to the oracle, or matched it on every simulated vector *)
  | Key_wrong  (** the oracle and the key disagree on some input *)
  | Key_unchecked  (** no key, or the proof ran out of budget *)

type result = {
  status : status;
  iterations : int;
  wall_time : float;
  key_check : key_check;  (** of the recovered key *)
  solver : Fl_sat.Cdcl.stats;  (** accumulated over all iterations *)
  clause_var_ratio : float;
      (** of the final attack formula (Fig. 7), as the solver sees it: each
          observation enters as its folded key cone
          ({!Fl_cnf.Tseytin.fold_observation}), not as a full circuit
          copy *)
  dips : bool array list;  (** the tested DIPs, most recent first *)
}

(** Hook called after each iteration with (iteration, elapsed seconds). *)
type progress = int -> float -> unit

(** [run ?timeout ?max_conflicts ?progress ?extra_key_constraint ?label
    locked] runs the attack.
    [extra_key_constraint] (used by CycSAT) may add clauses over a
    key-variable vector into a formula; it is applied to both miter key
    copies and to the key-recovery formula.  [max_conflicts] caps the total
    solver conflicts of the attack (and makes the key-correctness check
    conflict-budgeted too): a deterministic, machine-load-independent
    budget, which is what the [Fl_par]-swept bench experiments use so
    --jobs does not change outcomes.  [label] (default ["sat"]) names the
    attack in the per-iteration {!Fl_obs} records the underlying {!Session}
    emits (see {!Session.find_dip}).  [preprocess] is forwarded to
    {!Session.create}: [true] (the default) runs the one-shot SatELite-style
    simplification of the base miter, [false] is the reference
    unpreprocessed path. *)
val run :
  ?timeout:float ->
  ?max_conflicts:int ->
  ?progress:progress ->
  ?extra_key_constraint:(Fl_cnf.Formula.t -> int array -> unit) ->
  ?label:string ->
  ?preprocess:bool ->
  Fl_locking.Locked.t ->
  result

(** Prints the status line, the accumulated solver stats and (when at least
    one iteration ran) per-iteration averages of decisions, propagations
    and conflicts. *)
val pp_result : Format.formatter -> result -> unit
