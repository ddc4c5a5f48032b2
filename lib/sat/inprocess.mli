(** Bounded CNF inprocessing for the attack loop: failed-literal probing,
    equivalent-literal SCC collapsing, and XOR recovery with GF(2)
    Gaussian elimination, on top of the shared {!Simp_db} machinery
    (subsumption, bounded variable elimination, model reconstruction).

    The engine produces an equisatisfiable reduced formula plus enough
    state to (a) reconstruct a full model of the original formula from a
    model of the reduced one and (b) map clauses expressed over the
    original variables (e.g. exported learnt clauses) onto the reduced
    variable space. Frozen variables are never substituted, eliminated or
    dropped; units derived on them stay as unit clauses in the reduced
    formula. *)

type stats = {
  vars_before : int;
  vars_after : int;
  clauses_before : int;
  clauses_after : int;
  literals_before : int;
  literals_after : int;
  probes : int;  (** probe roots actually propagated (both polarities) *)
  failed_literals : int;
  shared_implications : int;  (** literals implied by both polarities *)
  hyper_binaries : int;  (** binaries added by hyper-binary resolution *)
  equiv_classes : int;  (** SCC classes that collapsed ≥ 1 variable *)
  equiv_collapsed : int;  (** variables substituted by a representative *)
  xor_rows : int;  (** XOR constraints recovered from clause patterns *)
  gauss_pivots : int;  (** GF(2) row eliminations performed *)
  gauss_units : int;
  gauss_equivs : int;
  units : int;  (** total unit assignments applied *)
  subsumed : int;
  strengthened : int;
  eliminated : int;  (** variables removed by bounded elimination *)
  resolvents : int;
  rounds : int;
  wall_s : float;
}

type t

(** Reusable probe working set (2·nvars byte maps + a trail); pass the
    same scratch to successive runs to avoid reallocating it. Buffers
    grow on demand and are all-zero between runs. *)
type scratch

val scratch : unit -> scratch

(** [run ~frozen f] simplifies [f]. [frozen] variables survive untouched
    (the attack interface: inputs, key copies, outputs). At most two
    XOR→probe→SCC→subsume→eliminate rounds run, with progress-based early
    exit; a probe pass tries at most 512 roots, XOR detection stops at
    arity 5, and variable elimination is bounded as in {!Preprocess} but
    skips variables with more than 30 occurrences.
    The [probe]/[scc]/[xor]/[elim] switches disable individual passes
    (used by per-pass property tests). *)
val run :
  ?probe:bool ->
  ?scc:bool ->
  ?xor:bool ->
  ?elim:bool ->
  ?scratch:scratch ->
  ?label:string ->
  frozen:int array ->
  Fl_cnf.Formula.t ->
  t

(** The reduced, equisatisfiable formula (empty when {!is_unsat}). *)
val formula : t -> Fl_cnf.Formula.t

(** The simplifier proved the input unsatisfiable (failed pair of
    probes, contradictory SCC, inconsistent XOR system, or an empty
    clause). *)
val is_unsat : t -> bool

val stats : t -> stats

(** [reconstruct t model] extends a model of {!formula} (indexed by
    variable, slot 0 unused) to a model of the original formula, filling
    in substituted, unit-assigned and eliminated variables. *)
val reconstruct : t -> bool array -> bool array

(** [map_clause t lits] rewrites a clause over original variables into
    the reduced space: substituted literals follow their representative,
    derived units evaluate, duplicate literals merge. Returns [None] if
    the clause is satisfied or tautological after mapping, or if it
    mentions a variable removed by bounded elimination (no sound image
    exists). The result is never the empty clause. *)
val map_clause : t -> int array -> int array option

val pp_stats : Format.formatter -> stats -> unit
