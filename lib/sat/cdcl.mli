(** Conflict-driven clause-learning SAT solver.

    A from-scratch MiniSAT-style solver: two-watched-literal propagation
    with blocking literals, first-UIP conflict analysis, VSIDS decision
    heuristic with a binary heap, phase saving, Luby restarts, incremental
    clause addition and solving under assumptions.  Detailed search
    statistics are exposed because the paper's argument is about the
    *shape* of the search (recursive calls / decisions per attack
    iteration), not just sat/unsat answers.

    Memory layout (DESIGN.md §4e): every clause lives in one flat int
    {!Arena} addressed by word offset; assignments, saved phases and the
    analysis scratch are byte arrays ({!Lit.Lbool}); watcher lists carry
    blocking literals so satisfied clauses are skipped without touching
    the arena.

    Decision variables: the solver decides only variables that something
    names.  A variable is named the first time a clause passed to
    {!add_clause}, {!add_clause_a} or {!of_formula} mentions it (whether
    or not loading keeps that clause), or an assumption does.  Variables
    named since the previous {!solve} enter the decision heap at the start
    of the next one, in ascending index order.  A solver whose variables
    are all named before the first solve after their creation therefore
    searches exactly as one that decides every variable.

    Chronological backtracking (Nadel and Ryvchin, SAT 2018, with the
    corrections of Moehle and Biere, SAT 2019): when a learnt clause would
    backjump more than 100 levels, the solver backtracks one level instead
    and asserts the learnt literal at the clause's backjump level, keeping
    every lower-level assignment above it.  A conflict whose highest level
    lies below the current one backtracks to that level first.  A search
    with no backjump over 100 levels is the plain backjumping search, step
    for step (DESIGN.md §4e). *)

type t

type outcome =
  | Sat
  | Unsat
  | Unknown  (** budget exhausted *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned_clauses : int;
  learned_literals : int;
  reductions : int;  (** learnt-database reductions *)
  max_decision_level : int;
  chrono_backtracks : int;
      (** backtracks to the previous level that replaced a backjump of
          more than 100 levels *)
}

val zero_stats : stats

(** [add_stats a b] sums the monotone fields; [max_decision_level] takes the
    max. *)
val add_stats : stats -> stats -> stats

(** [sub_stats a b] is the per-field delta [a - b] of the monotone fields;
    [max_decision_level] (a running max, not a counter) is kept from [a]. *)
val sub_stats : stats -> stats -> stats

(** Resource budget for one {!solve} call.  [max_conflicts < 0] and
    [deadline < 0.] mean unlimited. *)
type budget = { max_conflicts : int; deadline : float  (** Unix time *) }

val no_budget : budget
val budget_conflicts : int -> budget
val budget_seconds : float -> budget

(** [create ()] builds an empty solver. *)
val create : unit -> t

(** [of_formula f] loads every clause of [f] into a fresh solver. *)
val of_formula : Fl_cnf.Formula.t -> t

(** [ensure_vars s n] makes variables [1..n] known to the solver.  It
    sizes the per-variable tables only: a variable no clause or
    assumption names is never decided. *)
val ensure_vars : t -> int -> unit

(** [add_clause s lits] adds a clause (DIMACS literals).  May be called
    between [solve] calls; the solver backtracks to level 0 first.  Adding
    an empty clause makes the instance permanently unsat. *)
val add_clause : t -> int list -> unit

val add_clause_a : t -> int array -> unit

(** [solve ?assumptions ?budget s] runs the CDCL loop.  With assumptions the
    answer is relative to them (Unsat means: unsat under these assumptions).
    Statistics accumulate across calls. *)
val solve : ?assumptions:int list -> ?budget:budget -> t -> outcome

(** [value s v] is the model value of variable [v] after [Sat].  A
    variable nothing has named is [false] (it occurs in no clause).
    @raise Invalid_argument if the last call did not return Sat or [v] is
    unknown. *)
val value : t -> int -> bool

(** [model s] is the full model as (variable -> value), index 0 unused. *)
val model : t -> bool array

(** Live learnt clauses (shrinks when the database is reduced, unlike the
    monotone [stats.learned_clauses]). *)
val num_learnts : t -> int

(** [reduce_now s] backtracks to level 0 and forces one learnt-database
    reduction (arena compaction + watch-list rebuild) — the same path
    search takes when the database outgrows its budget.  Exposed for
    tests; a no-op on a permanently-unsat solver. *)
val reduce_now : t -> unit

val stats : t -> stats

(** [stats_fields d] is every field of [d] as {!Fl_obs} event fields, in
    declaration order — the payload of the [cdcl.progress] and
    [cdcl.solve] records and of the per-iteration attack records. *)
val stats_fields : stats -> (string * Fl_obs.value) list

val pp_stats : Format.formatter -> stats -> unit

(** [set_progress s ~every cb] arms a periodic progress hook: during search,
    after every [every] conflicts, [cb] is called with the stat deltas
    accumulated since the previous firing (first firing: since arming).
    One hook per solver; re-arming replaces it.  When unarmed the search
    loop pays one integer compare per conflict.
    @raise Invalid_argument when [every <= 0]. *)
val set_progress : t -> every:int -> (stats -> unit) -> unit

(** [solve_formula ?budget f] is a convenience one-shot solve; returns the
    outcome, the model when Sat, and the stats. *)
val solve_formula :
  ?budget:budget -> Fl_cnf.Formula.t -> outcome * bool array option * stats
