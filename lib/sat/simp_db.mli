(** Shared occurrence-list clause database for the CNF simplifiers.

    {!Preprocess} (the one-shot SatELite pass) and {!Inprocess} (the
    between-iterations engine) both work on this representation: packed
    canonical clauses with per-clause 63-bit variable signatures, literal
    occurrence lists with lazy staleness compaction, a subsumption work
    queue, and one elimination stack driving model reconstruction.  The
    two passes layer their own reasoning (subsumption/BVE fixpoints,
    probing, SCC collapsing, XOR/Gauss) on top.

    The record is exposed directly — the clients
    live in this library and need structural access to clauses and
    occurrence lists.  The internal reasoning steps (subsumption checks,
    resolution, single-variable elimination) are sealed behind the
    sweep/drain entry points. *)

(** Literal index for occurrence lists: variable [v] occupies slots
    [2*(v-1)] (positive) and [2*(v-1)+1] (negative). *)
val lidx : int -> int

type t = {
  nvars : int;
  frozen_set : Bytes.t;  (** var-1 -> ['\001'] when frozen *)
  mutable cl : int array array;  (** [[||]] = dead slot *)
  mutable sg : int array;  (** per-clause variable signature *)
  mutable n : int;  (** clause slots used *)
  occ : Vec.t array;
      (** literal -> clause indices (stale entries allowed) *)
  queue : Vec.t;  (** subsumption work list, FIFO from [qhead] *)
  mutable qhead : int;  (** next entry of [queue] to take *)
  mutable queued : Bytes.t;  (** clause idx -> queued flag *)
  elim_set : Bytes.t;  (** var-1 -> ['\001'] when eliminated *)
  dirty : Bytes.t;
      (** var-1 -> ['\001'] when the variable's clauses changed since its
          last elimination attempt; set by {!append}, {!kill} and
          {!strengthen}, cleared by {!elimination_sweep} *)
  mutable elim_stack : (int * int array list) list;
  mutable unsat : bool;
  (* counters *)
  mutable n_taut : int;
  mutable n_dup : int;
  mutable n_sub : int;
  mutable n_str : int;
  mutable n_elim : int;
  mutable n_res : int;
  mutable n_attempts : int;  (** elimination attempts that read occurrences *)
}

(** [create ~frozen f] loads [f]: canonicalizes every clause, drops
    tautologies and exact duplicates (counted in [n_taut]/[n_dup]), and
    queues everything for subsumption.  Variables in [frozen] are never
    eliminated. *)
val create : frozen:int array -> Fl_cnf.Formula.t -> t

val alive : t -> int -> bool
val frozen : t -> int -> bool
val eliminated : t -> int -> bool

(** [kill db ci] retires clause slot [ci] (idempotent), marking its
    variables dirty. *)
val kill : t -> int -> unit

(** [append db lits] appends a {e canonical} clause, indexes its
    occurrences, marks its variables dirty and queues it for subsumption.
    An empty clause flips [unsat] and returns [-1]; otherwise the new
    clause index. *)
val append : t -> int array -> int

(** [strengthen db ci l] removes literal [l] from clause [ci]
    (self-subsuming resolution), marking the clause's variables dirty; the
    stale occurrence entry is left for lazy compaction. *)
val strengthen : t -> int -> int -> unit

(** [occurrences db l] is the live clause indices currently containing
    literal [l], compacting the occurrence list in place. *)
val occurrences : t -> int -> int list

(** [occ_count db v] is the (possibly stale) occurrence-list length of
    both polarities of variable [v] — the cheap elimination-order
    heuristic. *)
val occ_count : t -> int -> int

(** Run backward subsumption/strengthening until the work queue is empty
    (or [unsat]). *)
val drain_subsumption : t -> unit

(** [elimination_sweep ?max_occ db] — one bounded-variable-elimination
    sweep over all variables in increasing {!occ_count} at sweep start,
    ties by variable index, draining the subsumption queue after each.
    A variable is eliminated when its resolvents do not outnumber the
    clauses they replace; variables with more than [max_occ] occurrences
    are skipped (default {!Fl_cnf.Clause.max_occ}, {!Preprocess}'s bound;
    {!Inprocess} passes 30).  Only [dirty] variables are attempted;
    since every clause change goes through {!append}, {!kill} or
    {!strengthen}, the result equals a sweep that attempts every
    variable.  Returns how many variables the sweep eliminated. *)
val elimination_sweep : ?max_occ:int -> t -> int

(** Number of distinct variables occurring in any (even dead) clause
    slot — the reduced formula's effective variable count. *)
val count_occurring_vars : t -> int

(** [(clauses, literals)] over live slots. *)
val live_counts : t -> int * int

(** Emit the reduced formula, numbering preserved.  Transfers clause-
    array ownership — the db must not be used afterwards. *)
val extract : t -> Fl_cnf.Formula.t

(** [push_elim db v saved] records [v] as eliminated with the clauses
    removed at its elimination — the snapshots {!reconstruct_stack}
    replays.  Also used by {!Inprocess} for equivalence substitutions
    ([v := l] saved as [[v; -l]; [-v; l]]) and derived units ([[l]]). *)
val push_elim : t -> int -> int array list -> unit

(** [reconstruct_stack stack model] replays an elimination stack
    most-recent-first, extending [model] with values for eliminated /
    substituted variables. *)
val reconstruct_stack : (int * int array list) list -> bool array -> bool array
