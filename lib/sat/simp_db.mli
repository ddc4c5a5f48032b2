(** Occurrence-list clause database of {!Preprocess} (the one-shot
    SatELite pass): packed canonical clauses with per-clause 63-bit
    variable signatures, literal occurrence lists with lazy staleness
    compaction, a subsumption work queue, and one elimination stack
    driving model reconstruction.

    The record is exposed directly so that tests can replay the
    fixpoint and compare its counters.  The reasoning steps (subsumption
    checks, resolution, single-variable elimination) are sealed behind
    the sweep/drain entry points. *)

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
          last elimination attempt; set whenever a clause containing it
          is added, removed or strengthened, cleared by
          {!elimination_sweep} *)
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

(** Run backward subsumption/strengthening until the work queue is empty
    (or [unsat]). *)
val drain_subsumption : t -> unit

(** [elimination_sweep db] — one bounded-variable-elimination sweep over
    all variables in increasing occurrence count at sweep start, ties by
    variable index, draining the subsumption queue after each.  A
    variable is eliminated when its resolvents do not outnumber the
    clauses they replace; variables beyond {!Fl_cnf.Clause.bounded} are
    skipped.  Only [dirty] variables are attempted; since every clause
    change marks its variables dirty, the result equals a sweep that
    attempts every variable.  Returns how many variables the sweep
    eliminated. *)
val elimination_sweep : t -> int

(** Number of distinct variables occurring in any (even dead) clause
    slot — the reduced formula's effective variable count. *)
val count_occurring_vars : t -> int

(** [(clauses, literals)] over live slots. *)
val live_counts : t -> int * int

(** Emit the reduced formula, numbering preserved.  Transfers clause-
    array ownership — the db must not be used afterwards. *)
val extract : t -> Fl_cnf.Formula.t

(** [reconstruct_stack stack model] replays an elimination stack
    most-recent-first, extending [model] with values for eliminated
    variables. *)
val reconstruct_stack : (int * int array list) list -> bool array -> bool array
