(** A locked circuit bundled with its oracle and correct key.

    Every locking scheme in this library (and Full-Lock itself) produces this
    record; every attack consumes it.  The [oracle] is the original,
    key-free netlist — the attacker may only query it as a black box. *)

type t = {
  locked : Fl_netlist.Circuit.t;
  oracle : Fl_netlist.Circuit.t;
  correct_key : bool array;
  scheme : string;
}

(** [query_oracle t inputs] is the black-box oracle response. *)
val query_oracle : t -> bool array -> bool array

(** [eval_locked t ~key ~inputs] evaluates the locked netlist; cyclic locked
    circuits that do not settle under [key] raise {!Fl_netlist.View.Unresolved}. *)
val eval_locked : t -> key:bool array -> inputs:bool array -> bool array

(** [verify t] checks that the locked circuit under [correct_key] matches
    the oracle — exhaustively when the input count is at most [exhaustive_limit]
    (default 10), otherwise on [vectors] random vectors (default 256). *)
val verify : ?exhaustive_limit:int -> ?vectors:int -> ?seed:int -> t -> bool

(** [key_matches t ~key] — functional correctness of an arbitrary key
    (random-vector equivalence, same knobs as {!verify}). *)
val key_matches :
  ?exhaustive_limit:int -> ?vectors:int -> ?seed:int -> t -> key:bool array -> bool

(** [output_corruption ?trials ?batches t rng] is the average fraction of
    output bits that differ from the oracle under [trials] uniformly random
    wrong keys (default 16) — the paper's output-corruption argument
    against SARLock-style schemes (§2).  Each key runs [batches] packed
    batches of {!Fl_netlist.View.lanes} random vectors (default 2) on the
    word evaluator; a lane left unsettled by a cycle counts as corrupted. *)
val output_corruption :
  ?trials:int -> ?batches:int -> t -> Random.State.t -> float

val num_key_bits : t -> int
val pp : Format.formatter -> t -> unit
