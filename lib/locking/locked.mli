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

(** [output_corruption t ~trials ~vectors rng] is the average fraction of
    output bits that differ from the oracle under uniformly random wrong
    keys — the paper's output-corruption argument against SARLock-style
    schemes (§2).  Unsettled cyclic evaluations count as fully corrupted. *)
val output_corruption :
  ?trials:int -> ?vectors:int -> t -> Random.State.t -> float

(** [output_corruption_fast t rng] — like {!output_corruption} but using
    the 63-lane word evaluator ({!Fl_netlist.View.eval_words}); [batches]
    packed batches of 63 vectors per wrong key (default 2). *)
val output_corruption_fast :
  ?trials:int -> ?batches:int -> t -> Random.State.t -> float

val num_key_bits : t -> int
val pp : Format.formatter -> t -> unit
