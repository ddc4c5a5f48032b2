(** Bypass attack (Xu et al., CHES'17 — the paper's reference [29]).

    Against a low-corruption scheme the attacker does not recover the key at
    all: they pick an {e arbitrary} wrong key, characterise the few places
    where the wrongly-keyed circuit disagrees with the oracle, and wrap the
    chip in a small "bypass" comparator that flips the outputs back exactly
    there.  The bypass cost tracks the size of that disagreement set —
    negligible for SARLock/SFLL-style point functions, astronomically large
    for high-corruption schemes like Full-Lock (§2's third advantage of the
    per-iteration-hardness approach).

    Disagreements are enumerated as {e cubes}: each SAT-discovered minterm
    is greedily widened by dropping input bits, with a SAT proof at every
    step that the whole cube disagrees by one constant output-flip pattern.
    SARLock's single comparator cube is recovered exactly this way. *)

(** A set of inputs (fixed bits given by [care]/[values]) on which the
    wrongly-keyed circuit differs from the oracle by XORing [flips] onto the
    outputs. *)
type cube = {
  care : bool array;  (** which input positions are fixed *)
  values : bool array;  (** their values (don't-care positions arbitrary) *)
  flips : bool array;  (** per-output correction *)
}

type result =
  | Bypassed of {
      wrong_key : bool array;
      cubes : cube list;
      repaired : Fl_netlist.Circuit.t;  (** wrong-keyed core + bypass logic *)
      overhead_gates : int;
    }
  | Too_many_cubes of { wrong_key : bool array; found : int }
      (** enumeration exceeded [max_cubes]: bypass impractical *)
  | Inconclusive  (** solver budget exhausted *)

(** [run ?max_cubes ?timeout ?seed locked] — defaults: give up beyond 32
    cubes, 30 s budget.  The repaired netlist, when returned, is verified
    equivalent to the oracle.
    @raise Invalid_argument on cyclic locked netlists. *)
val run :
  ?max_cubes:int ->
  ?timeout:float ->
  ?seed:int ->
  Fl_locking.Locked.t ->
  result

