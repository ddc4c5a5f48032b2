(** AppSAT (Shamsi et al., HOST'17): approximate deobfuscation.

    The DIP loop is interleaved with random-query reinforcement: every few
    iterations the current best key candidate is extracted and its error
    rate estimated on random inputs; disagreeing queries are added as
    constraints.  The attack settles for an {e approximately} correct key
    once the estimated error drops below a threshold — which defeats
    low-corruption schemes (SARLock) but not high-corruption ones
    (Full-Lock). *)

type result = {
  key : bool array option;  (** best key candidate at termination *)
  estimated_error : float;  (** fraction of sampled inputs that disagree *)
  exact : bool;  (** terminated via miter-UNSAT (key provably correct) *)
  iterations : int;
  random_queries : int;
  wall_time : float;
}

(** [run ?timeout locked] settles every 4 DIP iterations, estimates the
    candidate key's error on 64 random inputs, and accepts it at an
    estimated error of at most 1%. *)
val run : ?timeout:float -> Fl_locking.Locked.t -> result

val pp_result : Format.formatter -> result -> unit
