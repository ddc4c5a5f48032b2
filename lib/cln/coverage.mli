(** Permutation coverage of a CLN — the blocking vs non-blocking experiment
    of §3.1/§4.1.

    A blocking log₂N network realises only a fraction of the N! permutations;
    the near-non-blocking LOG(N, log₂N−2, 1) realises almost all of them.
    Coverage is measured by enumerating (small N) or sampling (larger N) the
    key space restricted to permutation configurations. *)

type report = {
  spec : Cln.spec;
  distinct_permutations : int;
  total_permutations : int;  (** N! *)
  keys_examined : int;
  exhaustive : bool;
}

(** [measure ?max_keys spec] enumerates routable keys (switch bits only —
    inverters do not affect routing).  If the permutation key space exceeds
    [max_keys] (default 1 lsl 20), a uniform sample of [max_keys] keys is
    used and [exhaustive] is false. *)
val measure : ?max_keys:int -> Cln.spec -> report

val coverage_fraction : report -> float

(** [routes_permutation spec perm] — whether some routable key realises
    [perm] (backtracking search over switch-box configurations).
    Single-plane networks only (multi-plane routing reduces to the chosen
    plane anyway). *)
val routes_permutation : Cln.spec -> int array -> bool

(** [route spec ?inverted perm] — a key realising [perm] (output [j] carries
    input [perm.(j)]) with inversion pattern [inverted] (all-false by
    default), or [None] when the network cannot route it.  Backtracking with
    reachability pruning, so exact: [None] means genuinely unroutable.
    @raise Invalid_argument on a malformed permutation or when [inverted]
    needs inverters the spec does not have. *)
val route : Cln.spec -> ?inverted:bool array -> int array -> bool array option
