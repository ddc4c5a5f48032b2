(** Full-Lock: SAT-hard logic locking with fully programmable logic and
    routing blocks (the paper's §3).

    One PLR =
    - a group of selected wires whose {e leading} gates may be negated
      ("twisted" into the network, §3.2),
    - a key-configurable logarithmic network (CLN) routing those wires under
      a secret permutation with key-configurable inverters, and
    - a LUT layer replacing the gates {e driven by} the CLN outputs with
      key-programmable LUTs.

    With the correct key the CLN applies the permutation and inversions that
    reconstruct every original wire, and each LUT holds its gate's truth
    table — the locked netlist is functionally the original by
    construction. *)

type config = {
  cln : Fl_cln.Cln.spec;
  lut_layer : bool;  (** replace CLN-output consumer gates with keyed LUTs *)
  negate_leading : bool;
      (** randomly negate selected leading gates; compensated by the CLN's
          key-configurable inverters (requires them) *)
  max_lut_inputs : int;  (** consumer gates above this fan-in keep their logic *)
}

(** Paper-default PLR of size [n]: near-non-blocking CLN, LUT layer on,
    leading-gate negation on, LUTs up to 5 inputs. *)
val default_config : n:int -> config

(** Blocking-CLN variant (shuffle network), for the Table 2/3 comparisons. *)
val blocking_config : n:int -> config

(** Key bits one PLR consumes on a circuit (CLN bits; LUT bits depend on the
    consumer gates met at insertion time, so they are reported on the result
    instead). *)
val cln_key_bits : config -> int

type insertion_policy =
  [ `Acyclic  (** selected wires mutually independent — no cycles *)
  | `Cyclic  (** wires picked among connected logic — cycles likely *) ]

(** [lock rng ?policy ~configs c] inserts one PLR per config (all in one
    pass, over disjoint wire groups) and returns the locked bundle.
    @raise Invalid_argument when wires cannot be selected, a config's [n]
    exceeds available gates, or [negate_leading] is set without
    inverters. *)
val lock :
  Random.State.t ->
  ?policy:insertion_policy ->
  configs:config list ->
  Fl_netlist.Circuit.t ->
  Fl_locking.Locked.t

(** [lock_one rng ?policy ~n c] — single PLR with {!default_config}. *)
val lock_one :
  Random.State.t ->
  ?policy:insertion_policy ->
  n:int ->
  Fl_netlist.Circuit.t ->
  Fl_locking.Locked.t

(** [standalone_cln_lock spec rng] wraps a bare CLN as a locked circuit whose
    oracle is the CLN under a secret routable key — the object of the
    Table 2 attack experiments. *)
val standalone_cln_lock : Fl_cln.Cln.spec -> Random.State.t -> Fl_locking.Locked.t

(** [parse_plr_sizes "2x16 + 1x8"] is [[16; 16; 8]] — helper for
    reproducing Table 5 rows ("2×16×16 + 1×8×8" means two PLRs with 16-wire
    CLNs plus one with an 8-wire CLN). *)
val parse_plr_sizes : string -> int list
