(** Key-configurable logarithmic networks (CLN) — §3.1 of the paper.

    A CLN permutes (and optionally negates) N wires under key control.  It is
    the routing half of a PLR.  This module builds the MUX/XOR netlist inside
    a circuit builder, decodes keys into their semantic action, and samples
    routable (permutation-realising) keys for lock generation. *)

type inverter_placement =
  | No_inverters
  | Outputs_only  (** one key-configurable inverter per output wire *)
  | Per_stage  (** one per wire after every switch stage *)

type spec = {
  n : int;  (** wire count, power of two *)
  topology : Topology.kind;
  style : Switch_box.style;
  inverters : inverter_placement;
  planes : int;
      (** vertically cascaded copies (the P of LOG(N,M,P)); each output picks
          its plane through key-selected MUXes.  [planes > 1] requires
          [inverters <> Per_stage]. *)
}

(** Paper defaults: near-non-blocking banyan, independent MUX boxes,
    output inverters, single plane. *)
val default_spec : n:int -> spec

val blocking_spec : n:int -> spec
(** Shuffle-based blocking CLN of Fig. 3 (omega topology). *)

(** [log_nmp_spec ~n ~m ~p] — the general Shyy–Lea LOG(N,m,p) network:
    banyan with [m] extra stages, [p] vertical copies (e.g. the paper's
    strictly non-blocking LOG(64,3,6)). *)
val log_nmp_spec : n:int -> m:int -> p:int -> spec

val topology : spec -> Topology.t

(** Total key bits: per-plane switch-box bits + plane-select bits +
    inverter bits. *)
val num_key_bits : spec -> int

(** Switch-boxes over all planes (selection MUXes not included). *)
val num_switch_boxes : spec -> int

(** Semantic action of a key.  [source.(j)] is the input index whose value
    drives output [j] (with [Independent] boxes an input may drive several
    outputs — a broadcast); [inverted.(j)] tells whether output [j] is
    negated. *)
type action = { source : int array; inverted : bool array }

(** [decode spec ~key] computes the action.
    @raise Invalid_argument on a key-length mismatch. *)
val decode : spec -> key:bool array -> action

val is_permutation : action -> bool

(** [random_routable_key spec rng] draws a key whose action is a uniform
    sample over realisable {e permutations} (switch-boxes restricted to
    pass/exchange; inverter bits uniform). *)
val random_routable_key : spec -> Random.State.t -> bool array

(** [key_for_identity spec] is the all-pass, no-inversion key. *)
val key_for_identity : spec -> bool array

(** [set_inversions spec key ~inverted] adjusts the inverter bits of a
    routable (permutation) key in place until {!decode}'s inversion pattern
    equals [inverted] — each inverter bit toggles exactly one output under a
    permutation configuration, so a greedy sweep converges.
    @raise Invalid_argument when the spec lacks the inverters to realise the
    pattern. *)
val set_inversions : spec -> bool array -> inverted:bool array -> unit

(** [key_of_swaps spec swaps] is the key whose switch-box [i] (in traversal
    order: layer by layer, box by box) passes or exchanges according to
    [swaps.(i)], with every inverter off.
    @raise Invalid_argument unless [swaps] has one entry per switch-box. *)
val key_of_swaps : spec -> bool array -> bool array

(** [build spec builder ~inputs ~keys] compiles the CLN.  [inputs] are node
    ids carrying the N wires; [keys] supplies [num_key_bits spec] key-input
    node ids.  Returns the N output node ids (position order). *)
val build :
  spec ->
  Fl_netlist.Circuit.Builder.t ->
  inputs:int array ->
  keys:int array ->
  int array

(** [standalone spec] packages the CLN as a locked circuit of its own:
    N primary inputs, key inputs, N outputs — the object attacked in
    Table 2. *)
val standalone : ?name:string -> spec -> Fl_netlist.Circuit.t

(** [apply_action action values] routes concrete values the way the netlist
    would (for cross-checking build vs decode). *)
val apply_action : action -> bool array -> bool array

val pp_spec : Format.formatter -> spec -> unit
