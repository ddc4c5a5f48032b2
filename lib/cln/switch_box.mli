(** 2×2 switch-boxes built from key-driven MUXes.

    [Independent] is the paper's construction: each output is a 2:1 MUX over
    both inputs with its own key bit, so a box consumes two key bits and its
    configuration space includes the two broadcasts — the attacker cannot
    assume the box is a permutation.  [Swap] shares one select between the
    two MUXes (pass/exchange only), halving the key bits; it is kept as an
    ablation point. *)

type style = Independent | Swap

(** Key bits consumed by one box. *)
val key_bits : style -> int

(** [decode style bits (a, b)] is the pair of outputs as selections of the
    inputs, given the box's key bits ([bits] has length [key_bits style]).
    Convention: all-zero keys pass straight through. *)
val decode : style -> bool array -> 'a * 'a -> 'a * 'a

(** [is_permutation style bits] — whether this configuration routes both
    inputs (no broadcast). *)
val is_permutation : style -> bool array -> bool

(** [config_for_swap style ~swap] is the canonical key-bit pattern realising
    pass ([swap = false]) or exchange ([swap = true]). *)
val config_for_swap : style -> swap:bool -> bool array

(** [build style builder ~key_ids ~a ~b] emits the MUXes into a circuit
    builder; [key_ids] supplies [key_bits style] key-input node ids.
    Returns the two output node ids. *)
val build :
  style ->
  Fl_netlist.Circuit.Builder.t ->
  key_ids:int array ->
  a:int ->
  b:int ->
  int * int

val style_to_string : style -> string
