(** Gate kinds of the gate-level netlist IR.

    The IR supports the primitive cells of Table 1 of the Full-Lock paper
    (AND/NAND/OR/NOR/BUF/NOT/XOR/XNOR/MUX) plus constant-table LUTs, constants
    and the two kinds of circuit inputs (primary inputs and key inputs). *)

type t =
  | Input  (** primary input; no fanins *)
  | Key_input  (** key input driven by tamper-proof memory; no fanins *)
  | Const of bool  (** constant 0 / 1; no fanins *)
  | Buf  (** identity; 1 fanin *)
  | Not  (** negation; 1 fanin *)
  | And  (** n-ary conjunction; >= 2 fanins *)
  | Nand
  | Or
  | Nor
  | Xor  (** n-ary parity *)
  | Xnor  (** complemented parity *)
  | Mux  (** fanins [s; a; b]: selects [a] when [s] is false, [b] otherwise *)
  | Lut of bool array
      (** constant truth table over k fanins; entry [i] is the output for the
          input valuation whose bit [j] (LSB = fanin 0) encodes fanin [j].
          The array length must be [2^k]. *)

val equal : t -> t -> bool

(** [arity kind] is [Some n] when the kind requires exactly [n] fanins,
    [None] for the n-ary kinds (And/Nand/Or/Nor/Xor/Xnor accept any n >= 2). *)
val arity : t -> int option

(** [valid_fanin_count kind n] checks that a node of kind [kind] may have
    [n] fanins. *)
val valid_fanin_count : t -> int -> bool

(** [eval kind inputs] evaluates the gate on concrete fanin values.
    @raise Invalid_argument on a fanin-count mismatch. *)
val eval : t -> bool array -> bool

(** [negate kind] is the complemented cell of [kind] (e.g. And -> Nand,
    Xor -> Xnor, Buf -> Not, Lut tt -> Lut (map not tt)).
    @raise Invalid_argument for Input/Key_input/Mux, which have no
    complemented cell in the library. *)
val negate : t -> t

(** [is_negatable kind] is whether {!negate} succeeds on [kind]. *)
val is_negatable : t -> bool

(** [truth_table kind ~arity] is the LUT contents realising [kind] over
    [arity] inputs (LSB = fanin 0), suitable for [Lut].
    @raise Invalid_argument when [kind] cannot drive a logic value or the
    arity is invalid for [kind]. *)
val truth_table : t -> arity:int -> bool array

(** Canonical lower-case name, e.g. ["nand"], ["lut4"]. *)
val to_string : t -> string

(** Inverse of {!to_string} for the fixed-name kinds (not [Lut]/[Const]). *)
val of_string : string -> t option
