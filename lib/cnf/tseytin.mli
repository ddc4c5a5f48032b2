(** Tseytin transformation of circuits into CNF (Table 1 of the paper).

    Each circuit node gets a CNF variable; each gate contributes the clause
    set of Table 1 (n-ary gates and LUTs use their standard generalisation;
    n-ary XOR/XNOR introduce fresh chain variables). *)

(** Result of encoding one circuit copy. *)
type encoding = {
  node_var : int array;  (** node id -> CNF variable *)
  input_vars : int array;  (** PI order *)
  key_vars : int array;  (** key order *)
  output_vars : int array;  (** output order *)
}

(** [encode_gate ?emit f kind ~out ~fanins] emits the clauses forcing
    variable [out] to equal [kind(fanins)]; fanins may be negative
    literals.  [emit] receives each clause (default: append it to [f]); [f]
    also supplies the fresh variables of n-ary XOR chains.  The full copy
    and the folded observation copy share this one table.
    @raise Invalid_argument for [Input]/[Key_input] or a fanin-count
    mismatch. *)
val encode_gate :
  ?emit:(Formula.lit array -> unit) ->
  Formula.t -> Fl_netlist.Gate.t -> out:int -> fanins:int array -> unit

(** [encode f c] encodes circuit [c] into [f] with fresh variables.

    [share_inputs]/[share_keys] pre-assign the variables of primary/key
    inputs — this is how the SAT-attack miter instantiates two copies with
    common inputs and distinct keys.
    @raise Invalid_argument on a length mismatch. *)
val encode :
  ?share_inputs:int array -> ?share_keys:int array -> Formula.t -> Fl_netlist.Circuit.t -> encoding

(** [assert_equal f a b] adds [a <-> b]. *)
val assert_equal : Formula.t -> int -> int -> unit

(** [xor_out f a b] allocates and returns [x = a XOR b]. *)
val xor_out : Formula.t -> int -> int -> int

(** [assert_any_differs f pairs] adds clauses forcing at least one pair to
    differ — the miter output constraint.  Returns the fresh difference
    variables (one per pair). *)
val assert_any_differs : Formula.t -> (int * int) list -> int array

(** [assert_lit f lit] adds the unit clause \[lit\]. *)
val assert_lit : Formula.t -> Formula.lit -> unit

(** [assert_vector f vars bits] pins each variable to the corresponding bit. *)
val assert_vector : Formula.t -> int array -> bool array -> unit

(** [encode_observation f c ~values ~share_keys ~outputs] constrains the
    key variables [share_keys] to keys under which [c] maps one input
    vector to [outputs], encoding only the circuit's key cone under that
    vector.  [values] is {!Fl_netlist.View.eval_under_inputs} of [c] on the
    input vector.  A settled node gets no variable and no clause: its value
    folds into the gates it feeds.  A gate left with one live fanin (BUF,
    NOT, single-live AND/OR/XOR families, MUX with a settled select or
    settled unequal data) aliases that fanin's literal; every other
    unsettled gate gets a fresh variable and its Table 1 clauses minus the
    settled literals.  On a cyclic circuit the gates are resolved
    depth-first, and a gate reached again while its own resolution is open
    gets a fresh variable and its clauses even when it folds to a BUF or a
    NOT, so every cycle keeps one variable.  A key-dependent output gets a unit
    clause; a settled output that contradicts [outputs] adds a
    contradiction.

    The set of keys consistent with the observation is the one a full copy
    with pinned inputs and outputs gives ({!encode} + {!assert_vector}):
    the dropped variables are functions of the inputs.  Clauses mention
    only [share_keys] and fresh variables.
    @raise Invalid_argument on a length mismatch. *)
val encode_observation :
  Formula.t ->
  Fl_netlist.Circuit.t ->
  values:Fl_netlist.View.tristate array ->
  share_keys:int array ->
  outputs:bool array ->
  unit
