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

(** [encode_gate f kind ~out ~fanins] adds the clauses forcing variable
    [out] to equal [kind(fanins)]; fanins may be negative literals.  [f]
    also supplies the fresh variables of n-ary XOR chains.  The full copy
    and the folded observation copy share this one table.
    @raise Invalid_argument for [Input]/[Key_input] or a fanin-count
    mismatch. *)
val encode_gate :
  Formula.t -> Fl_netlist.Gate.t -> out:int -> fanins:int array -> unit

(** [encode f c] encodes circuit [c] into [f] with fresh variables.

    [share_inputs]/[share_keys] pre-assign the variables of primary/key
    inputs — this is how the SAT-attack miter instantiates two copies with
    common inputs and distinct keys.
    @raise Invalid_argument on a length mismatch. *)
val encode :
  ?share_inputs:int array -> ?share_keys:int array -> Formula.t -> Fl_netlist.Circuit.t -> encoding

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

(** One oracle observation folded to the circuit's key cone, as a
    template over key slots and local fresh variables (see
    {!fold_observation}). *)
type observation

(** [fold_observation c ~values ~outputs] folds the observation that [c]
    maps one input vector to [outputs].  [values] is
    {!Fl_netlist.View.eval_under_inputs} of [c] on the input vector.  A
    settled node gets no variable and no clause: its value folds into the
    gates it feeds.  A gate left with one live fanin (BUF, NOT,
    single-live AND/OR/XOR families, MUX with a settled select or settled
    unequal data) aliases that fanin's literal; every other unsettled gate
    gets a fresh variable and its Table 1 clauses minus the settled
    literals.  On a cyclic circuit the gates are resolved depth-first, and
    a gate reached again while its own resolution is open gets a fresh
    variable and its clauses even when it folds to a BUF or a NOT, so
    every cycle keeps one variable.  A key-dependent output gets a unit
    clause; a settled output that contradicts [outputs] adds a
    contradiction.

    The template does not depend on the variables its keys will take, so
    one fold serves every key copy the observation constrains.
    @raise Invalid_argument on a length mismatch. *)
val fold_observation :
  Fl_netlist.Circuit.t ->
  values:Fl_netlist.View.tristate array ->
  outputs:bool array ->
  observation

(** [add_observation f o ~share_keys] adds [o] to [f] with its key slots
    renamed to [share_keys] and its local variables to fresh variables of
    [f], numbered in template order (for a fold, the order it made them).
    The set of keys consistent with the observation is the one a full
    copy with pinned inputs and outputs gives ({!encode} +
    {!assert_vector}): the dropped variables are functions of the
    inputs.  The clauses mention only
    [share_keys] and the fresh variables.
    @raise Invalid_argument when [share_keys] is not one variable per key
    slot. *)
val add_observation : Formula.t -> observation -> share_keys:int array -> unit

(** Reusable buffers of {!eliminate_locals}.  A scratch serves one call
    at a time: give each session (and so each domain) its own. *)
type scratch

val scratch : unit -> scratch

(** [eliminate_locals sc o] removes local variables of [o] by bounded
    variable elimination: one sweep over the locals in variable order,
    each eliminated when the non-tautological resolvents of its clauses
    do not outnumber them, within {!Clause.max_occ}.  Key slots are never
    eliminated.  The surviving locals are renumbered in order.  Under any
    assignment of the key slots the result is satisfiable exactly when [o]
    is, so it admits the same keys; its locals are not the fold's, and a
    model assigns them nothing the session reads.  An [o] the resolvents
    refute becomes one local forced both ways, as a contradicting
    settled output folds. *)
val eliminate_locals : scratch -> observation -> observation
