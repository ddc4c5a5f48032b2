(** Miter construction for oracle-guided attacks.

    The miter instantiates two copies of a locked circuit that share the
    primary inputs and the logic no key reaches but carry independent key
    variables, and asserts that at least one output pair differs.
    Satisfying assignments yield discriminating input patterns (DIPs). *)

type t = {
  formula : Formula.t;
  inputs : int array;  (** shared primary-input variables *)
  keys_a : int array;  (** key variables of copy A *)
  keys_b : int array;  (** key variables of copy B *)
  outputs_a : int array;
  outputs_b : int array;
}

(** [build c] constructs the miter formula for locked circuit [c]:
    {!of_copy} of one {!Tseytin.encode} copy.  It is the miter of two
    {!Tseytin.encode} copies with shared inputs followed by
    {!Tseytin.assert_any_differs} over the output pairs, with copy B's
    {!key_free} node variables mapped onto copy A's, the clauses that
    mapping makes copies of A's dropped, and the output pairs that become
    one variable left out of the difference.
    @raise Invalid_argument when [c] has no key inputs. *)
val build : Fl_netlist.Circuit.t -> t

(** [key_free c] marks, by node id, the nodes whose value is a function of
    the inputs alone: those that no key input and no node on a
    combinational cycle reaches, counting a node as reaching itself (the
    inputs and constants among them).  The variable of such a node takes
    the same value in every model of a copy's Tseytin clauses with the
    inputs fixed, and so in both miter copies. *)
val key_free : Fl_netlist.Circuit.t -> bool array

(** [copy_interface enc] is what a simplifier of one circuit copy must
    freeze so that {!of_copy} can instantiate the miter from its result:
    the copy's inputs, keys and outputs. *)
val copy_interface : Tseytin.encoding -> int array

(** [of_copy c f enc] turns [f], which holds one copy of locked circuit
    [c] with the variables [enc] names (possibly simplified over
    {!copy_interface}[ enc] and holding clauses over the keys and fresh
    variables, such as CycSAT's no-cycle condition), into the miter, and
    returns it over [f] itself.  Copy A is [f]'s clauses.  Copy B shares
    the variables of [c]'s {!key_free} nodes, the inputs among them, and
    numbers every other variable of [f] anew after [f]'s last one, in
    order; copy B's clauses are the renamings of A's that name a variable
    B does not share.  Then the output pairs of two different variables
    are asserted to differ; when no such pair is left, [f] is made
    unsatisfiable (a fresh variable forced both ways).  Simplification
    keeps the projection of a copy's models onto the variables it leaves,
    so a shared variable still equals its node's function of the inputs
    in every model of each copy, and sharing it removes no model of the
    two-copy miter; see DESIGN.md §4d.
    @raise Invalid_argument when [enc] has no keys. *)
val of_copy : Fl_netlist.Circuit.t -> Formula.t -> Tseytin.encoding -> t

(** [clause_variable_ratio c] is the clauses-to-variables ratio of the
    initial attack formula on [c] — the metric of Fig. 7. *)
val clause_variable_ratio : Fl_netlist.Circuit.t -> float
