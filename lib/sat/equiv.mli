(** SAT-based combinational equivalence checking.

    Builds the miter of two acyclic netlists (shared primary inputs, outputs
    pairwise XORed into a disjunction) and decides it with a SAT backend:
    UNSAT proves equivalence, SAT yields a distinguishing counterexample.
    Key inputs, when present, are pinned to caller-supplied values — this is
    how a recovered attack key is checked {e formally} rather than by
    sampling.

    Both netlists go through one encoder (DESIGN.md §4k).  Pinned keys and
    constants fold through every gate, and a gate with the same canonical
    shape as an earlier one (kind and fanin literals) takes its variable,
    so the second netlist reuses the first's variables wherever the two
    compute the same gates.  Output pairs that end on one literal drop
    out; when none is left the verdict is [Equivalent] without a solve. *)

type verdict =
  | Equivalent
  | Different of { inputs : bool array; outputs_a : bool array; outputs_b : bool array }
      (** concrete counterexample: [inputs] from the solver's model, the
          outputs simulated on them *)
  | Unknown  (** solver budget exhausted *)

(** [check ?budget ?keys_a ?keys_b a b] compares circuit [a] under key
    [keys_a] with circuit [b] under [keys_b] ([ [||] ] by default).
    @raise Invalid_argument when input/output counts differ, a circuit is
    cyclic, or a key length mismatches. *)
val check :
  ?budget:Cdcl.budget ->
  ?keys_a:bool array ->
  ?keys_b:bool array ->
  Fl_netlist.Circuit.t ->
  Fl_netlist.Circuit.t ->
  verdict

(** [check_key ?budget ~locked ~oracle key] — formal version of
    {!Fl_locking.Locked.key_matches}: proves the key correct instead of
    sampling vectors (acyclic locked netlists only). *)
val check_key :
  ?budget:Cdcl.budget ->
  locked:Fl_netlist.Circuit.t ->
  oracle:Fl_netlist.Circuit.t ->
  bool array ->
  verdict
