(** Miter construction for oracle-guided attacks.

    The miter instantiates two copies of a locked circuit that share the
    primary inputs but carry independent key variables, and asserts that at
    least one output pair differs.  Satisfying assignments yield
    discriminating input patterns (DIPs). *)

type t = {
  formula : Formula.t;
  inputs : int array;  (** shared primary-input variables *)
  keys_a : int array;  (** key variables of copy A *)
  keys_b : int array;  (** key variables of copy B *)
  outputs_a : int array;
  outputs_b : int array;
  enc_a : Tseytin.encoding;  (** full node-variable map of copy A *)
  enc_b : Tseytin.encoding;
}

(** [build c] constructs the miter formula for locked circuit [c].
    @raise Invalid_argument when [c] has no key inputs. *)
val build : Fl_netlist.Circuit.t -> t

(** [add_io_constraint m c ~inputs ~outputs] encodes one oracle
    observation: both key copies must reproduce output [outputs] on input
    [inputs].  Each copy is {!Tseytin.encode_observation}'s key cone of [c]
    under [inputs], with fresh variables inside [m.formula]. *)
val add_io_constraint :
  t -> Fl_netlist.Circuit.t -> inputs:bool array -> outputs:bool array -> unit

(** [interface_vars m] is every variable the incremental attack clauses
    may mention: the inputs, both key copies and both output vectors —
    the set simplification must freeze.  Observation constraints encode
    folded circuit copies over fresh variables and the two key copies;
    key-condition emitters (CycSAT) touch the key copies; the outputs are
    included so callers may constrain them directly. *)
val interface_vars : t -> int array

(** [clause_variable_ratio c] is the clauses-to-variables ratio of the
    initial attack formula on [c] — the metric of Fig. 7. *)
val clause_variable_ratio : Fl_netlist.Circuit.t -> float
