(** Immutable gate-level netlists.

    A circuit is a vector of nodes indexed by dense integer ids.  Primary
    inputs, key inputs and primary outputs are recorded in order; the node
    graph may contain combinational cycles (cyclic locking creates them), and
    the analysis functions below report this explicitly. *)

type node = private {
  kind : Gate.t;
  fanins : int array;  (** node ids, order is significant (e.g. MUX select) *)
  name : string;  (** unique wire name *)
}

type t = private {
  name : string;
  nodes : node array;
  inputs : int array;  (** ids of [Input] nodes, in primary-input order *)
  keys : int array;  (** ids of [Key_input] nodes, in key-bit order *)
  outputs : (string * int) array;  (** output port name, driving node id *)
}

(** {1 Construction} *)

(** Mutable builder used to assemble a circuit before freezing it. *)
module Builder : sig
  type circuit := t
  type t

  val create : ?name:string -> unit -> t

  (** [add b kind fanins] appends a node and returns its id.  A fresh unique
      wire name is generated unless [name] is provided.
      @raise Invalid_argument on bad fanin count, an unknown fanin id, or a
      duplicate explicit name. *)
  val add : ?name:string -> t -> Gate.t -> int array -> int

  (** [declare b kind] appends a node whose fanins will be supplied later via
      {!set_fanins}; this is how forward references and combinational cycles
      are built.  {!of_builder} raises if a declared node was never wired. *)
  val declare : ?name:string -> t -> Gate.t -> int

  (** [declare_distinct ~name b kind] is [declare ~name b kind] for a
      caller that has already checked that no node of [b] is named [name]
      (a parser with its own table): it skips the duplicate check. *)
  val declare_distinct : name:string -> t -> Gate.t -> int

  (** [of_circuit ?name c] holds the nodes of [c] under their own ids,
      names, kinds and fanins, with [c]'s inputs and keys and no outputs:
      what {!copy_nodes_into} into an empty builder holds, without copying
      or hashing a node.  [name] defaults to [c]'s. *)
  val of_circuit : ?name:string -> circuit -> t

  (** [input b] adds a primary input (registered in PI order). *)
  val input : ?name:string -> t -> int

  (** [key_input b] adds a key input (registered in key order). *)
  val key_input : ?name:string -> t -> int

  (** [set_fanins b id fanins] rewires an existing node; used by locking
      transformations that redirect consumers into inserted blocks.
      @raise Invalid_argument on bad fanin count or unknown ids. *)
  val set_fanins : t -> int -> int array -> unit

  (** [set_kind b id kind] replaces the gate kind of node [id], keeping its
      fanins (the fanin count must stay valid). *)
  val set_kind : t -> int -> Gate.t -> unit

  (** [replace b id kind fanins] atomically rewrites a node's kind and
      fanins (for transformations that change arity, e.g. demoting a gate to
      a BUF of a LUT output). *)
  val replace : t -> int -> Gate.t -> int array -> unit

  (** [output b name id] registers node [id] as driving output port [name]. *)
  val output : t -> string -> int -> unit

  (** Number of nodes added so far. *)
  val size : t -> int

  val kind_of : t -> int -> Gate.t

  (** [peek_fanins b id] is node [id]'s fanin array itself, not a copy:
      read it, never mutate it.  A later {!set_fanins} or {!replace} of
      [id] installs a new array and leaves this one as it was. *)
  val peek_fanins : t -> int -> int array

  (** [find_by_name b name] is the id of the node named [name]. *)
  val find_by_name : t -> string -> int option

  (** [unique_name b base] is [base] when free, otherwise a fresh variant. *)
  val unique_name : t -> string -> string
end

(** [of_builder b] freezes [b] into an immutable circuit.
    @raise Invalid_argument if no output was declared, or naming the
    lowest-numbered declared node that was never wired. *)
val of_builder : Builder.t -> t

(** [copy_into b c] replays every node of [c] into builder [b] and returns
    the id translation table (old id -> new id).  Inputs, keys and outputs of
    [c] are re-declared in [b] in order.  Forward references and
    combinational cycles are preserved; colliding names get fresh variants. *)
val copy_into : Builder.t -> t -> int array

(** [copy_nodes_into b c] is {!copy_into} without declaring the outputs,
    for a caller that rewires nodes before declaring its own outputs
    (into an empty builder, {!Builder.of_circuit} does the same without
    the copy). *)
val copy_nodes_into : Builder.t -> t -> int array

(** {1 Accessors} *)

val node : t -> int -> node
val num_nodes : t -> int
val num_inputs : t -> int
val num_keys : t -> int
val num_outputs : t -> int

(** Number of logic gates (everything except inputs, key inputs, constants). *)
val num_gates : t -> int

(** [find_by_name c name] is the id of the node with wire name [name]. *)
val find_by_name : t -> string -> int option

(** [fanouts c] is, for each node id, the ids of nodes that read it.
    Output-port references are not included. *)
val fanouts : t -> int array array

(** {1 Structure} *)

(** [topological_order c] is [Some order] (fanins before fanouts) when the
    circuit is acyclic, [None] otherwise.  A fresh O(N) sort per call;
    {!View.topo_order} is the cached one. *)
val topological_order : t -> int array option

val is_acyclic : t -> bool

(** [transitive_fanin c id] is the set of node ids that can reach [id]
    (including [id]), as a boolean id-indexed mask. *)
val transitive_fanin : t -> int -> bool array

(** [strongly_connected_components c] assigns every node an SCC id (dense,
    arbitrary order).  Nodes on a common combinational cycle share an id. *)
val strongly_connected_components : t -> int array

(** [find_cycles c ~limit] enumerates up to [limit] elementary cycles
    (each as a list of node ids).  Used by CycSAT condition generation and by
    diagnostics; not guaranteed to be exhaustive beyond [limit]. *)
val find_cycles : t -> limit:int -> int list list

(** Count of nodes per gate kind name, e.g. [("nand", 12)]. *)
val kind_histogram : t -> (string * int) list

(** Levelised logic depth (longest path from any input), or [None] if
    cyclic. *)
val depth : t -> int option

(** [validate c] re-checks all structural invariants.
    @raise Invalid_argument with a diagnostic when one fails. *)
val validate : t -> unit

val pp_stats : Format.formatter -> t -> unit
