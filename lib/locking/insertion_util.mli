(** Shared machinery for locking transformations: key-bit bookkeeping,
    consumer redirection, wire selection, keyed LUT synthesis. *)

module Key_bag : sig
  (** Collects key inputs as a locking pass creates them; the correct-key
      array comes out aligned with the circuit's key order because the bag is
      the only creator of key inputs. *)
  type t

  (** [fresh bag correct_value] adds one key input and records its correct
      value; returns the node id. *)
  val fresh : t -> bool -> int

  (** [fresh_vector bag values] adds one key input per entry. *)
  val fresh_vector : t -> bool array -> int array
end

(** Reach marks over a fixed graph, extended one start node at a time. *)
module Reach : sig
  type t

  (** [create next] has no node marked; [next.(u)] are the nodes one step
      from [u] (a circuit's fanins, or {!Fl_netlist.Circuit.fanouts}). *)
  val create : int array array -> t

  (** [mark r id] marks [id] and every node reachable from it, stopping at
      nodes already marked: marking a set of start nodes costs O(nodes +
      edges) in all. *)
  val mark : t -> int -> unit

  val marked : t -> int -> bool

  (** Unmark every node. *)
  val clear : t -> unit
end

(** [select_wires c rng ~count ~policy] picks distinct gate output wires.

    [`Independent] guarantees no directed path between any two selected
    wires (safe for acyclic insertion); [`Any] places no constraint (used
    for cyclic insertion); [`Connected] prefers wires with paths between
    them (to provoke cycles).
    @raise Invalid_argument when the circuit cannot supply [count] wires
    under the policy. *)
val select_wires :
  Fl_netlist.Circuit.t ->
  Random.State.t ->
  count:int ->
  policy:[ `Independent | `Any | `Connected ] ->
  int array

(** [keyed_lut b bag ~addr ~truth_table] synthesises a key-programmable LUT
    as a MUX tree over [2^k] fresh key bits whose correct values are
    [truth_table] (LSB-first, matching {!Fl_netlist.Gate.Lut}).  Returns the
    output node id. *)
val keyed_lut :
  Fl_netlist.Circuit.Builder.t ->
  Key_bag.t ->
  addr:int array ->
  truth_table:bool array ->
  int

(** [lockable_gates c] is the ids of gates whose output wire a scheme may
    cut: combinational gates (not inputs/keys/constants). *)
val lockable_gates : Fl_netlist.Circuit.t -> int array

(** The skeleton every locking pass follows: start from the original
    netlist, mutate it, then freeze with the original output ports. *)
module Pass : sig
  type t

  (** [start ~name orig] is a builder holding the nodes of [orig]
      ({!Fl_netlist.Circuit.Builder.of_circuit}): every original node keeps
      its id, so original ids address the builder directly. *)
  val start : name:string -> Fl_netlist.Circuit.t -> t

  val builder : t -> Fl_netlist.Circuit.Builder.t
  val bag : t -> Key_bag.t

  (** [redirect_wires ?readers p ~limit pairs] applies every
      [(from_id, to_id)] of [pairs] at once: readers of [from_id] below
      [limit], and pending output drivers, switch to [to_id].  The result
      is that of {!redirect_wire} [~limit] applied to the pairs in order; a
      [from_id] listed twice keeps its first target.  Returns the ids of
      the nodes it rewired, ascending.  Without [readers] it scans every
      node below [limit]; given [readers], which must hold every node below
      [limit] that reads some [from_id] (in any order, repeats and other
      nodes allowed), it visits those alone and allocates nothing
      builder-sized, which pays when [pairs] is short.
      @raise Invalid_argument if a [to_id] is below [limit]. *)
  val redirect_wires :
    ?readers:int list -> t -> limit:int -> (int * int) array -> int list

  (** [redirect_wire p ~from_id ~to_id] rewires consumers of [from_id] and
      pending output drivers to [to_id].  Only nodes with id < [limit] are
      touched; [limit] defaults to [to_id] (correct when the inserted block
      was built contiguously ending at [to_id]).  Pass the id of the first
      node of the inserted block when the block's own reads of [from_id]
      must be preserved. *)
  val redirect_wire : ?limit:int -> t -> from_id:int -> to_id:int -> unit

  (** Current builder size — snapshot before building a block to use as the
      redirect [limit]. *)
  val snapshot : t -> int

  (** [set_driver p ~output_index ~to_id] repoints one output port only,
      leaving internal consumers untouched (point-function schemes flip the
      primary output, not the internal wire). *)
  val set_driver : t -> output_index:int -> to_id:int -> unit

  (** [finish p ~scheme] freezes the builder, re-declaring the original
      output ports on the (possibly redirected) drivers. *)
  val finish : t -> scheme:string -> Locked.t
end
