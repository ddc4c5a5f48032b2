(** MUX-based locking: each locked wire is replaced by a key-driven 2:1 MUX
    choosing between the true wire and a random decoy wire.  Decoys are
    restricted to wires the locked wire does not reach in the netlist as
    modified by the MUXes inserted before it, so the result stays
    acyclic. *)

(** [lock rng ~key_bits c] inserts [key_bits] key MUXes.
    @raise Invalid_argument when the circuit is too small. *)
val lock : Random.State.t -> key_bits:int -> Fl_netlist.Circuit.t -> Locked.t
