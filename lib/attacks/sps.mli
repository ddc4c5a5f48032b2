(** Signal Probability Skew analysis (Yasin et al., ASP-DAC'17).

    Propagates signal probabilities (independence assumption, inputs and
    keys at p = 0.5) through the locked netlist and ranks wires by skew
    |p − 0.5|.  Anti-SAT's AND trees produce an extremely skewed flip wire
    feeding the output XOR — which is how SPS locates and removes the block.
    Full-Lock's CLN outputs sit near p = 0.5, so the analysis finds nothing
    to cut (§2, §4.2). *)

(** [probabilities c] is the signal probability of every node (id-indexed).
    Cyclic circuits get a fixpoint estimate (unknowns start at 0.5). *)
val probabilities : Fl_netlist.Circuit.t -> float array

(** [key_tainted c] marks every node in the transitive fanout of a key
    input (shared with the removal attack). *)
val key_tainted : Fl_netlist.Circuit.t -> bool array

(** [identifies_block ?threshold locked] — whether SPS finds a flip wire
    with skew above [threshold] (default 0.45). *)
val identifies_block : ?threshold:float -> Fl_locking.Locked.t -> bool
