(** Standard-cell area/power/delay data.

    The paper evaluates with the Synopsys generic 32nm educational library;
    that library is not redistributable, so the default here is an analytic
    model {e calibrated} so that the CLN figures land in the range of the
    paper's Table 3 (e.g. a shuffle-based N=32 CLN around 10 um² / 450 nW /
    0.8 ns).  Relative comparisons — blocking vs non-blocking, CLN vs PLR,
    STT-LUT vs CMOS — are what the experiments reproduce. *)

type cell = {
  area_um2 : float;
  power_nw : float;  (** average switching + leakage at nominal activity *)
  delay_ns : float;  (** pin-to-pin *)
}

type t

(** The calibrated pseudo-32nm library. *)
val generic_32nm : t

(** [cell_of library kind ~fanin] is the cost of one library cell
    implementing a 2-input slice of [kind]; n-ary gates are decomposed by
    {!Ppa}.  LUT kinds are costed via {!Stt_lut}. *)
val cell_of : t -> Fl_netlist.Gate.t -> fanin:int -> cell

(** [scale library ~area ~power ~delay] derives a re-scaled library (for
    technology exploration examples). *)
val scale : t -> area:float -> power:float -> delay:float -> t

val zero : cell
