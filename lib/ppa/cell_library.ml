module Gate = Fl_netlist.Gate

type cell = { area_um2 : float; power_nw : float; delay_ns : float }

type entry = {
  inv : cell;
  buf : cell;
  nand2 : cell;
  nor2 : cell;
  and2 : cell;
  or2 : cell;
  xor2 : cell;
  xnor2 : cell;
  mux2 : cell;
}

type t = entry

(* Calibrated so a shuffle-based N=32 CLN (160 MUX2 + 32 XOR2) comes out
   near the paper's 10.1 um² / 448 nW / 0.82 ns (Table 3). *)
let generic_32nm =
  let c a p d = { area_um2 = a; power_nw = p; delay_ns = d } in
  {
    inv = c 0.020 0.9 0.020;
    buf = c 0.025 1.1 0.030;
    nand2 = c 0.030 1.4 0.032;
    nor2 = c 0.030 1.4 0.036;
    and2 = c 0.040 1.8 0.045;
    or2 = c 0.040 1.8 0.048;
    xor2 = c 0.062 2.8 0.075;
    xnor2 = c 0.062 2.8 0.075;
    mux2 = c 0.051 2.2 0.140;
  }

let zero = { area_um2 = 0.0; power_nw = 0.0; delay_ns = 0.0 }

let cell_of lib kind ~fanin =
  ignore fanin;
  match kind with
  | Gate.Input | Gate.Key_input | Gate.Const _ -> zero
  | Gate.Buf -> lib.buf
  | Gate.Not -> lib.inv
  | Gate.And -> lib.and2
  | Gate.Nand -> lib.nand2
  | Gate.Or -> lib.or2
  | Gate.Nor -> lib.nor2
  | Gate.Xor -> lib.xor2
  | Gate.Xnor -> lib.xnor2
  | Gate.Mux -> lib.mux2
  | Gate.Lut tt ->
    (* Costed by the STT-LUT model in Stt_lut; fall back to an equivalent
       MUX-tree estimate here so plain LUT gates are never free. *)
    let k = max 1 (int_of_float (Float.round (Float.log2 (float_of_int (Array.length tt))))) in
    let muxes = float_of_int ((1 lsl k) - 1) in
    {
      area_um2 = lib.mux2.area_um2 *. muxes;
      power_nw = lib.mux2.power_nw *. muxes;
      delay_ns = lib.mux2.delay_ns *. float_of_int k;
    }

let scale lib ~area ~power ~delay =
  let s c =
    {
      area_um2 = c.area_um2 *. area;
      power_nw = c.power_nw *. power;
      delay_ns = c.delay_ns *. delay;
    }
  in
  {
    inv = s lib.inv;
    buf = s lib.buf;
    nand2 = s lib.nand2;
    nor2 = s lib.nor2;
    and2 = s lib.and2;
    or2 = s lib.or2;
    xor2 = s lib.xor2;
    xnor2 = s lib.xnor2;
    mux2 = s lib.mux2;
  }
