(* Ablations over the design choices called out in DESIGN.md:
   1. blocking topology family (same switch-box count, different wiring)
   2. extra stages m of LOG(N, m, 1)
   3. inverter placement
   4. LUT layer on/off and switch-box style
   All measured as SAT-attack effort on a standalone N=8 CLN / PLR. *)

module Cln = Fl_cln.Cln
module Topology = Fl_cln.Topology
module Switch_box = Fl_cln.Switch_box
module Fulllock = Fl_core.Fulllock
module Sat_attack = Fl_attacks.Sat_attack
module Ppa = Fl_ppa.Ppa
module Bench_suite = Fl_netlist.Bench_suite
module Locked = Fl_locking.Locked

let attack ~timeout locked =
  let r = Sat_attack.run ~timeout locked in
  match r.Sat_attack.status with
  | Sat_attack.Broken _ ->
    ( Printf.sprintf "%d" r.Sat_attack.iterations,
      Tables.seconds r.Sat_attack.wall_time,
      Printf.sprintf "%d" r.Sat_attack.solver.Fl_sat.Cdcl.conflicts )
  | Sat_attack.Timeout ->
    Printf.sprintf "%d*" r.Sat_attack.iterations, "TO",
    Printf.sprintf "%d" r.Sat_attack.solver.Fl_sat.Cdcl.conflicts
  | Sat_attack.No_key_found -> "-", "-", "-"

let spec_row ~timeout label spec =
  let rng = Random.State.make [| Hashtbl.hash label |] in
  let locked = Fulllock.standalone_cln_lock spec rng in
  let iters, time, conflicts = attack ~timeout locked in
  let e = Ppa.of_cln spec in
  [
    label;
    string_of_int (Cln.num_key_bits spec);
    iters;
    time;
    conflicts;
    Printf.sprintf "%.2f" e.Ppa.area_um2;
  ]

let header = [ "configuration"; "key bits"; "SAT iters"; "time (s)"; "conflicts"; "area" ]

let topology_ablation ~timeout () =
  let n = 8 in
  let rows =
    List.map
      (fun (label, kind) ->
        spec_row ~timeout label { (Cln.default_spec ~n) with Cln.topology = kind })
      [
        "omega (blocking)", Topology.Omega;
        "butterfly (blocking)", Topology.Butterfly;
        "baseline (blocking)", Topology.Baseline;
        "LOG(8,1,1) near-non-blocking", Topology.Near_non_blocking;
        "benes (rearrangeable)", Topology.Benes;
      ]
  in
  Tables.print ~title:"Ablation 1 — topology family at N=8" header rows

let stages_ablation ~timeout () =
  let n = 16 in
  let rows =
    List.map
      (fun extra ->
        spec_row ~timeout
          (Printf.sprintf "LOG(16,%d,1)" extra)
          { (Cln.default_spec ~n) with Cln.topology = Topology.Log_extra extra })
      [ 0; 1; 2; 3 ]
  in
  Tables.print ~title:"Ablation 2 — extra cascaded stages m of LOG(16,m,1)" header rows

let planes_ablation ~timeout () =
  (* Vertical copies (the P of LOG(N,m,p)): more planes inflate the key
     space and area without the per-iteration payoff of extra stages —
     the paper's reason for settling on p = 1 (§3.1). *)
  let rows =
    List.map
      (fun p ->
        spec_row ~timeout
          (Printf.sprintf "LOG(8,1,%d)" p)
          (Cln.log_nmp_spec ~n:8 ~m:1 ~p))
      [ 1; 2; 3 ]
  in
  Tables.print ~title:"Ablation 2b — vertical copies p of LOG(8,1,p)" header rows

let inverter_ablation ~timeout () =
  let n = 8 in
  let rows =
    List.map
      (fun (label, placement) ->
        spec_row ~timeout label { (Cln.default_spec ~n) with Cln.inverters = placement })
      [
        "no inverters", Cln.No_inverters;
        "output inverters", Cln.Outputs_only;
        "per-stage inverters", Cln.Per_stage;
      ]
  in
  Tables.print ~title:"Ablation 3 — key-configurable inverter placement (N=8)" header rows

let style_and_lut_ablation ~timeout ~scale () =
  let c = Bench_suite.load_scaled "c880" ~scale in
  let cases =
    [
      ("PLR: CLN only (no LUTs, no twist)",
       { (Fulllock.default_config ~n:8) with Fulllock.lut_layer = false;
         negate_leading = false });
      ("PLR: CLN + twist (no LUTs)",
       { (Fulllock.default_config ~n:8) with Fulllock.lut_layer = false });
      ("PLR: full (CLN + twist + LUTs)", Fulllock.default_config ~n:8);
      ("PLR: swap-style boxes (1 key bit/box)",
       { (Fulllock.default_config ~n:8) with
         Fulllock.cln =
           { (Cln.default_spec ~n:8) with Cln.style = Switch_box.Swap } });
    ]
  in
  let rows =
    List.map
      (fun (label, config) ->
        let rng = Random.State.make [| Hashtbl.hash label |] in
        let locked = Fulllock.lock rng ~configs:[ config ] c in
        let iters, time, conflicts = attack ~timeout locked in
        [
          label;
          string_of_int (Locked.num_key_bits locked);
          iters;
          time;
          conflicts;
          "-";
        ])
      cases
  in
  Tables.print ~title:"Ablation 4 — PLR composition on a c880-scale host" header rows

let run ~deep () =
  let timeout = if deep then 60.0 else 10.0 in
  let scale = if deep then 2 else 4 in
  topology_ablation ~timeout ();
  stages_ablation ~timeout ();
  planes_ablation ~timeout ();
  inverter_ablation ~timeout ();
  style_and_lut_ablation ~timeout ~scale ()
