(* Design-space exploration: for a fixed host, sweep PLR configurations and
   report the security/overhead trade-off — what a designer would run to
   pick a Full-Lock configuration under a PPA budget.

     dune exec examples/design_space.exe *)

module Circuit = Fl_netlist.Circuit
module Generator = Fl_netlist.Generator
module Cln = Fl_cln.Cln
module Topology = Fl_cln.Topology
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Sat_attack = Fl_attacks.Sat_attack
module Cycsat = Fl_attacks.Cycsat
module Ppa = Fl_ppa.Ppa

let host =
  Generator.random ~seed:77 ~name:"dsp-block"
    { Generator.num_inputs = 14; num_outputs = 6; num_gates = 220;
      max_fanin = 4; and_bias = 0.8 }

let timeout = 15.0

type point = {
  label : string;
  configs : Fulllock.config list;
}

let points =
  let nnb n = Fulllock.default_config ~n in
  let blocking n = Fulllock.blocking_config ~n in
  let no_luts n = { (Fulllock.default_config ~n) with Fulllock.lut_layer = false } in
  let benes n =
    { (Fulllock.default_config ~n) with
      Fulllock.cln = { (Cln.default_spec ~n) with Cln.topology = Topology.Benes } }
  in
  [
    { label = "1 PLR n=4 (nnb)"; configs = [ nnb 4 ] };
    { label = "1 PLR n=8 (blocking)"; configs = [ blocking 8 ] };
    { label = "1 PLR n=8 (nnb)"; configs = [ nnb 8 ] };
    { label = "1 PLR n=8 (benes)"; configs = [ benes 8 ] };
    { label = "1 PLR n=8, no LUTs"; configs = [ no_luts 8 ] };
    { label = "2 PLR n=8 (nnb)"; configs = [ nnb 8; nnb 8 ] };
    { label = "1 PLR n=16 (nnb)"; configs = [ nnb 16 ] };
  ]

let () =
  Printf.printf "host: %d gates; attack budget %.0fs per point\n\n"
    (Circuit.num_gates host) timeout;
  Printf.printf "%-22s | %8s | %9s | %9s | %9s | %s\n" "configuration" "key bits"
    "area x" "power x" "delay x" "security (CycSAT)";
  print_endline (String.make 92 '-');
  List.iter
    (fun point ->
      let rng = Random.State.make [| Hashtbl.hash point.label |] in
      match Fulllock.lock rng ~policy:`Cyclic ~configs:point.configs host with
      | exception Invalid_argument msg ->
        Printf.printf "%-22s | %s\n" point.label ("skipped: " ^ msg)
      | locked ->
        assert (Locked.verify locked);
        let area, power, delay =
          Ppa.locking_overhead ~original:host locked.Locked.locked
        in
        let r = Cycsat.run ~timeout locked in
        let security =
          match r.Sat_attack.status with
          | Sat_attack.Timeout ->
            Printf.sprintf "RESISTS (%d DIPs in budget)" r.Sat_attack.iterations
          | Sat_attack.Broken _ -> (
            match r.Sat_attack.key_check with
            | Sat_attack.Key_correct ->
              Printf.sprintf "broken in %.1fs" r.Sat_attack.wall_time
            | Sat_attack.Key_wrong -> "broken (wrong key)"
            | Sat_attack.Key_unchecked -> "broken (key unchecked)")
          | Sat_attack.No_key_found -> "inconclusive"
        in
        Printf.printf "%-22s | %8d | %8.2fx | %8.2fx | %8.2fx | %s\n%!" point.label
          (Locked.num_key_bits locked) area power delay security)
    points;
  print_endline
    "\nPick the cheapest RESISTS row: the paper's recommendation is the smallest\n\
     near-non-blocking PLR that exhausts the attacker's budget (Table 5)."
