(* Testability flow: locking and manufacturing test pull in opposite
   directions.  This example quantifies the tension on one part and then
   closes it the way a test engineer would:

   1. measure random-vector stuck-at coverage of the original IP,
   2. lock it with Full-Lock and re-measure (coverage drops: deselected MUX
      paths and LUT leaves hide faults),
   3. run SAT-based ATPG on the activated part to top coverage back up and
      *prove* the remaining faults redundant.

     dune exec examples/testability.exe *)

module Circuit = Fl_netlist.Circuit
module Generator = Fl_netlist.Generator
module Faults = Fl_netlist.Faults
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Atpg = Fl_sat.Atpg

let () =
  (* A datapath-flavoured host (XOR-rich, well observable) and a deliberately
     small random budget, so the ATPG stage has real work to do. *)
  let ip =
    Generator.random ~seed:1199 ~name:"pipeline-stage"
      { Generator.num_inputs = 12; num_outputs = 6; num_gates = 110;
        max_fanin = 3; and_bias = 0.45 }
  in
  let random_tests = 8 in

  (* 1. Baseline testability of the unlocked IP. *)
  let base = Faults.random_coverage ip ~keys:[||] ~count:random_tests ~seed:1 in
  Format.printf "original IP:        %a@." Faults.pp_coverage base;

  (* 2. Lock and re-measure with the same budget of random vectors. *)
  let rng = Random.State.make [| 77 |] in
  let locked = Fulllock.lock_one rng ~n:8 ip in
  assert (Locked.verify locked);
  let lc = locked.Locked.locked in
  let keys = locked.Locked.correct_key in
  let after =
    Faults.random_coverage lc ~keys ~count:random_tests ~seed:1
  in
  Format.printf "locked (activated): %a@." Faults.pp_coverage after;
  Printf.printf
    "  -> locking grew the fault universe (%d -> %d) and hid part of it from\n\
    \     random tests (the deselected CLN paths and LUT leaves)\n"
    base.Faults.total after.Faults.total;

  (* 3. ATPG top-up on the faults the random set missed. *)
  let missed =
    List.map (fun f -> f.Faults.node, f.Faults.stuck_at) after.Faults.undetected
  in
  Printf.printf "running SAT ATPG on the %d missed faults...\n%!" (List.length missed);
  let r = Atpg.cover ~budget_per_fault:10.0 lc ~keys ~faults:missed in
  Format.printf "ATPG: %a@." Atpg.pp_report r;

  (* Final coverage: random set + ATPG vectors. *)
  let all_vectors =
    r.Atpg.tests
    @ List.init random_tests (fun i ->
          Fl_netlist.View.random_vector (Random.State.make [| 1; i |])
            (Circuit.num_inputs lc))
  in
  ignore all_vectors;
  let final = Faults.coverage lc ~keys ~vectors:all_vectors in
  Format.printf "final test set:     %a@." Faults.pp_coverage final;
  Printf.printf
    "remaining %d faults are SAT-PROVED untestable (redundant lock fabric under\n\
     this activation key) - sign-off with a redundancy waiver, as for any\n\
     design with structural redundancy.\n"
    r.Atpg.untestable
