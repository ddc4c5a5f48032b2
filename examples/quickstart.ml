(* Quickstart: lock a circuit with Full-Lock, check the key, watch the SAT
   attack struggle.

     dune exec examples/quickstart.exe *)

module Circuit = Fl_netlist.Circuit
module Generator = Fl_netlist.Generator
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Sat_attack = Fl_attacks.Sat_attack

let () =
  (* 1. A host design: any combinational netlist works (parse a .bench file
     with Fl_netlist.Bench_io, or generate one). *)
  let host =
    Generator.random ~seed:2026 ~name:"accumulator-slice"
      { Generator.num_inputs = 12; num_outputs = 6; num_gates = 150;
        max_fanin = 4; and_bias = 0.8 }
  in
  Format.printf "host: %a@." Circuit.pp_stats host;

  (* 2. Lock it: one PLR with an 8-wire near-non-blocking CLN, twisted
     leading gates and an STT-LUT layer (the paper's default). *)
  let rng = Random.State.make [| 42 |] in
  let locked = Fulllock.lock_one rng ~n:8 host in
  Format.printf "locked: %a@." Locked.pp locked;

  (* 3. The correct key reproduces the host exactly. *)
  assert (Locked.verify locked);
  print_endline "correct key verifies: the locked netlist is the host";

  (* 4. A wrong key corrupts the outputs broadly (unlike SARLock-style
     schemes, Full-Lock has high output corruption). *)
  let corruption = Locked.output_corruption locked (Random.State.make [| 7 |]) in
  Printf.printf "output corruption under random wrong keys: %.1f%%\n"
    (100.0 *. corruption);

  (* 5. Attack it: the oracle-guided SAT attack gets the black-box host and
     the locked netlist.  At n=8 with LUTs this already hurts. *)
  print_endline "running the SAT attack (30s budget)...";
  let result = Sat_attack.run ~timeout:30.0 locked in
  Format.printf "attack: %a@." Sat_attack.pp_result result;
  (match result.Sat_attack.status with
   | Sat_attack.Timeout ->
     print_endline "the attack ran out of budget - scale n up for real designs"
   | Sat_attack.Broken _ when result.Sat_attack.key_check = Sat_attack.Key_correct ->
     print_endline
       "broken at this toy size - the paper uses 16..32-wire PLRs, where each\n\
        SAT iteration alone takes hours"
   | Sat_attack.Broken _ | Sat_attack.No_key_found ->
     print_endline "attack finished without a usable key")
