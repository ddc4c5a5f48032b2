(* Attack lab: pit every attack in the library against every locking scheme
   on the same host and print the result matrix — the one-screen summary of
   the paper's security claims.

     dune exec examples/attack_lab.exe *)

module Generator = Fl_netlist.Generator
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Sat_attack = Fl_attacks.Sat_attack
module Cycsat = Fl_attacks.Cycsat
module Appsat = Fl_attacks.Appsat
module Removal = Fl_attacks.Removal
module Sps = Fl_attacks.Sps

let host =
  Generator.random ~seed:404 ~name:"lab-host"
    { Generator.num_inputs = 10; num_outputs = 5; num_gates = 120;
      max_fanin = 3; and_bias = 0.8 }

let schemes =
  [
    ("RLL", fun rng -> Fl_locking.Rll.lock rng ~key_bits:10 host);
    ("SARLock", fun rng -> Fl_locking.Sarlock.lock rng ~key_bits:8 host);
    ("Anti-SAT", fun rng -> Fl_locking.Antisat.lock rng ~key_bits:16 host);
    ("SFLL-HD", fun rng -> Fl_locking.Sfll.lock rng ~key_bits:8 ~h:1 host);
    ("Cyclic", fun rng -> Fl_locking.Cyclic_lock.lock rng ~cycles:4 host);
    ("LUT-Lock", fun rng -> Fl_locking.Lut_lock.lock rng ~gates:5 host);
    ("Cross-Lock", fun rng -> Fl_locking.Cross_lock.lock rng ~n:8 host);
    ("Full-Lock", fun rng -> Fulllock.lock_one rng ~policy:`Cyclic ~n:8 host);
  ]

let timeout = 20.0

let sat_cell locked =
  (* CycSAT degrades to the plain SAT attack on acyclic circuits, so it is
     the right tool for every scheme here. *)
  let r = Cycsat.run ~timeout locked in
  match r.Sat_attack.status with
  | Sat_attack.Broken _ -> (
    match r.Sat_attack.key_check with
    | Sat_attack.Key_correct ->
      Printf.sprintf "broken (%d DIPs, %.1fs)" r.Sat_attack.iterations
        r.Sat_attack.wall_time
    | Sat_attack.Key_wrong -> "wrong key"
    | Sat_attack.Key_unchecked -> "key unchecked")
  | Sat_attack.Timeout -> "RESISTS"
  | Sat_attack.No_key_found -> "inconclusive"

let appsat_cell locked =
  let r = Appsat.run ~timeout locked in
  match r.Appsat.key with
  | Some _ when r.Appsat.exact -> "exact key"
  | Some _ when r.Appsat.estimated_error <= 0.01 ->
    Printf.sprintf "approx key (%.2f%% err)" (100.0 *. r.Appsat.estimated_error)
  | Some _ | None -> "RESISTS"

let removal_cell locked =
  let r = Removal.run locked in
  if r.Removal.equivalent then "excised" else "RESISTS"

let sps_cell locked = if Sps.identifies_block locked then "flagged" else "hidden"

let () =
  Printf.printf "host: %d gates, attack budget %.0fs each\n\n"
    (Fl_netlist.Circuit.num_gates host) timeout;
  Printf.printf "%-12s | %-24s | %-24s | %-8s | %-7s | %s\n" "scheme"
    "SAT/CycSAT" "AppSAT" "removal" "SPS" "corruption";
  print_endline (String.make 100 '-');
  List.iter
    (fun (name, lock) ->
      let rng = Random.State.make [| Hashtbl.hash name; 11 |] in
      let locked = lock rng in
      let corruption = Locked.output_corruption locked (Random.State.make [| 3 |]) in
      Printf.printf "%-12s | %-24s | %-24s | %-8s | %-7s | %.4f\n%!" name
        (sat_cell locked) (appsat_cell locked) (removal_cell locked)
        (sps_cell locked) corruption)
    schemes;
  print_endline
    "\nReading guide: Full-Lock should RESIST the SAT family while keeping high\n\
     corruption; SARLock/Anti-SAT fall to AppSAT/removal/SPS instead (Section 2\n\
     and Section 4.2 of the paper)."
