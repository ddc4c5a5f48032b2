(* IP-protection flow: the scenario from the paper's introduction.  A design
   house is about to send a netlist to an untrusted foundry.  It locks the
   design, checks the PPA budget, writes the locked netlist for tape-out and
   keeps the key for post-fabrication activation.

     dune exec examples/ip_protection_flow.exe *)

module Circuit = Fl_netlist.Circuit
module Bench_io = Fl_netlist.Bench_io
module Bench_suite = Fl_netlist.Bench_suite
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Ppa = Fl_ppa.Ppa
module View = Fl_netlist.View

let out_dir = Filename.concat (Filename.get_temp_dir_name ()) "fulllock-flow"

let () =
  (* The IP: a c2670-shaped controller (Table 5 row; synthetic stand-in at
     1/4 scale so the example runs in seconds). *)
  let ip = Bench_suite.load_scaled "c2670" ~scale:4 in
  Format.printf "IP to protect: %a@." Circuit.pp_stats ip;

  (* Lock with two PLRs, cyclic insertion (no wire restrictions - Section
     3.3's selling point over Cross-Lock). *)
  let rng = Random.State.make [| 20260706 |] in
  let configs = List.map (fun n -> Fulllock.default_config ~n) [ 8; 8 ] in
  let locked = Fulllock.lock rng ~policy:`Cyclic ~configs ip in
  assert (Locked.verify locked);

  (* PPA sign-off: the overhead must fit the budget. *)
  let area, power, delay = Ppa.locking_overhead ~original:ip locked.Locked.locked in
  Printf.printf "overhead: area %.2fx, power %.2fx, delay %.2fx\n" area power delay;
  Format.printf "locked netlist PPA: %a@." Ppa.pp (Ppa.of_circuit locked.Locked.locked);

  (* Tape-out artefacts: locked .bench to the foundry, key to the vault. *)
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let locked_path = Filename.concat out_dir "c2670_locked.bench" in
  let key_path = Filename.concat out_dir "c2670_key.txt" in
  Bench_io.write_file locked.Locked.locked locked_path;
  let oc = open_out key_path in
  Array.iter (fun b -> output_char oc (if b then '1' else '0')) locked.Locked.correct_key;
  output_char oc '\n';
  close_out oc;
  Printf.printf "foundry package: %s\nkey (%d bits, stays in-house): %s\n"
    locked_path
    (Locked.num_key_bits locked)
    key_path;

  (* Activation check: reload what the foundry would get, program the key,
     compare against the golden model on random vectors. *)
  let fabricated = Bench_io.parse_file locked_path in
  let fab_view = View.of_circuit fabricated and ip_view = View.of_circuit ip in
  let activated_ok =
    View.agree_on_probes ~vectors:200 ~seed:5 fab_view
      ~keys_a:locked.Locked.correct_key ip_view ~keys_b:[||]
  in
  Printf.printf "post-fab activation check (200 vectors): %s\n"
    (if activated_ok then "PASS" else "FAIL");

  (* And what an overproduced, unactivated chip would do: *)
  let zero_key = Array.make (Locked.num_key_bits locked) false in
  let rng = Random.State.make [| 5 |] in
  let vectors = List.init 200 (fun _ -> View.random_vector rng (Circuit.num_inputs ip)) in
  let corrupted =
    List.exists
      (fun inputs ->
        match View.eval fab_view ~inputs ~keys:zero_key with
        | out -> out <> View.eval ip_view ~inputs ~keys:[||]
        | exception View.Unresolved _ -> true)
      vectors
  in
  Printf.printf "unactivated chip misbehaves: %b (that is the point)\n" corrupted
