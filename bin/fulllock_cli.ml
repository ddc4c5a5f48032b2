(* fulllock — command-line front end.

   Sub-commands:
     generate   draw a random benchmark-style circuit
     suite      emit a circuit from the built-in ISCAS/MCNC-shaped suite
     stats      netlist statistics and PPA estimate
     lock       apply a locking scheme, write locked netlist + key file
     verify     check a key against an oracle netlist
     attack     run SAT / CycSAT / AppSAT / removal / brute-force attacks *)

open Cmdliner

module Circuit = Fl_netlist.Circuit
module Bench_io = Fl_netlist.Bench_io
module Generator = Fl_netlist.Generator
module Bench_suite = Fl_netlist.Bench_suite
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Ppa = Fl_ppa.Ppa

(* ---------- shared helpers ---------- *)

(* [with_file path f] is [f ()], or exits 1 with one line naming [path]
   when [f] cannot read or write it. *)
let with_file path f =
  try f ()
  with Sys_error msg ->
    prerr_endline (Fl_cli.file_error path msg);
    exit 1

let read_circuit path =
  try with_file path (fun () -> Bench_io.parse_file path)
  with Bench_io.Parse_error (line, msg) ->
    Printf.eprintf "%s:%d: %s\n" path line msg;
    exit 1

let write_circuit c path =
  with_file path (fun () -> Bench_io.write_file c path);
  Printf.printf "wrote %s (%d gates, %d inputs, %d keys, %d outputs)\n" path
    (Circuit.num_gates c) (Circuit.num_inputs c) (Circuit.num_keys c)
    (Circuit.num_outputs c)

let key_to_string key =
  String.init (Array.length key) (fun i -> if key.(i) then '1' else '0')

let key_of_string text =
  let text = String.trim text in
  Array.init (String.length text) (fun i ->
      match text.[i] with
      | '0' -> false
      | '1' -> true
      | c -> Printf.eprintf "bad key character %C\n" c; exit 1)

let write_key key path =
  with_file path (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (key_to_string key);
          output_char oc '\n'));
  Printf.printf "wrote %s (%d key bits)\n" path (Array.length key)

let read_key path =
  with_file path (fun () ->
      In_channel.with_open_bin path (fun ic ->
          key_of_string (Option.value ~default:"" (In_channel.input_line ic))))

(* A key file whose width must match [circuit]'s key inputs. *)
let read_key_for circuit path =
  let key = read_key path in
  if Array.length key <> Circuit.num_keys circuit then begin
    Printf.eprintf "key has %d bits, circuit expects %d\n" (Array.length key)
      (Circuit.num_keys circuit);
    exit 1
  end;
  key

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let out_arg =
  Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
         ~doc:"Output .bench file.")

(* ---------- generate ---------- *)

let generate_cmd =
  let run gates inputs outputs seed out =
    let profile =
      { Generator.num_inputs = inputs; num_outputs = outputs; num_gates = gates;
        max_fanin = 4; and_bias = 0.8 }
    in
    let c = Generator.random ~seed ~name:(Filename.remove_extension (Filename.basename out)) profile in
    write_circuit c out
  in
  let gates = Arg.(value & opt int 200 & info [ "gates" ] ~doc:"Gate count.") in
  let inputs = Arg.(value & opt int 16 & info [ "inputs" ] ~doc:"Primary inputs.") in
  let outputs = Arg.(value & opt int 8 & info [ "outputs" ] ~doc:"Primary outputs.") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random combinational circuit")
    Term.(const run $ gates $ inputs $ outputs $ seed_arg $ out_arg)

(* ---------- suite ---------- *)

let suite_cmd =
  let run name scale out =
    match Bench_suite.find name with
    | None ->
      Printf.eprintf "unknown suite circuit %S; available: %s\n" name
        (String.concat ", " Bench_suite.names);
      exit 1
    | Some _ -> write_circuit (Bench_suite.load_scaled name ~scale) out
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Suite circuit (c432, c880, apex2, ...).")
  in
  let scale = Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Shrink factor (>= 1).") in
  Cmd.v
    (Cmd.info "suite" ~doc:"Emit a circuit of the ISCAS/MCNC-shaped suite")
    Term.(const run $ name_arg $ scale $ out_arg)

(* ---------- stats ---------- *)

let stats_cmd =
  let run path ppa =
    let c = read_circuit path in
    Format.printf "%a@." Circuit.pp_stats c;
    (match Circuit.depth c with
     | Some d -> Printf.printf "logic depth: %d\n" d
     | None ->
       Printf.printf "combinational cycles: %d feedback edge(s)\n"
         (Fl_attacks.Cycsat.num_feedback_edges c));
    if ppa then Format.printf "PPA: %a@." Ppa.pp (Ppa.of_circuit c)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let ppa = Arg.(value & flag & info [ "ppa" ] ~doc:"Include the PPA estimate.") in
  Cmd.v (Cmd.info "stats" ~doc:"Print netlist statistics") Term.(const run $ path $ ppa)

(* ---------- lock ---------- *)

let lock_scheme rng scheme plr cyclic key_bits c =
  match scheme with
  | "full-lock" ->
    let sizes = Fulllock.parse_plr_sizes plr in
    let configs = List.map (fun n -> Fulllock.default_config ~n) sizes in
    Fulllock.lock rng ~policy:(if cyclic then `Cyclic else `Acyclic) ~configs c
  | "rll" -> Fl_locking.Rll.lock rng ~key_bits c
  | "mux" -> Fl_locking.Mux_lock.lock rng ~key_bits c
  | "sarlock" -> Fl_locking.Sarlock.lock rng ~key_bits c
  | "antisat" -> Fl_locking.Antisat.lock rng ~key_bits c
  | "lutlock" -> Fl_locking.Lut_lock.lock rng ~gates:(max 1 (key_bits / 4)) c
  | "crosslock" -> Fl_locking.Cross_lock.lock rng ~n:(max 2 key_bits) c
  | "sfll" -> Fl_locking.Sfll.lock rng ~key_bits ~h:(max 0 (key_bits / 8)) c
  | "cyclic" -> Fl_locking.Cyclic_lock.lock rng ~cycles:key_bits c
  | other ->
    Printf.eprintf
      "unknown scheme %S (full-lock, rll, mux, sarlock, antisat, sfll, lutlock, \
       crosslock, cyclic)\n"
      other;
    exit 1

let lock_cmd =
  let run input out key_out scheme plr cyclic key_bits seed =
    let c = read_circuit input in
    let rng = Random.State.make [| seed |] in
    let locked =
      try lock_scheme rng scheme plr cyclic key_bits c
      with Invalid_argument msg -> Printf.eprintf "lock failed: %s\n" msg; exit 1
    in
    if not (Locked.verify locked) then begin
      Printf.eprintf "internal error: correct key does not verify\n";
      exit 1
    end;
    write_circuit locked.Locked.locked out;
    write_key locked.Locked.correct_key key_out;
    let a, p, d = Ppa.locking_overhead ~original:c locked.Locked.locked in
    Printf.printf "scheme %s: overhead area %.2fx, power %.2fx, delay %.2fx\n"
      locked.Locked.scheme a p d
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let key_out =
    Arg.(value & opt string "key.txt" & info [ "key-out" ] ~doc:"Key output file.")
  in
  let scheme =
    Arg.(value & opt string "full-lock" & info [ "scheme" ] ~doc:"Locking scheme.")
  in
  let plr =
    Arg.(value & opt string "1x8" & info [ "plr" ]
           ~doc:"Full-Lock PLR sizes, e.g. \"2x16 + 1x8\".")
  in
  let cyclic = Arg.(value & flag & info [ "cyclic" ] ~doc:"Cyclic PLR insertion.") in
  let key_bits =
    Arg.(value & opt int 16 & info [ "key-bits" ] ~doc:"Key bits (non-Full-Lock schemes).")
  in
  Cmd.v
    (Cmd.info "lock" ~doc:"Lock a netlist and emit the correct key")
    Term.(const run $ input $ out_arg $ key_out $ scheme $ plr $ cyclic $ key_bits $ seed_arg)

(* ---------- optimize / activate / export ---------- *)

let optimize_cmd =
  let run input out =
    let c = read_circuit input in
    let optimized, stats = Fl_netlist.Opt.run c in
    Format.printf "%a@." Fl_netlist.Opt.pp_stats stats;
    write_circuit optimized out
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Constant-fold, sweep buffers and dead logic")
    Term.(const run $ input $ out_arg)

let activate_cmd =
  let run input key_path out sweep =
    let c = read_circuit input in
    let key = read_key_for c key_path in
    let activated = Fl_netlist.Opt.hardwire_keys c key in
    let final =
      if sweep then begin
        let swept, stats = Fl_netlist.Opt.run activated in
        Format.printf "%a@." Fl_netlist.Opt.pp_stats stats;
        swept
      end
      else activated
    in
    write_circuit final out
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"LOCKED") in
  let key = Arg.(required & pos 1 (some file) None & info [] ~docv:"KEYFILE") in
  let sweep =
    Arg.(value & opt bool true & info [ "sweep" ] ~doc:"Run the optimizer afterwards.")
  in
  Cmd.v
    (Cmd.info "activate" ~doc:"Hardwire a key into a locked netlist")
    Term.(const run $ input $ key $ out_arg $ sweep)

let equiv_cmd =
  let run a_path b_path keys_a_path =
    let a = read_circuit a_path in
    let b = read_circuit b_path in
    let keys_a =
      match keys_a_path with
      | Some p -> read_key_for a p
      | None -> [||]
    in
    match Fl_sat.Equiv.check ~keys_a a b with
    | Fl_sat.Equiv.Equivalent ->
      print_endline "equivalent (SAT-proved)"
    | Fl_sat.Equiv.Unknown ->
      print_endline "unknown";
      exit 1
    | Fl_sat.Equiv.Different { inputs; _ } ->
      Printf.printf "DIFFERENT, counterexample input: %s\n"
        (String.init (Array.length inputs) (fun i -> if inputs.(i) then '1' else '0'));
      exit 1
  in
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B") in
  let key =
    Arg.(value & opt (some file) None & info [ "key-a" ]
           ~doc:"Pin A's key inputs to this key file.")
  in
  Cmd.v
    (Cmd.info "equiv" ~doc:"Formally check two netlists for equivalence")
    Term.(const run $ a $ b $ key)

(* ---------- verify ---------- *)

let verify_cmd =
  let run locked_path oracle_path key_path =
    let locked = read_circuit locked_path in
    let oracle = read_circuit oracle_path in
    let key = read_key_for locked key_path in
    if Circuit.num_inputs locked <> Circuit.num_inputs oracle
       || Circuit.num_outputs locked <> Circuit.num_outputs oracle
    then begin
      prerr_endline "the netlists' input or output counts differ";
      exit 1
    end;
    (* A proof on acyclic netlists; simulation on cyclic ones, where the
       CNF would admit spurious stabilisations. *)
    let correct, method_ =
      if Circuit.is_acyclic locked && Circuit.is_acyclic oracle then
        match Fl_sat.Equiv.check_key ~locked ~oracle key with
        | Fl_sat.Equiv.Equivalent -> true, "SAT-proved"
        | Fl_sat.Equiv.Different _ -> false, "SAT-proved"
        | Fl_sat.Equiv.Unknown ->
          prerr_endline "key check: the solver gave up";
          exit 1
      else
        let l = { Locked.locked; oracle; correct_key = key; scheme = "cli" } in
        let exhaustive_limit = 10 and vectors = 256 in
        let n = Circuit.num_inputs locked in
        ( Locked.verify ~exhaustive_limit ~vectors l,
          if n <= exhaustive_limit then
            Printf.sprintf "simulated, all %d vectors" (1 lsl n)
          else Printf.sprintf "simulated, %d vectors" vectors )
    in
    if correct then Printf.printf "key is functionally correct (%s)\n" method_
    else begin
      Printf.printf "key is WRONG (%s)\n" method_;
      exit 1
    end
  in
  let locked = Arg.(required & pos 0 (some file) None & info [] ~docv:"LOCKED") in
  let oracle = Arg.(required & pos 1 (some file) None & info [] ~docv:"ORACLE") in
  let key = Arg.(required & pos 2 (some file) None & info [] ~docv:"KEYFILE") in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check a key against the oracle netlist")
    Term.(const run $ locked $ oracle $ key)

(* ---------- attack ---------- *)

let attack_kinds = [ "sat"; "cycsat"; "appsat"; "removal"; "bruteforce" ]

let attack_cmd =
  let run kind locked_path oracle_path timeout max_conflicts key_out trace stats
      =
    if not (List.mem kind attack_kinds) then begin
      Printf.eprintf "unknown attack %S (%s)\n" kind (String.concat ", " attack_kinds);
      exit 2
    end;
    if not (timeout > 0.0 && Float.is_finite timeout) then begin
      Printf.eprintf "--timeout needs a positive finite number, got %g\n" timeout;
      exit 2
    end;
    let solver_kind = kind = "sat" || kind = "cycsat" in
    (match max_conflicts with
     | Some n when n <= 0 ->
       Printf.eprintf "--max-conflicts needs a positive number, got %d\n" n;
       exit 2
     | Some _ when not solver_kind ->
       Printf.eprintf "--max-conflicts applies to --kind sat and cycsat only, not %s\n"
         kind;
       exit 2
     | _ -> ());
    (match trace with None -> () | Some file -> Fl_cli.install_trace file);
    if stats then begin
      (* Deep telemetry so the snapshot includes the cdcl.* histograms. *)
      Fl_obs.set_deep true;
      Fl_cli.stats_on_exit ()
    end;
    let locked = read_circuit locked_path in
    let oracle = read_circuit oracle_path in
    let l =
      { Locked.locked; oracle; correct_key = Array.make (Circuit.num_keys locked) false;
        scheme = "cli" }
    in
    let save_key key =
      match key_out with
      | Some path -> write_key key path
      | None -> Printf.printf "recovered key: %s\n" (key_to_string key)
    in
    let progress i t = Printf.eprintf "\riteration %d (%.1fs)%!" i t in
    (match kind with
     | "sat" | "cycsat" ->
       let result =
         if kind = "sat" then
           Fl_attacks.Sat_attack.run ~timeout ?max_conflicts ~progress l
         else Fl_attacks.Cycsat.run ~timeout ?max_conflicts ~progress l
       in
       prerr_newline ();
       Format.printf "%a@." Fl_attacks.Sat_attack.pp_result result;
       (match result.Fl_attacks.Sat_attack.status with
        | Fl_attacks.Sat_attack.Broken key -> save_key key
        | _ -> exit 1)
     | "appsat" ->
       let result = Fl_attacks.Appsat.run ~timeout l in
       Format.printf "%a@." Fl_attacks.Appsat.pp_result result;
       (match result.Fl_attacks.Appsat.key with
        | Some key -> save_key key
        | None -> exit 1)
     | "removal" ->
       let result = Fl_attacks.Removal.run l in
       Printf.printf "flip gates removed: %d, MUXes bypassed: %d, equivalent: %b\n"
         result.Fl_attacks.Removal.removed_flip_gates
         result.Fl_attacks.Removal.bypassed_mux_islands
         result.Fl_attacks.Removal.equivalent;
       if not result.Fl_attacks.Removal.equivalent then exit 1
     | _ (* "bruteforce", the last of [attack_kinds] *) ->
       let result = Fl_attacks.Brute_force.run l in
       (match result.Fl_attacks.Brute_force.key with
        | Some key ->
          Printf.printf "found after %d keys (%.2fs)\n"
            result.Fl_attacks.Brute_force.keys_tried
            result.Fl_attacks.Brute_force.wall_time;
          save_key key
        | None ->
          print_endline "no functionally correct key found";
          exit 1))
  in
  let kind = Arg.(value & opt string "sat" & info [ "kind" ] ~doc:"Attack kind.") in
  let locked = Arg.(required & pos 0 (some file) None & info [] ~docv:"LOCKED") in
  let oracle = Arg.(required & pos 1 (some file) None & info [] ~docv:"ORACLE") in
  let timeout =
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~doc:"Wall-clock budget (s).")
  in
  let max_conflicts =
    Arg.(value & opt (some int) None & info [ "max-conflicts" ] ~docv:"N"
           ~doc:"Stop after $(docv) solver conflicts in all (SAT/CycSAT \
                 attacks only); the key check is conflict-budgeted too.  A \
                 conflict budget gives the same verdict on any machine.")
  in
  let key_out =
    Arg.(value & opt (some string) None & info [ "key-out" ] ~doc:"Save the key here.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Append structured JSONL events (one per attack iteration, \
                 solver progress) to $(docv).")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the full metric snapshot (counters, gauges, solver \
                 histograms) on exit.")
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Attack a locked netlist with oracle access")
    Term.(const run $ kind $ locked $ oracle $ timeout $ max_conflicts $ key_out
          $ trace $ stats)

let () =
  let doc = "Full-Lock logic locking toolbox (DAC'19 reproduction)" in
  let info = Cmd.info "fulllock" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; suite_cmd; stats_cmd; lock_cmd; verify_cmd; attack_cmd;
            optimize_cmd; activate_cmd; equiv_cmd ]))
