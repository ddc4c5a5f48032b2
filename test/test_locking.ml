(* Tests for Fl_locking (baseline schemes) and Fl_core (Full-Lock). *)

module Circuit = Fl_netlist.Circuit
module Generator = Fl_netlist.Generator
module Bench_suite = Fl_netlist.Bench_suite
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Cln = Fl_cln.Cln
module Topology = Fl_cln.Topology

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let host ?(seed = 101) ?(gates = 70) ?(inputs = 10) () =
  Generator.random ~seed ~name:"host"
    { Generator.num_inputs = inputs; num_outputs = 4; num_gates = gates;
      max_fanin = 3; and_bias = 0.8 }

(* ------------------------------------------------------------------ *)
(* Baseline schemes: correct key is functionally correct; a perturbed
   key is not.                                                        *)
(* ------------------------------------------------------------------ *)

let scheme_cases =
  [
    ("rll", fun rng c -> Fl_locking.Rll.lock rng ~key_bits:8 c);
    ("mux", fun rng c -> Fl_locking.Mux_lock.lock rng ~key_bits:8 c);
    ("sarlock", fun rng c -> Fl_locking.Sarlock.lock rng ~key_bits:6 c);
    ("antisat", fun rng c -> Fl_locking.Antisat.lock rng ~key_bits:12 c);
    ("lutlock", fun rng c -> Fl_locking.Lut_lock.lock rng ~gates:5 c);
    ("crosslock", fun rng c -> Fl_locking.Cross_lock.lock rng ~n:4 c);
    ("sfll", fun rng c -> Fl_locking.Sfll.lock rng ~key_bits:6 ~h:2 c);
  ]

let test_schemes_verify () =
  let c = host () in
  List.iter
    (fun (name, lock) ->
      let rng = Random.State.make [| 5 |] in
      let l = lock rng c in
      Circuit.validate l.Locked.locked;
      check bool_t (name ^ " has keys") true (Locked.num_key_bits l > 0);
      check int_t (name ^ " key inputs") (Locked.num_key_bits l)
        (Circuit.num_keys l.Locked.locked);
      check bool_t (name ^ " verify") true (Locked.verify l))
    scheme_cases

let test_schemes_locked_is_keyed_superset () =
  let c = host () in
  List.iter
    (fun (name, lock) ->
      let rng = Random.State.make [| 6 |] in
      let l = lock rng c in
      check int_t (name ^ " same inputs") (Circuit.num_inputs c)
        (Circuit.num_inputs l.Locked.locked);
      check int_t (name ^ " same outputs") (Circuit.num_outputs c)
        (Circuit.num_outputs l.Locked.locked);
      check bool_t (name ^ " grew") true
        (Circuit.num_gates l.Locked.locked >= Circuit.num_gates c))
    scheme_cases

let test_wrong_key_detected () =
  let c = host () in
  List.iter
    (fun (name, lock) ->
      let rng = Random.State.make [| 7 |] in
      let l = lock rng c in
      (* Perturb the key: flip one bit for the point-function schemes (an
         all-bit flip keeps Anti-SAT's K1 = K2 family intact!), all bits for
         the rest.  Equality is then checked exhaustively (<= 10 inputs). *)
      let wrong =
        if name = "antisat" || name = "sarlock" || name = "sfll" then begin
          let w = Array.copy l.Locked.correct_key in
          w.(0) <- not w.(0);
          w
        end
        else Array.map not l.Locked.correct_key
      in
      check bool_t (name ^ " perturbed key wrong") false
        (Locked.key_matches l ~key:wrong))
    scheme_cases

let test_sfll_hd_properties () =
  (* SFLL-HD: corruption per wrong key is tiny for small h, and any key at
     the right Hamming distance relationship flips exactly the strip/restore
     difference set. *)
  let c = host ~inputs:8 () in
  let rng = Random.State.make [| 71 |] in
  let l = Fl_locking.Sfll.lock rng ~key_bits:6 ~h:1 c in
  check bool_t "verify" true (Locked.verify l);
  let corr = Locked.output_corruption l (Random.State.make [| 2 |]) in
  check bool_t (Printf.sprintf "low corruption (%.4f)" corr) true (corr < 0.08)

let test_sfll_rejects_bad_h () =
  let c = host () in
  let rng = Random.State.make [| 72 |] in
  try
    ignore (Fl_locking.Sfll.lock rng ~key_bits:4 ~h:9 c);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_cyclic_lock_creates_cycles () =
  let c = host ~gates:100 () in
  let rng = Random.State.make [| 73 |] in
  let l = Fl_locking.Cyclic_lock.lock rng ~cycles:3 c in
  check bool_t "structurally cyclic" false (Circuit.is_acyclic l.Locked.locked);
  check bool_t "verify via fixpoint" true (Locked.verify l);
  check int_t "one key bit per cycle" 3 (Locked.num_key_bits l)

let test_cyclic_lock_wrong_key_oscillates_or_corrupts () =
  let c = host ~gates:100 () in
  let rng = Random.State.make [| 74 |] in
  let l = Fl_locking.Cyclic_lock.lock rng ~cycles:2 c in
  let wrong = Array.map not l.Locked.correct_key in
  check bool_t "wrong key detected" false (Locked.key_matches l ~key:wrong)

let test_sarlock_low_corruption () =
  (* SARLock corrupts a single input pattern per wrong key; RLL corrupts
     broadly.  The gap is the paper's §2 argument. *)
  let c = host ~inputs:6 () in
  let rng = Random.State.make [| 8 |] in
  let sar = Fl_locking.Sarlock.lock rng ~key_bits:6 c in
  let rll = Fl_locking.Rll.lock rng ~key_bits:6 c in
  let corr_sar = Locked.output_corruption sar (Random.State.make [| 1 |]) in
  let corr_rll = Locked.output_corruption rll (Random.State.make [| 1 |]) in
  check bool_t
    (Printf.sprintf "sarlock (%.4f) << rll (%.4f)" corr_sar corr_rll)
    true
    (corr_sar < 0.05 && corr_rll > 0.05)

let test_antisat_correct_key_family () =
  (* Any key with K1 = K2 is functionally correct for Anti-SAT. *)
  let c = host () in
  let rng = Random.State.make [| 9 |] in
  let l = Fl_locking.Antisat.lock rng ~key_bits:12 c in
  let nk = Locked.num_key_bits l in
  let half = nk / 2 in
  let other = Array.init nk (fun i -> i * 31 mod 7 = 0) in
  let aligned = Array.init nk (fun i -> other.(i mod half)) in
  check bool_t "K1=K2 correct" true (Locked.key_matches l ~key:aligned)

let test_crosslock_acyclic () =
  let c = host ~gates:120 () in
  let rng = Random.State.make [| 10 |] in
  let l = Fl_locking.Cross_lock.lock rng ~n:8 c in
  check bool_t "acyclic" true (Circuit.is_acyclic l.Locked.locked);
  check bool_t "verify" true (Locked.verify l);
  (* n=8 crossbar: 8 outputs x 3 select bits *)
  check int_t "key bits" 24 (Locked.num_key_bits l)

let test_mux_lock_acyclic () =
  (* Each MUX feeds its decoy into the consumers of its wire, so a later
     wire/decoy pair can close a cycle through an earlier MUX unless decoys
     are checked on the netlist as modified so far.  Hosts and seeds are
     those of the "sat attack sound on acyclic schemes" property, which
     assumes acyclic netlists; 16 of these seeds gave cyclic ones when
     decoys were checked against the original fanout. *)
  for seed = 0 to 1000 do
    let c = host ~seed:(seed + 31) ~gates:60 ~inputs:8 () in
    let l = Fl_locking.Mux_lock.lock (Random.State.make [| seed |]) ~key_bits:5 c in
    if not (Circuit.is_acyclic l.Locked.locked) then
      Alcotest.failf "seed %d: mux-lock closed a cycle" seed
  done

let test_lutlock_key_budget () =
  let c = host () in
  let rng = Random.State.make [| 11 |] in
  let l = Fl_locking.Lut_lock.lock rng ~gates:4 c in
  (* each LUT of arity a uses 2^a bits, a <= 4 -> between 4*2 and 4*16 *)
  check bool_t "key budget" true
    (Locked.num_key_bits l >= 8 && Locked.num_key_bits l <= 64)

(* ------------------------------------------------------------------ *)
(* Full-Lock                                                           *)
(* ------------------------------------------------------------------ *)

let test_fulllock_verify_acyclic () =
  let c = host ~gates:80 () in
  let rng = Random.State.make [| 20 |] in
  let l = Fulllock.lock_one rng ~n:4 c in
  Circuit.validate l.Locked.locked;
  check bool_t "acyclic" true (Circuit.is_acyclic l.Locked.locked);
  check bool_t "verify" true (Locked.verify l)

let test_fulllock_verify_n8 () =
  let c = host ~gates:160 ~inputs:12 () in
  let rng = Random.State.make [| 21 |] in
  let l = Fulllock.lock_one rng ~n:8 c in
  check bool_t "verify" true (Locked.verify l)

let test_fulllock_multi_plr () =
  let c = host ~gates:200 ~inputs:12 () in
  let rng = Random.State.make [| 22 |] in
  let l =
    Fulllock.lock rng
      ~configs:[ Fulllock.default_config ~n:4; Fulllock.default_config ~n:4 ]
      c
  in
  check bool_t "verify" true (Locked.verify l);
  check bool_t "more keys than one PLR" true
    (Locked.num_key_bits l > Fulllock.cln_key_bits (Fulllock.default_config ~n:4))

let test_fulllock_cyclic_policy () =
  let c = host ~gates:120 () in
  let rng = Random.State.make [| 23 |] in
  let l = Fulllock.lock_one rng ~policy:`Cyclic ~n:4 c in
  (* Cyclic insertion on connected wires creates structural cycles (with
     this seed it does); the correct key must still settle and verify. *)
  check bool_t "verify (fixpoint sim)" true (Locked.verify l)

let test_fulllock_cyclic_creates_cycles () =
  (* Over several seeds, the `Cyclic policy must produce at least one
     structurally cyclic locked circuit. *)
  let c = host ~gates:120 () in
  let found = ref false in
  for seed = 0 to 9 do
    if not !found then begin
      let rng = Random.State.make [| seed |] in
      let l = Fulllock.lock_one rng ~policy:`Cyclic ~n:4 c in
      if not (Circuit.is_acyclic l.Locked.locked) then found := true
    end
  done;
  check bool_t "some cyclic instance" true !found

let test_fulllock_acyclic_never_cycles () =
  let c = host ~gates:150 () in
  for seed = 0 to 9 do
    let rng = Random.State.make [| seed |] in
    let l = Fulllock.lock_one rng ~policy:`Acyclic ~n:4 c in
    check bool_t (Printf.sprintf "seed %d acyclic" seed) true
      (Circuit.is_acyclic l.Locked.locked)
  done

let test_fulllock_wrong_key () =
  let c = host ~gates:80 () in
  let rng = Random.State.make [| 24 |] in
  let l = Fulllock.lock_one rng ~n:4 c in
  let wrong = Array.copy l.Locked.correct_key in
  wrong.(0) <- not wrong.(0);
  (* bit 0 is a CLN switch bit: the route breaks *)
  check bool_t "flipped switch bit wrong" false (Locked.key_matches l ~key:wrong)

let test_fulllock_high_corruption () =
  let c = host ~gates:80 ~inputs:8 () in
  let rng = Random.State.make [| 25 |] in
  let l = Fulllock.lock_one rng ~n:4 c in
  let corr = Locked.output_corruption l (Random.State.make [| 2 |]) in
  check bool_t (Printf.sprintf "corruption %.3f > 0.05" corr) true (corr > 0.05)

let test_fulllock_without_luts_or_twist () =
  let c = host ~gates:80 () in
  let rng = Random.State.make [| 26 |] in
  let config =
    { (Fulllock.default_config ~n:4) with Fulllock.lut_layer = false;
      negate_leading = false }
  in
  let l = Fulllock.lock rng ~configs:[ config ] c in
  check bool_t "verify" true (Locked.verify l);
  (* key bits = CLN bits exactly *)
  check int_t "cln-only keys" (Fulllock.cln_key_bits config) (Locked.num_key_bits l)

let test_fulllock_negate_requires_inverters () =
  let c = host () in
  let rng = Random.State.make [| 27 |] in
  let config =
    { (Fulllock.default_config ~n:4) with
      Fulllock.cln = { (Cln.default_spec ~n:4) with Cln.inverters = Cln.No_inverters } }
  in
  try
    ignore (Fulllock.lock rng ~configs:[ config ] c);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_fulllock_blocking_variant () =
  let c = host ~gates:100 () in
  let rng = Random.State.make [| 28 |] in
  let l = Fulllock.lock rng ~configs:[ Fulllock.blocking_config ~n:8 ] c in
  check bool_t "verify" true (Locked.verify l)

let test_fulllock_multi_plane_cln () =
  (* A PLR built on the general LOG(N,m,p) network with vertical copies. *)
  let c = host ~gates:110 () in
  let rng = Random.State.make [| 30; 2 |] in
  let config =
    { (Fulllock.default_config ~n:8) with
      Fulllock.cln = Cln.log_nmp_spec ~n:8 ~m:1 ~p:3 }
  in
  let l = Fulllock.lock rng ~configs:[ config ] c in
  check bool_t "verify" true (Locked.verify l);
  (* p planes multiply the switch-box key budget. *)
  check bool_t "key budget grew" true
    (Locked.num_key_bits l > Fulllock.cln_key_bits (Fulllock.default_config ~n:8))

let test_fulllock_per_stage_inverters () =
  let c = host ~gates:100 () in
  let rng = Random.State.make [| 29 |] in
  let config =
    { (Fulllock.default_config ~n:4) with
      Fulllock.cln = { (Cln.default_spec ~n:4) with Cln.inverters = Cln.Per_stage } }
  in
  let l = Fulllock.lock rng ~configs:[ config ] c in
  check bool_t "verify" true (Locked.verify l)

let test_standalone_cln_lock () =
  List.iter
    (fun spec ->
      let rng = Random.State.make [| 30 |] in
      let l = Fulllock.standalone_cln_lock spec rng in
      check bool_t "verify" true (Locked.verify l))
    [ Cln.blocking_spec ~n:8; Cln.default_spec ~n:8; Cln.default_spec ~n:4 ]

let test_parse_plr_sizes () =
  check (Alcotest.list int_t) "2x16 + 1x8" [ 16; 16; 8 ]
    (Fulllock.parse_plr_sizes "2x16 + 1x8");
  check (Alcotest.list int_t) "32" [ 32 ] (Fulllock.parse_plr_sizes "32");
  check (Alcotest.list int_t) "3x16" [ 16; 16; 16 ] (Fulllock.parse_plr_sizes "3x16")

let test_fulllock_on_c17 () =
  (* c17 is tiny; a 2-wire PLR still fits and must verify exhaustively. *)
  let c = Bench_suite.c17 () in
  let rng = Random.State.make [| 31 |] in
  let config = Fulllock.default_config ~n:2 in
  let l = Fulllock.lock rng ~configs:[ config ] c in
  check bool_t "verify (exhaustive)" true (Locked.verify l)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_case ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_fulllock_always_verifies =
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (int_range 0 1)) in
  qcheck_case "full-lock correct key always verifies" gen (fun (seed, n_exp) ->
      let n = 4 lsl n_exp in
      let c = host ~seed ~gates:(120 + (seed mod 60)) ~inputs:12 () in
      let rng = Random.State.make [| seed; 99 |] in
      let l = Fulllock.lock_one rng ~n c in
      Locked.verify l)

let prop_fulllock_cyclic_verifies =
  let gen = QCheck2.Gen.int_bound 10_000 in
  qcheck_case ~count:25 "cyclic full-lock verifies via fixpoint" gen (fun seed ->
      let c = host ~seed:(seed + 7) ~gates:90 () in
      let rng = Random.State.make [| seed; 3 |] in
      let l = Fulllock.lock_one rng ~policy:`Cyclic ~n:4 c in
      Locked.verify l)

let prop_baselines_verify =
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (int_range 0 6)) in
  qcheck_case "baselines verify" gen (fun (seed, which) ->
      let c = host ~seed:(seed + 13) () in
      let rng = Random.State.make [| seed |] in
      let _, lock = List.nth scheme_cases which in
      Locked.verify (lock rng c))

(* Every scheme [fulllock lock] offers, with its command-line defaults
   (16 key bits, one 1x8 PLR). *)
let cli_schemes =
  let key_bits = 16 in
  let full_lock policy rng c =
    Fulllock.lock rng ~policy ~configs:[ Fulllock.default_config ~n:8 ] c
  in
  [|
    full_lock `Acyclic;
    full_lock `Cyclic;
    (fun rng c -> Fl_locking.Rll.lock rng ~key_bits c);
    (fun rng c -> Fl_locking.Mux_lock.lock rng ~key_bits c);
    (fun rng c -> Fl_locking.Sarlock.lock rng ~key_bits c);
    (fun rng c -> Fl_locking.Antisat.lock rng ~key_bits c);
    (fun rng c -> Fl_locking.Lut_lock.lock rng ~gates:(key_bits / 4) c);
    (fun rng c -> Fl_locking.Cross_lock.lock rng ~n:key_bits c);
    (fun rng c -> Fl_locking.Sfll.lock rng ~key_bits ~h:(key_bits / 8) c);
    (fun rng c -> Fl_locking.Cyclic_lock.lock rng ~cycles:key_bits c);
  |]

let prop_locked_netlist_parses_back =
  (* A locked netlist written as .bench parses back to the same function:
     same key width, and the same outputs (defined lanes and their values)
     on random input and key words.  Hosts come as the command line makes
     them, written and parsed once before locking: suite hosts, whose
     output ports are BUFs named like the port, and generated ones. *)
  let module Bench_io = Fl_netlist.Bench_io in
  let module View = Fl_netlist.View in
  let suite = [| "c432"; "c499"; "c880"; "c1355" |] in
  qcheck_case ~count:60 "locked netlist parses back"
    QCheck2.Gen.(
      triple (int_bound 10_000) (int_bound (Array.length cli_schemes - 1)) bool)
    (fun (seed, scheme, from_suite) ->
      let raw =
        if from_suite then Bench_suite.load suite.(seed mod Array.length suite)
        else
          Generator.random ~seed ~name:"gen"
            { Generator.num_inputs = 12; num_outputs = 6; num_gates = 100;
              max_fanin = 3; and_bias = 0.7 }
      in
      let c = Bench_io.parse_string ~name:"host" (Bench_io.to_string raw) in
      let rng = Random.State.make [| seed |] in
      match cli_schemes.(scheme) rng c with
      | exception Invalid_argument _ -> QCheck2.assume_fail ()
      | l ->
        let locked = l.Locked.locked in
        let back = Bench_io.parse_string ~name:"back" (Bench_io.to_string locked) in
        let inputs = View.random_words rng ~width:(Circuit.num_inputs locked) in
        let keys = View.random_words rng ~width:(Circuit.num_keys locked) in
        let eval c = View.eval_words (View.of_circuit c) ~inputs ~keys in
        Circuit.num_keys back = Circuit.num_keys locked
        && Array.for_all2
             (fun (a : View.word) (b : View.word) ->
               a.defined = b.defined
               && a.value land a.defined = b.value land b.defined)
             (eval locked) (eval back))

(* ------------------------------------------------------------------ *)
(* Golden locks: fixed (host, scheme, seed) triples must keep giving the
   same netlist (its .bench text, so ids, names and fanins) and the same
   correct key.  The digests were recorded before wire selection, the
   rewiring pass and the parser were rewritten for linear time.        *)
(* ------------------------------------------------------------------ *)

let golden_cases =
  let full_lock policy plrs n rng c =
    Fulllock.lock rng ~policy
      ~configs:(List.init plrs (fun _ -> Fulllock.default_config ~n)) c
  in
  [
    "full-lock acyclic 1x32", "c1908", full_lock `Acyclic 1 32,
      "2ddd8fa29dfb1dd591c385dca0e3a330";
    "full-lock cyclic 2x4", "c432", full_lock `Cyclic 2 4,
      "184cf500980f98354d640aeb4041f9ae";
    "sarlock", "c432", (fun rng c -> Fl_locking.Sarlock.lock rng ~key_bits:16 c),
      "1175dc169601040740096a0b373c14e0";
    "anti-sat", "c432", (fun rng c -> Fl_locking.Antisat.lock rng ~key_bits:16 c),
      "982325d7e2084c41dfb5284894386adb";
    "rll", "c880", (fun rng c -> Fl_locking.Rll.lock rng ~key_bits:16 c),
      "574be4f0ff320575deb3f7b5e5a51fc9";
    "mux", "c880", (fun rng c -> Fl_locking.Mux_lock.lock rng ~key_bits:16 c),
      "c6ffdad9e70c3bcd8eda144164321d37";
    "cross", "c880", (fun rng c -> Fl_locking.Cross_lock.lock rng ~n:16 c),
      "9327bbdf1b55b095775bb10b323a0c13";
    "lut", "c880", (fun rng c -> Fl_locking.Lut_lock.lock rng ~gates:4 c),
      "a24b7ed900b70599232a62e64bfe3cfa";
    "sfll", "c432", (fun rng c -> Fl_locking.Sfll.lock rng ~key_bits:16 ~h:2 c),
      "541a54e33dbd7c749f617132ec21d5a6";
    "cyclic", "c880", (fun rng c -> Fl_locking.Cyclic_lock.lock rng ~cycles:16 c),
      "cbacb00337cf9fbfe4954eb873112727";
  ]

let lock_digest (l : Locked.t) =
  let key = String.init (Array.length l.Locked.correct_key) (fun i ->
      if l.Locked.correct_key.(i) then '1' else '0')
  in
  Digest.to_hex (Digest.string (Fl_netlist.Bench_io.to_string l.Locked.locked ^ key))

let golden_tests =
  List.map
    (fun (name, host, lock, digest) ->
      Alcotest.test_case name `Quick (fun () ->
          let l = lock (Random.State.make [| 7 |]) (Bench_suite.load host) in
          Alcotest.(check string) (name ^ " on " ^ host) digest (lock_digest l)))
    golden_cases

let prop_select_wires_matches_reference =
  (* The reach-mark selection against the pairwise reference, for every
     policy, on acyclic hosts and on cyclic ones (a host after cyclic
     locking): the same wires from the same random draws, or the same
     Invalid_argument. *)
  let policies = [| `Any; `Independent; `Connected |] in
  let gen =
    QCheck2.Gen.(
      quad (int_bound 10_000) (int_bound 2) bool
        (oneof [ int_range 0 10; int_range 0 40 ]))
  in
  qcheck_case ~count:300 "select_wires = pairwise reference" gen
    (fun (seed, policy, cyclic, count) ->
      let policy = policies.(policy) in
      let c = host ~seed ~gates:(10 + (seed mod 90)) ~inputs:(2 + (seed mod 9)) () in
      let c =
        if cyclic then
          let l = Fl_locking.Cyclic_lock.lock (Random.State.make [| seed |]) ~cycles:3 c in
          l.Locked.locked
        else c
      in
      let run select =
        match select c (Random.State.make [| seed; 1 |]) ~count ~policy with
        | wires -> Ok wires
        | exception Invalid_argument m -> Error m
      in
      run Fl_locking.Insertion_util.select_wires = run Test_support.reference_select_wires)

let () =
  Alcotest.run "locking"
    [
      ( "baselines",
        [
          Alcotest.test_case "verify" `Quick test_schemes_verify;
          Alcotest.test_case "shape" `Quick test_schemes_locked_is_keyed_superset;
          Alcotest.test_case "wrong key" `Quick test_wrong_key_detected;
          Alcotest.test_case "sarlock low corruption" `Quick test_sarlock_low_corruption;
          Alcotest.test_case "sfll-hd" `Quick test_sfll_hd_properties;
          Alcotest.test_case "sfll bad h" `Quick test_sfll_rejects_bad_h;
          Alcotest.test_case "cyclic lock cycles" `Quick test_cyclic_lock_creates_cycles;
          Alcotest.test_case "cyclic lock wrong key" `Quick test_cyclic_lock_wrong_key_oscillates_or_corrupts;
          Alcotest.test_case "antisat key family" `Quick test_antisat_correct_key_family;
          Alcotest.test_case "crosslock acyclic" `Quick test_crosslock_acyclic;
          Alcotest.test_case "mux-lock acyclic" `Quick test_mux_lock_acyclic;
          Alcotest.test_case "lutlock key budget" `Quick test_lutlock_key_budget;
        ] );
      ( "fulllock",
        [
          Alcotest.test_case "verify acyclic" `Quick test_fulllock_verify_acyclic;
          Alcotest.test_case "verify n=8" `Quick test_fulllock_verify_n8;
          Alcotest.test_case "multi PLR" `Quick test_fulllock_multi_plr;
          Alcotest.test_case "cyclic policy" `Quick test_fulllock_cyclic_policy;
          Alcotest.test_case "cyclic creates cycles" `Quick test_fulllock_cyclic_creates_cycles;
          Alcotest.test_case "acyclic stays acyclic" `Quick test_fulllock_acyclic_never_cycles;
          Alcotest.test_case "wrong key" `Quick test_fulllock_wrong_key;
          Alcotest.test_case "high corruption" `Quick test_fulllock_high_corruption;
          Alcotest.test_case "no luts/twist" `Quick test_fulllock_without_luts_or_twist;
          Alcotest.test_case "negate needs inverters" `Quick test_fulllock_negate_requires_inverters;
          Alcotest.test_case "blocking variant" `Quick test_fulllock_blocking_variant;
          Alcotest.test_case "per-stage inverters" `Quick test_fulllock_per_stage_inverters;
          Alcotest.test_case "multi-plane cln" `Quick test_fulllock_multi_plane_cln;
          Alcotest.test_case "standalone cln" `Quick test_standalone_cln_lock;
          Alcotest.test_case "parse plr sizes" `Quick test_parse_plr_sizes;
          Alcotest.test_case "c17" `Quick test_fulllock_on_c17;
        ] );
      ( "properties",
        [
          prop_fulllock_always_verifies;
          prop_fulllock_cyclic_verifies;
          prop_baselines_verify;
          prop_locked_netlist_parses_back;
          prop_select_wires_matches_reference;
        ] );
      "golden", golden_tests;
    ]
