(* Tests for the tooling layer: Opt (netlist clean-up + key hardwiring),
   Equiv (SAT equivalence), the word-parallel View evaluator, stuck-at fault
   simulation (Faults) cross-checked against SAT ATPG (Atpg), Verilog I/O. *)

module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Opt = Fl_netlist.Opt
module Verilog = Fl_netlist.Verilog
module Generator = Fl_netlist.Generator
module Bench_suite = Fl_netlist.Bench_suite
module Equiv = Fl_sat.Equiv
module Atpg = Fl_sat.Atpg
module Faults = Fl_netlist.Faults
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let host ?(seed = 31) ?(gates = 90) () =
  Generator.random ~seed ~name:"host"
    { Generator.num_inputs = 9; num_outputs = 4; num_gates = gates;
      max_fanin = 3; and_bias = 0.75 }

(* ------------------------------------------------------------------ *)
(* Opt                                                                 *)
(* ------------------------------------------------------------------ *)

let test_opt_preserves_function () =
  let c = host () in
  let optimized, _ = Opt.run c in
  Circuit.validate optimized;
  check bool_t "equivalent" true
    (Test_support.equivalent c optimized)

let test_opt_folds_constants () =
  (* y = (a AND 0) OR (b AND 1) must fold to y = b. *)
  let b = Circuit.Builder.create ~name:"fold" () in
  let a = Circuit.Builder.input ~name:"a" b in
  let b_in = Circuit.Builder.input ~name:"b" b in
  let zero = Circuit.Builder.add b (Gate.Const false) [||] in
  let one = Circuit.Builder.add b (Gate.Const true) [||] in
  let g1 = Circuit.Builder.add b Gate.And [| a; zero |] in
  let g2 = Circuit.Builder.add b Gate.And [| b_in; one |] in
  let g3 = Circuit.Builder.add b Gate.Or [| g1; g2 |] in
  Circuit.Builder.output b "y" g3;
  let c = Circuit.of_builder b in
  let optimized, stats = Opt.run c in
  check int_t "no gates left" 0 (Circuit.num_gates optimized);
  check bool_t "constants folded" true (stats.Opt.constants_folded >= 1);
  check bool_t "function kept" true
    (Test_support.equivalent c optimized)

let test_opt_collapses_buffers () =
  let b = Circuit.Builder.create ~name:"bufs" () in
  let a = Circuit.Builder.input ~name:"a" b in
  let b1 = Circuit.Builder.add b Gate.Buf [| a |] in
  let b2 = Circuit.Builder.add b Gate.Buf [| b1 |] in
  let b3 = Circuit.Builder.add b Gate.Buf [| b2 |] in
  let g = Circuit.Builder.add b Gate.Not [| b3 |] in
  Circuit.Builder.output b "y" g;
  let c = Circuit.of_builder b in
  let optimized, _ = Opt.run c in
  check int_t "only the NOT left" 1 (Circuit.num_gates optimized)

let test_opt_simplifies_xor_pairs () =
  (* XOR(a, a, b) = b *)
  let b = Circuit.Builder.create ~name:"xp" () in
  let a = Circuit.Builder.input ~name:"a" b in
  let b_in = Circuit.Builder.input ~name:"b" b in
  let g = Circuit.Builder.add b Gate.Xor [| a; a; b_in |] in
  Circuit.Builder.output b "y" g;
  let c = Circuit.of_builder b in
  let optimized, _ = Opt.run c in
  check int_t "gone" 0 (Circuit.num_gates optimized);
  check bool_t "function kept" true
    (Test_support.equivalent c optimized)

let test_opt_mux_rules () =
  (* Mux(s, x, x) = x and Mux(s, 0, 1) = s. *)
  let b = Circuit.Builder.create ~name:"mux" () in
  let s = Circuit.Builder.input ~name:"s" b in
  let x = Circuit.Builder.input ~name:"x" b in
  let zero = Circuit.Builder.add b (Gate.Const false) [||] in
  let one = Circuit.Builder.add b (Gate.Const true) [||] in
  let m1 = Circuit.Builder.add b Gate.Mux [| s; x; x |] in
  let m2 = Circuit.Builder.add b Gate.Mux [| s; zero; one |] in
  Circuit.Builder.output b "y1" m1;
  Circuit.Builder.output b "y2" m2;
  let c = Circuit.of_builder b in
  let optimized, _ = Opt.run c in
  check int_t "all muxes gone" 0 (Circuit.num_gates optimized);
  check bool_t "function kept" true
    (Test_support.equivalent c optimized)

let test_opt_structural_hashing () =
  (* Two identical AND gates collapse into one. *)
  let b = Circuit.Builder.create ~name:"cse" () in
  let x = Circuit.Builder.input ~name:"x" b in
  let y = Circuit.Builder.input ~name:"y" b in
  let g1 = Circuit.Builder.add b Gate.And [| x; y |] in
  let g2 = Circuit.Builder.add b Gate.And [| y; x |] in
  (* commutative: same signature *)
  let g3 = Circuit.Builder.add b Gate.Xor [| g1; g2 |] in
  Circuit.Builder.output b "z" g3;
  let c = Circuit.of_builder b in
  let optimized, _ = Opt.run c in
  (* XOR(g, g) = 0 -> whole circuit folds to a constant. *)
  check int_t "all gates folded" 0 (Circuit.num_gates optimized);
  check bool_t "function kept" true
    (Test_support.equivalent c optimized)

let test_hardwire_recovers_oracle () =
  (* Activating a Full-Lock'd netlist with the correct key and sweeping must
     give back the oracle's function — and fold away most of the lock. *)
  let c = host () in
  let rng = Random.State.make [| 3 |] in
  let locked = Fulllock.lock_one rng ~n:4 c in
  let activated = Opt.hardwire_keys locked.Locked.locked locked.Locked.correct_key in
  check int_t "no keys left" 0 (Circuit.num_keys activated);
  let swept, stats = Opt.run activated in
  check bool_t "equivalent to oracle" true
    (Test_support.equivalent swept c);
  check bool_t "lock mostly folded away" true
    (Circuit.num_gates swept < Circuit.num_gates locked.Locked.locked);
  check bool_t "did real work" true
    (stats.Opt.constants_folded + stats.Opt.buffers_collapsed
     + stats.Opt.gates_simplified
     > 0)

let test_hardwire_wrong_key_differs () =
  let c = host () in
  let rng = Random.State.make [| 4 |] in
  let locked = Fulllock.lock_one rng ~n:4 c in
  let wrong = Array.map not locked.Locked.correct_key in
  let activated, _ = Opt.run (Opt.hardwire_keys locked.Locked.locked wrong) in
  check bool_t "differs from oracle" false
    (Test_support.equivalent activated c)

(* ------------------------------------------------------------------ *)
(* Equiv                                                               *)
(* ------------------------------------------------------------------ *)

let test_equiv_reflexive () =
  let c = host () in
  check bool_t "c = c" true (Equiv.check c c = Equiv.Equivalent)

let test_equiv_finds_difference () =
  let c = host () in
  let b = Circuit.Builder.create ~name:"mut" () in
  let map = Circuit.copy_nodes_into b c in
  (* Negate the driver of output 0. *)
  let _, out0 = c.Circuit.outputs.(0) in
  let inv = Circuit.Builder.add b Gate.Not [| map.(out0) |] in
  Array.iteri
    (fun i (port, id) ->
      Circuit.Builder.output b port (if i = 0 then inv else map.(id)))
    c.Circuit.outputs;
  let mutated = Circuit.of_builder b in
  match Equiv.check c mutated with
  | Equiv.Different { inputs; outputs_a; outputs_b } ->
    check bool_t "counterexample is real" true
      (View.eval (View.of_circuit c) ~inputs ~keys:[||] = outputs_a
       && View.eval (View.of_circuit mutated) ~inputs ~keys:[||] = outputs_b
       && outputs_a <> outputs_b)
  | Equiv.Equivalent | Equiv.Unknown -> Alcotest.fail "expected Different"

let test_equiv_agrees_with_opt () =
  (* Optimised circuits are formally equivalent to their originals. *)
  for seed = 0 to 5 do
    let c = host ~seed () in
    let optimized, _ = Opt.run c in
    check bool_t
      (Printf.sprintf "seed %d" seed)
      true
      (Equiv.check c optimized = Equiv.Equivalent)
  done

let test_equiv_check_key () =
  let c = host () in
  let rng = Random.State.make [| 5 |] in
  let locked = Fl_locking.Rll.lock rng ~key_bits:6 c in
  check bool_t "correct key proves" true
    (Equiv.check_key ~locked:locked.Locked.locked ~oracle:c locked.Locked.correct_key
     = Equiv.Equivalent);
  let wrong = Array.map not locked.Locked.correct_key in
  (match Equiv.check_key ~locked:locked.Locked.locked ~oracle:c wrong with
   | Equiv.Different _ -> ()
   | Equiv.Equivalent | Equiv.Unknown -> Alcotest.fail "wrong key not caught")

let test_equiv_rejects_cyclic () =
  let c = host ~gates:100 () in
  let rng = Random.State.make [| 23 |] in
  let rec find_cyclic s =
    if s > 40 then None
    else begin
      let rng2 = Random.State.make [| s |] in
      let l = Fulllock.lock_one rng2 ~policy:`Cyclic ~n:4 c in
      if Circuit.is_acyclic l.Locked.locked then find_cyclic (s + 1) else Some l
    end
  in
  ignore rng;
  match find_cyclic 0 with
  | None -> ()
  | Some l ->
    (try
       ignore (Equiv.check_key ~locked:l.Locked.locked ~oracle:c l.Locked.correct_key);
       Alcotest.fail "expected Invalid_argument for cyclic circuit"
     with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Word-parallel evaluation                                           *)
(* ------------------------------------------------------------------ *)

let test_word_matches_scalar () =
  let c = host () in
  let rng = Random.State.make [| 6 |] in
  let vectors =
    List.init View.lanes (fun _ -> View.random_vector rng (Circuit.num_inputs c))
  in
  let packed = View.pack vectors in
  let word_out = View.eval_packed (View.of_circuit c) ~inputs:packed ~keys:[||] in
  let unpacked = Test_support.unpack ~lanes_used:(List.length vectors) word_out in
  List.iteri
    (fun lane v ->
      let expected = View.eval (View.of_circuit c) ~inputs:v ~keys:[||] in
      check (Alcotest.array bool_t)
        (Printf.sprintf "lane %d" lane)
        expected (List.nth unpacked lane))
    vectors

let test_word_cyclic_matches_scalar () =
  let c = host ~gates:100 () in
  let rng = Random.State.make [| 7 |] in
  let locked =
    let rec go s =
      let l = Fulllock.lock_one (Random.State.make [| s |]) ~policy:`Cyclic ~n:4 c in
      if Circuit.is_acyclic l.Locked.locked then go (s + 1) else l
    in
    go 0
  in
  let lc = locked.Locked.locked in
  let key = locked.Locked.correct_key in
  let vectors = List.init 16 (fun _ -> View.random_vector rng (Circuit.num_inputs lc)) in
  let packed = View.pack vectors in
  let packed_keys = Array.map (fun b -> if b then -1 else 0) key in
  let word_out = View.eval_packed (View.of_circuit lc) ~inputs:packed ~keys:packed_keys in
  let unpacked = Test_support.unpack ~lanes_used:16 word_out in
  List.iteri
    (fun lane v ->
      let expected = View.eval (View.of_circuit lc) ~inputs:v ~keys:key in
      check (Alcotest.array bool_t)
        (Printf.sprintf "cyclic lane %d" lane)
        expected (List.nth unpacked lane))
    vectors

let test_word_unresolved () =
  (* y = NOT y: every lane undefined. *)
  let b = Circuit.Builder.create ~name:"osc" () in
  let _x = Circuit.Builder.input ~name:"x" b in
  let inv = Circuit.Builder.declare ~name:"inv" b Gate.Not in
  Circuit.Builder.set_fanins b inv [| inv |];
  Circuit.Builder.output b "y" inv;
  let c = Circuit.of_builder b in
  (try
     ignore (View.eval_packed (View.of_circuit c) ~inputs:[| 0 |] ~keys:[||]);
     Alcotest.fail "expected Unresolved"
   with View.Unresolved _ -> ());
  let tri = View.eval_words (View.of_circuit c) ~inputs:[| 0 |] ~keys:[||] in
  check int_t "all lanes undefined" 0 tri.(0).View.defined

let test_word_count_diff () =
  check int_t "no diff" 0 (Test_support.count_diff_lanes [| 5; 3 |] [| 5; 3 |]);
  check int_t "two lanes" 2 (Test_support.count_diff_lanes [| 0b101 |] [| 0b000 |]);
  check int_t "across words" 2 (Test_support.count_diff_lanes [| 1; 2 |] [| 0; 0 |])

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)
(* ------------------------------------------------------------------ *)

let test_faults_enumerate () =
  let c = Bench_suite.c17 () in
  (* 5 inputs + 6 gates, 2 faults each *)
  check int_t "fault count" 22 (List.length (Faults.enumerate c))

let test_faults_xor_detects_everything () =
  (* y = a XOR b: every single stuck-at fault is detectable, and the
     exhaustive test set detects them all. *)
  let b = Circuit.Builder.create ~name:"x" () in
  let a = Circuit.Builder.input ~name:"a" b in
  let b_in = Circuit.Builder.input ~name:"b" b in
  let g = Circuit.Builder.add b Gate.Xor [| a; b_in |] in
  Circuit.Builder.output b "y" g;
  let c = Circuit.of_builder b in
  let vectors = List.init 4 (fun v -> Test_support.vector_of_int ~width:2 v) in
  let cov = Faults.coverage c ~keys:[||] ~vectors in
  check int_t "all detected" cov.Faults.total cov.Faults.detected

let test_faults_undetectable_redundant () =
  (* y = a OR (a AND b): the AND gate is redundant logic; its stuck-at-0
     fault is undetectable by any vector. *)
  let b = Circuit.Builder.create ~name:"red" () in
  let a = Circuit.Builder.input ~name:"a" b in
  let b_in = Circuit.Builder.input ~name:"b" b in
  let g_and = Circuit.Builder.add ~name:"g_and" b Gate.And [| a; b_in |] in
  let g_or = Circuit.Builder.add b Gate.Or [| a; g_and |] in
  Circuit.Builder.output b "y" g_or;
  let c = Circuit.of_builder b in
  let vectors = List.init 4 (fun v -> Test_support.vector_of_int ~width:2 v) in
  let cov = Faults.coverage c ~keys:[||] ~vectors in
  let gid = Option.get (Circuit.find_by_name c "g_and") in
  check bool_t "and s-a-0 undetectable" true
    (List.exists
       (fun f -> f.Faults.node = gid && f.Faults.stuck_at = false)
       cov.Faults.undetected)

let test_faults_coverage_c17 () =
  let c = Bench_suite.c17 () in
  let vectors = List.init 32 (fun v -> Test_support.vector_of_int ~width:5 v) in
  let cov = Faults.coverage c ~keys:[||] ~vectors in
  (* c17 is fully testable: exhaustive vectors detect every fault. *)
  check int_t "full coverage" cov.Faults.total cov.Faults.detected

let test_faults_short_batch () =
  (* One vector fills one lane; the other lanes must not add vectors (such
     as all-zero) that the test set does not hold. *)
  let c = Bench_suite.c17 () in
  let v = [| true; false; true; true; false |] in
  let cov = Faults.coverage c ~keys:[||] ~vectors:[ v ] in
  let expected =
    List.filter
      (fun f -> Faults.detects c ~keys:[||] ~inputs:(View.broadcast v) f)
      (Faults.enumerate c)
  in
  check int_t "detected by the one vector" (List.length expected) cov.Faults.detected

let test_faults_locking_reduces_testability () =
  (* The locked netlist contains MUX fabric where deselected paths are
     unobservable under the activation key: the same random test set covers
     a smaller fraction of its faults than of the original's. *)
  let c = host () in
  let rng = Random.State.make [| 91 |] in
  let locked = Fulllock.lock_one rng ~n:4 c in
  let lc = locked.Locked.locked in
  let vectors =
    List.init 128 (fun i ->
        View.random_vector (Random.State.make [| i |]) (Circuit.num_inputs lc))
  in
  let orig_cov = Faults.coverage c ~keys:[||] ~vectors in
  let locked_cov = Faults.coverage lc ~keys:locked.Locked.correct_key ~vectors in
  check bool_t
    (Printf.sprintf "original %.2f > locked %.2f"
       (Faults.coverage_fraction orig_cov)
       (Faults.coverage_fraction locked_cov))
    true
    (Faults.coverage_fraction orig_cov > Faults.coverage_fraction locked_cov);
  check bool_t "locked still has undetectable lock faults" true
    (List.length locked_cov.Faults.undetected > List.length orig_cov.Faults.undetected)

(* ------------------------------------------------------------------ *)
(* ATPG                                                                *)
(* ------------------------------------------------------------------ *)

let test_atpg_generates_tests () =
  (* Every fault of c17 is testable; generated vectors must actually detect
     their faults (cross-checked against the fault simulator). *)
  let c = Bench_suite.c17 () in
  List.iter
    (fun fault ->
      match Atpg.generate c ~keys:[||] ~node:fault.Faults.node
              ~stuck_at:fault.Faults.stuck_at with
      | Atpg.Test v ->
        let packed = View.pack [ v ] in
        check bool_t "vector detects its fault" true
          (Faults.detects c ~keys:[||] ~inputs:packed fault)
      | Atpg.Untestable -> Alcotest.fail "c17 fault reported untestable"
      | Atpg.Unknown -> Alcotest.fail "budget too small")
    (Faults.enumerate c)

let test_atpg_proves_redundancy () =
  (* y = a OR (a AND b): the AND's stuck-at-0 is provably untestable. *)
  let b = Circuit.Builder.create ~name:"red" () in
  let a = Circuit.Builder.input ~name:"a" b in
  let b_in = Circuit.Builder.input ~name:"b" b in
  let g_and = Circuit.Builder.add ~name:"g_and" b Gate.And [| a; b_in |] in
  let g_or = Circuit.Builder.add b Gate.Or [| a; g_and |] in
  Circuit.Builder.output b "y" g_or;
  let c = Circuit.of_builder b in
  let gid = Option.get (Circuit.find_by_name c "g_and") in
  check bool_t "untestable proved" true
    (Atpg.generate c ~keys:[||] ~node:gid ~stuck_at:false = Atpg.Untestable);
  check bool_t "s-a-1 testable" true
    (match Atpg.generate c ~keys:[||] ~node:gid ~stuck_at:true with
     | Atpg.Test _ -> true
     | Atpg.Untestable | Atpg.Unknown -> false)

let test_atpg_cover_c17 () =
  let c = Bench_suite.c17 () in
  let faults =
    List.map (fun f -> f.Faults.node, f.Faults.stuck_at) (Faults.enumerate c)
  in
  let r = Atpg.cover c ~keys:[||] ~faults in
  check int_t "all testable" (List.length faults) r.Atpg.testable;
  check int_t "no unknowns" 0 r.Atpg.unknown;
  (* The resulting compact test set achieves full fault coverage. *)
  let cov = Faults.coverage c ~keys:[||] ~vectors:r.Atpg.tests in
  check int_t "full coverage" cov.Faults.total cov.Faults.detected

let test_atpg_cover_locked () =
  (* Production-test flow for an activated locked part: ATPG closes the gap
     left by random vectors and proves the rest redundant. *)
  let c = host ~gates:60 () in
  let rng = Random.State.make [| 92 |] in
  let locked = Fulllock.lock_one rng ~n:4 c in
  let lc = locked.Locked.locked in
  let keys = locked.Locked.correct_key in
  let faults =
    List.map (fun f -> f.Faults.node, f.Faults.stuck_at) (Faults.enumerate lc)
  in
  let r = Atpg.cover ~budget_per_fault:10.0 lc ~keys ~faults in
  check int_t "no unknowns" 0 r.Atpg.unknown;
  check bool_t "lock logic contains redundancy" true (r.Atpg.untestable > 0);
  let cov = Faults.coverage lc ~keys ~vectors:r.Atpg.tests in
  check int_t "testable faults all covered"
    r.Atpg.testable cov.Faults.detected

(* ------------------------------------------------------------------ *)
(* Verilog                                                             *)
(* ------------------------------------------------------------------ *)

let test_verilog_roundtrip_simple () =
  let c = Bench_suite.c17 () in
  let text = Verilog.to_string c in
  let c2 = Verilog.parse_string text in
  check bool_t "roundtrip equivalent" true
    (Test_support.equivalent c c2)

let test_verilog_roundtrip_locked () =
  (* Locked netlists have MUXes, XOR inverters, constants and key inputs —
     the whole Verilog surface. *)
  let c = host () in
  let rng = Random.State.make [| 8 |] in
  let locked = Fulllock.lock_one rng ~n:4 c in
  let lc = locked.Locked.locked in
  let c2 = Verilog.parse_string (Verilog.to_string lc) in
  check int_t "keys preserved" (Circuit.num_keys lc) (Circuit.num_keys c2);
  check bool_t "roundtrip equivalent" true
    (Test_support.equivalent ~keys:locked.Locked.correct_key lc c2)

let test_verilog_parses_handwritten () =
  let text =
    "module adder_bit (a, b, cin, sum, cout);\n\
    \  input a, b, cin;\n\
    \  output sum, cout;\n\
    \  wire t;\n\
    \  assign t = a ^ b;\n\
    \  assign sum = t ^ cin;\n\
    \  assign cout = (a & b) | (t & cin);\n\
     endmodule\n"
  in
  let c = Verilog.parse_string text in
  Circuit.validate c;
  check int_t "inputs" 3 (Circuit.num_inputs c);
  check int_t "outputs" 2 (Circuit.num_outputs c);
  (* Full adder truth check. *)
  for v = 0 to 7 do
    let inputs = Test_support.vector_of_int ~width:3 v in
    let out = View.eval (View.of_circuit c) ~inputs ~keys:[||] in
    let a = inputs.(0) and b = inputs.(1) and cin = inputs.(2) in
    let sum = a <> b <> cin in
    let cout = (a && b) || ((a <> b) && cin) in
    check (Alcotest.array bool_t) (Printf.sprintf "v=%d" v) [| sum; cout |] out
  done

let test_verilog_mux_ternary () =
  let text =
    "module m (s, a, b, y);\n  input s, a, b;\n  output y;\n\
    \  assign y = s ? a : b;\nendmodule\n"
  in
  let c = Verilog.parse_string text in
  (* s=1 -> a *)
  check (Alcotest.array bool_t) "s=1" [| true |]
    (View.eval (View.of_circuit c) ~inputs:[| true; true; false |] ~keys:[||]);
  check (Alcotest.array bool_t) "s=0" [| false |]
    (View.eval (View.of_circuit c) ~inputs:[| false; true; false |] ~keys:[||])

let test_verilog_keyinput_convention () =
  let text =
    "module m (a, keyinput0, y);\n  input a, keyinput0;\n  output y;\n\
    \  xor g0 (y, a, keyinput0);\nendmodule\n"
  in
  let c = Verilog.parse_string text in
  check int_t "one key" 1 (Circuit.num_keys c);
  check int_t "one input" 1 (Circuit.num_inputs c)

let test_verilog_errors () =
  List.iter
    (fun text ->
      try
        ignore (Verilog.parse_string text);
        Alcotest.failf "expected parse error for %S" text
      with Verilog.Parse_error _ -> ())
    [
      "module m (a);\n  input a;\nendmodule extra\n" |> String.map (fun c -> c);
      "module m (a, y); input a; output y; assign y = a +\nendmodule\n";
      "module m (a, y); input a; output y; frobnicate g (y, a);\nendmodule\n";
      "module m (a, y); input a; output y; assign y = undriven_wire; endmodule\n";
      "no module here\n";
    ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_case ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_opt_equivalent =
  let gen = QCheck2.Gen.int_bound 5000 in
  qcheck_case "opt preserves function" gen (fun seed ->
      let c = host ~seed ~gates:(50 + (seed mod 70)) () in
      let optimized, _ = Opt.run c in
      Equiv.check c optimized = Equiv.Equivalent)

let prop_word_sim_matches =
  let gen = QCheck2.Gen.(pair (int_bound 5000) (int_bound 10000)) in
  qcheck_case "word sim = scalar sim" gen (fun (seed, vseed) ->
      let c = host ~seed () in
      let rng = Random.State.make [| vseed |] in
      let vectors = List.init 8 (fun _ -> View.random_vector rng (Circuit.num_inputs c)) in
      let out = View.eval_packed (View.of_circuit c) ~inputs:(View.pack vectors) ~keys:[||] in
      let unpacked = Test_support.unpack ~lanes_used:8 out in
      List.for_all2
        (fun v got -> View.eval (View.of_circuit c) ~inputs:v ~keys:[||] = got)
        vectors unpacked)

let prop_verilog_roundtrip =
  let gen = QCheck2.Gen.int_bound 5000 in
  qcheck_case ~count:30 "verilog roundtrip" gen (fun seed ->
      let c = host ~seed () in
      let c2 = Verilog.parse_string (Verilog.to_string c) in
      Equiv.check c c2 = Equiv.Equivalent)

let prop_verilog_parser_total =
  let gen =
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 9 122)) (int_range 0 200))
  in
  qcheck_case ~count:300 "verilog parser is total" gen (fun text ->
      match Verilog.parse_string ("module m (a);\n" ^ text ^ "\nendmodule") with
      | _ -> true
      | exception Verilog.Parse_error _ -> true
      | exception Invalid_argument _ -> true)

let prop_hardwire_correct_key =
  let gen = QCheck2.Gen.int_bound 5000 in
  qcheck_case ~count:20 "hardwired correct key = oracle" gen (fun seed ->
      let c = host ~seed:(seed + 3) () in
      let rng = Random.State.make [| seed |] in
      let locked = Fulllock.lock_one rng ~n:4 c in
      let activated, _ =
        Opt.run (Opt.hardwire_keys locked.Locked.locked locked.Locked.correct_key)
      in
      Equiv.check activated c = Equiv.Equivalent)

(* The SAT engine (Atpg) and the simulation engine (Faults) share one fault
   model, Faults.inject; these properties check that they agree. *)

let some_faults rng c k =
  let faults = Array.of_list (Faults.enumerate c) in
  List.init k (fun _ -> faults.(Random.State.int rng (Array.length faults)))

let prop_atpg_agrees_with_fault_sim =
  let gen = QCheck2.Gen.int_bound 5000 in
  qcheck_case ~count:30 "atpg verdicts = fault sim" gen (fun seed ->
      let c =
        Generator.random ~seed ~name:"atpg-prop"
          { Generator.num_inputs = 2 + (seed mod 7); num_outputs = 1 + (seed mod 3);
            num_gates = 10 + (seed mod 40); max_fanin = 2 + (seed mod 3);
            and_bias = 0.7 }
      in
      let n = Circuit.num_inputs c in
      let exhaustive =
        Faults.batches (List.init (1 lsl n) (Test_support.vector_of_int ~width:n))
      in
      List.for_all
        (fun fault ->
          match
            Atpg.generate c ~keys:[||] ~node:fault.Faults.node
              ~stuck_at:fault.Faults.stuck_at
          with
          | Atpg.Test v ->
            Faults.detects c ~keys:[||] ~inputs:(View.broadcast v) fault
          | Atpg.Untestable ->
            not
              (List.exists
                 (fun inputs -> Faults.detects c ~keys:[||] ~inputs fault)
                 exhaustive)
          | Atpg.Unknown -> QCheck2.Test.fail_report "unbudgeted ATPG gave up")
        (some_faults (Random.State.make [| seed |]) c 6))

let prop_cyclic_fault_sim_matches_reference =
  let gen = QCheck2.Gen.int_bound 5000 in
  qcheck_case ~count:15 "cyclic fault sim = reference" gen (fun seed ->
      let c = host ~seed ~gates:(50 + (seed mod 40)) () in
      let rec cyclic_lock s =
        let l =
          Fulllock.lock_one (Random.State.make [| seed; s |]) ~policy:`Cyclic ~n:4 c
        in
        if Circuit.is_acyclic l.Locked.locked then cyclic_lock (s + 1) else l
      in
      let locked = cyclic_lock 0 in
      let lc = locked.Locked.locked and keys = locked.Locked.correct_key in
      let rng = Random.State.make [| seed; 1 |] in
      let vectors =
        List.init View.lanes (fun _ -> View.random_vector rng (Circuit.num_inputs lc))
      in
      (* Scalar verdict: some output settles in the good machine and differs
         or stays X in the faulty one. *)
      let reference faulty inputs =
        let good = View.eval_tristate_reference lc ~inputs ~keys in
        let bad = View.eval_tristate_reference faulty ~inputs ~keys in
        Array.exists2 (fun g f -> g <> View.VX && f <> g) good bad
      in
      List.for_all
        (fun fault ->
          let faulty = Faults.inject lc fault in
          let detects inputs =
            Faults.detects lc ~keys:(View.broadcast keys) ~inputs fault
          in
          let lanes = List.map (reference faulty) vectors in
          List.for_all2
            (fun v expected -> detects (View.broadcast v) = expected)
            vectors lanes
          && detects (View.pack vectors) = List.mem true lanes)
        (some_faults rng lc 4))

let () =
  Alcotest.run "tools"
    [
      ( "opt",
        [
          Alcotest.test_case "preserves function" `Quick test_opt_preserves_function;
          Alcotest.test_case "folds constants" `Quick test_opt_folds_constants;
          Alcotest.test_case "collapses buffers" `Quick test_opt_collapses_buffers;
          Alcotest.test_case "xor pairs" `Quick test_opt_simplifies_xor_pairs;
          Alcotest.test_case "mux rules" `Quick test_opt_mux_rules;
          Alcotest.test_case "structural hashing" `Quick test_opt_structural_hashing;
          Alcotest.test_case "hardwire + sweep = oracle" `Quick test_hardwire_recovers_oracle;
          Alcotest.test_case "hardwire wrong key" `Quick test_hardwire_wrong_key_differs;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "reflexive" `Quick test_equiv_reflexive;
          Alcotest.test_case "finds difference" `Quick test_equiv_finds_difference;
          Alcotest.test_case "agrees with opt" `Quick test_equiv_agrees_with_opt;
          Alcotest.test_case "check key" `Quick test_equiv_check_key;
          Alcotest.test_case "rejects cyclic" `Quick test_equiv_rejects_cyclic;
        ] );
      ( "sim_word",
        [
          Alcotest.test_case "matches scalar" `Quick test_word_matches_scalar;
          Alcotest.test_case "cyclic matches scalar" `Quick test_word_cyclic_matches_scalar;
          Alcotest.test_case "unresolved" `Quick test_word_unresolved;
          Alcotest.test_case "count diff" `Quick test_word_count_diff;
        ] );
      ( "faults",
        [
          Alcotest.test_case "enumerate" `Quick test_faults_enumerate;
          Alcotest.test_case "xor full coverage" `Quick test_faults_xor_detects_everything;
          Alcotest.test_case "redundant undetectable" `Quick test_faults_undetectable_redundant;
          Alcotest.test_case "c17 coverage" `Quick test_faults_coverage_c17;
          Alcotest.test_case "locking reduces testability" `Quick test_faults_locking_reduces_testability;
          Alcotest.test_case "short batch" `Quick test_faults_short_batch;
        ] );
      ( "atpg",
        [
          Alcotest.test_case "generates tests" `Quick test_atpg_generates_tests;
          Alcotest.test_case "proves redundancy" `Quick test_atpg_proves_redundancy;
          Alcotest.test_case "covers c17" `Quick test_atpg_cover_c17;
          Alcotest.test_case "covers locked part" `Slow test_atpg_cover_locked;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "roundtrip c17" `Quick test_verilog_roundtrip_simple;
          Alcotest.test_case "roundtrip locked" `Quick test_verilog_roundtrip_locked;
          Alcotest.test_case "handwritten" `Quick test_verilog_parses_handwritten;
          Alcotest.test_case "mux ternary" `Quick test_verilog_mux_ternary;
          Alcotest.test_case "keyinput convention" `Quick test_verilog_keyinput_convention;
          Alcotest.test_case "errors" `Quick test_verilog_errors;
        ] );
      ( "properties",
        [
          prop_opt_equivalent;
          prop_word_sim_matches;
          prop_verilog_roundtrip;
          prop_verilog_parser_total;
          prop_hardwire_correct_key;
          prop_atpg_agrees_with_fault_sim;
          prop_cyclic_fault_sim_matches_reference;
        ] );
    ]
