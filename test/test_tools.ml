(* Tests for the tooling layer: Opt (netlist clean-up + key hardwiring),
   Equiv (SAT equivalence) and the word-parallel View evaluator. *)

module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Opt = Fl_netlist.Opt
module Generator = Fl_netlist.Generator
module Bench_suite = Fl_netlist.Bench_suite
module Equiv = Fl_sat.Equiv
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

let qcheck_case ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A netlist from a flat spec: nodes [0, inputs) are primary inputs,
   [inputs, inputs + keys) key inputs, and gate [g] of [gates] is node
   [inputs + keys + g], whose fanins name earlier nodes.  [outs] names the
   node of each output. *)
let of_spec ~inputs ~keys gates outs =
  let b = Circuit.Builder.create ~name:"spec" () in
  let ids = Array.make (inputs + keys + Array.length gates) 0 in
  for i = 0 to inputs - 1 do
    ids.(i) <- Circuit.Builder.input b
  done;
  for i = 0 to keys - 1 do
    ids.(inputs + i) <- Circuit.Builder.key_input b
  done;
  Array.iteri
    (fun g (kind, fanins) ->
      ids.(inputs + keys + g) <- Circuit.Builder.add b kind (Array.map (fun x -> ids.(x)) fanins))
    gates;
  Array.iteri (fun i o -> Circuit.Builder.output b (Printf.sprintf "y%d" i) ids.(o)) outs;
  Circuit.of_builder b

let verdict_kind = function
  | Equiv.Equivalent -> "equivalent"
  | Equiv.Different _ -> "different"
  | Equiv.Unknown -> "unknown"

(* The folded check agrees with the two-copy reference, and a
   counterexample re-simulates to differing outputs. *)
let agrees_with_reference ?(keys_a = [||]) ?(keys_b = [||]) a b =
  let got = Equiv.check ~keys_a ~keys_b a b in
  verdict_kind got = verdict_kind (Test_support.Reference_equiv.check ~keys_a ~keys_b a b)
  &&
  match got with
  | Equiv.Different { inputs; outputs_a; outputs_b } ->
    outputs_a = View.eval (View.of_circuit a) ~inputs ~keys:keys_a
    && outputs_b = View.eval (View.of_circuit b) ~inputs ~keys:keys_b
    && outputs_a <> outputs_b
  | Equiv.Equivalent | Equiv.Unknown -> true

let test_equiv_folding_rules () =
  (* Inputs a, b, c are nodes 0-2; key k is node 3 where a case has one. *)
  let lut tt = Gate.Lut (Array.map (fun x -> x = 1) tt) in
  let maj = lut [| 0; 0; 0; 1; 0; 1; 1; 1 |] and sel = lut [| 0; 1; 0; 1; 0; 0; 1; 1 |] in
  let cases =
    [
      (* MUX data are not commutative. *)
      ( "mux data order", 0, [| Gate.Mux, [| 0; 1; 2 |] |], [||],
        [| Gate.Mux, [| 0; 2; 1 |] |], [||], false );
      ( "mux negated select swaps data", 0,
        [| Gate.Not, [| 0 |]; Gate.Mux, [| 3; 1; 2 |] |], [||],
        [| Gate.Mux, [| 0; 2; 1 |] |], [||], true );
      ( "xnor is not xor", 0, [| Gate.Xnor, [| 0; 1 |] |], [||],
        [| Gate.Xor, [| 0; 1 |] |], [||], false );
      ( "xnor is a negated xor", 0, [| Gate.Xnor, [| 0; 1; 2 |] |], [||],
        [| Gate.Xor, [| 2; 1; 0 |]; Gate.Not, [| 3 |] |], [||], true );
      ( "lut tables are compared", 0, [| maj, [| 0; 1; 2 |] |], [||],
        [| sel, [| 0; 1; 2 |] |], [||], false );
      ( "lut and gate", 0, [| lut [| 1; 1; 1; 0 |], [| 1; 0 |] |], [||],
        [| Gate.Nand, [| 0; 1 |] |], [||], true );
      ( "nor is an and of negations", 0, [| Gate.Nor, [| 0; 1 |] |], [||],
        [| Gate.Not, [| 0 |]; Gate.Not, [| 1 |]; Gate.And, [| 4; 3 |] |], [||], true );
      (* Pinned keys fold: MUX select, XOR operand, AND operand, LUT fanin. *)
      ( "key select 0 takes a", 1, [| Gate.Mux, [| 3; 0; 1 |] |], [| false |],
        [| Gate.Buf, [| 0 |] |], [||], true );
      ( "key select 1 takes b", 1, [| Gate.Mux, [| 3; 0; 1 |] |], [| true |],
        [| Gate.Buf, [| 1 |] |], [||], true );
      ( "key select 1 is not a", 1, [| Gate.Mux, [| 3; 0; 1 |] |], [| true |],
        [| Gate.Buf, [| 0 |] |], [||], false );
      ( "xor with key 1 inverts", 1, [| Gate.Xor, [| 0; 3 |] |], [| true |],
        [| Gate.Not, [| 0 |] |], [||], true );
      ( "xnor with key 1 buffers", 1, [| Gate.Xnor, [| 0; 3 |] |], [| true |],
        [| Gate.Buf, [| 0 |] |], [||], true );
      ( "and with key 0 is 0", 1, [| Gate.And, [| 0; 3 |] |], [| false |],
        [| Gate.Const false, [||] |], [||], true );
      ( "lut cofactored on a key", 1, [| maj, [| 0; 3; 1 |] |], [| true |],
        [| Gate.Or, [| 1; 0 |] |], [||], true );
      ( "keyed lut as a mux tree", 1,
        [| Gate.Mux, [| 0; 3; 3 |]; Gate.Mux, [| 0; 3; 2 |]; Gate.Mux, [| 1; 4; 5 |] |],
        [| false |], [| Gate.And, [| 0; 1; 2 |] |], [||], true );
      ( "and with its own negation is 0", 0,
        [| Gate.And, [| 0; 1 |]; Gate.Not, [| 3 |]; Gate.And, [| 3; 4 |] |], [||],
        [| Gate.Const false, [||] |], [||], true );
      (* A constant difference needs no variable. *)
      ( "constant outputs differ", 0, [| Gate.Const true, [||] |], [||],
        [| Gate.Const false, [||] |], [||], false );
    ]
  in
  List.iter
    (fun (name, keys, ga, ka, gb, kb, equivalent) ->
      let circuit keys g = of_spec ~inputs:3 ~keys g [| 3 + keys + Array.length g - 1 |] in
      let a = circuit keys ga and b = circuit (Array.length kb) gb in
      let got = Equiv.check ~keys_a:ka ~keys_b:kb a b in
      check Alcotest.string name
        (if equivalent then "equivalent" else "different")
        (verdict_kind got);
      check bool_t (name ^ ": agrees with the reference") true
        (agrees_with_reference ~keys_a:ka ~keys_b:kb a b))
    cases

(* A random gate over nodes [0, j): every kind, fanins repeating freely. *)
let random_gate rng j =
  let fan n = Array.init n (fun _ -> Random.State.int rng j) in
  let nary () = 2 + Random.State.int rng 2 in
  match Random.State.int rng 12 with
  | 0 -> Gate.Const (Random.State.bool rng), [||]
  | 1 -> Gate.Buf, fan 1
  | 2 -> Gate.Not, fan 1
  | 3 -> Gate.And, fan (nary ())
  | 4 -> Gate.Nand, fan (nary ())
  | 5 -> Gate.Or, fan (nary ())
  | 6 -> Gate.Nor, fan (nary ())
  | 7 -> Gate.Xor, fan (nary ())
  | 8 -> Gate.Xnor, fan (nary ())
  | 9 | 10 -> Gate.Mux, fan 3
  | _ ->
    let n = 1 + Random.State.int rng 3 in
    Gate.Lut (Array.init (1 lsl n) (fun _ -> Random.State.bool rng)), fan n

let prop_equiv_random_pairs =
  (* Two netlists over every gate kind with keys on both sides: the second
     is the first, the first with one gate redrawn, or the first with one
     gate's fanins reversed.  Most logic is shared, and the keys decide
     many MUX selects. *)
  let gen = QCheck2.Gen.int_bound 1_000_000 in
  qcheck_case ~count:400 "folded check = two-copy reference (random netlists)" gen
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let inputs = 1 + Random.State.int rng 5 and keys = Random.State.int rng 4 in
      let base = inputs + keys in
      let ga = Array.init (4 + Random.State.int rng 24) (fun g -> random_gate rng (base + g)) in
      let gb = Array.copy ga in
      let g = Random.State.int rng (Array.length gb) in
      (match Random.State.int rng 3 with
       | 0 -> ()
       | 1 -> gb.(g) <- random_gate rng (base + g)
       | _ ->
         let kind, fanins = gb.(g) in
         gb.(g) <- (kind, Array.of_list (List.rev (Array.to_list fanins))));
      let outs =
        Array.init (1 + Random.State.int rng 3) (fun _ ->
            Random.State.int rng (base + Array.length ga))
      in
      let random_key () = Array.init keys (fun _ -> Random.State.bool rng) in
      let keys_a = random_key () in
      let keys_b = if Random.State.bool rng then keys_a else random_key () in
      agrees_with_reference ~keys_a ~keys_b (of_spec ~inputs ~keys ga outs)
        (of_spec ~inputs ~keys gb outs))

let prop_equiv_locked_keys =
  (* RLL, SARLock, Anti-SAT and acyclic Full-Lock on random hosts, each
     checked under its correct key, that key with one bit flipped, and a
     random key. *)
  let gen = QCheck2.Gen.(triple (int_bound 5000) (int_bound 3) (int_bound 2)) in
  qcheck_case ~count:120 "folded check = two-copy reference (locked hosts)" gen
    (fun (seed, scheme, key_kind) ->
      let c = host ~seed ~gates:(40 + (seed mod 60)) () in
      let rng = Random.State.make [| seed |] in
      let l =
        match scheme with
        | 0 -> Fl_locking.Rll.lock rng ~key_bits:6 c
        | 1 -> Fl_locking.Sarlock.lock rng ~key_bits:6 c
        | 2 -> Fl_locking.Antisat.lock rng ~key_bits:8 c
        | _ -> Fulllock.lock_one rng ~n:4 c
      in
      let key = Array.copy l.Locked.correct_key in
      (match key_kind with
       | 0 -> ()
       | 1 ->
         let i = Random.State.int rng (Array.length key) in
         key.(i) <- not key.(i)
       | _ -> Array.iteri (fun i _ -> key.(i) <- Random.State.bool rng) key);
      agrees_with_reference ~keys_a:key l.Locked.locked l.Locked.oracle)

let test_equiv_full_size () =
  (* A 32x32 PLR on the c7552-shaped suite host.  With the key pinned and
     folded, the locked netlist shares the oracle's logic, and the proof
     takes no conflict at all: every output pair ends on one literal.  The
     two-copy reference is still searching after 1,000 conflicts (and
     after 1,000,000). *)
  let c = Bench_suite.load "c7552" in
  let l = Fulllock.lock (Random.State.make [| 1 |]) ~configs:[ Fulllock.default_config ~n:32 ] c in
  let budget = Fl_sat.Cdcl.budget_conflicts 1_000 in
  let proved key =
    verdict_kind (Equiv.check_key ~budget ~locked:l.Locked.locked ~oracle:c key)
  in
  check Alcotest.string "correct key" "equivalent" (proved l.Locked.correct_key);
  let flipped = Array.copy l.Locked.correct_key in
  flipped.(0) <- not flipped.(0);
  check Alcotest.string "first bit flipped" "different" (proved flipped);
  check Alcotest.string "reference under the same budget" "unknown"
    (verdict_kind
       (Test_support.Reference_equiv.check ~budget ~keys_a:l.Locked.correct_key
          l.Locked.locked c))

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
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

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
          Alcotest.test_case "folding and sharing rules" `Quick test_equiv_folding_rules;
          Alcotest.test_case "32x32 PLR key proved on c7552" `Quick test_equiv_full_size;
        ] );
      ( "sim_word",
        [
          Alcotest.test_case "matches scalar" `Quick test_word_matches_scalar;
          Alcotest.test_case "cyclic matches scalar" `Quick test_word_cyclic_matches_scalar;
          Alcotest.test_case "unresolved" `Quick test_word_unresolved;
          Alcotest.test_case "count diff" `Quick test_word_count_diff;
        ] );
      ( "properties",
        [
          prop_opt_equivalent;
          prop_word_sim_matches;
          prop_hardwire_correct_key;
          prop_equiv_random_pairs;
          prop_equiv_locked_keys;
        ] );
    ]
