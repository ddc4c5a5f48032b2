(* Tests for Fl_bdd: ROBDD canonicity, model counting, circuit conversion,
   exact corruption. *)

module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Generator = Fl_netlist.Generator
module Bench_suite = Fl_netlist.Bench_suite
module Locked = Fl_locking.Locked
module Bdd = Fl_bdd.Bdd

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t = Alcotest.float 1e-9

let test_constants_and_vars () =
  let m = Bdd.create ~num_vars:3 () in
  check bool_t "tru <> fls" false (Bdd.equal Bdd.tru Bdd.fls);
  let x0 = Bdd.var m 0 in
  check bool_t "var canonical" true (Bdd.equal x0 (Bdd.var m 0));
  check int_t "var size" 1 (Bdd.size m x0);
  check float_t "var sat count" 4.0 (Bdd.sat_count m x0)

let test_boolean_laws () =
  let m = Bdd.create ~num_vars:4 () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  (* Canonicity turns algebraic identities into physical equality. *)
  check bool_t "commutativity" true
    (Bdd.equal (Bdd.mk_and m a b) (Bdd.mk_and m b a));
  check bool_t "de morgan" true
    (Bdd.equal
       (Bdd.mk_not m (Bdd.mk_and m a b))
       (Bdd.mk_or m (Bdd.mk_not m a) (Bdd.mk_not m b)));
  check bool_t "associativity" true
    (Bdd.equal
       (Bdd.mk_or m a (Bdd.mk_or m b c))
       (Bdd.mk_or m (Bdd.mk_or m a b) c));
  check bool_t "xor self" true (Bdd.equal (Bdd.mk_xor m a a) Bdd.fls);
  check bool_t "excluded middle" true
    (Bdd.equal (Bdd.mk_or m a (Bdd.mk_not m a)) Bdd.tru);
  check bool_t "ite idempotent" true (Bdd.equal (Bdd.ite m a a Bdd.fls) a)

let test_sat_count () =
  let m = Bdd.create ~num_vars:3 () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  check float_t "and" 2.0 (Bdd.sat_count m (Bdd.mk_and m a b));
  check float_t "or" 6.0 (Bdd.sat_count m (Bdd.mk_or m a b));
  check float_t "xor3" 4.0 (Bdd.sat_count m (Bdd.mk_xor m (Bdd.mk_xor m a b) c));
  check float_t "tru" 8.0 (Bdd.sat_count m Bdd.tru);
  check float_t "fls" 0.0 (Bdd.sat_count m Bdd.fls)

let test_any_sat () =
  let m = Bdd.create ~num_vars:3 () in
  let a = Bdd.var m 0 and c = Bdd.var m 2 in
  let f = Bdd.mk_and m a (Bdd.mk_not m c) in
  (match Bdd.any_sat m f with
   | Some witness -> check bool_t "witness satisfies" true (Bdd.eval m f witness)
   | None -> Alcotest.fail "sat function has no witness");
  check bool_t "fls has none" true (Bdd.any_sat m Bdd.fls = None)

let test_node_limit () =
  let m = Bdd.create ~node_limit:8 ~num_vars:10 () in
  try
    (* Parity of 10 variables needs > 8 nodes. *)
    let parity = ref Bdd.fls in
    for i = 0 to 9 do
      parity := Bdd.mk_xor m !parity (Bdd.var m i)
    done;
    Alcotest.fail "expected Too_large"
  with Bdd.Too_large -> ()

let test_of_circuit_matches_sim () =
  let c = Bench_suite.c17 () in
  let m = Bdd.create ~num_vars:5 () in
  let outs = Bdd.of_circuit m c ~keys:[||] in
  for v = 0 to 31 do
    let inputs = Test_support.vector_of_int ~width:5 v in
    let expected = View.eval (View.of_circuit c) ~inputs ~keys:[||] in
    Array.iteri
      (fun i out ->
        check bool_t (Printf.sprintf "v=%d out=%d" v i) expected.(i)
          (Bdd.eval m out inputs))
      outs
  done

let test_equivalence_via_canonicity () =
  (* The optimizer's output is the same BDD node as the original's. *)
  let c =
    Generator.random ~seed:8 ~name:"g"
      { Generator.num_inputs = 8; num_outputs = 3; num_gates = 60;
        max_fanin = 3; and_bias = 0.7 }
  in
  let optimized, _ = Fl_netlist.Opt.run c in
  let m = Bdd.create ~num_vars:8 () in
  let a = Bdd.of_circuit m c ~keys:[||] in
  let b = Bdd.of_circuit m optimized ~keys:[||] in
  Array.iteri
    (fun i x -> check bool_t (Printf.sprintf "out %d" i) true (Bdd.equal x b.(i)))
    a

let test_exact_corruption_sarlock () =
  (* SARLock with w compared bits over n inputs: a wrong key corrupts
     exactly 2^(n-w) of the 2^n inputs on 1 of the outputs — the BDD count
     must be exactly that. *)
  let c =
    Generator.random ~seed:5 ~name:"h"
      { Generator.num_inputs = 8; num_outputs = 4; num_gates = 50;
        max_fanin = 3; and_bias = 0.8 }
  in
  let rng = Random.State.make [| 3 |] in
  let locked = Fl_locking.Sarlock.lock rng ~key_bits:6 c in
  let wrong = Array.map not locked.Locked.correct_key in
  let corruption = Bdd.exact_corruption locked ~key:wrong in
  (* 2^(8-6) = 4 corrupted inputs, 1 of 4 outputs, 2^8 inputs. *)
  check float_t "exact sarlock corruption" (4.0 /. (4.0 *. 256.0)) corruption

let test_exact_corruption_correct_key_zero () =
  let c =
    Generator.random ~seed:6 ~name:"h"
      { Generator.num_inputs = 8; num_outputs = 4; num_gates = 60;
        max_fanin = 3; and_bias = 0.8 }
  in
  let rng = Random.State.make [| 4 |] in
  let locked = Fl_locking.Rll.lock rng ~key_bits:8 c in
  check float_t "correct key corrupts nothing" 0.0
    (Bdd.exact_corruption locked ~key:locked.Locked.correct_key)

let test_exact_vs_sampled_corruption () =
  (* The word-parallel sampler must approximate the exact BDD number. *)
  let c =
    Generator.random ~seed:7 ~name:"h"
      { Generator.num_inputs = 10; num_outputs = 4; num_gates = 70;
        max_fanin = 3; and_bias = 0.8 }
  in
  let rng = Random.State.make [| 5 |] in
  let locked = Fl_core.Fulllock.lock_one rng ~n:4 c in
  (* average exact corruption over the sampler's own wrong keys is hard to
     align; instead compare on one fixed wrong key. *)
  let wrong = Array.map not locked.Locked.correct_key in
  let exact = Bdd.exact_corruption locked ~key:wrong in
  (* sampled on the same key: *)
  let n = 10 in
  let samples = 4096 in
  let srng = Random.State.make [| 9 |] in
  let diff = ref 0 in
  for _ = 1 to samples do
    let inputs = View.random_vector srng n in
    let a = Locked.eval_locked locked ~key:wrong ~inputs in
    let b = Locked.query_oracle locked inputs in
    Array.iteri (fun i v -> if v <> b.(i) then incr diff) a
  done;
  let sampled = float_of_int !diff /. float_of_int (samples * 4) in
  check bool_t
    (Printf.sprintf "sampled %.4f ~ exact %.4f" sampled exact)
    true
    (Float.abs (sampled -. exact) < 0.05)

let test_locked_bdd_blowup () =
  (* The BDD trade-off view of obfuscation: locking (with free key
     variables pinned to a wrong key, CLN muxes everywhere) inflates BDD
     size versus the bare host. *)
  let c =
    Generator.random ~seed:9 ~name:"h"
      { Generator.num_inputs = 10; num_outputs = 4; num_gates = 80;
        max_fanin = 3; and_bias = 0.8 }
  in
  let rng = Random.State.make [| 6 |] in
  let locked = Fl_core.Fulllock.lock_one rng ~n:8 c in
  let base = Option.get (Bdd.circuit_size c ~keys:[||]) in
  match Bdd.circuit_size locked.Locked.locked ~keys:locked.Locked.correct_key with
  | None -> ()  (* blew the node limit: maximal blow-up, claim holds *)
  | Some locked_size ->
    check bool_t
      (Printf.sprintf "locked %d >= base %d" locked_size base)
      true (locked_size >= base)

let qcheck_case ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_bdd_matches_sim =
  let gen = QCheck2.Gen.(pair (int_bound 2000) (int_bound 0xffff)) in
  qcheck_case "bdd = simulation" gen (fun (seed, stim) ->
      let c =
        Generator.random ~seed ~name:"p"
          { Generator.num_inputs = 7; num_outputs = 3; num_gates = 40;
            max_fanin = 3; and_bias = 0.7 }
      in
      let m = Bdd.create ~num_vars:7 () in
      let outs = Bdd.of_circuit m c ~keys:[||] in
      let inputs = Array.init 7 (fun i -> stim land (1 lsl i) <> 0) in
      let expected = View.eval (View.of_circuit c) ~inputs ~keys:[||] in
      Array.for_all2 (fun e out -> e = Bdd.eval m out inputs) expected outs)

let prop_sat_count_matches_enumeration =
  let gen = QCheck2.Gen.int_bound 2000 in
  qcheck_case ~count:30 "sat_count = enumeration" gen (fun seed ->
      let c =
        Generator.random ~seed:(seed + 13) ~name:"p"
          { Generator.num_inputs = 6; num_outputs = 1; num_gates = 30;
            max_fanin = 3; and_bias = 0.7 }
      in
      let m = Bdd.create ~num_vars:6 () in
      let outs = Bdd.of_circuit m c ~keys:[||] in
      let counted = Bdd.sat_count m outs.(0) in
      let enumerated = ref 0 in
      for v = 0 to 63 do
        let inputs = Test_support.vector_of_int ~width:6 v in
        if (View.eval (View.of_circuit c) ~inputs ~keys:[||]).(0) then incr enumerated
      done;
      counted = float_of_int !enumerated)

let () =
  Alcotest.run "bdd"
    [
      ( "core",
        [
          Alcotest.test_case "constants and vars" `Quick test_constants_and_vars;
          Alcotest.test_case "boolean laws" `Quick test_boolean_laws;
          Alcotest.test_case "sat count" `Quick test_sat_count;
          Alcotest.test_case "any sat" `Quick test_any_sat;
          Alcotest.test_case "node limit" `Quick test_node_limit;
        ] );
      ( "circuits",
        [
          Alcotest.test_case "c17 matches sim" `Quick test_of_circuit_matches_sim;
          Alcotest.test_case "canonicity = equivalence" `Quick test_equivalence_via_canonicity;
          Alcotest.test_case "exact corruption sarlock" `Quick test_exact_corruption_sarlock;
          Alcotest.test_case "correct key zero" `Quick test_exact_corruption_correct_key_zero;
          Alcotest.test_case "exact vs sampled" `Quick test_exact_vs_sampled_corruption;
          Alcotest.test_case "locked blowup" `Quick test_locked_bdd_blowup;
        ] );
      "properties", [ prop_bdd_matches_sim; prop_sat_count_matches_enumeration ];
    ]
