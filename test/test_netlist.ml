(* Tests for Fl_netlist: gates, circuits, simulation, bench I/O, generator. *)

module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Bench_io = Fl_netlist.Bench_io
module Generator = Fl_netlist.Generator
module Bench_suite = Fl_netlist.Bench_suite
module Insertion_util = Fl_locking.Insertion_util
module Fulllock = Fl_core.Fulllock

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Gate semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_gate_truth_tables () =
  let two_input_cases =
    [
      Gate.And, [| false; false; false; true |];
      Gate.Nand, [| true; true; true; false |];
      Gate.Or, [| false; true; true; true |];
      Gate.Nor, [| true; false; false; false |];
      Gate.Xor, [| false; true; true; false |];
      Gate.Xnor, [| true; false; false; true |];
    ]
  in
  List.iter
    (fun (kind, expected) ->
      let tt = Gate.truth_table kind ~arity:2 in
      check (Alcotest.array bool_t) (Gate.to_string kind) expected tt)
    two_input_cases

let test_gate_mux () =
  (* fanins [s; a; b] : s=0 -> a, s=1 -> b *)
  check bool_t "s=0 picks a" true (Gate.eval Gate.Mux [| false; true; false |]);
  check bool_t "s=1 picks b" false (Gate.eval Gate.Mux [| true; true; false |]);
  check bool_t "s=1 picks b (true)" true (Gate.eval Gate.Mux [| true; false; true |])

let test_gate_nary () =
  check bool_t "and3" true (Gate.eval Gate.And [| true; true; true |]);
  check bool_t "and3 f" false (Gate.eval Gate.And [| true; false; true |]);
  check bool_t "xor3 parity" true (Gate.eval Gate.Xor [| true; true; true |]);
  check bool_t "xnor3" false (Gate.eval Gate.Xnor [| true; true; true |]);
  check bool_t "nor3" true (Gate.eval Gate.Nor [| false; false; false |])

let test_gate_lut () =
  (* LUT implementing 2-input AND: table index = b<<1 | a *)
  let lut = Gate.Lut [| false; false; false; true |] in
  check bool_t "lut and 11" true (Gate.eval lut [| true; true |]);
  check bool_t "lut and 01" false (Gate.eval lut [| true; false |]);
  check (Alcotest.option int_t) "lut arity" (Some 2) (Gate.arity lut)

let test_gate_negate () =
  let pairs = [ Gate.And, Gate.Nand; Gate.Or, Gate.Nor; Gate.Xor, Gate.Xnor; Gate.Buf, Gate.Not ] in
  List.iter
    (fun (a, b) ->
      check bool_t "negate fwd" true (Gate.equal (Gate.negate a) b);
      check bool_t "negate bwd" true (Gate.equal (Gate.negate b) a))
    pairs;
  check bool_t "negate lut" true
    (Gate.equal
       (Gate.negate (Gate.Lut [| true; false |]))
       (Gate.Lut [| false; true |]));
  check bool_t "mux not negatable" false (Gate.is_negatable Gate.Mux)

let test_gate_negate_semantics () =
  (* negate k must complement eval on every input combination. *)
  List.iter
    (fun kind ->
      let arity = 2 in
      let tt = Gate.truth_table kind ~arity in
      let ntt = Gate.truth_table (Gate.negate kind) ~arity in
      Array.iteri
        (fun i v -> check bool_t "complement" (not v) ntt.(i))
        tt)
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]

let test_gate_string_roundtrip () =
  List.iter
    (fun kind ->
      match Gate.of_string (Gate.to_string kind) with
      | Some back -> check bool_t (Gate.to_string kind) true (Gate.equal kind back)
      | None -> Alcotest.failf "of_string failed for %s" (Gate.to_string kind))
    [ Gate.Input; Gate.Key_input; Gate.Buf; Gate.Not; Gate.And; Gate.Nand;
      Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Mux ]

(* ------------------------------------------------------------------ *)
(* Circuit construction and structure                                  *)
(* ------------------------------------------------------------------ *)

(* y = (a AND b) XOR c *)
let simple_circuit () =
  let b = Circuit.Builder.create ~name:"simple" () in
  let a = Circuit.Builder.input ~name:"a" b in
  let b_in = Circuit.Builder.input ~name:"b" b in
  let c = Circuit.Builder.input ~name:"c" b in
  let g1 = Circuit.Builder.add ~name:"g1" b Gate.And [| a; b_in |] in
  let g2 = Circuit.Builder.add ~name:"g2" b Gate.Xor [| g1; c |] in
  Circuit.Builder.output b "y" g2;
  Circuit.of_builder b

let test_builder_basic () =
  let c = simple_circuit () in
  Circuit.validate c;
  check int_t "nodes" 5 (Circuit.num_nodes c);
  check int_t "gates" 2 (Circuit.num_gates c);
  check int_t "inputs" 3 (Circuit.num_inputs c);
  check int_t "keys" 0 (Circuit.num_keys c);
  check bool_t "acyclic" true (Circuit.is_acyclic c);
  check (Alcotest.option int_t) "depth" (Some 2) (Circuit.depth c)

let test_builder_rejects_bad_fanins () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b in
  (try
     ignore (Circuit.Builder.add b Gate.Mux [| a |]);
     Alcotest.fail "expected failure on bad arity"
   with Invalid_argument _ -> ());
  (try
     ignore (Circuit.Builder.add b Gate.And [| a; 99 |]);
     Alcotest.fail "expected failure on unknown id"
   with Invalid_argument _ -> ())

let test_builder_duplicate_name () =
  let b = Circuit.Builder.create () in
  let _ = Circuit.Builder.input ~name:"x" b in
  try
    ignore (Circuit.Builder.input ~name:"x" b);
    Alcotest.fail "expected duplicate-name failure"
  with Invalid_argument _ -> ()

let test_declare_enables_cycles () =
  (* Build a 2-node combinational cycle through MUXes and check detection. *)
  let b = Circuit.Builder.create ~name:"cyc" () in
  let s = Circuit.Builder.key_input ~name:"k" b in
  let x = Circuit.Builder.input ~name:"x" b in
  let m1 = Circuit.Builder.declare ~name:"m1" b Gate.Mux in
  let m2 = Circuit.Builder.add ~name:"m2" b Gate.Mux [| s; m1; x |] in
  Circuit.Builder.set_fanins b m1 [| s; x; m2 |];
  Circuit.Builder.output b "y" m2;
  let c = Circuit.of_builder b in
  check bool_t "cyclic" false (Circuit.is_acyclic c);
  let cycles = Circuit.find_cycles c ~limit:10 in
  check bool_t "found a cycle" true (List.length cycles >= 1)

let test_freeze_rejects_unwired_declare () =
  let b = Circuit.Builder.create () in
  let x = Circuit.Builder.input b in
  let _pending = Circuit.Builder.declare b Gate.And in
  Circuit.Builder.output b "y" x;
  try
    ignore (Circuit.of_builder b);
    Alcotest.fail "expected freeze failure"
  with Invalid_argument _ -> ()

let test_fanouts () =
  let c = simple_circuit () in
  let fo = Circuit.fanouts c in
  (* input a (id 0) feeds only g1 *)
  check int_t "a fanout" 1 (Array.length fo.(0));
  (* g1 feeds g2 *)
  let g1 = Option.get (Circuit.find_by_name c "g1") in
  let g2 = Option.get (Circuit.find_by_name c "g2") in
  check (Alcotest.array int_t) "g1 -> g2" [| g2 |] fo.(g1)

let test_copy_into () =
  let c = simple_circuit () in
  let b = Circuit.Builder.create ~name:"copy" () in
  let map = Circuit.copy_into b c in
  let c2 = Circuit.of_builder b in
  check int_t "same node count" (Circuit.num_nodes c) (Circuit.num_nodes c2);
  check int_t "map length" (Circuit.num_nodes c) (Array.length map);
  check bool_t "equivalent" true
    (Test_support.equivalent c c2)

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)
(* ------------------------------------------------------------------ *)

let test_sim_simple () =
  let c = simple_circuit () in
  let expect a b cin =
    let lhs = View.eval (View.of_circuit c) ~inputs:[| a; b; cin |] ~keys:[||] in
    check (Alcotest.array bool_t)
      (Printf.sprintf "%b%b%b" a b cin)
      [| (a && b) <> cin |]
      lhs
  in
  List.iter
    (fun (a, b, cin) -> expect a b cin)
    [ false, false, false; true, true, false; true, true, true; false, true, true ]

let test_sim_vector_helpers () =
  let v = Test_support.vector_of_int ~width:4 0b1011 in
  check (Alcotest.array bool_t) "vector lsb-first" [| true; true; false; true |] v;
  check int_t "roundtrip" 0b1011 (Test_support.int_of_vector v)

let test_sim_cyclic_opened_by_mux () =
  (* m1 = MUX(k, x, m2); m2 = MUX(k, m1, x); structural cycle m1 <-> m2.
     Both key values functionally open the cycle; output must equal x. *)
  let b = Circuit.Builder.create ~name:"cyc2" () in
  let k = Circuit.Builder.key_input ~name:"k" b in
  let x = Circuit.Builder.input ~name:"x" b in
  let m1 = Circuit.Builder.declare ~name:"m1" b Gate.Mux in
  let m2 = Circuit.Builder.add ~name:"m2" b Gate.Mux [| k; m1; x |] in
  Circuit.Builder.set_fanins b m1 [| k; x; m2 |];
  Circuit.Builder.output b "y" m2;
  let c = Circuit.of_builder b in
  List.iter
    (fun (kv, xv) ->
      let out = View.eval (View.of_circuit c) ~inputs:[| xv |] ~keys:[| kv |] in
      check bool_t (Printf.sprintf "k=%b x=%b" kv xv) xv out.(0))
    [ false, false; false, true; true, false; true, true ]

let test_sim_cyclic_unresolved () =
  (* y = NOT y : never settles, eval must raise, tristate must report X. *)
  let b = Circuit.Builder.create ~name:"osc" () in
  let _x = Circuit.Builder.input ~name:"x" b in
  let inv = Circuit.Builder.declare ~name:"inv" b Gate.Not in
  Circuit.Builder.set_fanins b inv [| inv |];
  Circuit.Builder.output b "y" inv;
  let c = Circuit.of_builder b in
  let tri = View.eval_tristate (View.of_circuit c) ~inputs:[| false |] ~keys:[||] in
  check bool_t "X output" true (tri.(0) = View.VX);
  (try
     ignore (View.eval (View.of_circuit c) ~inputs:[| false |] ~keys:[||]);
     Alcotest.fail "expected Unresolved"
   with View.Unresolved _ -> ())

let test_sim_settles () =
  let c = simple_circuit () in
  check bool_t "acyclic settles" true (Test_support.settles c ~keys:[||])

(* ------------------------------------------------------------------ *)
(* Bench I/O                                                           *)
(* ------------------------------------------------------------------ *)

let test_c17_parses () =
  let c = Bench_suite.c17 () in
  Circuit.validate c;
  check int_t "inputs" 5 (Circuit.num_inputs c);
  check int_t "outputs" 2 (Circuit.num_outputs c);
  check int_t "gates" 6 (Circuit.num_gates c)

(* Reference c17 function computed straight from the netlist equations. *)
let c17_reference inputs =
  match inputs with
  | [| g1; g2; g3; g6; g7 |] ->
    let nand a b = not (a && b) in
    let g10 = nand g1 g3 in
    let g11 = nand g3 g6 in
    let g16 = nand g2 g11 in
    let g19 = nand g11 g7 in
    [| nand g10 g16; nand g16 g19 |]
  | _ -> assert false

let test_c17_functional () =
  let c = Bench_suite.c17 () in
  for v = 0 to 31 do
    let inputs = Test_support.vector_of_int ~width:5 v in
    let got = View.eval (View.of_circuit c) ~inputs ~keys:[||] in
    check (Alcotest.array bool_t) (Printf.sprintf "v=%d" v) (c17_reference inputs) got
  done

let test_bench_roundtrip () =
  let c = Bench_suite.c17 () in
  let text = Bench_io.to_string c in
  let c2 = Bench_io.parse_string text in
  check bool_t "roundtrip equivalent" true
    (Test_support.equivalent c c2)

let test_bench_keyinput_convention () =
  let text =
    "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n"
  in
  let c = Bench_io.parse_string text in
  check int_t "one PI" 1 (Circuit.num_inputs c);
  check int_t "one key" 1 (Circuit.num_keys c);
  let out = View.eval (View.of_circuit c) ~inputs:[| true |] ~keys:[| true |] in
  check bool_t "xor" false out.(0)

let test_bench_lut_roundtrip () =
  let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = LUT 0x8 (a, b)\n" in
  let c = Bench_io.parse_string text in
  let out = View.eval (View.of_circuit c) ~inputs:[| true; true |] ~keys:[||] in
  check bool_t "lut 0x8 = and" true out.(0);
  let out0 = View.eval (View.of_circuit c) ~inputs:[| true; false |] ~keys:[||] in
  check bool_t "lut 0x8 = and (10)" false out0.(0);
  let c2 = Bench_io.parse_string (Bench_io.to_string c) in
  check bool_t "lut roundtrip" true
    (Test_support.equivalent c c2)

let test_bench_parse_errors () =
  (* Each error carries the line it was found on: an undefined wire its
     first use, a redefinition its second definition. *)
  List.iter
    (fun (text, line) ->
      match Bench_io.parse_string text with
      | _ -> Alcotest.failf "expected parse error for %S" text
      | exception Bench_io.Parse_error (l, _) -> check int_t text line l)
    [
      "y = FROB(a)\n", 1;
      "INPUT(a)\nOUTPUT(y)\ny = AND(a, undefined_wire)\n", 3;
      "INPUT(a)\nOUTPUT(q)\ny = AND(a, q)\n", 2;
      "INPUT(a)\nOUTPUT(y)\ny = AND(a\n", 3;
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n\ny = BUF(a)\n", 5;
      "INPUT(a)\nINPUT(a)\n", 2;
      "garbage line\n", 1;
      "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n", 3;
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n", 3;
      "INPUT(a)\nOUTPUT(y)\nz = AND(a, a)\ny = AND(z)\n", 4;
    ]

let test_bench_lut_table_errors () =
  (* A LUT table is hex, four entries per digit; a set bit past the last
     entry is an error at its line, as is a table that is not hex. *)
  List.iter
    (fun (table, arity) ->
      let args = String.concat ", " (List.init arity (fun i -> Printf.sprintf "a%d" i)) in
      let text =
        String.concat ""
          (List.init arity (fun i -> Printf.sprintf "INPUT(a%d)\n" i))
        ^ Printf.sprintf "OUTPUT(y)\ny = LUT %s (%s)\n" table args
      in
      match Bench_io.parse_string text with
      | _ -> Alcotest.failf "expected parse error for %S" text
      | exception Bench_io.Parse_error (l, _) -> check int_t text (arity + 2) l)
    [ "0x4", 1; "0x10", 2; "0x1ffffffffffffffff", 6; "0x1" ^ String.make 64 '0', 8;
      "8", 2; "0x", 2; "0xg", 2; "0b1000", 2; "-0x1", 2 ]

(* ------------------------------------------------------------------ *)
(* Generator and bench suite                                           *)
(* ------------------------------------------------------------------ *)

let test_generator_respects_profile () =
  let profile =
    { Generator.num_inputs = 12; num_outputs = 5; num_gates = 80; max_fanin = 4; and_bias = 0.8 }
  in
  let c = Generator.random ~seed:42 ~name:"gen" profile in
  Circuit.validate c;
  check int_t "inputs" 12 (Circuit.num_inputs c);
  check int_t "outputs" 5 (Circuit.num_outputs c);
  check bool_t "acyclic" true (Circuit.is_acyclic c);
  (* gate count: exactly num_gates plus possibly fold gates (<= num_outputs) *)
  check bool_t "gate count near profile" true
    (Circuit.num_gates c >= 80 && Circuit.num_gates c <= 80 + 5)

let test_generator_deterministic () =
  let profile = Generator.default_profile in
  let c1 = Generator.random ~seed:7 ~name:"g" profile in
  let c2 = Generator.random ~seed:7 ~name:"g" profile in
  check bool_t "same netlist text" true
    (String.equal (Bench_io.to_string c1) (Bench_io.to_string c2));
  let c3 = Generator.random ~seed:8 ~name:"g" profile in
  check bool_t "different seed differs" false
    (String.equal (Bench_io.to_string c1) (Bench_io.to_string c3))

let test_generator_no_dead_logic () =
  let c = Generator.random ~seed:3 ~name:"g" Generator.default_profile in
  let fo = Circuit.fanouts c in
  let is_output id = Array.exists (fun (_, o) -> o = id) c.Circuit.outputs in
  for id = 0 to Circuit.num_nodes c - 1 do
    let used = Array.length fo.(id) > 0 || is_output id in
    check bool_t (Printf.sprintf "node %d used" id) true used
  done

let test_suite_entries () =
  check int_t "13 circuits" 13 (List.length Bench_suite.entries);
  let c432 = Option.get (Bench_suite.find "c432") in
  check int_t "c432 gates" 160 c432.Bench_suite.gates;
  check int_t "c432 inputs" 36 c432.Bench_suite.inputs;
  check int_t "c432 outputs" 7 c432.Bench_suite.outputs

let test_suite_load_scaled () =
  let c = Bench_suite.load_scaled "c880" ~scale:8 in
  Circuit.validate c;
  check bool_t "small" true (Circuit.num_gates c < 120);
  check int_t "inputs scaled" (60 / 8) (Circuit.num_inputs c)

let test_suite_load_full_counts () =
  let c = Bench_suite.load "c432" in
  Circuit.validate c;
  check int_t "inputs" 36 (Circuit.num_inputs c);
  check int_t "outputs" 7 (Circuit.num_outputs c);
  check bool_t "gates >= 160" true (Circuit.num_gates c >= 160)

(* ------------------------------------------------------------------ *)
(* Miscellaneous exports                                               *)
(* ------------------------------------------------------------------ *)

let test_const_bench_roundtrip () =
  let b = Circuit.Builder.create ~name:"consts" () in
  let x = Circuit.Builder.input ~name:"x" b in
  let one = Circuit.Builder.add b (Gate.Const true) [||] in
  let g = Circuit.Builder.add b Gate.Xor [| x; one |] in
  Circuit.Builder.output b "y" g;
  let c = Circuit.of_builder b in
  let c2 = Bench_io.parse_string (Bench_io.to_string c) in
  check bool_t "const roundtrip" true
    (Test_support.equivalent c c2)

let test_pp_stats_smoke () =
  let c = Bench_suite.c17 () in
  let text = Format.asprintf "%a" Circuit.pp_stats c in
  check bool_t "mentions nand" true
    (String.length text > 0
     && (let found = ref false in
         String.iteri (fun i _ ->
             if i + 4 <= String.length text && String.sub text i 4 = "nand" then found := true)
           text;
         !found))

let test_kind_histogram () =
  let c = Bench_suite.c17 () in
  check (Alcotest.list (Alcotest.pair Alcotest.string int_t)) "histogram"
    [ "input", 5; "nand", 6 ]
    (Circuit.kind_histogram c)

let test_depth_c17 () =
  check (Alcotest.option int_t) "depth 3" (Some 3) (Circuit.depth (Bench_suite.c17 ()))

let test_sccs () =
  (* Acyclic: every node its own SCC; with one cycle, the two nodes share. *)
  let c = Bench_suite.c17 () in
  let scc = Circuit.strongly_connected_components c in
  let distinct = List.sort_uniq compare (Array.to_list scc) in
  check int_t "all singleton" (Circuit.num_nodes c) (List.length distinct);
  let b = Circuit.Builder.create ~name:"cyc" () in
  let k = Circuit.Builder.key_input ~name:"k" b in
  let x = Circuit.Builder.input ~name:"x" b in
  let m1 = Circuit.Builder.declare ~name:"m1" b Gate.Mux in
  let m2 = Circuit.Builder.add ~name:"m2" b Gate.Mux [| k; m1; x |] in
  Circuit.Builder.set_fanins b m1 [| k; x; m2 |];
  Circuit.Builder.output b "y" m2;
  let cy = Circuit.of_builder b in
  let scc = Circuit.strongly_connected_components cy in
  check bool_t "cycle shares scc" true (scc.(m1) = scc.(m2))

(* ------------------------------------------------------------------ *)
(* Set-up allocation                                                   *)
(* ------------------------------------------------------------------ *)

(* Making an array of 257 or more words from a young first element runs a
   whole minor collection (DESIGN.md §4j).  With a minor heap too large
   to fill, parsing a host, the wire-selection analyses, every lock
   insertion and the attacker's view of the locked netlist run none. *)
let test_setup_forces_no_minor_collection () =
  let text = Bench_io.to_string (Bench_suite.load "c1908") in
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 8 lsl 20 };
  Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
  let minors () = (Gc.quick_stat ()).Gc.minor_collections in
  let before = minors () in
  let rng = Random.State.make [| 1 |] in
  let c = Bench_io.parse_string ~name:"c1908" text in
  ignore (Circuit.fanouts c);
  ignore (Insertion_util.select_wires c rng ~count:16 ~policy:`Independent);
  let locks =
    List.map
      (fun policy ->
        Fulllock.lock rng ~policy ~configs:[ Fulllock.default_config ~n:16 ] c)
      [ `Acyclic; `Cyclic ]
    @ [ Fl_locking.Sarlock.lock rng ~key_bits:16 c; Fl_locking.Antisat.lock rng ~key_bits:16 c ]
  in
  List.iter
    (fun l -> ignore (View.scc (View.of_circuit l.Fl_locking.Locked.locked)))
    locks;
  check int_t "minor collections" before (minors ())

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_lut_matches_gate =
  (* A LUT built from a gate's truth table is functionally the gate. *)
  let gen =
    QCheck2.Gen.(
      pair
        (oneofl [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ])
        (pair (int_range 2 4) (int_bound 0xffff)))
  in
  qcheck_case "lut = gate" gen (fun (kind, (arity, stim)) ->
      let tt = Gate.truth_table kind ~arity in
      let lut = Gate.Lut tt in
      let inputs = Array.init arity (fun i -> stim land (1 lsl i) <> 0) in
      Gate.eval lut inputs = Gate.eval kind inputs)

let prop_generator_valid =
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 2 10) (int_range 1 6) (int_range 6 120) (int_bound 10_000))
  in
  qcheck_case ~count:50 "generator always valid" gen
    (fun (ins, outs, gates, seed) ->
      let gates = max gates outs in
      let profile =
        { Generator.num_inputs = ins; num_outputs = outs; num_gates = gates;
          max_fanin = 4; and_bias = 0.8 }
      in
      let c = Generator.random ~seed ~name:"prop" profile in
      Circuit.validate c;
      Circuit.is_acyclic c)

let prop_sim_tristate_agrees =
  (* On acyclic circuits, tristate eval must agree with boolean eval. *)
  let gen = QCheck2.Gen.(pair (int_bound 1000) (int_bound 0xffffff)) in
  qcheck_case ~count:60 "tristate = boolean on acyclic" gen (fun (seed, stim) ->
      let c = Generator.random ~seed ~name:"p" Generator.default_profile in
      let n = Circuit.num_inputs c in
      let inputs = Array.init n (fun i -> stim land (1 lsl (i mod 24)) <> 0) in
      let bools = View.eval (View.of_circuit c) ~inputs ~keys:[||] in
      let tris = View.eval_tristate (View.of_circuit c) ~inputs ~keys:[||] in
      Array.for_all2
        (fun b t -> match t with View.V0 -> not b | View.V1 -> b | View.VX -> false)
        bools tris)

let prop_parser_total =
  (* The .bench parser must fail only with Parse_error (or succeed), never
     crash with an unexpected exception, on arbitrary input. *)
  let gen = QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 9 122)) (int_range 0 200)) in
  qcheck_case ~count:300 "bench parser is total" gen (fun text ->
      match Bench_io.parse_string text with
      | _ -> true
      | exception Bench_io.Parse_error _ -> true
      | exception Invalid_argument _ -> true)

let prop_bench_roundtrip =
  let gen = QCheck2.Gen.(pair (int_bound 1000) (int_bound 0xffffff)) in
  qcheck_case ~count:40 "bench roundtrip preserves function" gen
    (fun (seed, stim) ->
      let c = Generator.random ~seed ~name:"rt" Generator.default_profile in
      let c2 = Bench_io.parse_string (Bench_io.to_string c) in
      let n = Circuit.num_inputs c in
      let inputs = Array.init n (fun i -> stim land (1 lsl (i mod 24)) <> 0) in
      View.eval (View.of_circuit c) ~inputs ~keys:[||] = View.eval (View.of_circuit c2) ~inputs ~keys:[||])

let prop_lut_bench_roundtrip =
  (* Every LUT table survives .bench text, including those of arity 6 and
     more, which do not fit a 63-bit integer. *)
  let gen =
    QCheck2.Gen.(
      int_range 1 10 >>= fun arity ->
      map (fun bits -> arity, Array.of_list bits) (list_repeat (1 lsl arity) bool))
  in
  qcheck_case ~count:200 "lut tables survive .bench" gen (fun (arity, tt) ->
      let b = Circuit.Builder.create () in
      let ins = Array.init arity (fun _ -> Circuit.Builder.input b) in
      Circuit.Builder.output b "y" (Circuit.Builder.add ~name:"y" b (Gate.Lut tt) ins);
      let back = Bench_io.parse_string (Bench_io.to_string (Circuit.of_builder b)) in
      match Circuit.find_by_name back "y" with
      | Some id -> (Circuit.node back id).Circuit.kind = Gate.Lut tt
      | None -> false)

(* Random .bench text in the accepted dialect, varied the ways files vary:
   blank and comment lines, trailing comments, spaces and tabs around
   tokens, keyword and gate-name case, CRLF endings, key inputs declared
   either way, forward references and LUT lines. *)
let random_bench_text rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let chance p = Random.State.float rng 1.0 < p in
  let ws () = pick [| ""; ""; " "; "  "; "\t"; " \t " |] in
  let case w =
    match Random.State.int rng 3 with
    | 0 -> String.uppercase_ascii w
    | 1 -> String.lowercase_ascii w
    | _ -> String.capitalize_ascii (String.lowercase_ascii w)
  in
  let eol () = (if chance 0.2 then " # " ^ pick [| "note"; "a = b"; "INPUT(x)"; "" |] else "")
               ^ if chance 0.1 then "\r\n" else "\n" in
  let n_in = 1 + Random.State.int rng 5 and n_gates = 1 + Random.State.int rng 8 in
  let inputs = Array.init n_in (fun i -> if chance 0.3 then Printf.sprintf "keyinput%d" i else Printf.sprintf "in%d" i) in
  let gates = Array.init n_gates (fun i -> Printf.sprintf "g%d" i) in
  let wires = Array.append inputs gates in
  let lines = ref [] in
  let add l = lines := l :: !lines in
  Array.iter
    (fun w ->
      let kw = if chance 0.2 then "KEYINPUT" else "INPUT" in
      add (Printf.sprintf "%s%s(%s%s%s)" (case kw) (ws ()) (ws ()) w (ws ())))
    inputs;
  Array.iter
    (fun g ->
      let args k = String.concat ("," ^ ws ()) (List.init k (fun _ -> pick wires)) in
      let call =
        match Random.State.int rng 6 with
        | 0 -> case (pick [| "not"; "buf"; "buff"; "inv" |]) ^ "(" ^ args 1 ^ ")"
        | 1 -> case "mux" ^ ws () ^ "(" ^ args 3 ^ ")"
        | 2 -> case (pick [| "const0"; "const1" |]) ^ "()"
        | 3 ->
          let k = 1 + Random.State.int rng 4 in
          Printf.sprintf "%s %s0x%x%s(%s)" (case "lut") (pick [| ""; " " |])
            (Random.State.int rng (1 lsl (1 lsl k))) (ws ()) (args k)
        | _ ->
          case (pick [| "and"; "nand"; "or"; "nor"; "xor"; "xnor" |])
          ^ "(" ^ ws () ^ args (2 + Random.State.int rng 3) ^ ws () ^ ")"
      in
      add (Printf.sprintf "%s%s%s=%s%s" (ws ()) g (ws ()) (ws ()) call))
    gates;
  for _ = 0 to Random.State.int rng 3 do
    add (Printf.sprintf "%s(%s)" (case "OUTPUT") (pick wires))
  done;
  for _ = 0 to Random.State.int rng 3 do
    add (pick [| ""; "# comment"; "   "; "\t" |])
  done;
  (* Declarations may come in any order: both passes resolve names. *)
  let lines = Array.of_list !lines in
  for i = Array.length lines - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = lines.(i) in
    lines.(i) <- lines.(j);
    lines.(j) <- t
  done;
  String.concat "" (Array.to_list (Array.map (fun l -> l ^ eol ()) lines))

(* One character replaced, deleted or inserted. *)
let mutate rng text =
  let alphabet = "()=,# \t\nxX0123456789abcdefgINPUTLUTkeyinput_" in
  let ch () = alphabet.[Random.State.int rng (String.length alphabet)] in
  let n = String.length text in
  let i = Random.State.int rng (n + 1) in
  match Random.State.int rng 3 with
  | 0 when i < n -> String.mapi (fun j c -> if j = i then ch () else c) text
  | 1 when i < n -> String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | _ -> String.sub text 0 i ^ String.make 1 (ch ()) ^ String.sub text i (n - i)

let prop_parser_matches_reference =
  (* The index-scanning parser against the whole-line reference: the same
     circuit (its .bench text and its node, port and key arrays), or the
     same exception, on well-formed text and on one- and two-character
     mutations of it. *)
  let outcome parse text =
    match parse text with
    | c ->
      Ok
        ( Bench_io.to_string c, c.Circuit.nodes, c.Circuit.inputs, c.Circuit.keys,
          c.Circuit.outputs )
    | exception (Bench_io.Parse_error _ as e) -> Error (Printexc.to_string e)
    | exception (Invalid_argument _ as e) -> Error (Printexc.to_string e)
  in
  let text_of (seed, mutations) =
    let rng = Random.State.make [| seed |] in
    let text = ref (random_bench_text rng) in
    for _ = 1 to mutations do text := mutate rng !text done;
    !text
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"parser = whole-line reference"
       ~print:(fun x -> Printf.sprintf "%S" (text_of x))
       QCheck2.Gen.(pair (int_bound 1_000_000_000) (int_bound 2))
       (fun x ->
         let text = text_of x in
         outcome (Bench_io.parse_string ~name:"t") text
         = outcome (Test_support.Reference_bench.parse_string ~name:"t") text))

type name_op = Fresh | Named of string | Unique of string | Find of string

let name_pool =
  List.init 41 (fun k -> "n" ^ string_of_int k) @ [ "n07"; "n00"; "n"; "n-1"; "g3"; "g3_c1" ]

let gen_name_ops =
  QCheck2.Gen.(
    list_size (int_bound 80)
      (frequency
         [
           4, pure Fresh;
           3, map (fun s -> Named s) (oneofl name_pool);
           1, map (fun s -> Unique s) (oneofl name_pool);
           2, map (fun s -> Find s) (oneofl name_pool);
         ]))

let print_name_ops (adopt_after, ops) =
  Printf.sprintf "adopt after %d: %s" adopt_after
    (String.concat "; "
       (List.map
          (function
            | Fresh -> "fresh"
            | Named s -> "named " ^ s
            | Unique s -> "unique " ^ s
            | Find s -> "find " ^ s)
          ops))

let prop_names_match_reference =
  (* Builder naming against one string table (Test_support.Reference_names):
     the same ids, generated names, duplicate errors, unique names and
     lookups, also in a builder that adopted a frozen circuit. *)
  let module R = Test_support.Reference_names in
  let outcome f = match f () with r -> Ok r | exception Invalid_argument m -> Error m in
  let step_real b = function
    | Fresh -> outcome (fun () -> `Id (Circuit.Builder.input b))
    | Named s -> outcome (fun () -> `Id (Circuit.Builder.input ~name:s b))
    | Unique s -> Ok (`Name (Circuit.Builder.unique_name b s))
    | Find s -> Ok (`Found (Circuit.Builder.find_by_name b s))
  in
  let step_ref r = function
    | Fresh -> outcome (fun () -> `Id (R.push r))
    | Named s -> outcome (fun () -> `Id (R.push ~name:s r))
    | Unique s -> Ok (`Name (R.unique_name r s))
    | Find s -> Ok (`Found (R.find_by_name r s))
  in
  let freeze b =
    Circuit.Builder.output b "y" 0;
    Circuit.of_builder b
  in
  let names c = Array.map (fun (nd : Circuit.node) -> nd.Circuit.name) c.Circuit.nodes in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"builder names = string-table reference"
       ~print:print_name_ops
       QCheck2.Gen.(pair (int_bound 40) gen_name_ops)
       (fun (adopt_after, ops) ->
         let b = ref (Circuit.Builder.create ()) and r = ref (R.create ()) in
         List.for_all Fun.id
           (List.mapi
              (fun i op ->
                (* Freeze and adopt once, after [adopt_after] ops, if the
                   builder has a node by then. *)
                if i = adopt_after && Circuit.Builder.size !b > 0 then begin
                  let c = freeze !b in
                  b := Circuit.Builder.of_circuit c;
                  r := R.adopt (names c)
                end;
                step_real !b op = step_ref !r op)
              ops)
         && (Circuit.Builder.size !b = 0 || names (freeze !b) = R.names !r)))

let prop_of_circuit_matches_copy =
  (* Adopting a circuit holds what copying it into an empty builder holds,
     before and after further generated and explicit names. *)
  let hosts =
    lazy
      (let c = Bench_suite.load_scaled "c432" ~scale:4 in
       [
         Bench_suite.c17 ();
         c;
         (Fulllock.lock (Random.State.make [| 3 |]) ~policy:`Cyclic
            ~configs:[ Fulllock.default_config ~n:4 ] c)
           .Fl_locking.Locked.locked;
       ])
  in
  (* [None] pushes a generated name, [Some s] the explicit name [s]. *)
  let apply b pushes =
    List.map
      (fun name ->
        match Circuit.Builder.add ?name b Gate.Not [| Circuit.Builder.size b - 1 |] with
        | id -> Ok id
        | exception Invalid_argument m -> Error m)
      pushes
  in
  qcheck_case ~count:200 "of_circuit = copy_nodes_into"
    QCheck2.Gen.(pair (int_bound 2) (list_size (int_bound 80) (opt (oneofl name_pool))))
    (fun (host, pushes) ->
      let c = List.nth (Lazy.force hosts) host in
      let adopted = Circuit.Builder.of_circuit c in
      let copied = Circuit.Builder.create ~name:c.Circuit.name () in
      ignore (Circuit.copy_nodes_into copied c);
      let finish b =
        Array.iter (fun (port, id) -> Circuit.Builder.output b port id) c.Circuit.outputs;
        Circuit.of_builder b
      in
      let ra = apply adopted pushes and rc = apply copied pushes in
      ra = rc && finish adopted = finish copied)

let () =
  Alcotest.run "netlist"
    [
      ( "gate",
        [
          Alcotest.test_case "truth tables" `Quick test_gate_truth_tables;
          Alcotest.test_case "mux" `Quick test_gate_mux;
          Alcotest.test_case "n-ary" `Quick test_gate_nary;
          Alcotest.test_case "lut" `Quick test_gate_lut;
          Alcotest.test_case "negate" `Quick test_gate_negate;
          Alcotest.test_case "negate semantics" `Quick test_gate_negate_semantics;
          Alcotest.test_case "string roundtrip" `Quick test_gate_string_roundtrip;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "builder basic" `Quick test_builder_basic;
          Alcotest.test_case "bad fanins" `Quick test_builder_rejects_bad_fanins;
          Alcotest.test_case "duplicate name" `Quick test_builder_duplicate_name;
          Alcotest.test_case "declare cycles" `Quick test_declare_enables_cycles;
          Alcotest.test_case "unwired declare" `Quick test_freeze_rejects_unwired_declare;
          Alcotest.test_case "fanouts" `Quick test_fanouts;
          Alcotest.test_case "copy_into" `Quick test_copy_into;
          Alcotest.test_case "set-up forces no minor collection" `Quick
            test_setup_forces_no_minor_collection;
        ] );
      ( "sim",
        [
          Alcotest.test_case "simple" `Quick test_sim_simple;
          Alcotest.test_case "vector helpers" `Quick test_sim_vector_helpers;
          Alcotest.test_case "cycle opened by mux" `Quick test_sim_cyclic_opened_by_mux;
          Alcotest.test_case "cycle unresolved" `Quick test_sim_cyclic_unresolved;
          Alcotest.test_case "settles" `Quick test_sim_settles;
        ] );
      ( "bench_io",
        [
          Alcotest.test_case "c17 parses" `Quick test_c17_parses;
          Alcotest.test_case "c17 functional" `Quick test_c17_functional;
          Alcotest.test_case "roundtrip" `Quick test_bench_roundtrip;
          Alcotest.test_case "keyinput convention" `Quick test_bench_keyinput_convention;
          Alcotest.test_case "lut roundtrip" `Quick test_bench_lut_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_bench_parse_errors;
          Alcotest.test_case "lut table errors" `Quick test_bench_lut_table_errors;
        ] );
      ( "generator",
        [
          Alcotest.test_case "respects profile" `Quick test_generator_respects_profile;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "no dead logic" `Quick test_generator_no_dead_logic;
          Alcotest.test_case "suite entries" `Quick test_suite_entries;
          Alcotest.test_case "suite scaled" `Quick test_suite_load_scaled;
          Alcotest.test_case "suite full counts" `Quick test_suite_load_full_counts;
        ] );
      ( "misc",
        [
          Alcotest.test_case "const roundtrip" `Quick test_const_bench_roundtrip;
          Alcotest.test_case "pp_stats" `Quick test_pp_stats_smoke;
          Alcotest.test_case "kind histogram" `Quick test_kind_histogram;
          Alcotest.test_case "depth c17" `Quick test_depth_c17;
          Alcotest.test_case "sccs" `Quick test_sccs;
        ] );
      ( "properties",
        [ prop_lut_matches_gate; prop_generator_valid; prop_sim_tristate_agrees;
          prop_bench_roundtrip; prop_parser_total; prop_lut_bench_roundtrip;
          prop_parser_matches_reference; prop_names_match_reference;
          prop_of_circuit_matches_copy ] );
    ]
