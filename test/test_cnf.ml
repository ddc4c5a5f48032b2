(* Tests for Fl_cnf: formulas, DIMACS, Tseytin transform, miter. *)

module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Generator = Fl_netlist.Generator
module Formula = Fl_cnf.Formula
module Tseytin = Fl_cnf.Tseytin
module Miter = Fl_cnf.Miter

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Brute-force SAT check used as the reference implementation. *)
let brute_force_models f =
  let n = Formula.num_vars f in
  assert (n <= 20);
  let clauses = Formula.clauses f in
  let satisfied assignment =
    Array.for_all
      (fun clause ->
        Array.exists
          (fun l ->
            let v = abs l in
            let value = assignment land (1 lsl (v - 1)) <> 0 in
            if l > 0 then value else not value)
          clause)
      clauses
  in
  let count = ref 0 in
  for a = 0 to (1 lsl n) - 1 do
    if satisfied a then incr count
  done;
  !count

(* ------------------------------------------------------------------ *)
(* Formula                                                             *)
(* ------------------------------------------------------------------ *)

let test_formula_basics () =
  let f = Formula.create () in
  let a = Formula.fresh_var f in
  let b = Formula.fresh_var f in
  Formula.add_clause f [ a; -b ];
  Formula.add_clause f [ -a; b ];
  check int_t "vars" 2 (Formula.num_vars f);
  check int_t "clauses" 2 (Formula.num_clauses f);
  check int_t "literals" 4 (Formula.num_literals f);
  check (Alcotest.float 1e-9) "ratio" 1.0 (Formula.ratio f)

let test_formula_rejects_bad_clauses () =
  let f = Formula.create () in
  let a = Formula.fresh_var f in
  (try
     Formula.add_clause f [];
     Alcotest.fail "empty clause accepted"
   with Invalid_argument _ -> ());
  (try
     Formula.add_clause f [ a; 0 ];
     Alcotest.fail "zero literal accepted"
   with Invalid_argument _ -> ());
  try
    Formula.add_clause f [ 5 ];
    Alcotest.fail "unallocated variable accepted"
  with Invalid_argument _ -> ()

let test_dimacs_roundtrip () =
  let f = Formula.create () in
  let vars = Formula.fresh_vars f 4 in
  Formula.add_clause f [ vars.(0); -vars.(1); vars.(3) ];
  Formula.add_clause f [ -vars.(2) ];
  let text = Formula.to_dimacs f in
  let f2 = Formula.of_dimacs text in
  check int_t "clauses" (Formula.num_clauses f) (Formula.num_clauses f2);
  check int_t "vars >= used" 4 (Formula.num_vars f2);
  check bool_t "same clause content" true
    (Formula.clauses f = Formula.clauses f2)

let test_dimacs_errors () =
  (* Every error names the line it was found on. *)
  let fails_at text line =
    match Formula.of_dimacs text with
    | _ -> Alcotest.failf "accepted %S" text
    | exception Formula.Dimacs_error msg ->
      let prefix = Printf.sprintf "line %d: " line in
      check bool_t msg true (String.starts_with ~prefix msg)
  in
  fails_at "1 x 0\n" 1;
  fails_at "c comment\n1 2 3\n" 2;
  fails_at "p cnf 2 1\n\n0\n" 3;
  fails_at "p cnf 2\n1 0\n" 1;
  fails_at "p dnf 2 1\n1 0\n" 1;
  fails_at "p cnf 2 1\n1 3 0\n" 2;
  fails_at "p cnf 2 1\n1 -3 0\n" 2;
  fails_at "p cnf 2 1\np cnf 2 1\n1 0\n" 2;
  fails_at "1 0\np cnf 2 1\n" 2;
  (* Headerless input stays legal, and the clause count is not checked. *)
  check int_t "headerless" 2
    (Formula.num_clauses (Formula.of_dimacs "1 -2 0\n2 0\n"));
  check int_t "count not checked" 1
    (Formula.num_clauses (Formula.of_dimacs "p cnf 2 5\n1 -2 0\n"))

(* ------------------------------------------------------------------ *)
(* Tseytin gate encodings: each gate's CNF must have exactly the models
   of its truth table.                                                 *)
(* ------------------------------------------------------------------ *)

let count_gate_models kind arity =
  let f = Formula.create () in
  let fanins = Formula.fresh_vars f arity in
  let out = Formula.fresh_var f in
  Tseytin.encode_gate f kind ~out ~fanins;
  (* Model count must be 2^arity: every input combination has exactly one
     consistent output. *)
  brute_force_models f

let test_gate_encodings_model_count () =
  List.iter
    (fun (kind, arity) ->
      check int_t
        (Printf.sprintf "%s/%d" (Gate.to_string kind) arity)
        (1 lsl arity)
        (count_gate_models kind arity))
    [
      Gate.And, 2; Gate.Nand, 2; Gate.Or, 2; Gate.Nor, 2; Gate.Xor, 2;
      Gate.Xnor, 2; Gate.Buf, 1; Gate.Not, 1; Gate.Mux, 3; Gate.And, 3;
      Gate.Nand, 4; Gate.Or, 3; Gate.Nor, 4; Gate.Xor, 3; Gate.Xnor, 3;
      Gate.Lut [| true; false; true; true |], 2;
    ]

let test_gate_encoding_functional () =
  (* Pin inputs, check the only model's output matches Gate.eval. *)
  let kinds =
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Mux;
      Gate.Lut [| false; true; true; true; false; false; true; false |] ]
  in
  List.iter
    (fun kind ->
      let arity = match Gate.arity kind with Some a -> a | None -> 2 in
      for stim = 0 to (1 lsl arity) - 1 do
        let f = Formula.create () in
        let fanins = Formula.fresh_vars f arity in
        let out = Formula.fresh_var f in
        Tseytin.encode_gate f kind ~out ~fanins;
        let bits = Array.init arity (fun i -> stim land (1 lsl i) <> 0) in
        Tseytin.assert_vector f fanins bits;
        let expected = Gate.eval kind bits in
        (* Force output to the wrong value: must be unsat (0 models). *)
        let f_bad = Formula.copy f in
        Tseytin.assert_lit f_bad (if expected then -out else out);
        check int_t
          (Printf.sprintf "%s bad stim=%d" (Gate.to_string kind) stim)
          0 (brute_force_models f_bad);
        Tseytin.assert_lit f (if expected then out else -out);
        check int_t
          (Printf.sprintf "%s good stim=%d" (Gate.to_string kind) stim)
          1 (brute_force_models f)
      done)
    kinds

let test_table1_clause_counts () =
  (* Table 1: 2-input AND/OR/NAND/NOR have 3 clauses; XOR/XNOR/MUX have 4;
     BUF/NOT have 2. *)
  let clause_count kind arity =
    let f = Formula.create () in
    let fanins = Formula.fresh_vars f arity in
    let out = Formula.fresh_var f in
    Tseytin.encode_gate f kind ~out ~fanins;
    Formula.num_clauses f
  in
  check int_t "and" 3 (clause_count Gate.And 2);
  check int_t "nand" 3 (clause_count Gate.Nand 2);
  check int_t "or" 3 (clause_count Gate.Or 2);
  check int_t "nor" 3 (clause_count Gate.Nor 2);
  check int_t "xor" 4 (clause_count Gate.Xor 2);
  check int_t "xnor" 4 (clause_count Gate.Xnor 2);
  check int_t "mux" 4 (clause_count Gate.Mux 3);
  check int_t "buf" 2 (clause_count Gate.Buf 1);
  check int_t "not" 2 (clause_count Gate.Not 1)

(* ------------------------------------------------------------------ *)
(* Whole-circuit encoding vs simulation                                *)
(* ------------------------------------------------------------------ *)

let check_circuit_encoding c vectors =
  List.iter
    (fun inputs ->
      let f = Formula.create () in
      let enc = Tseytin.encode f c in
      Tseytin.assert_vector f enc.Tseytin.input_vars inputs;
      let expected = View.eval (View.of_circuit c) ~inputs ~keys:[||] in
      (* Assert the expected outputs: satisfiable. *)
      let f_good = Formula.copy f in
      Tseytin.assert_vector f_good enc.Tseytin.output_vars expected;
      check bool_t "good is sat" true (brute_force_models f_good > 0);
      (* Assert some output flipped: unsatisfiable. *)
      let f_bad = Formula.copy f in
      Tseytin.assert_lit f_bad
        (let v = enc.Tseytin.output_vars.(0) in
         if expected.(0) then -v else v);
      check int_t "bad is unsat" 0 (brute_force_models f_bad))
    vectors

let test_c17_encoding () =
  let c = Fl_netlist.Bench_suite.c17 () in
  let vectors = List.init 8 (fun v -> Test_support.vector_of_int ~width:5 (v * 4 mod 32)) in
  check_circuit_encoding c vectors

let test_random_circuit_encoding () =
  let profile =
    { Generator.num_inputs = 6; num_outputs = 2; num_gates = 25; max_fanin = 3; and_bias = 0.6 }
  in
  let c = Generator.random ~seed:11 ~name:"enc" profile in
  (* Brute force limit: formula has ~num_nodes vars, keep below 20. *)
  if Circuit.num_nodes c + 4 <= 20 then
    check_circuit_encoding c (List.init 4 (fun v -> Test_support.vector_of_int ~width:6 (v * 13 mod 64)))
  else begin
    (* Large circuit: only shape checks. *)
    let f = Formula.create () in
    let enc = Tseytin.encode f c in
    check bool_t "vars cover nodes" true (Formula.num_vars f >= Circuit.num_nodes c);
    check bool_t "outputs mapped" true (Array.length enc.Tseytin.output_vars = 2)
  end

let test_shared_inputs_encoding () =
  (* Two copies sharing inputs: same circuit, no keys -> outputs must be
     provably equal (forcing a difference is unsat). *)
  let c = Fl_netlist.Bench_suite.c17 () in
  let f = Formula.create () in
  let a = Tseytin.encode f c in
  let b = Tseytin.encode ~share_inputs:a.Tseytin.input_vars f c in
  let pairs =
    Array.to_list (Array.map2 (fun x y -> x, y) a.Tseytin.output_vars b.Tseytin.output_vars)
  in
  ignore (Tseytin.assert_any_differs f pairs);
  (* 2 copies of c17 -> too many vars for brute force; use the CDCL solver. *)
  let outcome, _, _ = Fl_sat.Cdcl.solve_formula f in
  check bool_t "copies equal" true (outcome = Fl_sat.Cdcl.Unsat)

(* ------------------------------------------------------------------ *)
(* Miter                                                               *)
(* ------------------------------------------------------------------ *)

(* y = x XOR k : flipping the key flips the output, so a DIP exists. *)
let xor_locked () =
  let b = Circuit.Builder.create ~name:"xl" () in
  let x = Circuit.Builder.input ~name:"x" b in
  let k = Circuit.Builder.key_input ~name:"k" b in
  let y = Circuit.Builder.add ~name:"y" b Gate.Xor [| x; k |] in
  Circuit.Builder.output b "y" y;
  Circuit.of_builder b

let test_miter_finds_dip () =
  let c = xor_locked () in
  let m = Miter.build c in
  let outcome, _, _ = Fl_sat.Cdcl.solve_formula m.Miter.formula in
  check bool_t "dip exists" true (outcome = Fl_sat.Cdcl.Sat)

let test_miter_io_constraint_rules_out_keys () =
  let c = xor_locked () in
  let m = Miter.build c in
  (* Oracle with k* = 1: input x=0 -> y=1. *)
  Test_support.add_io_constraint m c ~inputs:[| false |] ~outputs:[| true |];
  (* Now both key copies must be 1, so no further DIP exists. *)
  let outcome, _, _ = Fl_sat.Cdcl.solve_formula m.Miter.formula in
  check bool_t "no dip left" true (outcome = Fl_sat.Cdcl.Unsat)

let test_miter_requires_keys () =
  let c = Fl_netlist.Bench_suite.c17 () in
  try
    ignore (Miter.build c);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_ratio_positive () =
  let c = xor_locked () in
  let r = Miter.clause_variable_ratio c in
  check bool_t "ratio > 0" true (r > 0.0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_case ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_encoding_matches_sim =
  (* For random small circuits and vectors, CDCL on the pinned encoding gives
     exactly the simulated outputs. *)
  let gen = QCheck2.Gen.(pair (int_bound 500) (int_bound 0xffff)) in
  qcheck_case "tseytin matches simulation" gen (fun (seed, stim) ->
      let profile =
        { Generator.num_inputs = 5; num_outputs = 3; num_gates = 30; max_fanin = 4; and_bias = 0.7 }
      in
      let c = Generator.random ~seed ~name:"p" profile in
      let inputs = Array.init 5 (fun i -> stim land (1 lsl i) <> 0) in
      let f = Formula.create () in
      let enc = Tseytin.encode f c in
      Tseytin.assert_vector f enc.Tseytin.input_vars inputs;
      match Fl_sat.Cdcl.solve_formula f with
      | Fl_sat.Cdcl.Sat, Some model, _ ->
        let expected = View.eval (View.of_circuit c) ~inputs ~keys:[||] in
        Array.for_all2
          (fun v e -> model.(v) = e)
          enc.Tseytin.output_vars expected
      | _ -> false)

(* The folded observation copy (key cone only, settled nodes constant)
   must admit exactly the keys the full copy with pinned inputs and
   outputs admits, and never be larger: both copies are solved with the
   key pinned to [key].  Returns the verdict and the two clause counts. *)
let observation_agrees locked ~inputs ~key ~outputs =
  let copy encode_copy =
    let f = Formula.create () in
    let keys = Formula.fresh_vars f (Array.length key) in
    encode_copy f keys;
    let clauses = Formula.num_clauses f in
    Tseytin.assert_vector f keys key;
    let sat, _, _ = Fl_sat.Cdcl.solve_formula f in
    sat = Fl_sat.Cdcl.Sat, clauses
  in
  let full_sat, full_clauses =
    copy (fun f keys ->
        let enc = Tseytin.encode ~share_keys:keys f locked in
        Tseytin.assert_vector f enc.Tseytin.input_vars inputs;
        Tseytin.assert_vector f enc.Tseytin.output_vars outputs)
  in
  let folded_sat, folded_clauses =
    copy (fun f keys ->
        let values =
          Fl_netlist.View.eval_under_inputs
            (Fl_netlist.View.of_circuit locked) ~inputs
        in
        Tseytin.add_observation f
          (Tseytin.fold_observation locked ~values ~outputs)
          ~share_keys:keys)
  in
  full_sat = folded_sat && folded_clauses <= full_clauses, full_clauses,
  folded_clauses

let prop_observation_folding =
  (* Random small hosts under every scheme family the attacks meet,
     acyclic and cyclic; outputs are the oracle's (consistent keys exist)
     or random (often none do). *)
  let gen =
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_bound 4) (int_bound 0xffff) bool)
  in
  qcheck_case ~count:150 "folded observation = full copy" gen
    (fun (seed, scheme, stim, oracle_outputs) ->
      let c =
        Generator.random ~seed ~name:"h"
          { Generator.num_inputs = 6; num_outputs = 3; num_gates = 40;
            max_fanin = 3; and_bias = 0.7 }
      in
      let rng = Random.State.make [| seed |] in
      match
        match scheme with
        | 0 -> Fl_locking.Rll.lock rng ~key_bits:5 c
        | 1 -> Fl_locking.Sarlock.lock rng ~key_bits:4 c
        | 2 -> Fl_core.Fulllock.lock_one rng ~n:4 c
        | 3 -> Fl_core.Fulllock.lock_one rng ~policy:`Cyclic ~n:4 c
        | _ -> Fl_locking.Cyclic_lock.lock rng ~cycles:2 c
      with
      | exception Invalid_argument _ -> QCheck2.assume_fail ()
      | l ->
        let locked = l.Fl_locking.Locked.locked in
        let inputs = Array.init 6 (fun i -> stim land (1 lsl i) <> 0) in
        let key =
          Array.init (Circuit.num_keys locked) (fun _ -> Random.State.bool rng)
        in
        let outputs =
          if oracle_outputs then Fl_locking.Locked.query_oracle l inputs
          else Array.init 3 (fun _ -> Random.State.bool rng)
        in
        let ok, _, _ = observation_agrees locked ~inputs ~key ~outputs in
        ok)

(* A small circuit whose strongly connected components the observation
   copy's cyclic resolver must cut, drawn from [rng]: BUF/NOT chains that
   enter and leave a cycle through a two-input gate, a BUF-only loop, an
   odd NOT loop, and a key-controlled MUX inside a cycle.  Each part comes
   with probability one half (the odd loop, which makes every key
   inconsistent, one quarter), with its own lengths and gate kinds; the
   MUX part stands in when no part is drawn. *)
let cyclic_core rng =
  let module B = Circuit.Builder in
  let b = B.create ~name:"core" () in
  let xs = Array.init 3 (fun i -> B.input ~name:(Printf.sprintf "x%d" i) b) in
  let ks = Array.init 3 (fun i -> B.key_input ~name:(Printf.sprintf "k%d" i) b) in
  let int n = Random.State.int rng n and coin () = Random.State.bool rng in
  let pick a = a.(int (Array.length a)) in
  let source () = if coin () then pick xs else pick ks in
  let unary () = if coin () then Gate.Buf else Gate.Not in
  let chain from len =
    let id = ref from in
    for _ = 1 to len do
      id := B.add b (unary ()) [| !id |]
    done;
    !id
  in
  (* A ring of BUF/NOT nodes, each fed by its predecessor. *)
  let ring kinds =
    let ids = Array.map (B.declare b) kinds in
    let n = Array.length ids in
    Array.iteri (fun i id -> B.set_fanins b id [| ids.((i + n - 1) mod n) |]) ids;
    ids
  in
  let outs = ref [] in
  let out id = outs := id :: !outs in
  if coin () then begin
    let entry = chain (source ()) (int 4) in
    let head = B.declare b (pick [| Gate.And; Gate.Or; Gate.Xor; Gate.Nand |]) in
    let last = chain head (int 3) in
    B.set_fanins b head (if coin () then [| entry; last |] else [| last; entry |]);
    out (chain (if coin () then head else last) (int 4))
  end;
  if coin () then begin
    let loop = ring (Array.make (1 + int 3) Gate.Buf) in
    out
      (if coin () then chain (pick loop) (int 3)
       else B.add b Gate.And [| pick xs; pick loop |])
  end;
  if int 4 = 0 then begin
    let n = 1 + int 4 in
    let kinds = Array.init n (fun _ -> unary ()) in
    let nots = Array.fold_left (fun k g -> if g = Gate.Not then k + 1 else k) 0 kinds in
    if nots land 1 = 0 then
      kinds.(0) <- (if kinds.(0) = Gate.Not then Gate.Buf else Gate.Not);
    out (chain (pick (ring kinds)) (int 2))
  end;
  if !outs = [] || coin () then begin
    let m = B.declare b Gate.Mux in
    let back = chain m (1 + int 3) in
    let other = source () in
    B.set_fanins b m
      (if coin () then [| pick ks; other; back |] else [| pick ks; back; other |]);
    out (chain m (int 3))
  end;
  List.iteri (fun i id -> B.output b (Printf.sprintf "o%d" i) id) (List.rev !outs);
  Circuit.of_builder b

let prop_observation_folding_cyclic_cores =
  (* The same agreement on circuits built around cycles, with outputs
     taken from the circuit under the pinned key where they settle (so
     consistent keys often exist) or drawn at random. *)
  qcheck_case ~count:500 "folded observation = full copy (cyclic cores)"
    QCheck2.Gen.(pair (int_bound 1_000_000) bool)
    (fun (seed, from_circuit) ->
      let rng = Random.State.make [| seed |] in
      let c = cyclic_core rng in
      let inputs = Array.init 3 (fun _ -> Random.State.bool rng) in
      let key = Array.init 3 (fun _ -> Random.State.bool rng) in
      let outputs =
        let settled =
          View.eval_tristate (View.of_circuit c) ~inputs ~keys:key
        in
        Array.map
          (fun v ->
            match v with
            | View.V0 when from_circuit -> false
            | View.V1 when from_circuit -> true
            | _ -> Random.State.bool rng)
          settled
      in
      let ok, _, _ = observation_agrees c ~inputs ~key ~outputs in
      ok)

let test_cyclic_observation_aliases () =
  (* On cyclic Full-Lock, gates that fold to a BUF or a NOT alias their
     fanin: the folded copy then has fewer variables than unsettled gates,
     and fewer clauses than the full copy.  Fixed host and lock draw, every
     input vector of its six inputs. *)
  let c =
    Generator.random ~seed:17 ~name:"h"
      { Generator.num_inputs = 6; num_outputs = 3; num_gates = 40;
        max_fanin = 3; and_bias = 0.7 }
  in
  let l = Fl_core.Fulllock.lock_one (Random.State.make [| 4 |]) ~policy:`Cyclic ~n:4 c in
  let locked = l.Fl_locking.Locked.locked in
  check bool_t "cyclic" false (Circuit.is_acyclic locked);
  let nk = Circuit.num_keys locked in
  let key = Array.make nk false in
  let fewer_vars = ref 0 and fewer_clauses = ref 0 in
  for stim = 0 to 63 do
    let inputs = Array.init 6 (fun i -> stim land (1 lsl i) <> 0) in
    let outputs = Fl_locking.Locked.query_oracle l inputs in
    let values =
      View.eval_under_inputs (View.of_circuit locked) ~inputs
    in
    let unsettled = ref 0 in
    Array.iteri
      (fun id v ->
        if v = View.VX && (Circuit.node locked id).Circuit.kind <> Gate.Key_input
        then incr unsettled)
      values;
    let f = Formula.create () in
    let keys = Formula.fresh_vars f nk in
    Tseytin.add_observation f
      (Tseytin.fold_observation locked ~values ~outputs)
      ~share_keys:keys;
    if Formula.num_vars f - nk < !unsettled then incr fewer_vars;
    let ok, full, folded = observation_agrees locked ~inputs ~key ~outputs in
    check bool_t "folded = full" true ok;
    if folded < full then incr fewer_clauses
  done;
  check bool_t "some copy aliases an unsettled gate" true (!fewer_vars > 0);
  check bool_t "some copy has fewer clauses than the full copy" true
    (!fewer_clauses > 0)

(* ------------------------------------------------------------------ *)
(* Reference paths: the miter built from one renamed copy and the
   observation folded once are the old constructions clause for clause. *)
(* ------------------------------------------------------------------ *)

module Ref = Test_support.Reference_tseytin

let same_formula f g =
  Formula.num_vars f = Formula.num_vars g && Formula.clauses f = Formula.clauses g

(* A small locked circuit: scheme 0-4 as in the folding property above,
   5 a cyclic core. *)
let locked_draw seed scheme =
  let rng = Random.State.make [| seed |] in
  if scheme = 5 then Some (cyclic_core rng, None)
  else
    let c =
      Generator.random ~seed ~name:"h"
        { Generator.num_inputs = 6; num_outputs = 3; num_gates = 40;
          max_fanin = 3; and_bias = 0.7 }
    in
    match
      match scheme with
      | 0 -> Fl_locking.Rll.lock rng ~key_bits:5 c
      | 1 -> Fl_locking.Sarlock.lock rng ~key_bits:4 c
      | 2 -> Fl_core.Fulllock.lock_one rng ~n:4 c
      | 3 -> Fl_core.Fulllock.lock_one rng ~policy:`Cyclic ~n:4 c
      | _ -> Fl_locking.Cyclic_lock.lock rng ~cycles:2 c
    with
    | exception Invalid_argument _ -> None
    | l -> Some (l.Fl_locking.Locked.locked, Some l)

let prop_miter_matches_reference =
  qcheck_case ~count:120 "miter = two copies, key-free shared"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 5))
    (fun (seed, scheme) ->
      match locked_draw seed scheme with
      | None -> QCheck2.assume_fail ()
      | Some (c, _) ->
        let m = Miter.build c in
        let f, a, b = Ref.shared_miter c in
        Miter.key_free c = Ref.key_free c
        && same_formula m.Miter.formula f
        && m.Miter.inputs = a.Ref.input_vars
        && m.Miter.keys_a = a.Ref.key_vars
        && m.Miter.keys_b = b.Ref.key_vars
        && m.Miter.outputs_a = a.Ref.output_vars
        && m.Miter.outputs_b = b.Ref.output_vars)

(* One fold added for two key copies, at variables that are neither
   contiguous nor first in the formula, against two per-copy encodings.
   Random outputs often contradict a settled output. *)
let fold_matches_reference c ~inputs ~outputs =
  let nk = Circuit.num_keys c in
  let values = View.eval_under_inputs (View.of_circuit c) ~inputs in
  let keys_a = Array.init nk (fun i -> (3 * i) + 2)
  and keys_b = Array.init nk (fun i -> (3 * (nk - i)) + 1) in
  let prefix () =
    let f = Formula.create () in
    Formula.reserve f ((3 * nk) + 4);
    f
  in
  let f = prefix () and g = prefix () in
  let o = Tseytin.fold_observation c ~values ~outputs in
  Tseytin.add_observation f o ~share_keys:keys_a;
  Tseytin.add_observation f o ~share_keys:keys_b;
  Ref.encode_observation g c ~values ~share_keys:keys_a ~outputs;
  Ref.encode_observation g c ~values ~share_keys:keys_b ~outputs;
  same_formula f g

let prop_fold_matches_reference =
  qcheck_case ~count:300 "fold + add = per-copy observation"
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_bound 5) bool)
    (fun (seed, scheme, oracle_outputs) ->
      match locked_draw seed scheme with
      | None -> QCheck2.assume_fail ()
      | Some (c, l) ->
        let rng = Random.State.make [| seed; 7 |] in
        let inputs =
          Array.init (Circuit.num_inputs c) (fun _ -> Random.State.bool rng)
        in
        let outputs =
          match l with
          | Some l when oracle_outputs -> Fl_locking.Locked.query_oracle l inputs
          | _ ->
            Array.init (Circuit.num_outputs c) (fun _ -> Random.State.bool rng)
        in
        fold_matches_reference c ~inputs ~outputs)

let test_fold_contradiction () =
  (* y = AND(x, k) observed as 1 under x = 0: the output settles to 0, so
     the fold carries the contradiction and no key is consistent. *)
  let b = Circuit.Builder.create ~name:"and" () in
  let x = Circuit.Builder.input ~name:"x" b in
  let k = Circuit.Builder.key_input ~name:"k" b in
  Circuit.Builder.output b "y" (Circuit.Builder.add ~name:"y" b Gate.And [| x; k |]);
  let c = Circuit.of_builder b in
  check bool_t "same clauses" true
    (fold_matches_reference c ~inputs:[| false |] ~outputs:[| true |]);
  let f = Formula.create () in
  let keys = Formula.fresh_vars f 1 in
  let values = View.eval_under_inputs (View.of_circuit c) ~inputs:[| false |] in
  Tseytin.add_observation f
    (Tseytin.fold_observation c ~values ~outputs:[| true |])
    ~share_keys:keys;
  check int_t "two units over one fresh variable" 2 (Formula.num_clauses f);
  let outcome, _, _ = Fl_sat.Cdcl.solve_formula f in
  check bool_t "unsat" true (outcome = Fl_sat.Cdcl.Unsat)

(* ------------------------------------------------------------------ *)
(* Local elimination: the eliminated template admits the raw one's keys *)
(* ------------------------------------------------------------------ *)

(* [o] added for one key vector at variables 1 .. keys. *)
let observation_formula o nk =
  let f = Formula.create () in
  let keys = Formula.fresh_vars f nk in
  Tseytin.add_observation f o ~share_keys:keys;
  f, keys

(* The raw template and its elimination, each added over fresh key
   variables, agree on SAT/UNSAT under [trials] random partial key
   assignments (each key bit fixed with probability one half, the empty
   assignment included). *)
let eliminated_agrees rng raw eliminated nk ~trials =
  let f, keys = observation_formula raw nk
  and g, keys' = observation_formula eliminated nk in
  let sf = Fl_sat.Cdcl.of_formula f and sg = Fl_sat.Cdcl.of_formula g in
  List.for_all
    (fun _ ->
      let pick = Array.init nk (fun _ -> Random.State.int rng 4) in
      let assumptions vars =
        List.filter_map Fun.id
          (List.init nk (fun i ->
               match pick.(i) with
               | 0 -> Some vars.(i)
               | 1 -> Some (-vars.(i))
               | _ -> None))
      in
      Fl_sat.Cdcl.solve ~assumptions:(assumptions keys) sf
      = Fl_sat.Cdcl.solve ~assumptions:(assumptions keys') sg)
    (List.init trials Fun.id)

let prop_eliminated_observation =
  (* SARLock, acyclic and cyclic Full-Lock and cyclic cores; outputs the
     oracle's (schemes with one) or random, which often contradict a
     settled output.  One scratch serves every observation of a draw, as
     it serves a session. *)
  qcheck_case ~count:200 "eliminated observation = raw observation on keys"
    QCheck2.Gen.(triple (int_bound 1_000_000) (oneofl [ 1; 2; 3; 5 ]) bool)
    (fun (seed, scheme, oracle_outputs) ->
      match locked_draw seed scheme with
      | None -> QCheck2.assume_fail ()
      | Some (c, l) ->
        let rng = Random.State.make [| seed; 13 |] in
        let sc = Tseytin.scratch () in
        List.for_all
          (fun _ ->
            let inputs =
              Array.init (Circuit.num_inputs c) (fun _ -> Random.State.bool rng)
            in
            let outputs =
              match l with
              | Some l when oracle_outputs -> Fl_locking.Locked.query_oracle l inputs
              | _ ->
                Array.init (Circuit.num_outputs c) (fun _ -> Random.State.bool rng)
            in
            let values = View.eval_under_inputs (View.of_circuit c) ~inputs in
            let o = Tseytin.fold_observation c ~values ~outputs in
            eliminated_agrees rng o (Tseytin.eliminate_locals sc o)
              (Circuit.num_keys c) ~trials:6)
          (List.init 3 Fun.id))

let test_eliminate_contradiction () =
  (* The fold's contradiction, [v] and [¬v], resolves to the empty
     clause: the result stays unsatisfiable, as one local forced both
     ways, and adding it raises nothing. *)
  let b = Circuit.Builder.create ~name:"and" () in
  let x = Circuit.Builder.input ~name:"x" b in
  let k = Circuit.Builder.key_input ~name:"k" b in
  Circuit.Builder.output b "y" (Circuit.Builder.add ~name:"y" b Gate.And [| x; k |]);
  let c = Circuit.of_builder b in
  let values = View.eval_under_inputs (View.of_circuit c) ~inputs:[| false |] in
  let o = Tseytin.fold_observation c ~values ~outputs:[| true |] in
  let f, _ = observation_formula (Tseytin.eliminate_locals (Tseytin.scratch ()) o) 1 in
  check int_t "one local" 2 (Formula.num_vars f);
  check int_t "two units" 2 (Formula.num_clauses f);
  let outcome, _, _ = Fl_sat.Cdcl.solve_formula f in
  check bool_t "unsat" true (outcome = Fl_sat.Cdcl.Unsat)

let test_eliminate_cycle_cut () =
  (* m = MUX(k, x, b), b = BUF(m), y = m, observed y = 1 under x = 0.
     The fold cuts the loop at m's own variable: (k ∨ ¬m) from the MUX
     and the unit [m] from the output.  Eliminating the cut variable
     leaves [k], which is the raw copy's verdict on k: k = 0 reads x = 0,
     k = 1 closes the loop, which holds 1. *)
  let module B = Circuit.Builder in
  let b = B.create ~name:"loop" () in
  let x = B.input ~name:"x" b in
  let k = B.key_input ~name:"k" b in
  let m = B.declare b Gate.Mux in
  let buf = B.add b Gate.Buf [| m |] in
  B.set_fanins b m [| k; x; buf |];
  B.output b "y" m;
  let c = Circuit.of_builder b in
  let values = View.eval_under_inputs (View.of_circuit c) ~inputs:[| false |] in
  let o = Tseytin.fold_observation c ~values ~outputs:[| true |] in
  let raw, _ = observation_formula o 1 in
  let e, _ = observation_formula (Tseytin.eliminate_locals (Tseytin.scratch ()) o) 1 in
  check int_t "raw copy keeps the cut variable" 2 (Formula.num_vars raw);
  check bool_t "eliminated copy is [k]" true
    (Formula.num_vars e = 1 && Formula.clauses e = [| [| 1 |] |]);
  List.iter
    (fun key ->
      let under f =
        let outcome, _, _ =
          Fl_sat.Cdcl.solve_formula
            (let g = Formula.copy f in
             Tseytin.assert_lit g (if key then 1 else -1);
             g)
        in
        outcome = Fl_sat.Cdcl.Sat
      in
      check bool_t (Printf.sprintf "k = %b" key) key (under raw);
      check bool_t (Printf.sprintf "k = %b eliminated" key) key (under e))
    [ false; true ]

let () =
  Alcotest.run "cnf"
    [
      ( "formula",
        [
          Alcotest.test_case "basics" `Quick test_formula_basics;
          Alcotest.test_case "bad clauses" `Quick test_formula_rejects_bad_clauses;
          Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "dimacs errors" `Quick test_dimacs_errors;
        ] );
      ( "tseytin",
        [
          Alcotest.test_case "model counts" `Quick test_gate_encodings_model_count;
          Alcotest.test_case "functional" `Quick test_gate_encoding_functional;
          Alcotest.test_case "table1 clause counts" `Quick test_table1_clause_counts;
          Alcotest.test_case "c17 encoding" `Quick test_c17_encoding;
          Alcotest.test_case "random circuit" `Quick test_random_circuit_encoding;
          Alcotest.test_case "shared inputs" `Quick test_shared_inputs_encoding;
        ] );
      ( "miter",
        [
          Alcotest.test_case "finds dip" `Quick test_miter_finds_dip;
          Alcotest.test_case "io constraint" `Quick test_miter_io_constraint_rules_out_keys;
          Alcotest.test_case "requires keys" `Quick test_miter_requires_keys;
          Alcotest.test_case "ratio positive" `Quick test_ratio_positive;
          prop_miter_matches_reference;
          Alcotest.test_case "fold contradiction" `Quick test_fold_contradiction;
          Alcotest.test_case "eliminate contradiction" `Quick
            test_eliminate_contradiction;
          Alcotest.test_case "eliminate cycle cut" `Quick test_eliminate_cycle_cut;
        ] );
      ( "properties",
        [
          prop_encoding_matches_sim;
          prop_observation_folding;
          prop_observation_folding_cyclic_cores;
          Alcotest.test_case "cyclic observation aliases" `Quick
            test_cyclic_observation_aliases;
          prop_fold_matches_reference;
          prop_eliminated_observation;
        ] );
    ]
