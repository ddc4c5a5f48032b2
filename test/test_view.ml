(* Tests for Fl_netlist.View: the compiled evaluator must be observationally
   identical to the interpretive reference simulators, on acyclic and cyclic
   circuits alike, and the per-circuit memoization must hold. *)

module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Generator = Fl_netlist.Generator
module Bench_suite = Fl_netlist.Bench_suite

let check = Alcotest.check
let bool_t = Alcotest.bool

let qcheck_case ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Circuit generators                                                  *)
(* ------------------------------------------------------------------ *)

let acyclic_of ~seed =
  let profile =
    {
      Generator.num_inputs = 3 + (seed mod 6);
      num_outputs = 1 + (seed mod 3);
      num_gates = 15 + (seed mod 60);
      max_fanin = 2 + (seed mod 3);
      and_bias = 0.7;
    }
  in
  Generator.random ~seed ~name:"view-prop" profile

(* A random circuit whose declared gates pick fanins from the whole id
   space, so combinational cycles (and self-loops) appear freely.  Exercises
   every gate kind the compiled evaluator handles, including LUTs and
   constants. *)
let random_cyclic ~seed =
  let rng = Random.State.make [| seed; 0xc1c |] in
  let b = Circuit.Builder.create ~name:(Printf.sprintf "cyc%d" seed) () in
  let num_inputs = 2 + Random.State.int rng 3 in
  let num_keys = 1 + Random.State.int rng 2 in
  let num_gates = 8 + Random.State.int rng 25 in
  let ids = ref [] in
  for _ = 1 to num_inputs do
    ids := Circuit.Builder.input b :: !ids
  done;
  for _ = 1 to num_keys do
    ids := Circuit.Builder.key_input b :: !ids
  done;
  ids := Circuit.Builder.add b (Gate.Const (Random.State.bool rng)) [||] :: !ids;
  let declared = ref [] in
  for _ = 1 to num_gates do
    let kind =
      match Random.State.int rng 12 with
      | 0 -> Gate.Buf
      | 1 -> Gate.Not
      | 2 -> Gate.And
      | 3 -> Gate.Nand
      | 4 -> Gate.Or
      | 5 -> Gate.Nor
      | 6 -> Gate.Xor
      | 7 -> Gate.Xnor
      | 8 | 9 -> Gate.Mux
      | _ ->
        let k = 1 + Random.State.int rng 3 in
        Gate.Lut (Array.init (1 lsl k) (fun _ -> Random.State.bool rng))
    in
    let id = Circuit.Builder.declare b kind in
    declared := (id, kind) :: !declared;
    ids := id :: !ids
  done;
  let all = Array.of_list !ids in
  let pick () = all.(Random.State.int rng (Array.length all)) in
  List.iter
    (fun (id, kind) ->
      let arity =
        match kind with
        | Gate.Buf | Gate.Not -> 1
        | Gate.Mux -> 3
        | Gate.Lut tt ->
          let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
          log2 (Array.length tt)
        | _ -> 2 + Random.State.int rng 2
      in
      Circuit.Builder.set_fanins b id (Array.init arity (fun _ -> pick ())))
    !declared;
  let gate_ids = Array.of_list (List.map fst !declared) in
  let num_outputs = 1 + Random.State.int rng 3 in
  for i = 0 to num_outputs - 1 do
    Circuit.Builder.output b
      (Printf.sprintf "y%d" i)
      gate_ids.(Random.State.int rng (Array.length gate_ids))
  done;
  Circuit.of_builder b

let random_stim rng c =
  ( View.random_vector rng (Circuit.num_inputs c),
    View.random_vector rng (Circuit.num_keys c) )

(* ------------------------------------------------------------------ *)
(* Compiled evaluator = reference simulator                            *)
(* ------------------------------------------------------------------ *)

let prop_acyclic_matches_reference =
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000)) in
  qcheck_case "acyclic: view = reference" gen (fun (seed, stim_seed) ->
      let c = acyclic_of ~seed in
      let rng = Random.State.make [| stim_seed |] in
      let inputs, keys = random_stim rng c in
      View.eval (View.of_circuit c) ~inputs ~keys = View.eval_reference c ~inputs ~keys
      && View.eval_tristate (View.of_circuit c) ~inputs ~keys
         = View.eval_tristate_reference c ~inputs ~keys)

let prop_cyclic_matches_reference =
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000)) in
  qcheck_case "cyclic: view fixpoint = reference fixpoint" gen
    (fun (seed, stim_seed) ->
      let c = random_cyclic ~seed in
      let rng = Random.State.make [| stim_seed |] in
      let inputs, keys = random_stim rng c in
      let via_view = View.eval_tristate (View.of_circuit c) ~inputs ~keys in
      let reference = View.eval_tristate_reference c ~inputs ~keys in
      let strict_agree =
        match View.eval (View.of_circuit c) ~inputs ~keys with
        | outputs -> (
          match View.eval_reference c ~inputs ~keys with
          | ref_outputs -> outputs = ref_outputs
          | exception View.Unresolved _ -> false)
        | exception View.Unresolved _ -> (
          match View.eval_reference c ~inputs ~keys with
          | _ -> false
          | exception View.Unresolved _ -> true)
      in
      via_view = reference && strict_agree)

let prop_word_lane_zero_matches_scalar =
  (* Broadcast words through the view: lane 0 must reproduce the scalar
     tristate result, on cyclic circuits included. *)
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000)) in
  qcheck_case "word lane 0 = scalar" gen (fun (seed, stim_seed) ->
      let c =
        if seed land 1 = 0 then acyclic_of ~seed else random_cyclic ~seed
      in
      let rng = Random.State.make [| stim_seed; 1 |] in
      let inputs, keys = random_stim rng c in
      let words =
        View.eval_words (View.of_circuit c) ~inputs:(View.broadcast inputs)
          ~keys:(View.broadcast keys)
      in
      let scalar = View.eval_tristate_reference c ~inputs ~keys in
      Array.for_all2
        (fun w tri ->
          match tri with
          | View.VX -> w.View.defined land 1 = 0
          | View.V1 -> w.View.defined land 1 = 1 && w.View.value land 1 = 1
          | View.V0 -> w.View.defined land 1 = 1 && w.View.value land 1 = 0)
        words scalar)

let prop_word_lanes_match_scalar_sweep =
  (* Every lane of a packed evaluation equals the scalar reference on that
     lane's vector (acyclic circuits; strict eval). *)
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000)) in
  qcheck_case ~count:25 "packed lanes = scalar sweep" gen
    (fun (seed, stim_seed) ->
      let c = acyclic_of ~seed in
      let rng = Random.State.make [| stim_seed; 2 |] in
      let inputs = View.random_words rng ~width:(Circuit.num_inputs c) in
      let keys = View.random_vector rng (Circuit.num_keys c) in
      let packed = View.eval_packed (View.of_circuit c) ~inputs ~keys:(View.broadcast keys) in
      let ok = ref true in
      for lane = 0 to 7 do
        let lane_inputs =
          Array.map (fun w -> w land (1 lsl lane) <> 0) inputs
        in
        let expected = View.eval_reference c ~inputs:lane_inputs ~keys in
        Array.iteri
          (fun i w ->
            if w land (1 lsl lane) <> 0 <> expected.(i) then ok := false)
          packed
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Fixpoint corner cases                                               *)
(* ------------------------------------------------------------------ *)

let test_oscillator_unresolved () =
  (* y = NOT y through the compiled evaluator: VX tristate, raising eval. *)
  let b = Circuit.Builder.create ~name:"view-osc" () in
  let _x = Circuit.Builder.input ~name:"x" b in
  let inv = Circuit.Builder.declare ~name:"inv" b Gate.Not in
  Circuit.Builder.set_fanins b inv [| inv |];
  Circuit.Builder.output b "y" inv;
  let c = Circuit.of_builder b in
  let v = View.of_circuit c in
  check bool_t "cyclic" false (View.is_acyclic v);
  let tri = View.eval_tristate v ~inputs:[| true |] ~keys:[||] in
  check bool_t "X output" true (tri.(0) = View.VX);
  (try
     ignore (View.eval v ~inputs:[| true |] ~keys:[||]);
     Alcotest.fail "expected Unresolved"
   with View.Unresolved _ -> ());
  (* The word evaluator reports the same lane-wise. *)
  let words = View.eval_words v ~inputs:[| -1 |] ~keys:[||] in
  check bool_t "all lanes undefined" true (words.(0).View.defined = 0)

let test_mux_cycle_opened_by_key () =
  (* m1 = MUX(k, x, m2); m2 = MUX(k, m1, x): both key values functionally
     open the structural cycle, so the view's fixpoint must settle. *)
  let b = Circuit.Builder.create ~name:"view-cyc2" () in
  let k = Circuit.Builder.key_input ~name:"k" b in
  let x = Circuit.Builder.input ~name:"x" b in
  let m1 = Circuit.Builder.declare ~name:"m1" b Gate.Mux in
  let m2 = Circuit.Builder.add ~name:"m2" b Gate.Mux [| k; m1; x |] in
  Circuit.Builder.set_fanins b m1 [| k; x; m2 |];
  Circuit.Builder.output b "y" m2;
  let c = Circuit.of_builder b in
  let v = View.of_circuit c in
  List.iter
    (fun (kv, xv) ->
      let out = View.eval v ~inputs:[| xv |] ~keys:[| kv |] in
      check bool_t (Printf.sprintf "k=%b x=%b" kv xv) xv out.(0))
    [ false, false; false, true; true, false; true, true ]

(* ------------------------------------------------------------------ *)
(* Memoization                                                         *)
(* ------------------------------------------------------------------ *)

let test_view_is_memoized () =
  let c = Bench_suite.c17 () in
  check bool_t "same view" true (View.of_circuit c == View.of_circuit c);
  (* A structurally equal but physically distinct circuit gets its own
     view. *)
  let c2 = Bench_suite.c17 () in
  check bool_t "distinct circuit, distinct view" true
    (not (View.of_circuit c == View.of_circuit c2))

let test_topological_order_is_memoized () =
  let c = Bench_suite.c17 () in
  (* The view's order is shared by every consumer of the view. *)
  (match View.topo_order (View.of_circuit c), View.topo_order (View.of_circuit c) with
   | Some a, Some b -> check bool_t "same array" true (a == b)
   | _ -> Alcotest.fail "c17 must be acyclic");
  (* The circuit's own sort allocates a fresh result per call. *)
  match Circuit.topological_order c, Circuit.topological_order c with
  | Some a, Some b ->
    check bool_t "fresh arrays" true (a != b);
    check bool_t "same order" true (a = b)
  | _ -> Alcotest.fail "c17 must be acyclic"

(* The memo hit counters were dead until the attack layers were routed
   through View (cycsat's SCC check): a fresh view
   plus two analysis calls must count exactly one miss and one hit. *)
let test_memo_counters_count () =
  let hit name = Fl_obs.Counter.value (Fl_obs.Counter.make ("view.memo." ^ name ^ ".hit")) in
  let miss name = Fl_obs.Counter.value (Fl_obs.Counter.make ("view.memo." ^ name ^ ".miss")) in
  let c = Bench_suite.c17 () in
  let v = View.of_circuit c in
  let exercise name f =
    let h0 = hit name and m0 = miss name in
    let a = f () in
    let b = f () in
    check bool_t (name ^ " memoized result") true (a == b);
    check Alcotest.int (name ^ " misses") (m0 + 1) (miss name);
    check Alcotest.int (name ^ " hits") (h0 + 1) (hit name)
  in
  exercise "scc" (fun () -> View.scc v);
  exercise "fanouts" (fun () -> View.fanouts v);
  exercise "key_cone" (fun () -> View.key_cone v)

let test_cached_analyses_agree () =
  let c = Bench_suite.load_scaled "c432" ~scale:4 in
  let v = View.of_circuit c in
  check bool_t "acyclic agrees" true (View.is_acyclic v = Circuit.is_acyclic c);
  check bool_t "fanouts agree" true (View.fanouts v = Circuit.fanouts c);
  check bool_t "scc agrees" true
    (View.scc v = Circuit.strongly_connected_components c)

(* ------------------------------------------------------------------ *)
(* Key-cone re-evaluation                                              *)
(* ------------------------------------------------------------------ *)

(* Locked circuits: RLL and acyclic Full-Lock on a random host, cyclic
   Full-Lock, and the random cyclic netlists above (keys anywhere,
   key-free cycles included). *)
let locked_of ~seed =
  let rng = Random.State.make [| seed; 0x10c |] in
  let host () =
    Generator.random ~seed ~name:"kc"
      { Generator.num_inputs = 4 + (seed mod 5); num_outputs = 1 + (seed mod 3);
        num_gates = 30 + (seed mod 40); max_fanin = 3; and_bias = 0.7 }
  in
  let lock f = try Some (f ()).Fl_locking.Locked.locked with Invalid_argument _ -> None in
  match seed mod 4 with
  | 0 -> lock (fun () -> Fl_locking.Rll.lock rng ~key_bits:6 (host ()))
  | 1 -> lock (fun () -> Fl_core.Fulllock.lock_one rng ~n:4 (host ()))
  | 2 -> lock (fun () -> Fl_core.Fulllock.lock_one rng ~policy:`Cyclic ~n:4 (host ()))
  | _ -> Some (random_cyclic ~seed)

let prop_per_key_matches_eval_words =
  let gen =
    QCheck2.Gen.(triple (int_bound 10_000) (int_bound 10_000) (int_range 1 6))
  in
  qcheck_case ~count:150 "per-key cone eval = eval_words" gen
    (fun (seed, stim_seed, num_keys) ->
      match locked_of ~seed with
      | None -> QCheck2.assume_fail ()
      | Some c ->
        let v = View.of_circuit c in
        let rng = Random.State.make [| stim_seed |] in
        let inputs = View.random_words rng ~width:(Circuit.num_inputs c) in
        (* Half the key sets are broadcast scalar keys, as screening
           passes them; the rest differ per lane. *)
        let keys =
          List.init num_keys (fun _ ->
              if Random.State.bool rng then
                View.broadcast (View.random_vector rng (Circuit.num_keys c))
              else View.random_words rng ~width:(Circuit.num_keys c))
        in
        let per_key = View.eval_words_per_key v ~inputs ~keys in
        let separate = List.map (fun k -> View.eval_words v ~inputs ~keys:k) keys in
        if per_key <> separate then
          QCheck2.Test.fail_reportf "words differ (seed %d, %s, %d key sets)" seed
            (if View.is_acyclic v then "acyclic" else "cyclic")
            num_keys;
        (* What makes the cyclic case exact: no lane keeps a value bit
           that an earlier sweep wrote while it stayed undefined. *)
        List.for_all
          (Array.for_all (fun (w : View.word) ->
               w.View.value land lnot w.View.defined = 0))
          separate)

(* The cone is the nodes some key reaches, in evaluation order. *)
let test_key_cone_is_key_reach () =
  List.iter
    (fun seed ->
      match locked_of ~seed with
      | None -> ()
      | Some c ->
        let v = View.of_circuit c in
        let n = Circuit.num_nodes c in
        let reached = Array.make n false in
        let rec mark id =
          Array.iter
            (fun g ->
              if not reached.(g) then begin
                reached.(g) <- true;
                mark g
              end)
            (Circuit.fanouts c).(id)
        in
        Array.iter mark c.Circuit.keys;
        let order =
          match View.topo_order v with Some o -> o | None -> Array.init n Fun.id
        in
        let expected =
          Array.of_list (List.filter (fun id -> reached.(id)) (Array.to_list order))
        in
        check bool_t (Printf.sprintf "key cone (seed %d)" seed) true
          (View.key_cone v = expected))
    (List.init 12 Fun.id)

(* ------------------------------------------------------------------ *)
(* Shared probe helper                                                 *)
(* ------------------------------------------------------------------ *)

let test_agree_on_probes () =
  let c = acyclic_of ~seed:42 in
  let v = View.of_circuit c in
  let keys = Array.make (Circuit.num_keys c) false in
  (* A circuit always agrees with itself... *)
  check bool_t "self exhaustive" true
    (View.agree_on_probes v ~keys_a:keys v ~keys_b:keys);
  check bool_t "self random" true
    (View.agree_on_probes ~exhaustive_limit:0 ~vectors:130 v ~keys_a:keys v
       ~keys_b:keys);
  (* ...and never with its complement. *)
  let b = Circuit.Builder.create ~name:"negated" () in
  let map = Circuit.copy_nodes_into b c in
  Array.iter
    (fun (port, id) ->
      let n = Circuit.Builder.add b Gate.Not [| map.(id) |] in
      Circuit.Builder.output b port n)
    c.Circuit.outputs;
  let negated = Circuit.of_builder b in
  let vn = View.of_circuit negated in
  check bool_t "complement exhaustive" false
    (View.agree_on_probes v ~keys_a:keys vn ~keys_b:keys);
  check bool_t "complement random" false
    (View.agree_on_probes ~exhaustive_limit:0 ~vectors:130 v ~keys_a:keys vn
       ~keys_b:keys)

let test_agree_on_probes_counts_unresolved () =
  (* An output stuck at X can never count as agreement, even against
     itself. *)
  let b = Circuit.Builder.create ~name:"stuck" () in
  let _x = Circuit.Builder.input ~name:"x" b in
  let inv = Circuit.Builder.declare ~name:"inv" b Gate.Not in
  Circuit.Builder.set_fanins b inv [| inv |];
  Circuit.Builder.output b "y" inv;
  let c = Circuit.of_builder b in
  let v = View.of_circuit c in
  check bool_t "unresolved disagrees" false
    (View.agree_on_probes v ~keys_a:[||] v ~keys_b:[||])

(* ------------------------------------------------------------------ *)
(* Topological order and logic levels                                  *)
(* ------------------------------------------------------------------ *)

let prop_topo_and_levels =
  (* On an acyclic circuit the cached order is a permutation of the node
     ids with every fanin placed before its node, and levelling along it
     (sources at 0, each node one more than its deepest fanin) gives
     {!Circuit.depth}.  A cyclic circuit has neither order nor depth. *)
  let gen = QCheck2.Gen.int_bound 10_000 in
  qcheck_case "levels follow topo order" gen (fun seed ->
      let c =
        if seed land 1 = 0 then acyclic_of ~seed else random_cyclic ~seed
      in
      let v = View.of_circuit c in
      let n = Circuit.num_nodes c in
      match View.topo_order v with
      | None -> (not (View.is_acyclic v)) && Circuit.depth c = None
      | Some order ->
        let pos = Array.make n (-1) in
        Array.iteri (fun i id -> pos.(id) <- i) order;
        let ordered = ref (Array.length order = n) in
        for id = 0 to n - 1 do
          let fanins = (Circuit.node c id).Circuit.fanins in
          if pos.(id) < 0 then ordered := false;
          Array.iter (fun f -> if pos.(f) >= pos.(id) then ordered := false) fanins
        done;
        if not !ordered then
          QCheck2.Test.fail_reportf "fanin after its node (seed %d)" seed;
        let lv = Array.make n 0 in
        Array.iter
          (fun id ->
            let fanins = (Circuit.node c id).Circuit.fanins in
            if Array.length fanins > 0 then
              lv.(id) <- 1 + Array.fold_left (fun acc f -> max acc lv.(f)) 0 fanins)
          order;
        View.is_acyclic v && Circuit.depth c = Some (Array.fold_left max 0 lv))

let () =
  Alcotest.run "view"
    [
      ( "equivalence",
        [
          prop_acyclic_matches_reference;
          prop_cyclic_matches_reference;
          prop_word_lane_zero_matches_scalar;
          prop_word_lanes_match_scalar_sweep;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "oscillator" `Quick test_oscillator_unresolved;
          Alcotest.test_case "mux cycle" `Quick test_mux_cycle_opened_by_key;
        ] );
      ( "memoization",
        [
          Alcotest.test_case "view cached" `Quick test_view_is_memoized;
          Alcotest.test_case "topo cached" `Quick
            test_topological_order_is_memoized;
          Alcotest.test_case "analyses agree" `Quick test_cached_analyses_agree;
          Alcotest.test_case "memo counters" `Quick test_memo_counters_count;
        ] );
      ( "probes",
        [
          Alcotest.test_case "agree_on_probes" `Quick test_agree_on_probes;
          Alcotest.test_case "unresolved probes" `Quick
            test_agree_on_probes_counts_unresolved;
        ] );
      ("topo and levels", [ prop_topo_and_levels ]);
      ( "key cone",
        [
          prop_per_key_matches_eval_words;
          Alcotest.test_case "cone = key reach" `Quick test_key_cone_is_key_reach;
        ] );
    ]
