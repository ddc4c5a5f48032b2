(* Tests for Fl_cln: topologies, switch-boxes, CLN build/decode agreement,
   permutation coverage (blocking vs non-blocking), routing. *)

module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Topology = Fl_cln.Topology
module Switch_box = Fl_cln.Switch_box
module Cln = Fl_cln.Cln
module Coverage = Fl_cln.Coverage

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_switch_box_counts () =
  (* All blocking log2 N networks have (N/2) log2 N switch-boxes (§3.1). *)
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let t = Topology.make kind ~n in
          let m = int_of_float (Float.round (Float.log2 (float_of_int n))) in
          check int_t
            (Printf.sprintf "%s n=%d" (Topology.kind_to_string kind) n)
            (n / 2 * m)
            (Topology.num_switch_boxes t))
        [ 2; 4; 8; 16; 32 ])
    [ Topology.Omega; Topology.Butterfly; Topology.Baseline ]

let test_near_non_blocking_stages () =
  (* LOG(N, log2N - 2, 1): log2 N + (log2 N - 2) switch stages. *)
  List.iter
    (fun (n, expected_stages) ->
      let t = Topology.make Topology.Near_non_blocking ~n in
      check int_t (Printf.sprintf "n=%d" n) expected_stages t.Topology.switch_layers)
    [ 4, 2; 8, 4; 16, 6; 32, 8; 64, 10 ]

let test_benes_stages () =
  List.iter
    (fun (n, expected) ->
      let t = Topology.make Topology.Benes ~n in
      check int_t (Printf.sprintf "n=%d" n) expected t.Topology.switch_layers)
    [ 4, 3; 8, 5; 16, 7 ]

let test_log_nmp_cost () =
  (* §3.1: LOG(64,3,6) is >5x a blocking CLN; LOG(64,4,1) is ~1.7x. *)
  let blocking =
    Topology.num_switch_boxes (Topology.make Topology.Omega ~n:64)
  in
  let strict = Topology.log_nmp_switch_boxes ~n:64 ~m:3 ~p:6 in
  let almost = Topology.log_nmp_switch_boxes ~n:64 ~m:4 ~p:1 in
  check bool_t
    (Printf.sprintf "strict %d > 5x blocking %d" strict blocking)
    true
    (strict > 5 * blocking);
  check bool_t "almost ~2x blocking" true
    (almost < 2 * blocking);
  (* p = 1, m = log2 n - 2 must agree with the built topology. *)
  check int_t "consistency with Near_non_blocking" almost
    (Topology.num_switch_boxes (Topology.make Topology.Near_non_blocking ~n:64))

let test_topology_rejects_bad_n () =
  List.iter
    (fun n ->
      try
        ignore (Topology.make Topology.Omega ~n);
        Alcotest.failf "accepted n=%d" n
      with Invalid_argument _ -> ())
    [ 0; 1; 3; 6; 100 ]

let test_thread_identity () =
  (* With pass-through boxes, threading must be the identity permutation
     (all Route layers in every topology compose to identity). *)
  List.iter
    (fun kind ->
      let t = Topology.make kind ~n:8 in
      let result =
        Topology.thread t
          (Array.init 8 (fun i -> i))
          ~switch:(fun ~layer_index:_ ~box:_ a b -> a, b)
      in
      check (Alcotest.array int_t)
        (Topology.kind_to_string kind)
        (Array.init 8 (fun i -> i))
        result)
    [ Topology.Butterfly; Topology.Baseline; Topology.Near_non_blocking; Topology.Benes ]

let test_thread_omega_identity () =
  (* Omega's shuffle layers also compose to the identity over log2 N stages
     when boxes pass straight through. *)
  let t = Topology.make Topology.Omega ~n:8 in
  let result =
    Topology.thread t
      (Array.init 8 (fun i -> i))
      ~switch:(fun ~layer_index:_ ~box:_ a b -> a, b)
  in
  check (Alcotest.array int_t) "omega identity" (Array.init 8 (fun i -> i)) result

(* ------------------------------------------------------------------ *)
(* Switch boxes                                                        *)
(* ------------------------------------------------------------------ *)

let test_switch_box_decode () =
  (* Independent: zero = pass, ones = swap, mixed = broadcast. *)
  check (Alcotest.pair int_t int_t) "pass" (1, 2)
    (Switch_box.decode Switch_box.Independent [| false; false |] (1, 2));
  check (Alcotest.pair int_t int_t) "swap" (2, 1)
    (Switch_box.decode Switch_box.Independent [| true; true |] (1, 2));
  check (Alcotest.pair int_t int_t) "broadcast b" (2, 2)
    (Switch_box.decode Switch_box.Independent [| true; false |] (1, 2));
  check (Alcotest.pair int_t int_t) "broadcast a" (1, 1)
    (Switch_box.decode Switch_box.Independent [| false; true |] (1, 2));
  check (Alcotest.pair int_t int_t) "swap style" (2, 1)
    (Switch_box.decode Switch_box.Swap [| true |] (1, 2))

let test_switch_box_permutation_flag () =
  check bool_t "pass is perm" true
    (Switch_box.is_permutation Switch_box.Independent [| false; false |]);
  check bool_t "swap is perm" true
    (Switch_box.is_permutation Switch_box.Independent [| true; true |]);
  check bool_t "broadcast is not" false
    (Switch_box.is_permutation Switch_box.Independent [| true; false |]);
  check bool_t "swap style always perm" true
    (Switch_box.is_permutation Switch_box.Swap [| true |])

(* ------------------------------------------------------------------ *)
(* CLN build/decode agreement                                          *)
(* ------------------------------------------------------------------ *)

let specs_under_test =
  let open Cln in
  [
    { n = 4; topology = Topology.Omega; style = Switch_box.Independent; inverters = Outputs_only; planes = 1 };
    { n = 8; topology = Topology.Omega; style = Switch_box.Independent; inverters = Outputs_only; planes = 1 };
    { n = 8; topology = Topology.Butterfly; style = Switch_box.Swap; inverters = No_inverters; planes = 1 };
    { n = 8; topology = Topology.Near_non_blocking; style = Switch_box.Independent; inverters = Outputs_only; planes = 1 };
    { n = 8; topology = Topology.Near_non_blocking; style = Switch_box.Independent; inverters = Per_stage; planes = 1 };
    { n = 4; topology = Topology.Benes; style = Switch_box.Swap; inverters = Outputs_only; planes = 1 };
    { n = 16; topology = Topology.Near_non_blocking; style = Switch_box.Independent; inverters = Outputs_only; planes = 1 };
    { n = 8; topology = Topology.Baseline; style = Switch_box.Independent; inverters = No_inverters; planes = 1 };
    Cln.log_nmp_spec ~n:8 ~m:1 ~p:2;
    Cln.log_nmp_spec ~n:4 ~m:0 ~p:3;
    { (Cln.log_nmp_spec ~n:8 ~m:2 ~p:2) with Cln.style = Switch_box.Swap };
  ]

let test_key_bits_match_circuit () =
  List.iter
    (fun spec ->
      let c = Cln.standalone spec in
      Circuit.validate c;
      check int_t
        (Format.asprintf "%a" Cln.pp_spec spec)
        (Cln.num_key_bits spec) (Circuit.num_keys c);
      check int_t "inputs" spec.Cln.n (Circuit.num_inputs c);
      check int_t "outputs" spec.Cln.n (Circuit.num_outputs c))
    specs_under_test

let test_build_decode_agree () =
  (* The compiled netlist and the semantic decoder must agree on every
     (key, input) sample — including non-routable (broadcast) keys. *)
  let rng = Random.State.make [| 77 |] in
  List.iter
    (fun spec ->
      let c = Cln.standalone spec in
      let nk = Cln.num_key_bits spec in
      for _ = 1 to 25 do
        let key = Array.init nk (fun _ -> Random.State.bool rng) in
        let action = Cln.decode spec ~key in
        let inputs = View.random_vector rng spec.Cln.n in
        let from_circuit = View.eval (View.of_circuit c) ~inputs ~keys:key in
        let from_decode = Cln.apply_action action inputs in
        check (Alcotest.array bool_t)
          (Format.asprintf "%a" Cln.pp_spec spec)
          from_decode from_circuit
      done)
    specs_under_test

let test_identity_key () =
  List.iter
    (fun spec ->
      let action = Cln.decode spec ~key:(Cln.key_for_identity spec) in
      check (Alcotest.array int_t)
        (Format.asprintf "%a" Cln.pp_spec spec)
        (Array.init spec.Cln.n (fun i -> i))
        action.Cln.source;
      check bool_t "no inversions" false (Array.exists (fun b -> b) action.Cln.inverted))
    specs_under_test

let test_routable_keys_are_permutations () =
  let rng = Random.State.make [| 13 |] in
  List.iter
    (fun spec ->
      for _ = 1 to 30 do
        let key = Cln.random_routable_key spec rng in
        let action = Cln.decode spec ~key in
        check bool_t
          (Format.asprintf "%a" Cln.pp_spec spec)
          true
          (Cln.is_permutation action)
      done)
    specs_under_test

let test_broadcast_keys_detected () =
  (* With Independent boxes, a mixed config somewhere should often produce a
     non-permutation; make one deliberately. *)
  let spec = Cln.default_spec ~n:4 in
  let key = Cln.key_for_identity spec in
  key.(0) <- true;
  (* box 0 bits = (1,0): broadcast *)
  let action = Cln.decode spec ~key in
  check bool_t "broadcast detected" false (Cln.is_permutation action)

let test_key_of_swaps_roundtrip () =
  let spec = Cln.blocking_spec ~n:8 in
  let boxes = Cln.num_switch_boxes spec in
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 10 do
    let swaps = Array.init boxes (fun _ -> Random.State.bool rng) in
    let key = Cln.key_of_swaps spec swaps in
    let action = Cln.decode spec ~key in
    check bool_t "swaps give permutation" true (Cln.is_permutation action);
    check bool_t "no inversion" false (Array.exists (fun b -> b) action.Cln.inverted)
  done

(* ------------------------------------------------------------------ *)
(* Coverage: blocking vs non-blocking                                  *)
(* ------------------------------------------------------------------ *)

let test_benes_covers_all_n4 () =
  let spec =
    { (Cln.default_spec ~n:4) with Cln.topology = Topology.Benes;
      style = Switch_box.Swap; inverters = Cln.No_inverters }
  in
  let r = Coverage.measure spec in
  check bool_t "exhaustive" true r.Coverage.exhaustive;
  check int_t "all 24 permutations" 24 r.Coverage.distinct_permutations

let test_blocking_misses_permutations_n4 () =
  let spec =
    { (Cln.blocking_spec ~n:4) with Cln.style = Switch_box.Swap;
      inverters = Cln.No_inverters }
  in
  let r = Coverage.measure spec in
  check bool_t "exhaustive" true r.Coverage.exhaustive;
  check bool_t "misses permutations" true (r.Coverage.distinct_permutations < 24)

let test_non_blocking_beats_blocking_n8 () =
  let blocking = Coverage.measure (Cln.blocking_spec ~n:8) in
  let nnb = Coverage.measure (Cln.default_spec ~n:8) in
  check bool_t "nnb > blocking" true
    (nnb.Coverage.distinct_permutations > blocking.Coverage.distinct_permutations);
  (* A blocking omega-8 realises at most 2^12 = 4096 of 40320 permutations. *)
  check bool_t "blocking limited" true (blocking.Coverage.distinct_permutations <= 4096)

let test_benes_covers_all_n8 () =
  let spec =
    { (Cln.default_spec ~n:8) with Cln.topology = Topology.Benes;
      style = Switch_box.Swap; inverters = Cln.No_inverters }
  in
  let r = Coverage.measure ~max_keys:(1 lsl 20) spec in
  check bool_t "exhaustive" true r.Coverage.exhaustive;
  check int_t "all 40320" 40320 r.Coverage.distinct_permutations

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let random_permutation rng n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let test_benes_routes_everything () =
  let spec =
    { (Cln.default_spec ~n:8) with Cln.topology = Topology.Benes } in
  let rng = Random.State.make [| 21 |] in
  for _ = 1 to 40 do
    let p = random_permutation rng 8 in
    check bool_t "routes" true (Coverage.routes_permutation spec p)
  done

let test_omega_blocks_something () =
  let spec = Cln.blocking_spec ~n:8 in
  let rng = Random.State.make [| 22 |] in
  let blocked = ref 0 in
  for _ = 1 to 60 do
    let p = random_permutation rng 8 in
    if not (Coverage.routes_permutation spec p) then incr blocked
  done;
  check bool_t "some permutation blocked" true (!blocked > 0)

let test_decoded_keys_are_routable () =
  (* Any permutation obtained from a routable key must be routed by the
     router (consistency between decode and routes_permutation). *)
  let rng = Random.State.make [| 23 |] in
  List.iter
    (fun spec ->
      for _ = 1 to 10 do
        let key = Cln.random_routable_key spec rng in
        let action = Cln.decode spec ~key in
        check bool_t
          (Format.asprintf "%a" Cln.pp_spec spec)
          true
          (Coverage.routes_permutation spec action.Cln.source)
      done)
    [ Cln.blocking_spec ~n:8; Cln.default_spec ~n:8; Cln.default_spec ~n:16 ]

let test_route_returns_working_key () =
  (* route spec perm must produce a key whose decode is exactly perm. *)
  let rng = Random.State.make [| 31 |] in
  List.iter
    (fun spec ->
      for _ = 1 to 15 do
        let p = random_permutation rng spec.Cln.n in
        match Coverage.route spec p with
        | None -> ()  (* blocking networks legitimately reject some *)
        | Some key ->
          let action = Cln.decode spec ~key in
          check (Alcotest.array int_t) "routes the permutation" p action.Cln.source;
          check bool_t "no inversions" false
            (Array.exists (fun b -> b) action.Cln.inverted)
      done)
    [ Cln.blocking_spec ~n:8;
      Cln.default_spec ~n:8;
      { (Cln.default_spec ~n:8) with Cln.topology = Topology.Benes } ]

let test_route_benes_always_succeeds () =
  let spec = { (Cln.default_spec ~n:16) with Cln.topology = Topology.Benes } in
  let rng = Random.State.make [| 32 |] in
  for _ = 1 to 10 do
    let p = random_permutation rng 16 in
    match Coverage.route spec p with
    | None -> Alcotest.fail "benes must route every permutation"
    | Some key ->
      check (Alcotest.array int_t) "exact" p (Cln.decode spec ~key).Cln.source
  done

let test_route_with_inversions () =
  let spec = Cln.default_spec ~n:8 in
  let rng = Random.State.make [| 33 |] in
  let p = random_permutation rng 8 in
  let inverted = Array.init 8 (fun i -> i mod 3 = 0) in
  match Coverage.route spec ~inverted p with
  | None -> ()  (* permutation not routable: try identity, always routable *)
  | Some key ->
    let action = Cln.decode spec ~key in
    check (Alcotest.array int_t) "perm" p action.Cln.source;
    check (Alcotest.array bool_t) "inversions" inverted action.Cln.inverted

let test_set_inversions () =
  let spec = Cln.default_spec ~n:8 in
  let rng = Random.State.make [| 34 |] in
  let key = Cln.random_routable_key spec rng in
  let pattern = Array.init 8 (fun i -> i land 1 = 1) in
  Cln.set_inversions spec key ~inverted:pattern;
  check (Alcotest.array bool_t) "pattern applied" pattern
    (Cln.decode spec ~key).Cln.inverted

let test_set_inversions_without_inverters () =
  let spec = { (Cln.default_spec ~n:4) with Cln.inverters = Cln.No_inverters } in
  let key = Cln.key_for_identity spec in
  try
    Cln.set_inversions spec key ~inverted:[| true; false; false; false |];
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_identity_always_routable () =
  List.iter
    (fun spec ->
      if spec.Cln.planes = 1 then
        check bool_t "identity routable" true
          (Coverage.routes_permutation spec (Array.init spec.Cln.n (fun i -> i))))
    specs_under_test

let test_router_rejects_multi_plane () =
  let spec = Cln.log_nmp_spec ~n:8 ~m:1 ~p:2 in
  try
    ignore (Coverage.routes_permutation spec (Array.init 8 (fun i -> i)));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_case ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_build_decode_agree =
  let gen =
    QCheck2.Gen.(
      let* n_exp = int_range 1 4 in
      let* topo = oneofl [ Topology.Omega; Topology.Butterfly; Topology.Baseline;
                           Topology.Near_non_blocking; Topology.Benes ] in
      let* style = oneofl [ Switch_box.Independent; Switch_box.Swap ] in
      let* planes = int_range 1 3 in
      let* inv =
        if planes > 1 then oneofl [ Cln.No_inverters; Cln.Outputs_only ]
        else oneofl [ Cln.No_inverters; Cln.Outputs_only; Cln.Per_stage ]
      in
      let* seed = int_bound 100_000 in
      return (1 lsl n_exp, topo, style, inv, planes, seed))
  in
  qcheck_case "build = decode on random spec/key/input" gen
    (fun (n, topology, style, inverters, planes, seed) ->
      let spec = { Cln.n; topology; style; inverters; planes } in
      let rng = Random.State.make [| seed |] in
      let c = Cln.standalone spec in
      let key = Array.init (Cln.num_key_bits spec) (fun _ -> Random.State.bool rng) in
      let inputs = View.random_vector rng n in
      let circuit_out = View.eval (View.of_circuit c) ~inputs ~keys:key in
      let decode_out = Cln.apply_action (Cln.decode spec ~key) inputs in
      circuit_out = decode_out)

let prop_routable_round_trip =
  let gen = QCheck2.Gen.(pair (int_range 1 4) (int_bound 100_000)) in
  qcheck_case "routable key -> permutation -> routable" gen (fun (n_exp, seed) ->
      let spec = Cln.default_spec ~n:(1 lsl n_exp) in
      let rng = Random.State.make [| seed |] in
      let key = Cln.random_routable_key spec rng in
      let action = Cln.decode spec ~key in
      Cln.is_permutation action && Coverage.routes_permutation spec action.Cln.source)

let () =
  Alcotest.run "cln"
    [
      ( "topology",
        [
          Alcotest.test_case "switch box counts" `Quick test_switch_box_counts;
          Alcotest.test_case "nnb stages" `Quick test_near_non_blocking_stages;
          Alcotest.test_case "benes stages" `Quick test_benes_stages;
          Alcotest.test_case "log(n,m,p) cost" `Quick test_log_nmp_cost;
          Alcotest.test_case "bad n" `Quick test_topology_rejects_bad_n;
          Alcotest.test_case "thread identity" `Quick test_thread_identity;
          Alcotest.test_case "omega identity" `Quick test_thread_omega_identity;
        ] );
      ( "switch_box",
        [
          Alcotest.test_case "decode" `Quick test_switch_box_decode;
          Alcotest.test_case "permutation flag" `Quick test_switch_box_permutation_flag;
        ] );
      ( "cln",
        [
          Alcotest.test_case "key bits = circuit keys" `Quick test_key_bits_match_circuit;
          Alcotest.test_case "build/decode agree" `Quick test_build_decode_agree;
          Alcotest.test_case "identity key" `Quick test_identity_key;
          Alcotest.test_case "routable keys are permutations" `Quick test_routable_keys_are_permutations;
          Alcotest.test_case "broadcast detected" `Quick test_broadcast_keys_detected;
          Alcotest.test_case "key_of_swaps" `Quick test_key_of_swaps_roundtrip;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "benes n=4 complete" `Quick test_benes_covers_all_n4;
          Alcotest.test_case "blocking n=4 incomplete" `Quick test_blocking_misses_permutations_n4;
          Alcotest.test_case "nnb beats blocking n=8" `Quick test_non_blocking_beats_blocking_n8;
          Alcotest.test_case "benes n=8 complete" `Slow test_benes_covers_all_n8;
        ] );
      ( "router",
        [
          Alcotest.test_case "benes routes everything" `Quick test_benes_routes_everything;
          Alcotest.test_case "omega blocks" `Quick test_omega_blocks_something;
          Alcotest.test_case "decoded keys routable" `Quick test_decoded_keys_are_routable;
          Alcotest.test_case "route returns working key" `Quick test_route_returns_working_key;
          Alcotest.test_case "route benes complete" `Quick test_route_benes_always_succeeds;
          Alcotest.test_case "route with inversions" `Quick test_route_with_inversions;
          Alcotest.test_case "set inversions" `Quick test_set_inversions;
          Alcotest.test_case "set inversions without inverters" `Quick test_set_inversions_without_inverters;
          Alcotest.test_case "identity routable" `Quick test_identity_always_routable;
          Alcotest.test_case "router rejects multi-plane" `Quick test_router_rejects_multi_plane;
        ] );
      "properties", [ prop_build_decode_agree; prop_routable_round_trip ];
    ]
