(* Bechamel micro-benchmarks: one Test.make per table/figure kernel, so the
   cost of each experiment's inner loop is tracked over time. *)

open Bechamel
open Toolkit

module Generator = Fl_netlist.Generator
module View = Fl_netlist.View
module Bench_suite = Fl_netlist.Bench_suite
module Formula = Fl_cnf.Formula
module Tseytin = Fl_cnf.Tseytin
module Miter = Fl_cnf.Miter
module Cln = Fl_cln.Cln
module Fulllock = Fl_core.Fulllock
module Ppa = Fl_ppa.Ppa

let fig1_kernel =
  (* one hard random 3-SAT instance at the phase transition *)
  let rng = Random.State.make [| 1 |] in
  let f = Fl_sat.Random_sat.fixed_length rng ~num_vars:30 ~num_clauses:129 ~k:3 in
  Test.make ~name:"fig1: dpll @ ratio 4.3 (30 vars)"
    (Staged.stage (fun () -> ignore (Fl_sat.Dpll.solve f)))

let table2_kernel =
  let rng = Random.State.make [| 2 |] in
  let locked = Fulllock.standalone_cln_lock (Cln.blocking_spec ~n:8) rng in
  Test.make ~name:"table2: sat attack on blocking CLN n=8"
    (Staged.stage (fun () ->
         ignore (Fl_attacks.Sat_attack.run ~timeout:30.0 locked)))

let table3_kernel =
  Test.make ~name:"table3: ppa of CLN n=64"
    (Staged.stage (fun () -> ignore (Ppa.of_cln (Cln.default_spec ~n:64))))

let table4_kernel =
  let c = Bench_suite.load_scaled "c432" ~scale:4 in
  Test.make ~name:"table4: full-lock insertion (n=8, cyclic)"
    (Staged.stage (fun () ->
         let rng = Random.State.make [| 4 |] in
         ignore (Fulllock.lock_one rng ~policy:`Cyclic ~n:8 c)))

let table5_kernel =
  let c = Bench_suite.load_scaled "c432" ~scale:4 in
  let rng = Random.State.make [| 5 |] in
  let locked = Fulllock.lock_one rng ~policy:`Cyclic ~n:8 c in
  Test.make ~name:"table5: cycsat preprocessing (NC conditions)"
    (Staged.stage (fun () ->
         let f = Formula.create () in
         let vars =
           Formula.fresh_vars f (Fl_locking.Locked.num_key_bits locked)
         in
         Fl_attacks.Cycsat.no_cycle_condition locked.Fl_locking.Locked.locked f vars))

let fig7_kernel =
  let c = Bench_suite.load_scaled "c880" ~scale:4 in
  let rng = Random.State.make [| 7 |] in
  let locked = Fulllock.lock_one rng ~n:8 c in
  Test.make ~name:"fig7: miter construction + ratio"
    (Staged.stage (fun () ->
         ignore (Miter.clause_variable_ratio locked.Fl_locking.Locked.locked)))

let substrate_kernels =
  [
    (let c = Bench_suite.load_scaled "c1355" ~scale:2 in
     Test.make ~name:"substrate: tseytin encode (c1355/2)"
       (Staged.stage (fun () ->
            let f = Formula.create () in
            ignore (Tseytin.encode f c))));
    (let c = Bench_suite.load_scaled "c1355" ~scale:2 in
     let rng = Random.State.make [| 8 |] in
     let inputs = View.random_vector rng (Fl_netlist.Circuit.num_inputs c) in
     Test.make ~name:"substrate: simulation (c1355/2)"
       (Staged.stage (fun () ->
            ignore (View.eval (View.of_circuit c) ~inputs ~keys:[||]))));
    Test.make ~name:"substrate: cln build n=64"
      (Staged.stage (fun () -> ignore (Cln.standalone (Cln.default_spec ~n:64))));
    (let profile =
       { Generator.num_inputs = 32; num_outputs = 16; num_gates = 1000;
         max_fanin = 4; and_bias = 0.8 }
     in
     Test.make ~name:"substrate: generator 1000 gates"
       (Staged.stage (fun () -> ignore (Generator.random ~seed:9 ~name:"g" profile))));
  ]

let all_tests =
  Test.make_grouped ~name:"fulllock"
    ([ fig1_kernel; table2_kernel; table3_kernel; table4_kernel; table5_kernel;
       fig7_kernel ]
     @ substrate_kernels)

(* Eval-throughput microbenchmark for the compiled-evaluator PR: scalar
   uncached reference vs cached view vs word-level, plus the cold
   build-a-view cost.  Emits BENCH_sim.json so the perf trajectory of the
   simulation hot path is tracked across PRs. *)
let sim_throughput () =
  let name = "c432" in
  let c = Bench_suite.load name in
  let rng = Random.State.make [| 0x51b |] in
  let inputs = View.random_vector rng (Fl_netlist.Circuit.num_inputs c) in
  let packed_inputs =
    View.random_words rng ~width:(Fl_netlist.Circuit.num_inputs c)
  in
  (* Time [f] for at least [budget] seconds and return calls/second. *)
  let rate ?(budget = 0.4) f =
    for _ = 1 to 3 do f () done;
    let calls = ref 0 in
    let t0 = Unix.gettimeofday () in
    let elapsed () = Unix.gettimeofday () -. t0 in
    while elapsed () < budget do
      f ();
      incr calls
    done;
    float_of_int !calls /. elapsed ()
  in
  let uncached =
    rate (fun () -> ignore (View.eval_reference c ~inputs ~keys:[||]))
  in
  let cached =
    rate (fun () -> ignore (View.eval (View.of_circuit c) ~inputs ~keys:[||]))
  in
  let word_passes =
    rate (fun () ->
        ignore
          (View.eval_packed (View.of_circuit c) ~inputs:packed_inputs
             ~keys:[||]))
  in
  (* Cold path: a physically fresh circuit forces a full view build on its
     first evaluation. *)
  let fresh = Array.init 24 (fun _ -> Bench_suite.load name) in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun c -> ignore (View.eval (View.of_circuit c) ~inputs ~keys:[||]))
    fresh;
  let cold_first_eval_us =
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (Array.length fresh)
  in
  let lanes = View.lanes in
  let speedup = cached /. uncached in
  (* BENCH_sim.json is written by the harness via Report; these keys are
     the stable schema tracked across PRs. *)
  Report.add_string "circuit" name;
  Report.add_int "gates" (Fl_netlist.Circuit.num_gates c);
  Report.add_int "lanes" lanes;
  Report.add_float "scalar_uncached_evals_per_sec" uncached;
  Report.add_float "scalar_cached_evals_per_sec" cached;
  Report.add_float "word_passes_per_sec" word_passes;
  Report.add_float "word_vectors_per_sec" (word_passes *. float_of_int lanes);
  Report.add_float "cold_first_eval_us" cold_first_eval_us;
  Report.add_float "speedup_cached_vs_uncached" speedup;
  Tables.print ~title:"Simulation throughput (c432, evals/sec)"
    [ "path"; "evals/sec" ]
    [
      [ "scalar, uncached reference"; Printf.sprintf "%.0f" uncached ];
      [ "scalar, cached view"; Printf.sprintf "%.0f" cached ];
      [ "word-level (x63 vectors)";
        Printf.sprintf "%.0f" (word_passes *. float_of_int lanes) ];
      [ "cold first eval (us)"; Printf.sprintf "%.1f" cold_first_eval_us ];
      [ "speedup cached/uncached"; Printf.sprintf "%.2fx" speedup ];
    ]

let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (v :: _) -> v
        | Some [] | None -> Float.nan
      in
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      rows := [ name; pretty ] :: !rows)
    results;
  let sorted = List.sort compare !rows in
  Tables.print ~title:"Micro-benchmarks (Bechamel, monotonic clock, OLS)"
    [ "kernel"; "time/run" ] sorted
