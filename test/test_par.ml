(* Tests for Fl_par: deterministic result ordering (parallel = jobs-1
   semantics), failure bookkeeping, cancellation, pool reuse across
   batches, and the par.* event stream. *)

module Par = Fl_par
module Obs = Fl_obs

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let values outcomes = Array.to_list outcomes |> List.map Par.get

(* ------------------------------------------------------------------ *)
(* Ordering and determinism                                            *)
(* ------------------------------------------------------------------ *)

let test_results_land_by_index () =
  (* Tasks finish in scrambled order (later tasks sleep less); results must
     come back by submission index regardless. *)
  let n = 12 in
  let tasks =
    Array.init n (fun i () ->
        Unix.sleepf (0.002 *. float_of_int (n - i));
        i * i)
  in
  Par.with_pool ~jobs:4 (fun p ->
      let out = Par.run p tasks in
      check (Alcotest.list int_t) "squares in index order"
        (List.init n (fun i -> i * i))
        (values out))

let test_parallel_matches_sequential () =
  let xs = List.init 40 (fun i -> i) in
  let f x = (x * 7919) mod 101 in
  let seq = Par.with_pool ~jobs:1 (fun p -> Par.map_list p f xs) in
  let par = Par.with_pool ~jobs:3 (fun p -> Par.map_list p f xs) in
  check (Alcotest.list int_t) "jobs=3 equals jobs=1"
    (List.map Par.get seq)
    (List.map Par.get par)

(* ------------------------------------------------------------------ *)
(* Failure, cancellation                                               *)
(* ------------------------------------------------------------------ *)

let test_failure_and_cancellation () =
  (* jobs=1 runs in index order, so everything after the fatal task is
     deterministically cancelled. *)
  let tasks =
    [|
      (fun () -> 1);
      (fun () -> failwith "boom");
      (fun () -> 3);
      (fun () -> 4);
    |]
  in
  Par.with_pool ~jobs:1 (fun p ->
      let out = Par.run p tasks in
      (match out.(0) with Par.Done 1 -> () | _ -> Alcotest.fail "task 0 Done");
      (match out.(1) with
       | Par.Failed msg ->
         let contains_boom =
           let n = String.length msg in
           let rec go i = i + 4 <= n && (String.sub msg i 4 = "boom" || go (i + 1)) in
           go 0
         in
         check bool_t "message kept" true contains_boom
       | _ -> Alcotest.fail "task 1 Failed");
      (match out.(2), out.(3) with
       | Par.Cancelled, Par.Cancelled -> ()
       | _ -> Alcotest.fail "tasks after the failure cancelled");
      let s = Par.last_stats p in
      check int_t "failed" 1 s.Par.failed;
      check int_t "cancelled" 2 s.Par.cancelled;
      (* get surfaces the failure as an exception. *)
      check bool_t "get raises" true
        (match Par.get out.(1) with
         | _ -> false
         | exception Failure _ -> true))

(* ------------------------------------------------------------------ *)
(* Pool reuse                                                          *)
(* ------------------------------------------------------------------ *)

let test_pool_reuse_across_batches () =
  Par.with_pool ~jobs:3 (fun p ->
      let b1 = Par.map p (fun x -> x + 1) (Array.init 10 Fun.id) in
      check (Alcotest.list int_t) "first batch"
        (List.init 10 (fun i -> i + 1))
        (values b1);
      let b2 = Par.map p (fun x -> x * 2) (Array.init 7 Fun.id) in
      check (Alcotest.list int_t) "second batch on same workers"
        (List.init 7 (fun i -> 2 * i))
        (values b2);
      check int_t "stats are per batch" 7 (Par.last_stats p).Par.tasks)

let test_empty_batch () =
  Par.with_pool ~jobs:2 (fun p ->
      check int_t "empty batch" 0 (Array.length (Par.run p [||])))

(* ------------------------------------------------------------------ *)
(* Events and counters                                                 *)
(* ------------------------------------------------------------------ *)

let test_par_events () =
  let events = ref [] in
  Obs.with_sink
    (fun e -> if String.length e.Obs.name >= 4
               && String.sub e.Obs.name 0 4 = "par." then events := e :: !events)
    (fun () ->
      Par.with_pool ~name:"evpool" ~jobs:2 (fun p ->
          ignore (Par.map p (fun x -> x) (Array.init 3 Fun.id))));
  let count name =
    List.length (List.filter (fun e -> e.Obs.name = name) !events)
  in
  check int_t "three starts" 3 (count "par.task.start");
  check int_t "three dones" 3 (count "par.task.done");
  check int_t "one batch record" 1 (count "par.batch.done");
  List.iter
    (fun e ->
      if e.Obs.name = "par.task.start" then
        match List.assoc_opt "pool" e.Obs.fields with
        | Some (Obs.String "evpool") -> ()
        | _ -> Alcotest.fail "task event tagged with pool name")
    !events

let test_counters_merge_across_domains () =
  (* Worker-domain increments must be visible in the global snapshot:
     par.tasks grows by exactly the number of tasks submitted. *)
  let before = Obs.Counter.value (Obs.Counter.make "par.tasks") in
  Par.with_pool ~jobs:3 (fun p ->
      ignore (Par.map p (fun x -> x) (Array.init 11 Fun.id)));
  let after = Obs.Counter.value (Obs.Counter.make "par.tasks") in
  check int_t "worker increments merged" 11 (after - before)

let test_nested_run_rejected () =
  (* The documented deadlock is a fail-fast error: calling back into the
     pool from one of its own tasks raises Invalid_argument — on the
     jobs = 1 inline path and from a worker domain alike. *)
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun p ->
          let out =
            Par.run p
              [|
                (fun () ->
                  match Par.run p [| (fun () -> 0) |] with
                  | _ -> "no-raise"
                  | exception Invalid_argument _ -> "raised");
              |]
          in
          match out.(0) with
          | Par.Done "raised" -> ()
          | _ ->
            Alcotest.failf "jobs=%d: nested run must raise Invalid_argument"
              jobs))
    [ 1; 2 ]

let () =
  Alcotest.run "fl_par"
    [
      ( "ordering",
        [
          Alcotest.test_case "results land by index" `Quick
            test_results_land_by_index;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_matches_sequential;
        ] );
      ( "failures",
        [
          Alcotest.test_case "failure cancels the rest" `Quick
            test_failure_and_cancellation;
        ] );
      ( "batches",
        [
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse_across_batches;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "nested run rejected" `Quick
            test_nested_run_rejected;
        ] );
      ( "observability",
        [
          Alcotest.test_case "par events" `Quick test_par_events;
          Alcotest.test_case "counters merge" `Quick
            test_counters_merge_across_domains;
        ] );
    ]
