(* The attack-path benchmark: one workload per process, one domain, no
   pool and no portfolio.

   Inputs are generated from the workload seed as .bench text (synthetic
   suite hosts); the program under test sees only that text.  Set-up parses
   every host and locks it; the measured part drives the oracle-guided
   attack loop through the public [Fl_attacks.Session] API
   (create -> find_dip -> observe ... -> candidate_key) and checks every
   recovered key.  With [--trace 1] every public call is also timed from
   outside, an [Fl_obs.Profile] sink reads the spans the library emits
   itself, and the per-layer ledger is reported instead of the end-to-end
   metrics.  End-to-end times are processor seconds of this process.

   The last line of standard output is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}. *)

module Bench_io = Fl_netlist.Bench_io
module Bench_suite = Fl_netlist.Bench_suite
module Generator = Fl_netlist.Generator
module View = Fl_netlist.View
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Session = Fl_attacks.Session
module Cycsat = Fl_attacks.Cycsat
module Cdcl = Fl_sat.Cdcl
module Equiv = Fl_sat.Equiv
module Profile = Fl_obs.Profile
module Json = Fl_obs.Json

(* ---- Workloads ---------------------------------------------------------- *)

type lock =
  | Full of { plrs : int; n : int; policy : [ `Acyclic | `Cyclic ] }
      (** [plrs] PLRs of [n] wires each *)
  | Sarlock of int  (** key bits *)
  | Antisat of int  (** key bits, both halves *)

type instance = {
  host : string;  (** suite entry the host's shape comes from *)
  draw : int;  (** which of the seed's hosts of that shape *)
  scale : int;  (** shrink factor of the host, as [Bench_suite.load_scaled] *)
  lock : lock;
  budget : int;  (** conflict budget of the whole attack *)
}

let instance_name i =
  let lock =
    match i.lock with
    | Full { plrs; n; policy } ->
      Printf.sprintf "%dx%dx%d%s" plrs n n
        (match policy with `Cyclic -> "-cyclic" | `Acyclic -> "")
    | Sarlock k -> Printf.sprintf "sarlock%d" k
    | Antisat k -> Printf.sprintf "antisat%d" k
  in
  Printf.sprintf "%s.%d/%s" i.host i.draw lock

let small_hosts = [ "c432"; "c499"; "c880"; "c1355"; "i4"; "c1908" ]

(* [draws] hosts of each shape of [hosts], each locked in every way of
   [locks]. *)
let grid ?(hosts = small_hosts) ~draws ~scale ~budget locks =
  List.concat_map
    (fun draw ->
      List.concat_map
        (fun host -> List.map (fun lock -> { host; draw; scale; lock; budget }) locks)
        hosts)
    (List.init draws Fun.id)

(* Table 4 of the paper: CycSAT against cyclic Full-Lock, one and two 4x4
   PLRs per host.  The time of one budgeted attack varies over two orders
   of magnitude with the host and the lock draw, so the pass holds many
   short attacks rather than a few long ones: their sum then varies little
   from seed to seed. *)
let table4_cycsat =
  grid ~draws:6 ~scale:4 ~budget:1_000
    (List.map (fun plrs -> Full { plrs; n = 4; policy = `Cyclic }) [ 1; 2 ])

(* The paper's contrast case (its section 2): point functions force many
   cheap DIP iterations.  Each host is locked with SARLock and with
   Anti-SAT; two hosts of each shape. *)
let pointfn = grid ~draws:1 ~scale:4 ~budget:1_000_000 [ Sarlock 7; Antisat 14 ]

(* One 32x32 PLR, the paper's Table 4 size, on the largest full-size
   hosts: lock insertion, Tseytin and preprocessing on big netlists, then
   a short budgeted solve over a large working set.  Two hosts of each
   shape, as one attack's time depends on where its PLR lands. *)
let paper_scale =
  grid
    ~hosts:[ "c1908"; "c2670"; "c3540"; "c5315"; "c7552"; "apex4"; "i7" ]
    ~draws:2 ~scale:1 ~budget:1_000
    [ Full { plrs = 1; n = 32; policy = `Acyclic } ]

(* The known slow case, kept out of BENCHMARK.json for its run length:
   SARLock on i7 at 1/2 scale, whose final key check exhausts its budget. *)
let sarlock_i7_half =
  [ { host = "i7"; draw = 0; scale = 2; lock = Sarlock 7; budget = 1_000_000 } ]

(* Each workload with its number of set-ups per set-up round: fixed, so a
   round is the same work on every machine, and sized so that a round
   takes about a second on a 2-vCPU x86 VM. *)
let workloads =
  [ "table4-cycsat", (table4_cycsat, 20); "pointfn", (pointfn, 300);
    "paper-scale", (paper_scale, 3); "sarlock-i7-half", (sarlock_i7_half, 1) ]

(* Conflict budget of the formal key check (acyclic locked circuits). *)
let check_budget = 1_000_000

(* Wall-clock backstop of one attack; budgets are conflicts, so this never
   decides an outcome on a healthy run. *)
let wall_backstop = 150.0

(* ---- Inputs and set-up --------------------------------------------------- *)

(* The host as .bench text: a seeded synthetic circuit with the suite
   entry's gate and I/O counts, shrunk by [scale] as
   [Bench_suite.load_scaled] does.  Seed 0 selects the suite's own host. *)
let host_text ~seed i =
  match Bench_suite.find i.host with
  | None -> invalid_arg ("unknown host " ^ i.host)
  | Some _ when seed = 0 ->
    Bench_io.to_string (Bench_suite.load_scaled i.host ~scale:i.scale)
  | Some e ->
    let shrink v floor = max floor (v / i.scale) in
    let profile =
      {
        Generator.num_inputs = shrink e.Bench_suite.inputs 4;
        num_outputs = shrink e.Bench_suite.outputs 1;
        num_gates = shrink e.Bench_suite.gates 8;
        max_fanin = 4;
        and_bias =
          (match e.Bench_suite.family with `Iscas85 -> 0.85 | `Mcnc -> 0.7);
      }
    in
    Generator.random ~seed:(Hashtbl.hash (seed, i.host, i.scale, i.draw))
      ~name:i.host
      profile
    |> Bench_io.to_string

(* [lock_draw] numbers the set-ups of a round; the attacked instances are
   those of lock draw 0. *)
let lock_host ~seed ~lock_draw idx i circuit =
  let rng = Random.State.make [| seed; idx; Hashtbl.hash i.host; lock_draw |] in
  match i.lock with
  | Full { plrs; n; policy } ->
    Fulllock.lock rng ~policy
      ~configs:(List.init plrs (fun _ -> Fulllock.default_config ~n))
      circuit
  | Sarlock key_bits -> Fl_locking.Sarlock.lock rng ~key_bits circuit
  | Antisat key_bits -> Fl_locking.Antisat.lock rng ~key_bits circuit

let now = Unix.gettimeofday

(* Processor time of this single-domain process.  The end-to-end timings
   use it rather than wall time: the program does no I/O, so on an idle
   machine the two agree, but processor time leaves out the spells in
   which a virtual machine's CPU is lent to another guest. *)
let cpu = Sys.time

(* One set-up: parse every host and lock it with lock draw [lock_draw].
   Adds the parse and lock processor seconds to [parse_s] and [lock_s];
   returns the locked instances. *)
let setup ~seed ~lock_draw ~parse_s ~lock_s inputs =
  List.mapi
    (fun idx (i, text) ->
      let t0 = cpu () in
      let c = Bench_io.parse_string ~name:i.host text in
      let t1 = cpu () in
      let locked = lock_host ~seed ~lock_draw idx i c in
      parse_s := !parse_s +. (t1 -. t0);
      lock_s := !lock_s +. (cpu () -. t1);
      i, locked)
    inputs

(* One set-up round: [reps] set-ups in a row, each with its own lock draw,
   from a compacted heap so that one round's garbage does not slow the
   next.  The cost of a lock insertion varies with the draw (selecting
   independent wires on c7552 took from 0.02 to 0.6 s), so a round averages
   over draws.  Returns the round's parse and lock seconds and the
   instances of draw 0, which come last. *)
let setup_round ~seed ~reps inputs =
  Gc.compact ();
  let parse_s = ref 0.0 and lock_s = ref 0.0 in
  let rec go lock_draw =
    let instances = setup ~seed ~lock_draw ~parse_s ~lock_s inputs in
    if lock_draw > 0 then go (lock_draw - 1) else instances
  in
  let instances = go (reps - 1) in
  (!parse_s, !lock_s), instances

(* ---- Outside-in ledger (traced pass only) -------------------------------- *)

type probe = { mutable calls : int; mutable secs : float; mutable words : float }

type ledger = {
  nc : probe;  (** Cycsat.no_cycle_condition *)
  create : probe;
  solved : probe;  (** find_dip calls that moved the solver stats *)
  screened : probe;  (** find_dip calls answered by the word screen *)
  observe : probe;
  key : probe;  (** candidate_key *)
  check : probe;  (** Equiv.check_key or Locked.key_matches *)
  mutable solved_work : Cdcl.stats;  (** solver work inside solved find_dip *)
  mutable session_work : Cdcl.stats;  (** all session solver work *)
}

let new_ledger () =
  let probe () = { calls = 0; secs = 0.0; words = 0.0 } in
  { nc = probe (); create = probe (); solved = probe (); screened = probe ();
    observe = probe (); key = probe (); check = probe ();
    solved_work = Cdcl.zero_stats; session_work = Cdcl.zero_stats }

let charge p t0 w0 =
  p.calls <- p.calls + 1;
  p.secs <- p.secs +. (now () -. t0);
  p.words <- p.words +. (Gc.minor_words () -. w0)

let timed led pick f =
  match led with
  | None -> f ()
  | Some l ->
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = f () in
    charge (pick l) t0 w0;
    r

let find_dip led s =
  match led with
  | None -> Session.find_dip s
  | Some l ->
    let before = Session.solver_stats s in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = Session.find_dip s in
    let after = Session.solver_stats s in
    if after = before then charge l.screened t0 w0
    else begin
      charge l.solved t0 w0;
      l.solved_work <- Cdcl.add_stats l.solved_work (Cdcl.sub_stats after before)
    end;
    r

(* ---- One attack ---------------------------------------------------------- *)

type failure = Exception of string | Wrong_key | Check_unknown
type verdict = Broken | Timed_out | No_key | Failed of failure

let status_name = function
  | Broken -> "broken"
  | Timed_out -> "TO"
  | No_key -> "no-key"
  | Failed (Exception _) -> "exception"
  | Failed Wrong_key -> "wrong-key"
  | Failed Check_unknown -> "check-unknown"

type outcome = {
  verdict : verdict;
  dips : int;
  secs : float;  (** processor seconds *)
  wall : float;
}

let check_key led ~cyclic locked key =
  timed led (fun l -> l.check) @@ fun () ->
  if cyclic then if Locked.key_matches locked ~key then Broken else Failed Wrong_key
  else
    match
      Equiv.check_key ~budget:(Cdcl.budget_conflicts check_budget)
        ~locked:locked.Locked.locked ~oracle:locked.Locked.oracle key
    with
    | Equiv.Equivalent -> Broken
    | Equiv.Different _ -> Failed Wrong_key
    | Equiv.Unknown -> Failed Check_unknown

let attack led (inst, locked) =
  let t0 = cpu () and w0 = now () in
  let run () =
    let circuit = locked.Locked.locked in
    (* CycSAT's cycle analysis runs on every locked netlist, as the
       attacker cannot know beforehand whether it is cyclic.  On an acyclic
       netlist the no-cycle condition adds no clause and the attack is the
       plain SAT attack. *)
    let no_cycle =
      timed led (fun l -> l.nc) (fun () -> Cycsat.no_cycle_condition circuit)
    in
    let cyclic = not (View.is_acyclic (View.of_circuit circuit)) in
    let s =
      timed led (fun l -> l.create) (fun () ->
          Session.create ~extra_key_constraint:no_cycle
            ~label:(if cyclic then "cycsat" else "sat")
            ~max_conflicts:inst.budget ~deadline:(now () +. wall_backstop)
            locked)
    in
    let rec loop () =
      match find_dip led s with
      | `Dip dip ->
        timed led (fun l -> l.observe) (fun () -> Session.observe s dip);
        loop ()
      | `Timeout -> Timed_out
      | `Exhausted ->
        (match timed led (fun l -> l.key) (fun () -> Session.candidate_key s) with
         | `Key key -> check_key led ~cyclic locked key
         | `None -> No_key
         | `Timeout -> Timed_out)
    in
    let verdict = loop () in
    Option.iter
      (fun l ->
        l.session_work <- Cdcl.add_stats l.session_work (Session.solver_stats s))
      led;
    verdict, Session.iterations s
  in
  let verdict, dips =
    try if Option.is_none led then run () else Fl_obs.with_span "bench.attack" run
    with e -> Failed (Exception (Printexc.to_string e)), 0
  in
  { verdict; dips; secs = cpu () -. t0; wall = now () -. w0 }

(* One pass over the instance list: its processor time and the outcomes. *)
let run_pass led instances =
  let t0 = cpu () in
  let outcomes = List.map (attack led) instances in
  cpu () -. t0, outcomes

(* ---- Statistics and output ---------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs =
  let logs = List.map (fun x -> log (max x 1e-9)) xs in
  exp (List.fold_left ( +. ) 0.0 logs /. float (max 1 (List.length xs)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let print_result ~failed ~attempted metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
          (Json.string_to_string name) (num value) (Json.string_to_string unit))
      metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (failed = 0) attempted failed (String.concat "," fields)

(* Expected statuses, keyed by workload then seed.  A seed with no recorded
   list is not compared. *)
let expected_file = "perfbench/expected.json"

let expected_statuses ~workload ~seed =
  match In_channel.with_open_bin expected_file In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    (match Option.bind (Json.member workload (Json.parse text))
             (Json.member (string_of_int seed)) with
     | Some (Json.Jarr l) ->
       Some (List.map (function Json.Jstring s -> s | _ -> "?") l)
     | _ -> None)

type failures = {
  exceptions : int;
  wrong : int;  (** wrong key *)
  unknown : int;  (** key check returned Unknown *)
  nondet : int;  (** status or DIP count differs from the first pass *)
}

(* Prints every failure and every status that differs between passes or
   from the expected list; returns the failure counts by kind.  Budgets
   are conflict counts, so every pass must repeat the first one exactly:
   an attack whose status or DIP count differs is a failure of its own
   kind.  A status that differs from the expected list is printed, not
   counted, as it follows the solver's search. *)
let check_verdicts ~names ~expected all_passes =
  let exceptions = ref 0 and wrong = ref 0 and unknown = ref 0
  and nondet = ref 0 in
  let first = snd (List.hd all_passes) in
  List.iter
    (fun (_, outcomes) ->
      List.iter2
        (fun (name, a) o ->
          (match o.verdict with
           | Failed (Exception e) ->
             incr exceptions;
             Printf.printf "FAILED %s: exception %s\n" name e
           | Failed Wrong_key ->
             incr wrong;
             Printf.printf "FAILED %s: wrong key\n" name
           | Failed Check_unknown ->
             incr unknown;
             Printf.printf "FAILED %s: key check returned Unknown\n" name
           | Broken | Timed_out | No_key -> ());
          if a.verdict <> o.verdict || a.dips <> o.dips then begin
            incr nondet;
            Printf.printf "NONDETERMINISTIC %s: %s/%d dips, then %s/%d dips\n"
              name (status_name a.verdict) a.dips (status_name o.verdict) o.dips
          end)
        (List.combine names first) outcomes)
    all_passes;
  let statuses = List.map (fun o -> status_name o.verdict) first in
  (match expected with
   | None -> print_endline "expected statuses: none recorded for this seed"
   | Some exp when List.length exp <> List.length statuses ->
     Printf.printf "STATUS FLIP: %d expected statuses for %d attacks\n"
       (List.length exp) (List.length statuses)
   | Some exp ->
     let flips = ref 0 in
     List.iter2
       (fun (name, got) want ->
         if got <> want then begin
           incr flips;
           Printf.printf "STATUS FLIP %s: expected %s, got %s\n" name want got
         end)
       (List.combine names statuses) exp;
     Printf.printf "expected statuses: %d flips\n" !flips);
  Printf.printf "statuses %s\n"
    (Json.encode (Json.Jarr (List.map (fun s -> Json.Jstring s) statuses)));
  List.iter2
    (fun name o ->
      Printf.printf "  %-26s %-13s dips=%-5d %.3fs\n" name
        (status_name o.verdict) o.dips o.secs)
    names first;
  { exceptions = !exceptions; wrong = !wrong; unknown = !unknown;
    nondet = !nondet }

(* The per-layer ledger of the traced pass.  [untraced_s] is the wall time
   of an untraced pass over the same instances. *)
let layer_metrics ~setup_times ~untraced_s ~peak_heap_mb ~attack_s_geomean
    (traced_s, outcomes) profile l ~words ~majors =
  let rec span_total name (t : Profile.tree) =
    List.fold_left
      (fun acc c -> acc +. span_total name c)
      (if t.Profile.tname = name then t.Profile.total_s else 0.0)
      t.Profile.children
  in
  let span name =
    List.fold_left (fun acc t -> acc +. span_total name t) 0.0
      (Profile.roots profile)
  in
  let dips = List.fold_left (fun acc o -> acc + o.dips) 0 outcomes in
  let sw = l.solved_work and all = l.session_work in
  let conflicts = float sw.Cdcl.conflicts in
  [ "netlist.parse_string.s", median (List.map fst setup_times), "s";
    "core.lock.s", median (List.map snd setup_times), "s";
    "attacks.no_cycle_condition.s", l.nc.secs, "s";
    "attacks.create.s", l.create.secs, "s";
    "attacks.create.minor_words", l.create.words, "words";
    "cnf.build_miter.s", span "session.build_miter", "s";
    "sat.preprocess.s", span "session.preprocess", "s";
    "attacks.find_dip.solved.calls", float l.solved.calls, "count";
    "attacks.find_dip.solved.s", l.solved.secs, "s";
    "attacks.find_dip.solved.minor_words", l.solved.words, "words";
    "attacks.find_dip.screened.calls", float l.screened.calls, "count";
    "attacks.find_dip.screened.s", l.screened.secs, "s";
    "attacks.screen_hit_share", ratio (float l.screened.calls) (float dips),
    "share";
    "attacks.find_dip.unspanned_s",
    l.solved.secs +. l.screened.secs -. span "session.screen"
    -. span "session.solve_dip", "s";
    "sat.cdcl.conflicts", float all.Cdcl.conflicts, "count";
    "sat.cdcl.propagations", float all.Cdcl.propagations, "count";
    "sat.cdcl.decisions", float all.Cdcl.decisions, "count";
    "sat.cdcl.conflicts_per_s", ratio conflicts l.solved.secs, "1/s";
    "sat.cdcl.props_per_s", ratio (float sw.Cdcl.propagations) l.solved.secs,
    "1/s";
    "sat.cdcl.words_per_conflict", ratio l.solved.words conflicts, "words";
    "attacks.observe.calls", float l.observe.calls, "count";
    "attacks.observe.s", l.observe.secs, "s";
    "attacks.observe.minor_words", l.observe.words, "words";
    "attacks.candidate_key.s", l.key.secs, "s";
    "attacks.candidate_key.unspanned_s", l.key.secs -. span "session.key_solve",
    "s";
    "sat.check_key.s", l.check.secs, "s";
    "attacks.dips", float dips, "count";
    "gc.minor_words", words, "words";
    "gc.major_collections", float majors, "count";
    "peak_heap_mb", peak_heap_mb, "MB";
    "attack_s_geomean", attack_s_geomean, "s";
    "trace_overhead", ratio traced_s untraced_s, "ratio" ]

let setup_rounds = 3

(* ---- Main ----------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: flbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0
  and trace = ref false in
  let rec args = function
    | "--workload" :: v :: rest -> workload := v; args rest
    | "--seed" :: v :: rest -> seed := int_of_string v; args rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; args rest
    | "--trace" :: v :: rest -> trace := v = "1"; args rest
    | [] -> ()
    | a :: _ -> prerr_endline ("unknown argument " ^ a); usage ()
  in
  (try args (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let specs, setup_reps =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = !seed and trace = !trace in
  (* Measured passes run with no sink and without deep telemetry. *)
  Fl_obs.set_deep false;
  let inputs = List.map (fun i -> i, host_text ~seed i) specs in
  (* Three set-up rounds of the workload's fixed number of set-ups; setup_s
     is the median round.  The last set-up's instances are attacked. *)
  let rec rounds k times =
    let t, instances = setup_round ~seed ~reps:setup_reps inputs in
    if k > 1 then rounds (k - 1) (t :: times) else t :: times, instances
  in
  let setup_times, instances = rounds setup_rounds [] in
  let setup_s = median (List.map (fun (p, l) -> p +. l) setup_times) in
  let names =
    List.mapi (fun k (i, _) -> Printf.sprintf "%d:%s" k (instance_name i)) instances
  in
  (* Untraced passes until [--seconds] is about used up, at least one (just
     one before a traced pass); each attack's time is its median over them.
     The peak heap is read after the first: later passes only add
     fragmentation, and their number depends on the machine's speed. *)
  let peak_heap_words = ref 0 in
  Gc.compact ();
  let start = now () in
  let rec passes acc =
    let pass = run_pass None instances in
    if acc = [] then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    let acc = pass :: acc in
    let typical = median (List.map fst acc) in
    if trace then List.rev acc
    else if now () -. start +. typical <= !seconds *. 1.1 then passes acc
    else List.rev acc
  in
  let passes = passes [] in
  let traced =
    if not trace then None
    else begin
      let profile = Profile.create () in
      let led = new_ledger () in
      let w0 = Gc.minor_words () in
      let majors0 = (Gc.quick_stat ()).Gc.major_collections in
      let pass =
        Fl_obs.with_sink (Profile.sink profile) (fun () ->
            run_pass (Some led) instances)
      in
      let words = Gc.minor_words () -. w0
      and majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
      Some (pass, profile, led, words, majors)
    end
  in
  let all_passes =
    passes @ (match traced with Some (p, _, _, _, _) -> [ p ] | None -> [])
  in
  let expected = expected_statuses ~workload:!workload ~seed in
  let f = check_verdicts ~names ~expected all_passes in
  let attempted = List.length instances * List.length all_passes in
  let failed = f.exceptions + f.wrong + f.unknown + f.nondet in
  (* Each attack's time is its median over the untraced passes, which
     filters a slowdown of the machine during one pass; workload_s is their
     sum, the time of one pass. *)
  let attack_s =
    List.mapi
      (fun k _ -> median (List.map (fun (_, os) -> (List.nth os k).secs) passes))
      instances
  in
  let workload_s = List.fold_left ( +. ) 0.0 attack_s in
  let wall_s =
    List.fold_left ( +. ) 0.0
      (List.mapi
         (fun k _ -> median (List.map (fun (_, os) -> (List.nth os k).wall) passes))
         instances)
  in
  let attack_s_geomean = geomean attack_s in
  let peak_heap_mb = float (!peak_heap_words * (Sys.word_size / 8)) /. 1048576.0 in
  Printf.printf
    "%s seed=%d: %d attacks x %d untraced passes%s\n\
     setup_s          %.4f s (median of %d rounds of %d set-ups)\n\
     workload_s       %.3f s (per-attack medians over passes of %s s; \
     wall %.3f s)\n\
     attack_s_geomean %.4f s (%d attacks)\n\
     peak_heap_mb     %.1f MB\n\
     failed_share     %.4f share (%d of %d; exception %d, wrong key %d, \
     check unknown %d, nondeterministic %d)\n"
    !workload seed (List.length instances) (List.length passes)
    (if trace then " + 1 traced pass" else "")
    setup_s setup_rounds setup_reps workload_s
    (String.concat ", " (List.map (fun (t, _) -> Printf.sprintf "%.2f" t) passes))
    wall_s attack_s_geomean (List.length instances) peak_heap_mb
    (ratio (float failed) (float attempted))
    failed attempted f.exceptions f.wrong f.unknown f.nondet;
  let metrics =
    match traced with
    | None -> [ "setup_s", setup_s, "s"; "workload_s", workload_s, "s" ]
    | Some (pass, profile, led, words, majors) ->
      layer_metrics ~setup_times ~untraced_s:(median (List.map fst passes))
        ~peak_heap_mb ~attack_s_geomean pass profile led ~words ~majors
  in
  print_result ~failed ~attempted metrics
