(* Offline analyzer for Fl_obs JSONL traces (written by --trace FILE).

   fltrace summary FILE   event counts and a wall-clock breakdown
   fltrace spans FILE     aggregated span profile (calls, total, self)
   fltrace flame FILE     folded stacks for flamegraph.pl
   fltrace attack FILE    DIP trajectory table from attack.* records
                          (clauses/vars/ratio are those of the miter the
                          solver sees: each observation is its folded key
                          cone, not a full circuit copy)

   Every command tolerates truncated or interleaved traces: unparsable
   lines are skipped (and counted), span.end events with no open span are
   reported as unmatched.  TRACE may be "-" for stdin: the trace is read
   exactly once (events are held in memory), so piping a live capture
   works for every command. *)

module Obs = Fl_obs
module Json = Fl_obs.Json
module Profile = Fl_obs.Profile

let usage () =
  prerr_endline
    "usage: fltrace {summary|spans|flame|attack} TRACE.jsonl\n\n\
    \  TRACE may be - to read the trace from stdin\n\
    \  summary  per-event counts and wall-clock breakdown\n\
    \  spans    span profile tree: calls, total and self time\n\
    \  flame    folded stacks (pipe into flamegraph.pl)\n\
    \  attack   DIP trajectory table from attack.iteration records";
  exit 2

(* ------------------------------------------------------------------ *)
(* Trace reading                                                       *)
(* ------------------------------------------------------------------ *)

(* Load the parsable events of [path] ("-" = stdin) in one pass,
   counting skipped lines (blank or unparsable — a live-written trace can
   end in a torn line).  One pass matters for stdin: it cannot be
   reopened, so every command works off this in-memory list. *)
let load_events path =
  let ic =
    if path = "-" then stdin
    else
      try open_in path
      with Sys_error msg ->
        Printf.eprintf "fltrace: %s\n" msg;
        exit 1
  in
  let skipped = ref 0 in
  let events = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line = "" then incr skipped
       else
         match Json.of_string line with
         | e -> events := e :: !events
         | exception Json.Parse_error _ -> incr skipped
     done
   with End_of_file -> ());
  if path <> "-" then close_in ic;
  List.rev !events, !skipped

let fold_events path f init =
  let events, skipped = load_events path in
  List.fold_left f init events, skipped

let profile_of_events events =
  let p = Profile.create () in
  List.iter (Profile.add_event p) events;
  p

let field name e = List.assoc_opt name e.Obs.fields

let field_int name e =
  match field name e with
  | Some (Obs.Int i) -> Some i
  | Some (Obs.Float f) -> Some (int_of_float f)
  | _ -> None

let field_float name e =
  match field name e with
  | Some (Obs.Float f) -> Some f
  | Some (Obs.Int i) -> Some (float_of_int i)
  | _ -> None

let field_str name e =
  match field name e with Some (Obs.String s) -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* summary                                                             *)
(* ------------------------------------------------------------------ *)

let summary path =
  let events, skipped = load_events path in
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let n, t0, t1 =
    List.fold_left
      (fun (n, t0, t1) e ->
        (* Collapse the per-span event names so `span.begin:session.solve_dip`
           and its siblings aggregate under one row each. *)
        let name =
          match String.index_opt e.Obs.name ':' with
          | Some i -> String.sub e.Obs.name 0 i
          | None -> e.Obs.name
        in
        (match Hashtbl.find_opt counts name with
         | Some r -> incr r
         | None -> Hashtbl.add counts name (ref 1));
        n + 1, Float.min t0 e.Obs.ts, Float.max t1 e.Obs.ts)
      (0, Float.infinity, Float.neg_infinity)
      events
  in
  if n = 0 then begin
    Printf.printf "%s: no parsable events (%d lines skipped)\n" path skipped;
    exit (if skipped > 0 then 1 else 0)
  end;
  Printf.printf "%s: %d events in %.3fs of wall clock%s\n\n" path n (t1 -. t0)
    (if skipped > 0 then Printf.sprintf " (%d lines skipped)" skipped else "");
  let rows =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counts []
    |> List.sort (fun (na, ca) (nb, cb) ->
           match compare cb ca with 0 -> compare na nb | c -> c)
  in
  Printf.printf "%-32s %10s\n" "event" "count";
  List.iter (fun (name, c) -> Printf.printf "%-32s %10d\n" name c) rows;
  (* Parallel execution: par.batch.done aggregated per pool. *)
  let batches = List.filter (fun e -> e.Obs.name = "par.batch.done") events in
  if batches <> [] then begin
    let pools : (string, int * int * int * int * float * float) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun e ->
        let pool = Option.value ~default:"?" (field_str "pool" e) in
        let gi n = Option.value ~default:0 (field_int n e) in
        let gf n = Option.value ~default:0.0 (field_float n e) in
        let b, t, f, c, ts, ws =
          Option.value ~default:(0, 0, 0, 0, 0.0, 0.0)
            (Hashtbl.find_opt pools pool)
        in
        Hashtbl.replace pools pool
          ( b + 1, t + gi "tasks", f + gi "failed", c + gi "cancelled",
            ts +. gf "task_seconds", ws +. gf "wall_seconds" ))
      batches;
    Printf.printf "\n%-16s %8s %8s %7s %9s %10s %10s %8s\n" "pool" "batches"
      "tasks" "failed" "cancelled" "task_s" "wall_s" "speedup";
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) pools []
    |> List.sort compare
    |> List.iter (fun (pool, (b, t, f, c, ts, ws)) ->
           Printf.printf "%-16s %8d %8d %7d %9d %10.3f %10.3f %8.2f\n" pool b
             t f c ts ws
             (if ws > 0.0 then ts /. ws else 0.0))
  end;
  (* Wall breakdown: where the top-level spans spent the trace. *)
  let p = profile_of_events events in
  let roots = Profile.roots p in
  if roots <> [] then begin
    let wall = t1 -. t0 in
    Printf.printf "\n%-32s %8s %12s %7s\n" "top-level span" "calls" "total_s"
      "%wall";
    List.iter
      (fun (r : Profile.tree) ->
        Printf.printf "%-32s %8d %12.3f %6.1f%%\n" r.Profile.tname
          r.Profile.calls r.Profile.total_s
          (if wall > 0.0 then 100.0 *. r.Profile.total_s /. wall else 0.0))
      roots;
    let spanned = List.fold_left (fun a r -> a +. r.Profile.total_s) 0.0 roots in
    Printf.printf "%-32s %8s %12.3f %6.1f%%\n" "(outside any span)" ""
      (Float.max 0.0 (wall -. spanned))
      (if wall > 0.0 then 100.0 *. Float.max 0.0 (wall -. spanned) /. wall
       else 0.0)
  end;
  if Profile.unmatched p > 0 then
    Printf.printf "\n%d unmatched span.end events (truncated trace?)\n"
      (Profile.unmatched p)

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

let spans path =
  let events, _ = load_events path in
  let p = profile_of_events events in
  let roots = Profile.roots p in
  if roots = [] then begin
    Printf.printf "%s: no span events\n" path;
    exit 0
  end;
  Printf.printf "%-48s %8s %12s %12s\n" "span" "calls" "total_s" "self_s";
  let rec pr_tree indent (t : Profile.tree) =
    Printf.printf "%-48s %8d %12.3f %12.3f\n"
      (String.make (2 * indent) ' ' ^ t.Profile.tname)
      t.Profile.calls t.Profile.total_s t.Profile.self_s;
    List.iter (pr_tree (indent + 1)) t.Profile.children
  in
  List.iter (pr_tree 0) roots;
  if Profile.unmatched p > 0 then
    Printf.printf "(%d unmatched span.end events)\n" (Profile.unmatched p)

(* ------------------------------------------------------------------ *)
(* flame                                                               *)
(* ------------------------------------------------------------------ *)

(* flamegraph.pl wants integer sample counts; we emit self time in
   microseconds, so 1 sample = 1µs. *)
let flame path =
  let events, _ = load_events path in
  let p = profile_of_events events in
  List.iter
    (fun (stack, self_s) ->
      let us = int_of_float ((self_s *. 1e6) +. 0.5) in
      if us > 0 then Printf.printf "%s %d\n" stack us)
    (Profile.flame p)

(* ------------------------------------------------------------------ *)
(* attack                                                              *)
(* ------------------------------------------------------------------ *)

(* One table row per attack.iteration / attack.exhausted / attack.timeout
   record.  A trace may hold many attack runs (a bench sweep): a new table
   starts when the (attack, scheme) pair changes or the iteration counter
   stops growing. *)
let attack path =
  let header label scheme =
    Printf.printf "\n== attack %s on %s ==\n" label scheme;
    Printf.printf "%6s %9s %8s %7s %10s %10s %12s %9s %s\n" "iter" "clauses"
      "vars" "ratio" "elapsed_s" "conflicts" "propagations" "decisions" "note"
  in
  let last = ref None in
  let rows = ref 0 in
  let emit_row e note =
    let label = Option.value ~default:"?" (field_str "attack" e) in
    let scheme = Option.value ~default:"?" (field_str "scheme" e) in
    let iter = Option.value ~default:0 (field_int "iter" e) in
    (match !last with
     | Some (l, s, i) when l = label && s = scheme && iter > i -> ()
     | _ -> header label scheme);
    last := Some (label, scheme, iter);
    incr rows;
    let gi name = Option.value ~default:0 (field_int name e) in
    let gf name = Option.value ~default:0.0 (field_float name e) in
    Printf.printf "%6d %9d %8d %7.2f %10.3f %10d %12d %9d %s\n" iter
      (gi "clauses") (gi "vars")
      (gf "clause_var_ratio")
      (gf "elapsed_s") (gi "conflicts") (gi "propagations") (gi "decisions")
      note
  in
  let (), skipped =
    fold_events path
      (fun () e ->
        match e.Obs.name with
        | "attack.iteration" ->
          let screened =
            match field "screened" e with
            | Some (Obs.Bool true) -> "screened"
            | _ -> ""
          in
          emit_row e screened
        | "attack.exhausted" -> emit_row e "exhausted (key extraction next)"
        | "attack.timeout" -> emit_row e "TIMEOUT"
        | _ -> ())
      ()
  in
  if !rows = 0 then
    Printf.printf "%s: no attack.iteration records%s\n" path
      (if skipped > 0 then Printf.sprintf " (%d lines skipped)" skipped else "")

let () =
  match Array.to_list Sys.argv with
  | [ _; "summary"; path ] -> summary path
  | [ _; "spans"; path ] -> spans path
  | [ _; "flame"; path ] -> flame path
  | [ _; "attack"; path ] -> attack path
  | _ -> usage ()
