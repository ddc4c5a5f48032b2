(* Tests for Fl_obs: JSONL sink round-trip, the generic JSON parser, span
   nesting and timing, the metric table, log2 histograms (bucketing,
   striped-merge law, JSON round-trip), span profiles and the folded-stack
   flame contract, the deep-telemetry switch, the CDCL progress hook, the
   contract that the per-iteration attack records' solver-stat deltas sum
   to the session's accumulated stats, and the bench baseline gate. *)

module Obs = Fl_obs
module Cdcl = Fl_sat.Cdcl
module Generator = Fl_netlist.Generator
module Sat_attack = Fl_attacks.Sat_attack

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let qcheck_case ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Capture every event emitted while [f] runs. *)
let record f =
  let events = ref [] in
  let r = Obs.with_sink (fun e -> events := e :: !events) f in
  r, List.rev !events

let field name e =
  match List.assoc_opt name e.Obs.fields with
  | Some v -> v
  | None -> Alcotest.failf "event %s: missing field %S" e.Obs.name name

let field_int name e =
  match field name e with
  | Obs.Int i -> i
  | _ -> Alcotest.failf "event %s: field %S is not an Int" e.Obs.name name

let field_float name e =
  match field name e with
  | Obs.Float f -> f
  | _ -> Alcotest.failf "event %s: field %S is not a Float" e.Obs.name name

(* ------------------------------------------------------------------ *)
(* Sinks and emission                                                  *)
(* ------------------------------------------------------------------ *)

let test_null_sink_is_default () =
  check bool_t "disabled by default" false (Obs.enabled ());
  (* Emitting with no sink is a no-op, not an error. *)
  Obs.emit "nobody.listens" ~fields:[ "x", Obs.Int 1 ];
  let (), events =
    record (fun () ->
        check bool_t "enabled under with_sink" true (Obs.enabled ()))
  in
  check int_t "no stray events" 0 (List.length events);
  check bool_t "disabled again after with_sink" false (Obs.enabled ())

let test_emit_reaches_all_sinks () =
  let a = ref 0 and b = ref 0 in
  Obs.with_sink
    (fun _ -> incr a)
    (fun () ->
      Obs.with_sink
        (fun _ -> incr b)
        (fun () -> Obs.emit "ping");
      Obs.emit "ping");
  check int_t "outer sink saw both" 2 !a;
  check int_t "inner sink saw one" 1 !b

(* ------------------------------------------------------------------ *)
(* JSONL round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let sample_events =
  [
    { Obs.ts = 1234.5; name = "attack.iteration";
      fields =
        [
          "iter", Obs.Int 3;
          "ratio", Obs.Float 3.77;
          "dip", Obs.String "0101";
          "converged", Obs.Bool false;
        ] };
    { Obs.ts = 0.0; name = "weird \"chars\"\n\ttest";
      fields =
        [
          "neg", Obs.Int (-42);
          "tiny", Obs.Float 1.5e-9;
          "exact", Obs.Float 0.1;
          "backslash", Obs.String "a\\b\"c\nd";
          "yes", Obs.Bool true;
        ] };
    { Obs.ts = 1.75e9; name = "empty.fields"; fields = [] };
  ]

let event_eq a b =
  a.Obs.name = b.Obs.name && a.Obs.ts = b.Obs.ts && a.Obs.fields = b.Obs.fields

let test_jsonl_round_trip () =
  List.iter
    (fun e ->
      let line = Obs.Json.to_string e in
      check bool_t "single line" false (String.contains line '\n');
      let back = Obs.Json.of_string line in
      check bool_t
        (Printf.sprintf "round-trip of %s" e.Obs.name)
        true (event_eq e back))
    sample_events

let test_jsonl_file_round_trip () =
  let path = Filename.temp_file "fl_obs_test" ".jsonl" in
  let oc = open_out path in
  let id = Obs.add_sink (Obs.jsonl_sink oc) in
  List.iter (fun e -> Obs.emit ~fields:e.Obs.fields e.Obs.name) sample_events;
  Obs.remove_sink id;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let parsed = List.rev_map Obs.Json.of_string !lines in
  check int_t "one line per event" (List.length sample_events)
    (List.length parsed);
  List.iter2
    (fun e p ->
      check bool_t "name survives" true (e.Obs.name = p.Obs.name);
      check bool_t "fields survive" true (e.Obs.fields = p.Obs.fields);
      check bool_t "ts is emission time, recent" true (p.Obs.ts > 1.0e9))
    sample_events parsed

let test_jsonl_rejects_garbage () =
  List.iter
    (fun bad ->
      match Obs.Json.of_string bad with
      | exception Obs.Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" bad)
    [
      "";
      "{";
      "not json";
      "{\"ts\":1.0}";  (* no event member *)
      "{\"event\":\"x\"}";  (* no ts *)
      "{\"ts\":1.0,\"event\":\"x\"} trailing";
      "{\"ts\":1.0,\"event\":\"x\",\"bad\":}";
    ]

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_and_timing () =
  let (), events =
    record (fun () ->
        Obs.with_span "outer" (fun () ->
            check int_t "depth inside outer" 1 (Obs.span_depth ());
            Obs.with_span "inner" (fun () ->
                check int_t "depth inside inner" 2 (Obs.span_depth ());
                Unix.sleepf 0.002)))
  in
  check int_t "depth back to zero" 0 (Obs.span_depth ());
  let names = List.map (fun e -> e.Obs.name) events in
  Alcotest.(check (list string)) "begin/end pairing"
    [ "span.begin:outer"; "span.begin:inner"; "span.end:inner";
      "span.end:outer" ]
    names;
  let ev name = List.find (fun e -> e.Obs.name = name) events in
  check int_t "outer depth field" 0 (field_int "depth" (ev "span.end:outer"));
  check int_t "inner depth field" 1 (field_int "depth" (ev "span.end:inner"));
  let outer_d = field_float "dur_s" (ev "span.end:outer") in
  let inner_d = field_float "dur_s" (ev "span.end:inner") in
  check bool_t "inner took measurable time" true (inner_d >= 0.001);
  check bool_t "outer contains inner" true (outer_d >= inner_d)

let test_span_exception_safe () =
  let (), events =
    record (fun () ->
        (try Obs.with_span "boom" (fun () -> failwith "boom")
         with Failure _ -> ()))
  in
  check int_t "depth restored after raise" 0 (Obs.span_depth ());
  check bool_t "span.end emitted despite raise" true
    (List.exists (fun e -> e.Obs.name = "span.end:boom") events)

let test_span_without_sink_is_transparent () =
  (* No sink: with_span must still run the thunk and return its value. *)
  check int_t "value passes through" 42 (Obs.with_span "quiet" (fun () -> 42));
  check int_t "depth untouched" 0 (Obs.span_depth ())

(* ------------------------------------------------------------------ *)
(* Generic JSON parser                                                 *)
(* ------------------------------------------------------------------ *)

let test_json_parse_nested () =
  let j =
    Obs.Json.parse
      {|{"a": [1, 2.5, "x", null], "b": {"c": true, "d": -3}, "e": []}|}
  in
  (match Obs.Json.member "a" j with
   | Some (Obs.Json.Jarr [ Obs.Json.Jint 1; Obs.Json.Jfloat f;
                           Obs.Json.Jstring "x"; Obs.Json.Jnull ]) ->
     check bool_t "2.5 parses" true (f = 2.5)
   | _ -> Alcotest.fail "array member");
  (match Obs.Json.member "b" j with
   | Some b ->
     check bool_t "nested bool" true
       (Obs.Json.member "c" b = Some (Obs.Json.Jbool true));
     check bool_t "nested negative" true
       (match Obs.Json.member "d" b with
        | Some n -> Obs.Json.number n = Some (-3.0)
        | None -> false)
   | None -> Alcotest.fail "object member");
  check bool_t "empty array" true
    (Obs.Json.member "e" j = Some (Obs.Json.Jarr []));
  check bool_t "absent member" true (Obs.Json.member "zz" j = None)

let test_json_string_escapes () =
  (* Encoder output must parse back to the same string, including control
     characters and unicode escapes in the input. *)
  List.iter
    (fun s ->
      let doc = "{\"k\": " ^ Obs.Json.string_to_string s ^ "}" in
      check bool_t (Printf.sprintf "escape round-trip %S" s) true
        (Obs.Json.member "k" (Obs.Json.parse doc)
         = Some (Obs.Json.Jstring s)))
    [ ""; "plain"; "a\"b"; "back\\slash"; "nl\nnl"; "tab\tcr\r";
      "ctrl\x01\x1f"; "del\x7f" ];
  (* \uXXXX escapes decode (ASCII directly, the rest to UTF-8). *)
  check bool_t "unicode escapes" true
    (Obs.Json.member "k" (Obs.Json.parse {|{"k": "\u0041\u000a\u00e9"}|})
     = Some (Obs.Json.Jstring "A\n\xc3\xa9"));
  match Obs.Json.parse {|"bad \q escape"|} with
  | exception Obs.Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "accepted unknown escape"

let test_json_numbers () =
  let num s =
    match Obs.Json.number (Obs.Json.parse s) with
    | Some f -> f
    | None -> Alcotest.failf "%s did not parse as a number" s
  in
  check bool_t "negative" true (num "-42" = -42.0);
  check bool_t "large float" true (num "1.7976931348623157e308" = max_float);
  check bool_t "tiny float" true (num "5e-324" = Float.succ 0.0);
  check bool_t "negative exponent" true (num "-2.5e-3" = -0.0025);
  (* The encoder writes infinities as the out-of-range literal 1e999 and
     nan as null; both must read back. *)
  check bool_t "1e999 reads as infinity" true (num "1e999" = infinity);
  check bool_t "-1e999 reads as -infinity" true (num "-1e999" = neg_infinity);
  let e =
    { Obs.ts = 1.0; name = "nonfinite";
      fields = [ "inf", Obs.Float infinity; "ninf", Obs.Float neg_infinity;
                 "nan", Obs.Float Float.nan ] }
  in
  let back = Obs.Json.of_string (Obs.Json.to_string e) in
  check bool_t "inf round-trips" true
    (List.assoc "inf" back.Obs.fields = Obs.Float infinity);
  check bool_t "-inf round-trips" true
    (List.assoc "ninf" back.Obs.fields = Obs.Float neg_infinity);
  (* nan encodes as null, which the flat event reader maps to "null". *)
  check bool_t "nan becomes null" true
    (List.assoc "nan" back.Obs.fields = Obs.String "null")

let test_of_string_rejects_nested () =
  (* Event lines are flat; the strict reader refuses structured fields. *)
  List.iter
    (fun bad ->
      match Obs.Json.of_string bad with
      | exception Obs.Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" bad)
    [
      {|{"ts":1.0,"event":"x","f":[1]}|};
      {|{"ts":1.0,"event":"x","f":{"y":1}}|};
    ]

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let c = Obs.Counter.make "test.hits" in
  let c' = Obs.Counter.make "test.hits" in
  Obs.Counter.incr c;
  Obs.Counter.add c' 4;
  check int_t "same cell through both handles" 5 (Obs.Counter.value c);
  let g = Obs.Gauge.make "test.ratio" in
  Obs.Gauge.set g 3.77;
  let snap = Obs.snapshot () in
  check bool_t "counter in snapshot" true
    (List.assoc_opt "test.hits" snap = Some (Obs.Int 5));
  check bool_t "gauge in snapshot" true
    (List.assoc_opt "test.ratio" snap = Some (Obs.Float 3.77));
  check bool_t "snapshot sorted by name" true
    (List.map fst snap = List.sort compare (List.map fst snap));
  Obs.reset_metrics ();
  check int_t "counter reset" 0 (Obs.Counter.value c);
  check bool_t "gauge reset" true (Obs.Gauge.value g = 0.0);
  (* A name cannot be both a counter and a gauge. *)
  match Obs.Gauge.make "test.hits" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "counter name reused as gauge"

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let find_hist name =
  match
    List.find_opt (fun s -> s.Obs.Hist.hname = name) (Obs.hist_snapshot ())
  with
  | Some s -> s
  | None -> Alcotest.failf "histogram %S not in snapshot" name

let test_hist_buckets () =
  List.iter
    (fun (v, b) ->
      check int_t (Printf.sprintf "bucket_of %d" v) b (Obs.Hist.bucket_of v))
    [ min_int, 0; -7, 0; 0, 0; 1, 1; 2, 2; 3, 2; 4, 3; 7, 3; 8, 4;
      1023, 10; 1024, 11; max_int, 62 ];
  (* Bucket i >= 1 holds [2^(i-1), 2^i - 1]: boundaries land where the
     doc says. *)
  for i = 1 to 20 do
    let lo = 1 lsl (i - 1) in
    check int_t "lower edge" i (Obs.Hist.bucket_of lo);
    check int_t "upper edge" i (Obs.Hist.bucket_of ((2 * lo) - 1))
  done

let test_hist_stats () =
  let h = Obs.Hist.make "test.stats" in
  check int_t "empty count" 0 (Obs.Hist.count (Obs.Hist.read_cells "stats" h));
  check bool_t "empty quantile" true
    (Obs.Hist.quantile (Obs.Hist.read_cells "stats" h) 0.5 = 0.0);
  for _ = 1 to 50 do Obs.Hist.record h 1 done;
  for _ = 1 to 50 do Obs.Hist.record h 1000 done;
  let s = Obs.Hist.read_cells "stats" h in
  check int_t "count" 100 (Obs.Hist.count s);
  (* 1 lands in bucket 1 (upper bound 1), 1000 in bucket 10 (512..1023). *)
  check bool_t "p50 is the small mode" true (Obs.Hist.quantile s 0.5 = 1.0);
  check bool_t "p90 is the large mode" true (Obs.Hist.quantile s 0.9 = 1023.0);
  check bool_t "max" true (Obs.Hist.max_value s = 1023.0);
  (* Sum estimates from bucket midpoints: 50*1.0 + 50*767.5. *)
  check bool_t "sum estimate" true (abs_float (Obs.Hist.sum s -. 38425.0) < 1e-6)

let test_hist_scaled_time () =
  let h = Obs.Hist.make ~scale:1e-6 "test.lat" in
  Obs.Hist.record_time h 1.0e-6;
  Obs.Hist.record_time h 1.0e-3;
  let s = Obs.Hist.read_cells "lat" h in
  check int_t "count" 2 (Obs.Hist.count s);
  (* 1000µs sits in bucket 10; its scaled upper bound is 1023µs. *)
  check bool_t "max in seconds" true
    (abs_float (Obs.Hist.max_value s -. 1023e-6) < 1e-12);
  check bool_t "p99 in seconds" true
    (abs_float (Obs.Hist.quantile s 0.99 -. 1023e-6) < 1e-12)

let test_hist_registry_integration () =
  let h = Obs.Hist.make "test.h" in
  let h' = Obs.Hist.make "test.h" in
  Obs.Hist.record h 5;
  Obs.Hist.record h' 5;
  check int_t "same cell through both handles" 2
    (Obs.Hist.count (find_hist "test.h"));
  (* Histograms stay out of the scalar snapshot. *)
  check bool_t "not in scalar snapshot" false
    (List.mem_assoc "test.h" (Obs.snapshot ()));
  (* A name cannot be both a counter and a histogram. *)
  let _c = Obs.Counter.make "test.taken" in
  (match Obs.Hist.make "test.taken" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "counter name reused as histogram");
  Obs.reset_metrics ();
  check int_t "reset zeroes buckets" 0 (Obs.Hist.count (find_hist "test.h"))

let test_hist_json_round_trip () =
  let h = Obs.Hist.make "test.jsonrt" in
  List.iter (Obs.Hist.record h) [ -3; 0; 1; 1; 3; 900; 900; 900; 123456 ];
  let s = Obs.Hist.read_cells "jsonrt" h in
  let back = Obs.Hist.of_json ~name:"jsonrt" (Obs.Json.parse (Obs.Hist.json s)) in
  check bool_t "name" true (back.Obs.Hist.hname = "jsonrt");
  check bool_t "scale" true (back.Obs.Hist.hscale = s.Obs.Hist.hscale);
  check bool_t "buckets" true (back.Obs.Hist.hbuckets = s.Obs.Hist.hbuckets);
  (* Scaled histograms round-trip their scale too. *)
  let t = Obs.Hist.make ~scale:1e-6 "test.jsonrt.t" in
  Obs.Hist.record_time t 0.5;
  let st = Obs.Hist.read_cells "jsonrt.t" t in
  let backt =
    Obs.Hist.of_json ~name:"jsonrt.t" (Obs.Json.parse (Obs.Hist.json st))
  in
  check bool_t "scaled buckets" true
    (backt.Obs.Hist.hbuckets = st.Obs.Hist.hbuckets
     && backt.Obs.Hist.hscale = 1e-6)

(* The striping law: a histogram fed the same multiset of samples from
   several domains reads back identical to one fed sequentially. *)
let hist_law_id = ref 0

let striped_hist_prop values =
  incr hist_law_id;
  let name tag = Printf.sprintf "law.%d.%s" !hist_law_id tag in
  let seq = Obs.Hist.make (name "seq") in
  let par = Obs.Hist.make (name "par") in
  List.iter (Obs.Hist.record seq) values;
  let chunks = Array.make 4 [] in
  List.iteri (fun i v -> chunks.(i mod 4) <- v :: chunks.(i mod 4)) values;
  Array.to_list chunks
  |> List.map (fun chunk ->
         Domain.spawn (fun () -> List.iter (Obs.Hist.record par) chunk))
  |> List.iter Domain.join;
  let a = Obs.Hist.read_cells "seq" seq in
  let b = Obs.Hist.read_cells "par" par in
  if a.Obs.Hist.hbuckets <> b.Obs.Hist.hbuckets then
    QCheck2.Test.fail_reportf "striped read diverged for %d samples"
      (List.length values);
  true

(* ------------------------------------------------------------------ *)
(* Span profiles and flame output                                      *)
(* ------------------------------------------------------------------ *)

let span_begin ?(dom = 0) name =
  { Obs.ts = 0.0; name = "span.begin:" ^ name;
    fields = [ "depth", Obs.Int 0; "domain", Obs.Int dom ] }

let span_end ?(dom = 0) name dur =
  { Obs.ts = 0.0; name = "span.end:" ^ name;
    fields =
      [ "depth", Obs.Int 0; "domain", Obs.Int dom; "dur_s", Obs.Float dur ] }

let profile_of events =
  let p = Obs.Profile.create () in
  List.iter (Obs.Profile.add_event p) events;
  p

let test_profile_tree () =
  (* Domain 1 runs a(b, b); domain 2's c interleaves arbitrarily. *)
  let p =
    profile_of
      [
        span_begin ~dom:1 "a";
        span_begin ~dom:1 "b";
        span_begin ~dom:2 "c";
        span_end ~dom:1 "b" 1.0;
        span_begin ~dom:1 "b";
        span_end ~dom:2 "c" 5.0;
        span_end ~dom:1 "b" 2.0;
        span_end ~dom:1 "a" 4.0;
      ]
  in
  check int_t "nothing unmatched" 0 (Obs.Profile.unmatched p);
  match Obs.Profile.roots p with
  | [ c; a ] ->
    (* Sorted by total time: c (5s) before a (4s). *)
    check bool_t "c first" true (c.Obs.Profile.tname = "c");
    check bool_t "c leaf self" true (c.Obs.Profile.self_s = 5.0);
    check bool_t "a name" true (a.Obs.Profile.tname = "a");
    check int_t "a calls" 1 a.Obs.Profile.calls;
    check bool_t "a total" true (a.Obs.Profile.total_s = 4.0);
    check bool_t "a self = total - children" true (a.Obs.Profile.self_s = 1.0);
    (match a.Obs.Profile.children with
     | [ b ] ->
       check int_t "b merged calls" 2 b.Obs.Profile.calls;
       check bool_t "b total" true (b.Obs.Profile.total_s = 3.0)
     | _ -> Alcotest.fail "a must have one merged child")
  | other -> Alcotest.failf "expected 2 roots, got %d" (List.length other)

let test_profile_unmatched_resync () =
  (* A truncated trace: b's end is missing, a's end still matches after
     popping (and counting) the stale frame. *)
  let p =
    profile_of [ span_begin "a"; span_begin "b"; span_end "a" 3.0 ]
  in
  check int_t "one unmatched frame" 1 (Obs.Profile.unmatched p);
  (match Obs.Profile.roots p with
   | [ a ] ->
     check bool_t "a survived resync" true
       (a.Obs.Profile.tname = "a" && a.Obs.Profile.total_s = 3.0)
   | _ -> Alcotest.fail "expected one root");
  (* An end with no begin at all is dropped and counted. *)
  let q = profile_of [ span_end "ghost" 1.0 ] in
  check int_t "ghost end unmatched" 1 (Obs.Profile.unmatched q);
  check int_t "no roots" 0 (List.length (Obs.Profile.roots q))

(* Synthetic span forests for the flame-sum law. *)
type stree = { sname : string; self : float; kids : stree list }

let rec dur_of t =
  t.self +. List.fold_left (fun acc k -> acc +. dur_of k) 0.0 t.kids

let rec events_of t =
  (span_begin t.sname :: List.concat_map events_of t.kids)
  @ [ span_end t.sname (dur_of t) ]

let gen_stree =
  let open QCheck2.Gen in
  let rec tree depth =
    let* sname = oneofl [ "a"; "b"; "c"; "d" ] in
    let* self = float_range 0.001 0.5 in
    let* kids =
      if depth = 0 then pure []
      else list_size (int_range 0 3) (tree (depth - 1))
    in
    pure { sname; self; kids }
  in
  list_size (int_range 1 4) (tree 2)

(* The flame contract the offline analyzer relies on: folded-stack self
   times under each root sum back to that root's recorded duration. *)
let flame_sums_prop forest =
  let p = profile_of (List.concat_map events_of forest) in
  let expected = Hashtbl.create 8 in
  List.iter
    (fun t ->
      let cur =
        Option.value ~default:0.0 (Hashtbl.find_opt expected t.sname)
      in
      Hashtbl.replace expected t.sname (cur +. dur_of t))
    forest;
  let flame_by_root = Hashtbl.create 8 in
  List.iter
    (fun (stack, self) ->
      let root =
        match String.index_opt stack ';' with
        | Some i -> String.sub stack 0 i
        | None -> stack
      in
      let cur =
        Option.value ~default:0.0 (Hashtbl.find_opt flame_by_root root)
      in
      Hashtbl.replace flame_by_root root (cur +. self))
    (Obs.Profile.flame p);
  Hashtbl.iter
    (fun root want ->
      let got = Option.value ~default:0.0 (Hashtbl.find_opt flame_by_root root) in
      if abs_float (got -. want) > 0.01 *. want then
        QCheck2.Test.fail_reportf
          "root %s: flame self times sum to %.6f, root durations total %.6f"
          root got want)
    expected;
  (* Totals agree too, and every root appears. *)
  let roots = Obs.Profile.roots p in
  if List.length roots <> Hashtbl.length expected then
    QCheck2.Test.fail_reportf "expected %d distinct roots, profile has %d"
      (Hashtbl.length expected) (List.length roots);
  true

(* ------------------------------------------------------------------ *)
(* Deep telemetry: solver histograms and pool queue wait               *)
(* ------------------------------------------------------------------ *)

let solve_random_instance seed =
  let rng = Random.State.make [| seed |] in
  let f =
    Fl_sat.Random_sat.fixed_length rng ~num_vars:60 ~num_clauses:258 ~k:3
  in
  let s = Cdcl.of_formula f in
  ignore (Cdcl.solve s);
  Cdcl.stats s

let test_deep_cdcl_histograms () =
  Obs.reset_metrics ();
  check bool_t "deep off by default" false (Obs.deep_enabled ());
  let stats = solve_random_instance 11 in
  check bool_t "instance produced conflicts" true (stats.Cdcl.conflicts > 0);
  check int_t "lbd empty with deep off" 0
    (Obs.Hist.count (find_hist "cdcl.lbd"));
  Obs.set_deep true;
  let stats =
    Fun.protect ~finally:(fun () -> Obs.set_deep false) (fun () ->
        solve_random_instance 12)
  in
  let count name = Obs.Hist.count (find_hist name) in
  (* One LBD / length / level sample per learnt clause. *)
  check bool_t "lbd samples" true (count "cdcl.lbd" > 0);
  check bool_t "learnt_len samples" true (count "cdcl.learnt_len" > 0);
  check bool_t "conflict_level samples" true
    (count "cdcl.conflict_level" > 0);
  check bool_t "props_per_decision samples" true
    (count "cdcl.props_per_decision" > 0);
  check bool_t "lbd count tracks conflicts" true
    (count "cdcl.lbd" <= stats.Cdcl.conflicts);
  (* LBD of a learnt clause never exceeds its length; the histogram can
     only agree in aggregate, so compare upper estimates. *)
  let lbd = find_hist "cdcl.lbd" and len = find_hist "cdcl.learnt_len" in
  check bool_t "lbd p50 <= learnt_len max" true
    (Obs.Hist.quantile lbd 0.5 <= Obs.Hist.max_value len)

let test_deep_queue_wait_histogram () =
  Obs.reset_metrics ();
  Obs.set_deep true;
  Fun.protect ~finally:(fun () -> Obs.set_deep false) (fun () ->
      Fl_par.with_pool ~name:"obs-test" ~jobs:2 (fun pool ->
          let outcomes =
            Fl_par.run pool (Array.init 8 (fun i () -> i * i))
          in
          Array.iteri
            (fun i o ->
              check int_t "task result" (i * i) (Fl_par.get o))
            outcomes));
  check int_t "one wait sample per task" 8
    (Obs.Hist.count (find_hist "par.queue_wait_s"))

(* ------------------------------------------------------------------ *)
(* Baseline regression gate                                            *)
(* ------------------------------------------------------------------ *)

let write_tmp_json contents =
  let path = Filename.temp_file "fl_gate" ".json" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let base_report ?(geomean = 0.85) ?(conflicts = 0.7) ?(reduction = 43.0)
    ?(statuses = true) ?(status_a = "broken") ?(wall = 10.0) () =
  Printf.sprintf
    {|{"experiment": "cnf", "wall_seconds": %g, "statuses_match": %b,
       "solve_ratio_geomean": %g, "conflict_ratio_geomean": %g,
       "max_clause_reduction_pct": %g,
       "status_pre": {"a": %S, "b": "timeout"},
       "solve_ratio": {"a": 1.0, "b": 0.9},
       "counters": {"cdcl.conflicts": 123}}|}
    wall statuses geomean conflicts reduction status_a

let run_gate baseline current =
  let b = write_tmp_json baseline and c = write_tmp_json current in
  let r = Fl_cli.Baseline.gate ~baseline:b ~current:c () in
  Sys.remove b;
  Sys.remove c;
  r

let test_gate_pass () =
  (match run_gate (base_report ()) (base_report ()) with
   | Ok () -> ()
   | Error fails ->
     Alcotest.failf "identical reports failed: %s" (String.concat "; " fails));
  (* Informational drift (wall time) and tolerated watched drift pass. *)
  match
    run_gate (base_report ())
      (base_report ~wall:99.0 ~geomean:0.9 ~conflicts:0.8 ~reduction:40.0 ())
  with
  | Ok () -> ()
  | Error fails ->
    Alcotest.failf "tolerated drift failed: %s" (String.concat "; " fails)

let contains_substring hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let expect_failure name result pattern =
  match result with
  | Ok () -> Alcotest.failf "%s: gate passed" name
  | Error fails ->
    if not (List.exists (fun f -> contains_substring f pattern) fails) then
      Alcotest.failf "%s: no failure mentions %S in %s" name pattern
        (String.concat "; " fails)

let test_gate_failures () =
  expect_failure "status flip"
    (run_gate (base_report ()) (base_report ~status_a:"timeout" ()))
    "status flipped";
  expect_failure "bool flip"
    (run_gate (base_report ()) (base_report ~statuses:false ()))
    "flipped true -> false";
  expect_failure "watched lower regressed"
    (run_gate (base_report ()) (base_report ~geomean:1.2 ()))
    "solve_ratio_geomean";
  expect_failure "conflict ratio regressed"
    (run_gate (base_report ()) (base_report ~conflicts:0.9 ()))
    "conflict_ratio_geomean";
  expect_failure "watched higher regressed"
    (run_gate (base_report ()) (base_report ~reduction:20.0 ()))
    "max_clause_reduction_pct"

(* ------------------------------------------------------------------ *)
(* CDCL progress hook                                                  *)
(* ------------------------------------------------------------------ *)

let test_cdcl_progress_hook () =
  let rng = Random.State.make [| 11 |] in
  let f = Fl_sat.Random_sat.fixed_length rng ~num_vars:60 ~num_clauses:258 ~k:3 in
  let s = Cdcl.of_formula f in
  let deltas = ref [] in
  Cdcl.set_progress s ~every:16 (fun d -> deltas := d :: !deltas);
  ignore (Cdcl.solve s);
  let total = Cdcl.stats s in
  check bool_t "instance was non-trivial" true (total.Cdcl.conflicts >= 16);
  check bool_t "hook fired" true (!deltas <> []);
  let sum =
    List.fold_left Cdcl.add_stats Cdcl.zero_stats !deltas
  in
  check bool_t "delta conflicts never exceed total" true
    (sum.Cdcl.conflicts <= total.Cdcl.conflicts);
  List.iter
    (fun d ->
      check bool_t "each delta covers >= every conflicts" true
        (d.Cdcl.conflicts >= 16))
    !deltas

(* ------------------------------------------------------------------ *)
(* Attack records: deltas sum to Session.solver_stats                  *)
(* ------------------------------------------------------------------ *)

let is_record e =
  match e.Obs.name with
  | "attack.iteration" | "attack.exhausted" | "attack.timeout" -> true
  | _ -> false

let sum_records events =
  List.fold_left
    (fun acc e ->
      if is_record e then
        Cdcl.add_stats acc
          {
            Cdcl.decisions = field_int "decisions" e;
            propagations = field_int "propagations" e;
            conflicts = field_int "conflicts" e;
            restarts = field_int "restarts" e;
            learned_clauses = field_int "learned_clauses" e;
            learned_literals = field_int "learned_literals" e;
            reductions = field_int "reductions" e;
            max_decision_level = field_int "max_decision_level" e;
            chrono_backtracks = field_int "chrono_backtracks" e;
          }
      else acc)
    Cdcl.zero_stats events

let attack_deltas_sum_prop seed =
  let c =
    Generator.random ~seed:(200 + seed) ~name:"obs-host"
      { Generator.num_inputs = 5 + (seed mod 4);
        num_outputs = 2 + (seed mod 3);
        num_gates = 30 + (5 * (seed mod 8));
        max_fanin = 3; and_bias = 0.8 }
  in
  let rng = Random.State.make [| seed; 0x0b5 |] in
  let locked = Fl_locking.Rll.lock rng ~key_bits:(4 + (seed mod 5)) c in
  let result, events =
    record (fun () ->
        Sat_attack.run ~timeout:30.0 locked)
  in
  let iter_records =
    List.filter (fun e -> e.Obs.name = "attack.iteration") events
  in
  (* One attack.iteration record per DIP, in order, 1-based. *)
  let indices = List.map (field_int "iter") iter_records in
  let expected_indices =
    List.init result.Sat_attack.iterations (fun i -> i + 1)
  in
  if indices <> expected_indices then
    QCheck2.Test.fail_reportf "iteration indices %s, expected 1..%d"
      (String.concat "," (List.map string_of_int indices))
      result.Sat_attack.iterations;
  (* The record deltas must reproduce the accumulated session stats. *)
  let sum = sum_records events in
  let total = result.Sat_attack.solver in
  if sum <> total then
    QCheck2.Test.fail_reportf
      "record deltas do not sum to solver stats:@.  sum   %a@.  total %a"
      Cdcl.pp_stats sum Cdcl.pp_stats total;
  true

let () =
  Alcotest.run "fl_obs"
    [
      ( "sinks",
        [
          Alcotest.test_case "null sink default" `Quick test_null_sink_is_default;
          Alcotest.test_case "fan-out to all sinks" `Quick
            test_emit_reaches_all_sinks;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "file round-trip" `Quick
            test_jsonl_file_round_trip;
          Alcotest.test_case "rejects garbage" `Quick
            test_jsonl_rejects_garbage;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and timing" `Quick
            test_span_nesting_and_timing;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safe;
          Alcotest.test_case "no-sink transparency" `Quick
            test_span_without_sink_is_transparent;
        ] );
      ( "json-generic",
        [
          Alcotest.test_case "nested parse" `Quick test_json_parse_nested;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "of_string rejects nested" `Quick
            test_of_string_rejects_nested;
        ] );
      ( "metrics",
        [ Alcotest.test_case "registry" `Quick test_metrics_registry ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_hist_buckets;
          Alcotest.test_case "count/sum/quantile" `Quick test_hist_stats;
          Alcotest.test_case "scaled time" `Quick test_hist_scaled_time;
          Alcotest.test_case "registry integration" `Quick
            test_hist_registry_integration;
          Alcotest.test_case "json round-trip" `Quick
            test_hist_json_round_trip;
          qcheck_case "striped recording equals sequential"
            QCheck2.Gen.(list_size (int_range 0 200) (int_range (-5) 100_000))
            striped_hist_prop;
        ] );
      ( "profile",
        [
          Alcotest.test_case "calling-context tree" `Quick test_profile_tree;
          Alcotest.test_case "unmatched resync" `Quick
            test_profile_unmatched_resync;
          qcheck_case ~count:60 "flame self times sum to root durations"
            gen_stree flame_sums_prop;
        ] );
      ( "deep",
        [
          Alcotest.test_case "cdcl histograms" `Quick
            test_deep_cdcl_histograms;
          Alcotest.test_case "pool queue wait" `Quick
            test_deep_queue_wait_histogram;
        ] );
      ( "baseline-gate",
        [
          Alcotest.test_case "pass" `Quick test_gate_pass;
          Alcotest.test_case "failures" `Quick test_gate_failures;
        ] );
      ( "solver",
        [
          Alcotest.test_case "cdcl progress hook" `Quick
            test_cdcl_progress_hook;
        ] );
      ( "attack-records",
        [
          qcheck_case "per-iteration deltas sum to Session.solver_stats"
            QCheck2.Gen.(int_range 0 1000)
            attack_deltas_sum_prop;
        ] );
    ]
