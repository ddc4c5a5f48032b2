(* Shared command-line plumbing for the binaries and the bench harness.

   Three executables (bench/main, bin/flsat, bin/fulllock_cli) grew the
   same --trace/--stats/--jobs handling independently; this module is the
   single copy.  Error handling follows CLI convention: helpers that
   validate user input print a diagnostic and [exit 2]. *)

(* ------------------------------------------------------------------ *)
(* Argument scanning                                                   *)
(* ------------------------------------------------------------------ *)

let take_opt flag args =
  let value = ref None in
  let rec go acc = function
    | [] -> List.rev acc
    | f :: v :: rest when f = flag ->
      value := Some v;
      go acc rest
    | [ f ] when f = flag ->
      Printf.eprintf "%s needs an argument\n" flag;
      exit 2
    | a :: rest -> go (a :: acc) rest
  in
  let rest = go [] args in
  !value, rest

let take_flag flag args =
  let present = List.mem flag args in
  present, List.filter (fun a -> a <> flag) args

let file_error path msg =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix msg then msg else prefix ^ msg

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let parse_jobs s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> n
  | _ ->
    Printf.eprintf "--jobs needs a positive integer, got %S\n" s;
    exit 2

(* ------------------------------------------------------------------ *)
(* Trace and stats wiring                                              *)
(* ------------------------------------------------------------------ *)

let install_trace file =
  let oc = open_out file in
  ignore (Fl_obs.add_sink (Fl_obs.jsonl_sink oc));
  at_exit (fun () -> close_out oc)

(* The full snapshot: counters, gauges and histogram summaries — exactly
   what Fl_obs.pp_snapshot prints now that histograms exist. *)
let print_stats () = Format.eprintf "%a" Fl_obs.pp_snapshot ()

let stats_on_exit () = at_exit print_stats

(* ------------------------------------------------------------------ *)
(* Bench regression gate                                               *)
(* ------------------------------------------------------------------ *)

module Baseline = struct
  module J = Fl_obs.Json

  (* Member names that vary with machine, load or pool width: shown in the
     ratio table for information but never gated. *)
  let informational =
    [ "wall_seconds"; "task_seconds"; "speedup"; "jobs"; "cells" ]

  (* Gated metrics, by direction. *)
  let watch_lower = [ "solve_ratio_geomean"; "conflict_ratio_geomean" ]
  let watch_higher = [ "max_clause_reduction_pct" ]

  let load path =
    let text =
      try In_channel.with_open_bin path In_channel.input_all
      with Sys_error msg -> failwith (file_error path msg)
    in
    match J.parse text with
    | J.Jobj members -> members
    | _ -> failwith (path ^ ": expected a JSON object")
    | exception J.Parse_error msg -> failwith (path ^ ": " ^ msg)

  let is_string_section = function
    | J.Jobj members ->
      members <> []
      && List.for_all
           (fun (_, v) -> match v with J.Jstring _ -> true | _ -> false)
           members
    | _ -> false

  (* Compare two all-string sections member-wise; every mismatch is a
     status flip.  Returns (matches, failures). *)
  let compare_statuses name b c =
    let fails = ref [] and matches = ref 0 in
    let get o k = match o with J.Jobj ms -> List.assoc_opt k ms | _ -> None in
    let keys o = match o with J.Jobj ms -> List.map fst ms | _ -> [] in
    List.iter
      (fun k ->
        match get b k, get c k with
        | Some (J.Jstring vb), Some (J.Jstring vc) ->
          if vb = vc then incr matches
          else
            fails :=
              Printf.sprintf "%s[%s]: status flipped %S -> %S" name k vb vc
              :: !fails
        | _, None ->
          fails := Printf.sprintf "%s[%s]: missing from current run" name k :: !fails
        | _ -> ())
      (keys b);
    List.iter
      (fun k ->
        if get b k = None then
          fails := Printf.sprintf "%s[%s]: not in baseline" name k :: !fails)
      (keys c);
    !matches, List.rev !fails

  let gate ?(tolerance = 1.25) ~baseline ~current () =
    let b = load baseline and c = load current in
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    let rows = ref [] in
    let row name vb vc gate_note =
      rows := (name, vb, vc, gate_note) :: !rows
    in
    List.iter
      (fun (name, vb) ->
        let vc = List.assoc_opt name c in
        match vb, vc with
        | J.Jstring sb, Some (J.Jstring sc) ->
          if sb <> sc then fail "%s: %S -> %S" name sb sc
        | J.Jbool bb, Some (J.Jbool bc) ->
          if bb && not bc then fail "%s: flipped true -> false" name
        | J.Jobj _, Some sc when is_string_section vb ->
          let matches, fails = compare_statuses name vb sc in
          failures := List.rev_append fails !failures;
          Printf.printf "%-28s %d statuses, %d match, %d flips\n" name
            (matches + List.length fails)
            matches (List.length fails)
        | (J.Jint _ | J.Jfloat _), Some ((J.Jint _ | J.Jfloat _) as vcn) ->
          let fb = Option.get (J.number vb)
          and fc = Option.get (J.number vcn) in
          let ratio = if fb = 0.0 then Float.nan else fc /. fb in
          let watched_lower = List.mem name watch_lower
          and watched_higher = List.mem name watch_higher in
          let note =
            if List.mem name informational then "info"
            else if watched_lower then begin
              if ratio > tolerance then begin
                fail "%s: %.4f -> %.4f (ratio %.3f > %.2f)" name fb fc ratio
                  tolerance;
                "REGRESSED"
              end
              else Printf.sprintf "ok (<= %.2fx)" tolerance
            end
            else if watched_higher then begin
              if ratio < 1.0 /. tolerance then begin
                fail "%s: %.4f -> %.4f (ratio %.3f < %.3f)" name fb fc ratio
                  (1.0 /. tolerance);
                "REGRESSED"
              end
              else Printf.sprintf "ok (>= %.2fx)" (1.0 /. tolerance)
            end
            else "-"
          in
          row name fb fc note
        | _, None ->
          if
            List.mem name watch_lower
            || List.mem name watch_higher
            || is_string_section vb
          then fail "%s: missing from current run" name
        | _ -> ())
      b;
    List.iter
      (fun (name, _) ->
        if
          List.assoc_opt name b = None
          && (List.mem name watch_lower || List.mem name watch_higher)
        then fail "%s: watched metric not in baseline" name)
      c;
    if !rows <> [] then begin
      Printf.printf "%-28s %14s %14s %8s  %s\n" "metric" "baseline" "current"
        "ratio" "gate";
      List.iter
        (fun (name, fb, fc, note) ->
          let ratio = if fb = 0.0 then Float.nan else fc /. fb in
          Printf.printf "%-28s %14.4f %14.4f %8.3f  %s\n" name fb fc ratio note)
        (List.rev !rows)
    end;
    match List.rev !failures with
    | [] ->
      Printf.printf "baseline gate: PASS (vs %s)\n%!" baseline;
      Ok ()
    | fails ->
      Printf.printf "baseline gate: FAIL (vs %s)\n%!" baseline;
      Error fails
end
