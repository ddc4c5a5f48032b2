(* CNF preprocessing experiment: SatELite-style simplification of the attack
   miters over the Table 4 grid.

   For every (circuit, PLR configuration) cell this measures (a) the
   clause counts of the miter the CycSAT session starts from, without and
   with its one-shot preprocessing ([Session.base_miter]: one circuit copy
   simplified and renamed into the second), and (b) the CycSAT attack run
   twice under the same conflict budget — preprocessed and reference —
   recording statuses and wall times.

   Preprocessing is an equisatisfiability-preserving rewrite, so the two
   paths must never *disagree on correctness*: a cell where one side
   returns a wrong key while the other breaks cleanly (or finds no key on
   a breakable instance) is a bug, and [statuses_match] in BENCH_cnf.json
   watches exactly that.  A TO-vs-broken flip is different: the
   budget is counted in solver conflicts over a *changed* formula, so a
   cell sitting right at the budget boundary may land on either side of
   it.  Those flips are legitimate, counted separately as [budget_flips]
   (with [strict_statuses_match] reporting plain equality), while the
   wall-time ratio shows what the reduction buys.  The conflict ratio,
   taken over the cells both arms broke, shows the same without the
   timing noise: under the conflict budget a broken cell's conflict count
   is the same on every run. *)

module Bench_suite = Fl_netlist.Bench_suite
module Formula = Fl_cnf.Formula
module Miter = Fl_cnf.Miter
module Fulllock = Fl_core.Fulllock
module Cycsat = Fl_attacks.Cycsat
module Session = Fl_attacks.Session
module Sat_attack = Fl_attacks.Sat_attack
module Locked = Fl_locking.Locked

type cell = {
  label : string;
  clauses_before : int;
  clauses_after : int;
  reduction_pct : float;
  status_pre : string;
  status_ref : string;
  time_pre : float;
  time_ref : float;
  conflicts_pre : int;
  conflicts_ref : int;
}

let status (r : Sat_attack.result) =
  match r.Sat_attack.status with
  | Sat_attack.Broken _ -> (
    match r.Sat_attack.key_check with
    | Sat_attack.Key_correct -> "broken"
    | Sat_attack.Key_wrong -> "broken-wrong"
    | Sat_attack.Key_unchecked -> "broken-unchecked")
  | Sat_attack.Timeout -> "TO"
  | Sat_attack.No_key_found -> "no-key"

let cell ~timeout ~max_conflicts ~name ~plr_n ~plr_count ~seed circuit =
  let rng = Random.State.make [| seed; plr_n; plr_count |] in
  let configs = List.init plr_count (fun _ -> Fulllock.default_config ~n:plr_n) in
  match Fulllock.lock rng ~policy:`Cyclic ~configs circuit with
  | exception Invalid_argument _ -> None
  | locked ->
    (* Clause counts of the miter each arm's session starts from: the
       reference arm's unpreprocessed miter and the preprocessed arms'
       (one simplified copy with its renaming), both with the no-cycle
       condition CycSAT adds. *)
    let circuit = locked.Locked.locked in
    let extra_key_constraint = Cycsat.no_cycle_condition circuit in
    let base preprocess =
      snd (Session.base_miter ~extra_key_constraint ~label:name ~preprocess circuit)
    in
    let clauses_before = Formula.num_clauses (base false).Miter.formula in
    let clauses_after = Formula.num_clauses (base true).Miter.formula in
    let r_pre = Cycsat.run ~timeout ~max_conflicts ~preprocess:true locked in
    let r_ref = Cycsat.run ~timeout ~max_conflicts ~preprocess:false locked in
    Some
      {
        label = Printf.sprintf "%s %dx%dx%d" name plr_count plr_n plr_n;
        clauses_before;
        clauses_after;
        reduction_pct =
          (if clauses_before = 0 then 0.0
           else
             100.0
             *. (1.0 -. (float_of_int clauses_after /. float_of_int clauses_before)));
        status_pre = status r_pre;
        status_ref = status r_ref;
        time_pre = r_pre.Sat_attack.wall_time;
        time_ref = r_ref.Sat_attack.wall_time;
        conflicts_pre = r_pre.Sat_attack.solver.Fl_sat.Cdcl.conflicts;
        conflicts_ref = r_ref.Sat_attack.solver.Fl_sat.Cdcl.conflicts;
      }

let run ~deep ~pool () =
  let max_conflicts = if deep then 400_000 else 80_000 in
  let timeout = if deep then 1200.0 else 240.0 in
  let scale = if deep then 2 else 4 in
  let circuits =
    if deep then Bench_suite.names
    else [ "c432"; "c499"; "c880"; "c1355"; "apex2"; "i4" ]
  in
  let small = if deep then 8 else 4 and large = if deep then 16 else 8 in
  let configs = [ small, 1; small, 2; large, 1; large, 2 ] in
  let tasks =
    List.concat_map
      (fun name -> List.map (fun (n, count) -> name, n, count) configs)
      circuits
  in
  let cells =
    Fl_par.map_list pool
      (fun (name, plr_n, plr_count) ->
        let c = Bench_suite.load_scaled name ~scale in
        cell ~timeout ~max_conflicts ~name ~plr_n ~plr_count
          ~seed:(Hashtbl.hash name) c)
      tasks
    |> List.map Fl_par.get
    |> List.filter_map (fun x -> x)
  in
  let rows =
    List.map
      (fun c ->
        [
          c.label;
          Printf.sprintf "%d->%d" c.clauses_before c.clauses_after;
          Printf.sprintf "%.1f%%" c.reduction_pct;
          c.status_pre;
          c.status_ref;
          Tables.seconds c.time_pre;
          Tables.seconds c.time_ref;
          (if c.time_ref > 0.0 then Printf.sprintf "%.2f" (c.time_pre /. c.time_ref)
           else "-");
        ])
      cells
  in
  Tables.print
    ~title:
      (Printf.sprintf
         "CNF simplification on the Table 4 grid (1/%d scale, budget %dk conflicts): \
          miter clause reduction and CycSAT time — preprocessed vs reference"
         scale (max_conflicts / 1000))
    [ "cell"; "clauses"; "red"; "pre"; "ref"; "t_pre"; "t_ref"; "r_pre" ]
    rows;
  (* A budget flip is one path breaking (with a verified key — that is what
     "broken" means) while the other exhausts its conflict budget:
     a boundary artifact, not a disagreement about the instance.  Anything
     else that differs — a wrong key on one side, no-key vs broken — is. *)
  let budget_flip a b =
    match a, b with "broken", "TO" | "TO", "broken" -> true | _ -> false
  in
  let strict_match = List.for_all (fun c -> c.status_pre = c.status_ref) cells in
  let statuses_match =
    List.for_all
      (fun c -> c.status_pre = c.status_ref || budget_flip c.status_pre c.status_ref)
      cells
  in
  let budget_flips =
    List.length (List.filter (fun c -> c.status_pre <> c.status_ref) cells)
  in
  let max_reduction =
    List.fold_left (fun acc c -> max acc c.reduction_pct) 0.0 cells
  in
  let ratios =
    List.filter_map
      (fun c -> if c.time_ref > 0.0 then Some (c.time_pre /. c.time_ref) else None)
      cells
  in
  let min_ratio = List.fold_left min infinity ratios in
  let geomean_of = function
    | [] -> 1.0
    | rs ->
      exp (List.fold_left (fun a r -> a +. log r) 0.0 rs
           /. float_of_int (List.length rs))
  in
  (* Cells both arms broke; a cell either arm solved without a conflict
     has no ratio. *)
  let conflict_ratio c =
    if c.status_pre = "broken" && c.status_ref = "broken"
       && c.conflicts_pre > 0 && c.conflicts_ref > 0
    then Some (float_of_int c.conflicts_pre /. float_of_int c.conflicts_ref)
    else None
  in
  let conflict_ratios = List.filter_map conflict_ratio cells in
  let geomean = geomean_of ratios in
  let conflict_geomean = geomean_of conflict_ratios in
  Report.add_bool "statuses_match" statuses_match;
  Report.add_bool "strict_statuses_match" strict_match;
  Report.add_int "budget_flips" budget_flips;
  Report.add_float "max_clause_reduction_pct" max_reduction;
  Report.add_float "min_solve_ratio" min_ratio;
  Report.add_float "solve_ratio_geomean" geomean;
  Report.add_float "conflict_ratio_geomean" conflict_geomean;
  Report.add_int "cells" (List.length cells);
  Report.add_section "clause_reduction_pct"
    (List.map (fun c -> c.label, Fl_obs.Float c.reduction_pct) cells);
  Report.add_section "status_pre"
    (List.map (fun c -> c.label, Fl_obs.String c.status_pre) cells);
  Report.add_section "status_ref"
    (List.map (fun c -> c.label, Fl_obs.String c.status_ref) cells);
  Report.add_section "solve_ratio"
    (List.map
       (fun c ->
         ( c.label,
           if c.time_ref > 0.0 then Fl_obs.Float (c.time_pre /. c.time_ref)
           else Fl_obs.String "-" ))
       cells);
  Report.add_section "conflict_ratio"
    (List.map
       (fun c ->
         ( c.label,
           match conflict_ratio c with
           | Some r -> Fl_obs.Float r
           | None -> Fl_obs.String "-" ))
       cells);
  Report.add_alloc ();
  Report.add_parallelism ~jobs:(Fl_par.jobs pool) (Fl_par.last_stats pool);
  Printf.printf
    "statuses %s across %d cells (%d budget-boundary flip%s); best clause \
     reduction %.1f%%; solve-time ratio min %.2f, geomean %.2f; conflict \
     ratio geomean %.2f over %d cells both arms broke\n"
    (if statuses_match then "consistent" else "DISAGREE ON CORRECTNESS")
    (List.length cells) budget_flips
    (if budget_flips = 1 then "" else "s")
    max_reduction min_ratio geomean conflict_geomean
    (List.length conflict_ratios)
