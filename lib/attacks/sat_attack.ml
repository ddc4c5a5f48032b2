module Circuit = Fl_netlist.Circuit
module Cdcl = Fl_sat.Cdcl
module Equiv = Fl_sat.Equiv
module Locked = Fl_locking.Locked

type status =
  | Broken of bool array
  | Timeout
  | No_key_found

type key_check =
  | Key_correct
  | Key_wrong
  | Key_unchecked

type result = {
  status : status;
  iterations : int;
  wall_time : float;
  key_check : key_check;
  solver : Cdcl.stats;
  clause_var_ratio : float;
  dips : bool array list;
}

type progress = int -> float -> unit

let run ?(timeout = 60.0) ?max_conflicts ?(progress = fun _ _ -> ()) ?extra_key_constraint ?(label = "sat")
    ?preprocess locked =
  Fl_obs.with_span ("attack." ^ label) @@ fun () ->
  let deadline = Unix.gettimeofday () +. timeout in
  let session =
    Session.create ?extra_key_constraint ~label ?max_conflicts ?preprocess
      ~deadline locked
  in
  let finish status dips =
    let key_check =
      match status with
      | Broken key ->
        (* Formal check when the locked netlist is acyclic; random-vector
           plus exhaustive-small simulation otherwise (cyclic CNF
           equivalence would be unsound). *)
        if Fl_netlist.View.is_acyclic (Fl_netlist.View.of_circuit locked.Locked.locked)
        then
          (* With a conflict budget the verification budget is conflict-based
             too, keeping the whole result machine-load-independent. *)
          let budget =
            match max_conflicts with
            | Some m -> Cdcl.budget_conflicts (max 10_000 m)
            | None -> Cdcl.budget_seconds (max 5.0 timeout)
          in
          match
            Equiv.check_key ~budget ~locked:locked.Locked.locked
              ~oracle:locked.Locked.oracle key
          with
          | Equiv.Equivalent -> Key_correct
          | Equiv.Different _ -> Key_wrong
          | Equiv.Unknown -> Key_unchecked
        else if Locked.key_matches locked ~key then Key_correct
        else Key_wrong
      | Timeout | No_key_found -> Key_unchecked
    in
    {
      status;
      iterations = Session.iterations session;
      wall_time = Session.elapsed session;
      key_check;
      solver = Session.solver_stats session;
      clause_var_ratio = Session.clause_var_ratio session;
      dips;
    }
  in
  let rec loop dips =
    match Session.find_dip session with
    | `Timeout -> finish Timeout dips
    | `Dip dip ->
      Session.observe session dip;
      progress (Session.iterations session) (Session.elapsed session);
      loop (dip :: dips)
    | `Exhausted ->
      (match Session.candidate_key session with
       | `Key key -> finish (Broken key) dips
       | `None -> finish No_key_found dips
       | `Timeout -> finish Timeout dips)
  in
  loop []

let pp_result fmt r =
  let status =
    match r.status with
    | Broken _ -> (
      match r.key_check with
      | Key_correct -> "broken (key correct)"
      | Key_wrong -> "broken (KEY WRONG)"
      | Key_unchecked -> "broken (key unchecked)")
    | Timeout -> "timeout"
    | No_key_found -> "no consistent key"
  in
  Format.fprintf fmt "%s after %d iterations, %.2fs, ratio %.2f (%a)" status
    r.iterations r.wall_time r.clause_var_ratio Cdcl.pp_stats r.solver;
  if r.iterations > 0 then begin
    let per n = float_of_int n /. float_of_int r.iterations in
    Format.fprintf fmt
      " [per iteration: %.1f decisions, %.1f propagations, %.1f conflicts]"
      (per r.solver.Cdcl.decisions)
      (per r.solver.Cdcl.propagations)
      (per r.solver.Cdcl.conflicts)
  end
