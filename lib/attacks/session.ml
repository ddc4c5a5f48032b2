module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Formula = Fl_cnf.Formula
module Tseytin = Fl_cnf.Tseytin
module Miter = Fl_cnf.Miter
module Cdcl = Fl_sat.Cdcl
module Preprocess = Fl_sat.Preprocess
module Locked = Fl_locking.Locked

(* DIP-source split: how many DIPs came from the word-level screen vs a
   miter solve, and how many screen passes ran. *)
let c_dip_screened = Fl_obs.Counter.make "session.dip.screened"
let c_dip_solver = Fl_obs.Counter.make "session.dip.solver"
let c_screen_passes = Fl_obs.Counter.make "session.screen.passes"

(* A formula paired with an incremental solver: [sync] feeds the solver only
   the clauses appended since the last call, so the DIP loop stays linear in
   the number of iterations instead of rebuilding quadratically. *)
type tracked = {
  solver : Cdcl.t;
  formula : Formula.t;
  mutable loaded : int;  (* clauses already in the solver *)
}

let tracked_of formula = { solver = Cdcl.create (); formula; loaded = 0 }

let sync tr =
  Fl_obs.with_span "session.sync" @@ fun () ->
  Cdcl.ensure_vars tr.solver (Formula.num_vars tr.formula);
  Formula.iter_clauses_from tr.formula tr.loaded (Cdcl.add_clause_a tr.solver);
  tr.loaded <- Formula.num_clauses tr.formula

type t = {
  locked : Locked.t;
  miter : Miter.t;
      (* when preprocessing ran, [miter.formula] is the reduced formula
         (original variable numbering preserved) *)
  pre : Preprocess.t option;
  miter_tracked : tracked;
  key_tracked : tracked;
  key_vars : int array;
  mutable pending : Tseytin.observation list;
      (* observations not yet added to the key-recovery formula, newest
         first; [candidate_key] adds them in order before it solves *)
  elim_scratch : Tseytin.scratch;  (* buffers of [Tseytin.eliminate_locals] *)
  deadline : float;
  conflict_budget : int option;
      (* total solver conflicts the attack may spend; deterministic
         alternative to the wall-clock deadline for parallel sweeps *)
  start : float;
  label : string;
  mutable iteration_count : int;
  mutable stats : Cdcl.stats;
  (* Word-batched DIP screening state: the locked circuit's compiled view,
     a small pool of key candidates (miter-model keys, all consistent with
     every observation added so far) and a private deterministic RNG for
     the candidate input vectors. *)
  view : View.t;
  mutable key_pool : bool array list;
  mutable last_observed : bool array option;
      (* most recent observed input vector; screening seeds half its
         candidate lanes from perturbations of it *)
  screen_rng : Random.State.t;
}

(* Every N conflicts each session solver reports its stat deltas, so
   long solver calls (the interesting ones) are visible from a trace even
   before the iteration record lands. *)
let progress_conflict_period = 2048

let arm_progress label role tr =
  Cdcl.set_progress tr.solver ~every:progress_conflict_period (fun delta ->
      if Fl_obs.enabled () then
        Fl_obs.emit "cdcl.progress"
          ~fields:
            (("attack", Fl_obs.String label)
             :: ("solver", Fl_obs.String role)
             :: Cdcl.stats_fields delta))

(* The base miter.  With [preprocess], one circuit copy with the extra key
   constraint is simplified with its inputs, keys and outputs frozen, and
   the miter's copy B is its renaming ({!Miter.of_copy}): the copies share
   the inputs and the key-free logic, whose variables are functions of the
   inputs in every model of either copy, so simplifying one and renaming
   it is simplifying both (DESIGN.md §4d).  The difference XORs are added
   after, unsimplified.  An Unsat verdict would mean the copy itself is
   contradictory — defensively fall back to the unpreprocessed miter, which
   is the two copies, their XORs, then the constraint over each key copy. *)
let base_miter ?extra_key_constraint ?(label = "sat") ~preprocess circuit =
  let key_constraint f keys =
    match extra_key_constraint with Some add -> add f keys | None -> ()
  in
  let unpreprocessed () =
    let m =
      Fl_obs.with_span "session.build_miter" (fun () -> Miter.build circuit)
    in
    key_constraint m.Miter.formula m.Miter.keys_a;
    key_constraint m.Miter.formula m.Miter.keys_b;
    None, m
  in
  if not preprocess then unpreprocessed ()
  else begin
    let f = Formula.create () in
    let enc =
      Fl_obs.with_span "session.build_miter" (fun () -> Tseytin.encode f circuit)
    in
    key_constraint f enc.Tseytin.key_vars;
    let p =
      Fl_obs.with_span "session.preprocess" (fun () ->
          Preprocess.run ~label ~frozen:(Miter.copy_interface enc) f)
    in
    if Preprocess.is_unsat p then unpreprocessed ()
    else
      ( Some p,
        Fl_obs.with_span "session.build_miter" (fun () ->
            Miter.of_copy circuit (Preprocess.formula p) enc) )
  end

let create ?extra_key_constraint ?(label = "sat") ?max_conflicts
    ?(preprocess = true) ~deadline locked =
  let circuit = locked.Locked.locked in
  (* The key-recovery formula is not preprocessed: it grows by one folded
     circuit copy per observation, so a one-shot pass would be stale after
     the first iteration. *)
  let pre, miter =
    base_miter ?extra_key_constraint ~label ~preprocess circuit
  in
  let key_formula = Formula.create () in
  let key_vars = Formula.fresh_vars key_formula (Circuit.num_keys circuit) in
  (match extra_key_constraint with
   | Some add -> add key_formula key_vars
   | None -> ());
  let view = View.of_circuit circuit in
  let miter_tracked = tracked_of miter.Miter.formula in
  let key_tracked = tracked_of key_formula in
  arm_progress label "miter" miter_tracked;
  arm_progress label "key" key_tracked;
  {
    locked;
    miter;
    pre;
    miter_tracked;
    key_tracked;
    key_vars;
    pending = [];
    elim_scratch = Tseytin.scratch ();
    deadline;
    conflict_budget = max_conflicts;
    start = Unix.gettimeofday ();
    label;
    iteration_count = 0;
    stats = Cdcl.zero_stats;
    view;
    key_pool = [];
    last_observed = None;
    screen_rng =
      Random.State.make
        [| 0x5c3ee9; Circuit.num_inputs circuit; Circuit.num_keys circuit |];
  }

let elapsed s = Unix.gettimeofday () -. s.start

let conflicts_left s =
  match s.conflict_budget with
  | None -> None
  | Some m -> Some (m - s.stats.Cdcl.conflicts)

let out_of_time s =
  Unix.gettimeofday () > s.deadline
  || match conflicts_left s with Some left -> left <= 0 | None -> false

let budget s =
  let b = Cdcl.budget_seconds (s.deadline -. Unix.gettimeofday ()) in
  match conflicts_left s with
  | None -> b
  | Some left -> { b with Cdcl.max_conflicts = max 1 left }

(* One structured record per miter solve.  A Sat outcome is an attack
   iteration ("attack.iteration"); the final Unsat/Unknown solve is recorded
   too ("attack.exhausted" / "attack.timeout") so that summing the deltas of
   every record reproduces {!solver_stats} exactly. *)
let emit_record s name ?dip ?(screened = false) delta =
  if Fl_obs.enabled () then begin
    let f = s.miter.Miter.formula in
    let fields =
      ("attack", Fl_obs.String s.label)
      :: ("scheme", Fl_obs.String s.locked.Locked.scheme)
      :: ("iter", Fl_obs.Int s.iteration_count)
      :: ("clauses", Fl_obs.Int (Formula.num_clauses f))
      :: ("vars", Fl_obs.Int (Formula.num_vars f))
      :: ("clause_var_ratio", Fl_obs.Float (Formula.ratio f))
      :: ("elapsed_s", Fl_obs.Float (elapsed s))
      :: Cdcl.stats_fields delta
    in
    let fields =
      if screened then fields @ [ "screened", Fl_obs.Bool true ] else fields
    in
    let fields =
      match dip with
      | None -> fields
      | Some bits ->
        fields
        @ [
            ( "dip",
              Fl_obs.String
                (String.init (Array.length bits) (fun i ->
                     if bits.(i) then '1' else '0')) );
          ]
    in
    Fl_obs.emit name ~fields
  end

(* ------------------------------------------------------------------ *)
(* Word-batched DIP screening                                          *)
(* ------------------------------------------------------------------ *)

(* The miter's Sat models hand us two concrete keys per iteration that are
   consistent with every observation added so far (the I/O constraints are
   asserted over both key copies).  Any input on which two such keys make
   the locked circuit disagree is itself a satisfying miter assignment —
   a genuine DIP — so before paying for a solver call we sweep [View.lanes]
   random candidate vectors per pass through the word evaluator and look
   for a disagreeing, fully-settled lane.  Each screened DIP's oracle
   observation then eliminates at least one pool key (the two witnesses
   disagree on it, the oracle fixes the truth), so at most [max_pool_keys]
   consecutive screened iterations can occur before the solver runs:
   termination arguments are unchanged. *)

let max_pool_keys = 6
let screen_passes_per_call = 4

(* A pool key stays only while the locked circuit under it settles to the
   observed oracle outputs — i.e. while it remains a witness consistent
   with the whole observation set.  The keys ride one lane each of one
   word evaluation; a lane that does not settle, or settles to other
   outputs, drops its key.  Lanes do not interact, and the cyclic
   fixpoint sweeps until no lane moves, so each lane ends where a scalar
   evaluation under its key would. *)
let consistent_keys view ~inputs ~outputs = function
  | [] -> []
  | keys ->
    if List.length keys > View.lanes then
      invalid_arg "Session.consistent_keys: more keys than lanes";
    let outs =
      View.eval_words view ~inputs:(View.broadcast inputs) ~keys:(View.pack keys)
    in
    let wrong = ref 0 in
    Array.iteri
      (fun i (w : View.word) ->
        let expected = if outputs.(i) then -1 else 0 in
        wrong := !wrong lor lnot w.View.defined lor (w.View.value lxor expected))
      outs;
    List.filteri (fun lane _ -> !wrong land (1 lsl lane) = 0) keys

let add_pool_key s key =
  if
    List.length s.key_pool < max_pool_keys
    && not (List.exists (fun k -> k = key) s.key_pool)
  then s.key_pool <- s.key_pool @ [ key ]

let lowest_bit w =
  let rec go w i = if w land 1 = 1 then i else go (w lsr 1) (i + 1) in
  go w 0

let screen_dip s =
  match s.key_pool with
  | [] | [ _ ] -> None
  | pool ->
    let n = Circuit.num_inputs s.locked.Locked.locked in
    let rec pass remaining =
      if remaining = 0 then None
      else begin
        Fl_obs.Counter.incr c_screen_passes;
        (* Alternate pass flavours: uniform-random lanes, and sparse
           perturbations of the last observed input — two surviving pool
           keys agree on every observation, so where they still differ is
           usually near one, not at a uniformly random point. *)
        let inputs =
          match s.last_observed with
          | Some base when remaining mod 2 = 0 ->
            Array.init n (fun j ->
                (* Three words ANDed: each lane flips with probability 1/8. *)
                let noise =
                  Array.fold_left ( land ) (-1)
                    (View.random_words s.screen_rng ~width:3)
                in
                (if base.(j) then -1 else 0) lxor noise)
          | _ -> View.random_words s.screen_rng ~width:n
        in
        let words =
          View.eval_words_per_key s.view ~inputs
            ~keys:(List.map View.broadcast pool)
        in
        (* First pair of pool keys with a settled, differing output lane. *)
        let rec pairs = function
          | [] | [ _ ] -> pass (remaining - 1)
          | wa :: rest ->
            let rec against = function
              | [] -> pairs rest
              | wb :: more ->
                let diff = ref 0 in
                Array.iteri
                  (fun i (a : View.word) ->
                    let b : View.word = wb.(i) in
                    diff :=
                      !diff
                      lor (a.View.defined land b.View.defined
                           land (a.View.value lxor b.View.value)))
                  wa;
                if !diff = 0 then against more
                else
                  let l = lowest_bit !diff in
                  Some (Array.init n (fun j -> inputs.(j) land (1 lsl l) <> 0))
            in
            against rest
        in
        pairs words
      end
    in
    Fl_obs.with_span "session.screen" (fun () -> pass screen_passes_per_call)

(* One miter solve; shared by the screening and reference paths.
   [record_models] feeds the model's two key vectors into the screening
   pool.  The DIP and the keys are read from the solver's values of the
   frozen interface variables: model reconstruction is the identity on
   them (preprocessing never eliminates, substitutes or drops the unit
   of a frozen variable), so the reduced formula's model already carries
   the original miter's values there. *)
let solve_dip s ~record_models =
  sync s.miter_tracked;
  let solver = s.miter_tracked.solver in
  let before = Cdcl.stats solver in
  let outcome =
    Fl_obs.with_span "session.solve_dip" (fun () ->
        Cdcl.solve ~budget:(budget s) solver)
  in
  let delta = Cdcl.sub_stats (Cdcl.stats solver) before in
  s.stats <- Cdcl.add_stats s.stats delta;
  match outcome with
  | Cdcl.Unknown ->
    emit_record s "attack.timeout" delta;
    `Timeout
  | Cdcl.Unsat ->
    emit_record s "attack.exhausted" delta;
    `Exhausted
  | Cdcl.Sat ->
    s.iteration_count <- s.iteration_count + 1;
    Fl_obs.Counter.incr c_dip_solver;
    let value = Cdcl.value solver in
    let dip = Array.map value s.miter.Miter.inputs in
    if record_models then begin
      add_pool_key s (Array.map value s.miter.Miter.keys_a);
      add_pool_key s (Array.map value s.miter.Miter.keys_b)
    end;
    emit_record s "attack.iteration" ~dip delta;
    `Dip dip

let find_dip s =
  if out_of_time s then `Timeout
  else
    match screen_dip s with
    | Some dip ->
      s.iteration_count <- s.iteration_count + 1;
      Fl_obs.Counter.incr c_dip_screened;
      emit_record s "attack.iteration" ~dip ~screened:true Cdcl.zero_stats;
      `Dip dip
    | None -> solve_dip s ~record_models:true

let find_dip_reference s =
  if out_of_time s then `Timeout else solve_dip s ~record_models:false

let constrain_io s ~inputs ~outputs =
  Fl_obs.with_span "session.observe" @@ fun () ->
  (* One evaluation with the keys at X and one fold to the key cone under
     [inputs] serve all three copies.  The miter's two copies get the fold
     with its locals eliminated once (DESIGN.md §4h).  The key-recovery
     copy keeps the raw fold, solved once, and waits for the next
     [candidate_key]: most attacks end without one. *)
  let values = View.eval_under_inputs s.view ~inputs in
  let o = Tseytin.fold_observation s.locked.Locked.locked ~values ~outputs in
  let e = Tseytin.eliminate_locals s.elim_scratch o in
  Tseytin.add_observation s.miter.Miter.formula e ~share_keys:s.miter.Miter.keys_a;
  Tseytin.add_observation s.miter.Miter.formula e ~share_keys:s.miter.Miter.keys_b;
  s.pending <- o :: s.pending;
  s.last_observed <- Some (Array.copy inputs);
  (* Pool keys must stay consistent with the full observation set. *)
  s.key_pool <- consistent_keys s.view ~inputs ~outputs s.key_pool

let observe s dip =
  let outputs = Locked.query_oracle s.locked dip in
  constrain_io s ~inputs:dip ~outputs

let candidate_key s =
  List.iter
    (fun o -> Tseytin.add_observation s.key_tracked.formula o ~share_keys:s.key_vars)
    (List.rev s.pending);
  s.pending <- [];
  sync s.key_tracked;
  match
    Fl_obs.with_span "session.key_solve" (fun () ->
        Cdcl.solve ~budget:(budget s) s.key_tracked.solver)
  with
  | Cdcl.Sat ->
    let model = Cdcl.model s.key_tracked.solver in
    `Key (Array.map (fun v -> model.(v)) s.key_vars)
  | Cdcl.Unsat -> `None
  | Cdcl.Unknown -> `Timeout

let iterations s = s.iteration_count
let solver_stats s = s.stats
let clause_var_ratio s = Formula.ratio s.miter.Miter.formula
let preprocess_stats s = Option.map Preprocess.stats s.pre
