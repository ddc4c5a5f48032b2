module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Formula = Fl_cnf.Formula

(* Number of back edges of an iterative DFS along [succ], from every root
   in id order: removing them leaves a DAG, so the count is 0 exactly when
   the graph is acyclic. *)
let back_edge_count n succ =
  let color = Array.make n 0 (* 0 white, 1 gray, 2 black *) in
  let count = ref 0 in
  for root = 0 to n - 1 do
    if color.(root) = 0 then begin
      color.(root) <- 1;
      let stack = ref [ root, succ root ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (u, []) :: rest ->
          color.(u) <- 2;
          stack := rest
        | (u, v :: vs) :: rest ->
          stack := (u, vs) :: rest;
          (match color.(v) with
           | 0 ->
             color.(v) <- 1;
             stack := (v, succ v) :: !stack
           | 1 -> incr count
           | _ -> ())
      done
    end
  done;
  !count

let num_feedback_edges c =
  back_edge_count (Circuit.num_nodes c) (fun u ->
      Array.to_list (Circuit.node c u).Circuit.fanins)

let key_index_table c =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.add tbl id i) c.Circuit.keys;
  tbl

let c_nc_vars = Fl_obs.Counter.make "cycsat.nc_vars"
let c_nc_clauses = Fl_obs.Counter.make "cycsat.nc_clauses"

(* An edge a key can block: it enters data slot 1 or 2 of a MUX whose
   select is key bit [bit].  Slot 1 propagates when the select is 0, so
   [bit = 1] blocks it ([on_one]); slot 2 is blocked by [bit = 0]. *)
type key_edge = { port : int; bit : int; on_one : bool }

(* Closures are filled from this static record, not made with
   [Array.of_list]: OCaml 5.1 runs a whole minor collection to make an
   array of 257 or more elements from a young first element. *)
let no_edge = { port = -1; bit = 0; on_one = false }

(* The "no structural cycle" (NC) constraint.

   Every edge inside an SCC is either a key edge or always open.  A port
   is a node a key edge enters: a key-selected MUX fed from its own SCC.
   [closure s] collects the nodes reachable from [s] over always-open
   intra-SCC edges (zero or more steps) and returns the key edges leaving
   that set.  For every port [y] (a cycle head), fresh variables r_t :=
   "some key-unblocked path of length >= 1 runs from y into port t" are
   introduced for y and for the ports reached from y, with

     seed:  for each key edge e into t in closure y:        blocked(e) \/ r_t
     step:  for each key edge e into t in closure s, s <> y: ~r_s \/ blocked(e) \/ r_t
     goal:  ~r_y

   (steps out of y itself are subsumed by the seeds).  A cycle made only
   of always-open edges cannot be cut by any key; one DFS over those edges
   finds it, and the formula is then made unsatisfiable outright.

   Every other cycle contains a key edge, so it passes through a port,
   and any open path from a port splits into always-open segments (one
   closure step each) joined by key edges.  Hence a model exists for
   exactly the keys under which no structural cycle stays open — including
   cycles through several feedback edges, the case the classic
   per-feedback-wire CycSAT-I conditions miss.  Closures are computed once
   per circuit and shared by every head and key copy, so reach variables
   exist only for ports: at most P² per key copy for P ports. *)
let no_cycle_condition c =
  let n = Circuit.num_nodes c in
  let key_index = key_index_table c in
  (* Through the shared view so repeated condition builds (and anything
     else analysing this circuit) reuse one SCC computation. *)
  let scc = View.scc (View.of_circuit c) in
  (* Intra-SCC out-edges of every node (self-loops included), split into
     always-open successors and key edges. *)
  let open_succ = Array.make n [] and key_out = Array.make n [] in
  for u = 0 to n - 1 do
    let nd = Circuit.node c u in
    let key_bit =
      match nd.Circuit.kind with
      | Gate.Mux -> Hashtbl.find_opt key_index nd.Circuit.fanins.(0)
      | Gate.Input | Gate.Key_input | Gate.Const _ | Gate.Buf | Gate.Not
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor
      | Gate.Lut _ ->
        None
    in
    Array.iteri
      (fun slot f ->
        if scc.(f) = scc.(u) then
          match key_bit with
          | Some bit when slot = 1 || slot = 2 ->
            key_out.(f) <- { port = u; bit; on_one = slot = 1 } :: key_out.(f)
          | Some _ | None -> open_succ.(f) <- u :: open_succ.(f))
      nd.Circuit.fanins
  done;
  let always_open_cycle = back_edge_count n (Array.get open_succ) > 0 in
  let is_port = Array.make n false in
  Array.iter (List.iter (fun e -> is_port.(e.port) <- true)) key_out;
  let closure = Array.make n [||] in
  let stamp = Array.make n (-1) in
  for s = 0 to n - 1 do
    if is_port.(s) then begin
      let edges = ref [] in
      let rec visit u =
        if stamp.(u) <> s then begin
          stamp.(u) <- s;
          edges := List.rev_append key_out.(u) !edges;
          List.iter visit open_succ.(u)
        end
      in
      visit s;
      let a = Array.make (List.length !edges) no_edge in
      List.iteri (fun i e -> a.(i) <- e) !edges;
      closure.(s) <- a
    end
  done;
  (* Heads are the ports; for each, the ports reached from it (itself
     first), found over closure steps. *)
  let heads =
    let seen = Array.make n (-1) in
    List.filter_map
      (fun y ->
        if not is_port.(y) then None
        else begin
          let reached = ref [ y ] in
          seen.(y) <- y;
          let rec walk s =
            Array.iter
              (fun e ->
                if seen.(e.port) <> y then begin
                  seen.(e.port) <- y;
                  reached := e.port :: !reached;
                  walk e.port
                end)
              closure.(s)
          in
          walk y;
          Some (y, Array.of_list (List.rev !reached))
        end)
      (List.init n Fun.id)
  in
  fun formula key_vars ->
    if Array.length key_vars <> Circuit.num_keys c then
      invalid_arg "Cycsat.no_cycle_condition: key vector length mismatch";
    let vars0 = Formula.num_vars formula
    and clauses0 = Formula.num_clauses formula in
    let blocked e = if e.on_one then key_vars.(e.bit) else -key_vars.(e.bit) in
    if always_open_cycle then begin
      let v = Formula.fresh_var formula in
      Formula.add_clause formula [ v ];
      Formula.add_clause formula [ -v ]
    end;
    let var = if heads = [] then [||] else Array.make n 0 in
    List.iter
      (fun (y, reached) ->
        Array.iter (fun t -> var.(t) <- Formula.fresh_var formula) reached;
        Array.iter
          (fun s ->
            Array.iter
              (fun e ->
                let ext = [ blocked e; var.(e.port) ] in
                Formula.add_clause formula (if s = y then ext else -var.(s) :: ext))
              closure.(s))
          reached;
        Formula.add_clause formula [ -var.(y) ])
      heads;
    Fl_obs.Counter.add c_nc_vars (Formula.num_vars formula - vars0);
    Fl_obs.Counter.add c_nc_clauses (Formula.num_clauses formula - clauses0)

let run ?timeout ?max_conflicts ?progress ?preprocess locked =
  let emitter = no_cycle_condition locked.Fl_locking.Locked.locked in
  Sat_attack.run ?timeout ?max_conflicts ?progress
    ~extra_key_constraint:emitter ~label:"cycsat" ?preprocess locked
