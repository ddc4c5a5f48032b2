module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Formula = Fl_cnf.Formula

(* Feedback (back) edges found by an iterative DFS over the signal-flow
   graph; removing them leaves a DAG.  Only used to pick the set of cycle
   heads and to report preprocessing effort. *)
let back_edges c =
  let n = Circuit.num_nodes c in
  let color = Array.make n 0 in
  (* 0 white, 1 gray, 2 black; iterative DFS along fanins. *)
  let result = ref [] in
  let visit root =
    let stack = ref [ root, ref 0 ] in
    color.(root) <- 1;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (u, child) :: rest ->
        let fanins = (Circuit.node c u).Circuit.fanins in
        if !child < Array.length fanins then begin
          let slot = !child in
          let f = fanins.(slot) in
          incr child;
          match color.(f) with
          | 0 ->
            color.(f) <- 1;
            stack := (f, ref 0) :: !stack
          | 1 -> result := (f, u, slot) :: !result
          | _ -> ()
        end
        else begin
          color.(u) <- 2;
          stack := rest
        end
    done
  in
  for u = 0 to n - 1 do
    if color.(u) = 0 then visit u
  done;
  !result

let num_feedback_edges c = List.length (back_edges c)

let key_index_table c =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.add tbl id i) c.Circuit.keys;
  tbl

(* The "no structural cycle" constraint.

   For every cycle head [y] (heads of DFS back edges, deduplicated), fresh
   variables r_t := "there is a key-unblocked structural path of length >= 1
   from y to t" are introduced for the nodes of y's SCC, with monotone
   implication clauses along every intra-SCC edge:

     seed:  for y's out-edge to t:   blocked(edge) \/ r_t
     step:  for any edge src -> t:   ~r_src \/ blocked(edge) \/ r_t
     goal:  ~r_y

   An edge is blocked only when it enters a MUX data slot whose select is a
   key input (that is the only key-controlled routing in locked netlists).
   The encoding is sound and complete: a model exists for exactly the keys
   under which every structural cycle is cut — including cycles through
   several back edges, the case the classic per-feedback-wire CycSAT-I
   conditions miss. *)
let no_cycle_condition c =
  let backs = back_edges c in
  let key_index = key_index_table c in
  let heads = List.sort_uniq compare (List.map (fun (_, u, _) -> u) backs) in
  (* Through the shared view so repeated condition builds (and anything
     else analysing this circuit) reuse one SCC computation. *)
  let scc = View.scc (View.of_circuit c) in
  let fan_out_slots =
    (* node -> (consumer, slot) list, intra-SCC only *)
    let n = Circuit.num_nodes c in
    let table = Array.make n [] in
    for u = 0 to n - 1 do
      Array.iteri
        (fun slot f ->
          if scc.(f) = scc.(u) then table.(f) <- (u, slot) :: table.(f))
        (Circuit.node c u).Circuit.fanins
    done;
    table
  in
  fun formula key_vars ->
    if Array.length key_vars <> Circuit.num_keys c then
      invalid_arg "Cycsat.no_cycle_condition: key vector length mismatch";
    (* blocked condition of the edge entering [u] at [slot]:
       `Never / `Always (never propagates) / `Key literal. *)
    let blocked u slot =
      let nd = Circuit.node c u in
      match nd.Circuit.kind with
      | Gate.Mux when slot = 1 || slot = 2 ->
        (match Hashtbl.find_opt key_index nd.Circuit.fanins.(0) with
         | Some ki ->
           (* slot 1 propagates when select = 0, so key = 1 blocks it. *)
           `Key (if slot = 1 then key_vars.(ki) else -key_vars.(ki))
         | None -> `Never)
      | Gate.Mux
      | Gate.Input | Gate.Key_input | Gate.Const _ | Gate.Buf | Gate.Not
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor
      | Gate.Lut _ ->
        `Never
    in
    List.iter
      (fun y ->
        let members =
          let acc = ref [] in
          for t = 0 to Circuit.num_nodes c - 1 do
            if scc.(t) = scc.(y) then acc := t :: !acc
          done;
          !acc
        in
        match members with
        | [ _ ] when not (List.exists (fun (f, u, _) -> f = y && u = y) backs) ->
          (* Trivial SCC without a self-loop: no cycle through y. *)
          ()
        | _ ->
          let var = Hashtbl.create 64 in
          List.iter (fun t -> Hashtbl.add var t (Formula.fresh_var formula)) members;
          let r t = Hashtbl.find var t in
          List.iter
            (fun src ->
              List.iter
                (fun (consumer, slot) ->
                  let head =
                    match blocked consumer slot with
                    | `Never -> [ r consumer ]
                    | `Key lit -> [ lit; r consumer ]
                  in
                  (* Path extension from src; y itself seeds paths of
                     length 1. *)
                  if src = y then Formula.add_clause formula head;
                  Formula.add_clause formula (-r src :: head))
                fan_out_slots.(src))
            members;
          Formula.add_clause formula [ -r y ])
      heads

let run ?timeout ?max_conflicts ?progress ?preprocess ?inprocess
    ?inprocess_every ?inprocess_min_conflicts locked =
  let emitter = no_cycle_condition locked.Fl_locking.Locked.locked in
  Sat_attack.run ?timeout ?max_conflicts ?progress
    ~extra_key_constraint:emitter ~label:"cycsat" ?preprocess ?inprocess
    ?inprocess_every ?inprocess_min_conflicts locked
