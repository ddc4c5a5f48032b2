module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View

type encoding = {
  node_var : int array;
  input_vars : int array;
  key_vars : int array;
  output_vars : int array;
}

(* Binary XOR: the 4 clauses of Table 1. *)
let encode_xor2 emit ~out a b =
  emit [| -a; -b; -out |];
  emit [| a; b; -out |];
  emit [| a; -b; out |];
  emit [| -a; b; out |]

(* n-ary XOR via a balanced pairwise tree of fresh variables; the final
   stage optionally complements for XNOR.  Same n-1 XOR2 stages (and thus
   clause count and shapes) as a linear chain, but log instead of linear
   depth, so unit propagation across a wide XOR resolves in O(log n)
   implication steps. *)
let encode_xor_chain emit f ~out ~negated fanins =
  let n = Array.length fanins in
  assert (n >= 2);
  let rec reduce layer =
    let m = Array.length layer in
    if m <= 2 then layer
    else begin
      let next = Array.make ((m + 1) / 2) 0 in
      for i = 0 to (m / 2) - 1 do
        let t = Formula.fresh_var f in
        encode_xor2 emit ~out:t layer.(2 * i) layer.(2 * i + 1);
        next.(i) <- t
      done;
      if m land 1 = 1 then next.(((m + 1) / 2) - 1) <- layer.(m - 1);
      reduce next
    end
  in
  let pair = reduce fanins in
  encode_xor2 emit ~out:(if negated then -out else out) pair.(0) pair.(1)

(* Gate clauses go through [emit], so the full circuit copy
   ([Formula.add_clause_a]) and the folded observation copy ([fold_emit]
   below) share this one table of Table 1's clause shapes. *)
let encode_gate ?emit f kind ~out ~fanins =
  let emit = match emit with Some e -> e | None -> Formula.add_clause_a f in
  let n = Array.length fanins in
  if not (Gate.valid_fanin_count kind n) then
    invalid_arg "Tseytin.encode_gate: fanin count mismatch";
  match kind with
  | Gate.Input | Gate.Key_input ->
    invalid_arg "Tseytin.encode_gate: inputs are free variables"
  | Gate.Const b -> emit [| (if b then out else -out) |]
  | Gate.Buf ->
    emit [| fanins.(0); -out |];
    emit [| -fanins.(0); out |]
  | Gate.Not ->
    emit [| -fanins.(0); -out |];
    emit [| fanins.(0); out |]
  | Gate.And ->
    (* (¬A1 ∨ … ∨ ¬An ∨ C) ∧ ∧i (Ai ∨ ¬C) *)
    emit (Array.append (Array.map (fun a -> -a) fanins) [| out |]);
    Array.iter (fun a -> emit [| a; -out |]) fanins
  | Gate.Nand ->
    emit (Array.append (Array.map (fun a -> -a) fanins) [| -out |]);
    Array.iter (fun a -> emit [| a; out |]) fanins
  | Gate.Or ->
    emit (Array.append fanins [| -out |]);
    Array.iter (fun a -> emit [| -a; out |]) fanins
  | Gate.Nor ->
    emit (Array.append fanins [| out |]);
    Array.iter (fun a -> emit [| -a; -out |]) fanins
  | Gate.Xor -> encode_xor_chain emit f ~out ~negated:false fanins
  | Gate.Xnor -> encode_xor_chain emit f ~out ~negated:true fanins
  | Gate.Mux ->
    (* C = A·¬S + B·S with fanins [S; A; B] — Table 1's four clauses. *)
    let s = fanins.(0) and a = fanins.(1) and b = fanins.(2) in
    emit [| s; -a; out |];
    emit [| s; a; -out |];
    emit [| -s; -b; out |];
    emit [| -s; b; -out |]
  | Gate.Lut tt ->
    (* One clause per table row: (row holds) -> out = tt(row). *)
    Array.iteri
      (fun row set ->
        let clause =
          Array.init (n + 1) (fun j ->
              if j = n then if set then out else -out
              else if row land (1 lsl j) <> 0 then -fanins.(j)
              else fanins.(j))
        in
        emit clause)
      tt

let encode ?share_inputs ?share_keys f c =
  let n = Circuit.num_nodes c in
  let node_var = Array.make n 0 in
  (* Assign variables to inputs first (shared or fresh). *)
  let assign_ports ports shared label =
    match shared with
    | None -> Array.iter (fun id -> node_var.(id) <- Formula.fresh_var f) ports
    | Some vars ->
      if Array.length vars <> Array.length ports then
        invalid_arg (Printf.sprintf "Tseytin.encode: shared %s length mismatch" label);
      Array.iteri (fun i id -> node_var.(id) <- vars.(i)) ports
  in
  assign_ports c.Circuit.inputs share_inputs "inputs";
  assign_ports c.Circuit.keys share_keys "keys";
  for id = 0 to n - 1 do
    if node_var.(id) = 0 then node_var.(id) <- Formula.fresh_var f
  done;
  (* Gate clauses go out in topological order when acyclic (fanin-defining
     clauses before their consumers helps unit propagation); variable
     numbering above stays in id order either way. *)
  let emit id =
    let nd = Circuit.node c id in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Key_input -> ()
    | kind ->
      encode_gate f kind ~out:node_var.(id)
        ~fanins:(Array.map (fun fid -> node_var.(fid)) nd.Circuit.fanins)
  in
  (match View.topo_order (View.of_circuit c) with
   | Some order -> Array.iter emit order
   | None ->
     for id = 0 to n - 1 do
       emit id
     done);
  {
    node_var;
    input_vars = Array.map (fun id -> node_var.(id)) c.Circuit.inputs;
    key_vars = Array.map (fun id -> node_var.(id)) c.Circuit.keys;
    output_vars = Array.map (fun (_, id) -> node_var.(id)) c.Circuit.outputs;
  }

let assert_equal f a b =
  Formula.add_clause f [ -a; b ];
  Formula.add_clause f [ a; -b ]

let xor_out f a b =
  let x = Formula.fresh_var f in
  encode_xor2 (Formula.add_clause_a f) ~out:x a b;
  x

let assert_any_differs f pairs =
  let diffs = List.map (fun (a, b) -> xor_out f a b) pairs in
  Formula.add_clause f diffs;
  Array.of_list diffs

let assert_lit f lit = Formula.add_clause f [ lit ]

let assert_vector f vars bits =
  if Array.length vars <> Array.length bits then
    invalid_arg "Tseytin.assert_vector: length mismatch";
  Array.iteri (fun i v -> assert_lit f (if bits.(i) then v else -v)) vars

(* ------------------------------------------------------------------ *)
(* Observation copies, folded to the key cone                          *)
(* ------------------------------------------------------------------ *)

(* A node the evaluator settled stands as a constant literal: [lit_true]
   or its negation.  No variable has this number, and only [fold_emit]
   sees it: a false constant drops out of its clause, a true one satisfies
   (and so skips) the clause.  Every gate clause also mentions the gate's
   own, unsettled, output, so no clause folds to empty. *)
let lit_true = max_int

let filter_lits keep lits = Array.of_seq (Seq.filter keep (Array.to_seq lits))

let fold_emit f clause =
  if not (Array.exists (fun l -> l = lit_true) clause) then
    Formula.add_clause_a f
      (if Array.exists (fun l -> l = -lit_true) clause then
         filter_lits (fun l -> l <> -lit_true) clause
       else clause)

(* The gate an unsettled node still computes once its settled fanins are
   folded in: neutral constants leave AND/OR/XOR (an XOR absorbs true ones
   as a complement), and a gate left with one live fanin is a BUF or a NOT.
   A settled fanin that decides the gate cannot occur here: the evaluator
   would have settled the node too. *)
let fold_gate kind fanins =
  let live = filter_lits (fun l -> abs l <> lit_true) fanins in
  let unary negated = if negated then Gate.Not else Gate.Buf in
  match kind with
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor when Array.length live = 1 ->
    unary (kind = Gate.Nand || kind = Gate.Nor), live
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> kind, live
  | Gate.Xor | Gate.Xnor ->
    let negated =
      Array.fold_left
        (fun acc l -> acc <> (l = lit_true))
        (kind = Gate.Xnor) fanins
    in
    if Array.length live = 1 then unary negated, live
    else (if negated then Gate.Xnor else Gate.Xor), live
  | Gate.Mux ->
    let s = fanins.(0) and a = fanins.(1) and b = fanins.(2) in
    if s = lit_true then Gate.Buf, [| b |]
    else if s = -lit_true then Gate.Buf, [| a |]
    else if abs a = lit_true && abs b = lit_true then
      unary (a = lit_true), [| s |]
    else kind, fanins
  | _ -> kind, fanins

let encode_observation f c ~values ~share_keys ~outputs =
  let n = Circuit.num_nodes c in
  if Array.length values <> n then
    invalid_arg "Tseytin.encode_observation: values length mismatch";
  if Array.length share_keys <> Circuit.num_keys c then
    invalid_arg "Tseytin.encode_observation: shared keys length mismatch";
  if Array.length outputs <> Circuit.num_outputs c then
    invalid_arg "Tseytin.encode_observation: outputs length mismatch";
  (* Settled nodes hold a constant, keys their shared variable, and the
     unsettled gates 0 until they get a literal below. *)
  let lit =
    Array.map
      (function View.V0 -> -lit_true | View.V1 -> lit_true | View.VX -> 0)
      values
  in
  Array.iteri (fun i id -> lit.(id) <- share_keys.(i)) c.Circuit.keys;
  let folded id =
    let nd = Circuit.node c id in
    fold_gate nd.Circuit.kind
      (Array.map (fun fid -> lit.(fid)) nd.Circuit.fanins)
  in
  let emit = fold_emit f in
  (* A gate left with one live fanin takes that fanin's literal; any
     other gets a fresh variable and its clauses. *)
  let define id =
    match folded id with
    | Gate.Buf, [| a |] -> lit.(id) <- a
    | Gate.Not, [| a |] -> lit.(id) <- -a
    | kind, fanins ->
      let out = Formula.fresh_var f in
      lit.(id) <- out;
      encode_gate ~emit f kind ~out ~fanins
  in
  (match View.topo_order (View.of_circuit c) with
   | Some order -> Array.iter (fun id -> if lit.(id) = 0 then define id) order
   | None ->
     (* On a cycle an alias could chase itself (a BUF loop), so nodes are
        resolved depth-first over their fanins.  A node reached again
        while its own resolution is open gets a fresh variable: that cuts
        the cycle there, and the node's clauses go out once its fanins
        are resolved.  Every other node is defined as above.  Aliasing
        substitutes a literal for a variable, so each cycle keeps its
        constraint through the one variable that cuts it (DESIGN.md
        §4h). *)
     let opened = Bytes.make n '\000' in
     let rec resolve id =
       if lit.(id) = 0 then
         if Bytes.get opened id = '\001' then lit.(id) <- Formula.fresh_var f
         else begin
           Bytes.set opened id '\001';
           Array.iter resolve (Circuit.node c id).Circuit.fanins;
           Bytes.set opened id '\000';
           if lit.(id) = 0 then define id
           else
             let kind, fanins = folded id in
             encode_gate ~emit f kind ~out:lit.(id) ~fanins
         end
     in
     for id = 0 to n - 1 do
       resolve id
     done);
  Array.iteri
    (fun i (_, id) ->
      let l = if outputs.(i) then lit.(id) else -lit.(id) in
      if l = -lit_true then begin
        (* A settled output contradicts the observation: no key explains
           it, so the copy is unsatisfiable. *)
        let v = Formula.fresh_var f in
        assert_lit f v;
        assert_lit f (-v)
      end
      else if l <> lit_true then assert_lit f l)
    c.Circuit.outputs
