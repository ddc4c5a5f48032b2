module Circuit = Fl_netlist.Circuit
module Gate = Fl_netlist.Gate
module View = Fl_netlist.View
module Formula = Fl_cnf.Formula
module Tseytin = Fl_cnf.Tseytin

type verdict =
  | Equivalent
  | Different of { inputs : bool array; outputs_a : bool array; outputs_b : bool array }
  | Unknown

(* A constant stands as the literal [lit_true] or its negation.  No
   variable has this number, and no clause sees it: gates fold it away,
   and an output pair turns it into a variable forced true. *)
let lit_true = max_int

let is_const l = abs l = lit_true

(* One encoder for both circuits (DESIGN.md §4k).  A gate folds its
   constant fanins away and reduces to a canonical shape over the
   literals left: AND over sorted distinct literals (OR, NAND and NOR are
   ANDs under De Morgan), XOR over sorted distinct variables with the
   parity as the output's sign, MUX with a positive select and data that
   are neither equal, complementary nor constant, LUT over the distinct
   variables its reduced table reads.  A shape met before takes that
   gate's variable, so the second circuit reuses the first's variables
   wherever its logic is the same; a new shape gets a fresh variable and
   the Table 1 clauses of {!Tseytin.encode_gate}.  [defs] maps each AND
   and XOR variable back to its shape. *)
type encoder = {
  f : Formula.t;
  shapes : (Gate.t * int array, int) Hashtbl.t;
  defs : (int, Gate.t * int array) Hashtbl.t;
}

let gate e kind fanins =
  match Hashtbl.find_opt e.shapes (kind, fanins) with
  | Some v -> v
  | None ->
    let v = Formula.fresh_var e.f in
    Tseytin.encode_gate e.f kind ~out:v ~fanins;
    Hashtbl.add e.shapes (kind, fanins) v;
    (match kind with Gate.And | Gate.Xor -> Hashtbl.add e.defs v (kind, fanins) | _ -> ());
    v

(* Widest AND or XOR that absorbs the same-kind gates it reads. *)
let max_flat = 256

(* [lits] with each literal of a same-kind gate replaced by that gate's
   fanins: a positive AND literal in an AND, any XOR literal in an XOR (a
   negated one adding [lit_true] to the parity).  Nested gates then reach
   one shape however they were grouped: the MUX tree of a keyed LUT folds
   to the same flat AND as the oracle's gate.  Past [max_flat] literals
   the gate keeps its own fanins. *)
let flatten e kind lits =
  let flat =
    List.concat_map
      (fun l ->
        match Hashtbl.find_opt e.defs (abs l) with
        | Some (k, fanins) when k = kind && (l > 0 || kind = Gate.Xor) ->
          let fanins = Array.to_list fanins in
          if l > 0 then fanins else lit_true :: fanins
        | _ -> [ l ])
      lits
  in
  if List.compare_length_with flat max_flat <= 0 then flat else lits

(* Literals by variable, the negative one first. *)
let by_var x y = match compare (abs x) (abs y) with 0 -> compare x y | c -> c

(* AND of [lits]: a false literal or a complementary pair decides it, and
   so does the negation of an AND whose fanins are all among [lits]
   (after flattening, [v & ~v] reads [a & b & ~v] for [v = a & b]); true
   literals and repeats drop out.  Sorted by variable, a complementary
   pair is adjacent, and a constant comes last. *)
let mk_and e lits =
  let lits = List.sort_uniq by_var (flatten e Gate.And lits) in
  let contradicts l =
    l < 0
    &&
    match Hashtbl.find_opt e.defs (-l) with
    | Some (Gate.And, fanins) -> Array.for_all (fun f -> List.mem f lits) fanins
    | _ -> false
  in
  let rec fold = function
    | a :: (b :: _ as rest) -> if a = -b then None else Option.map (List.cons a) (fold rest)
    | [ l ] when l = -lit_true -> None
    | [ l ] when l = lit_true -> Some []
    | rest -> Some rest
  in
  match fold lits with
  | None -> -lit_true
  | Some _ when List.exists contradicts lits -> -lit_true
  | Some [] -> lit_true
  | Some [ l ] -> l
  | Some lits -> gate e Gate.And (Array.of_list lits)

(* XOR of [lits]: true constants and negations move into the output's
   sign, a variable met twice cancels. *)
let mk_xor e lits =
  let negated = ref false in
  let vars =
    List.filter_map
      (fun l ->
        if l = lit_true || (l < 0 && l <> -lit_true) then negated := not !negated;
        if is_const l then None else Some (abs l))
      (flatten e Gate.Xor lits)
  in
  let rec cancel = function
    | a :: b :: rest when a = b -> cancel rest
    | a :: rest -> a :: cancel rest
    | [] -> []
  in
  let l =
    match cancel (List.sort compare vars) with
    | [] -> -lit_true
    | [ v ] -> v
    | vars -> gate e Gate.Xor (Array.of_list vars)
  in
  if !negated then -l else l

(* [s ? b : a].  Within a branch the select is known, so a datum equal to
   it (or to its complement) is a constant there; constant data turn the
   MUX into an AND, complementary data into an XOR. *)
let mk_mux e s a b =
  if is_const s then if s > 0 then b else a
  else
    let s, a, b = if s < 0 then -s, b, a else s, a, b in
    let within l ~sel = if l = s then sel else if l = -s then -sel else l in
    let a = within a ~sel:(-lit_true) and b = within b ~sel:lit_true in
    if a = b then a
    else if a = -b then mk_xor e [ s; a ]
    else if is_const a then
      (* a = 0: s & b; a = 1: ~s | b *)
      if a < 0 then mk_and e [ s; b ] else -mk_and e [ s; -b ]
    else if is_const b then
      (* b = 0: ~s & a; b = 1: s | a *)
      if b < 0 then mk_and e [ -s; a ] else -mk_and e [ -s; -a ]
    else gate e Gate.Mux [| s; a; b |]

let popcount_odd r =
  let rec go r odd = if r = 0 then odd else go (r lsr 1) (odd <> (r land 1 = 1)) in
  go r false

(* The table [tt] over fanin literals [lits], re-expressed over the
   distinct variables among them (constants cofactored, negations and
   repeats absorbed), then over the variables it reads.  A table with one
   true row is an AND, one with one false row a NAND, a parity table an
   XOR; any other is a LUT shape. *)
let mk_lut e tt lits =
  let vars =
    Array.of_list
      (List.sort_uniq compare
         (List.filter_map (fun l -> if is_const l then None else Some (abs l)) lits))
  in
  let slot v =
    let rec go j = if vars.(j) = v then j else go (j + 1) in
    go 0
  in
  (* Row [r] over [vars] is row [index r] of [tt]. *)
  let index r =
    List.fold_left
      (fun (i, bit) l ->
        let value = if is_const l then l > 0 else r land (1 lsl slot (abs l)) <> 0 = (l > 0) in
        ((if value then i lor bit else i), bit lsl 1))
      (0, 1) lits
    |> fst
  in
  let t = Array.init (1 lsl Array.length vars) (fun r -> tt.(index r)) in
  let reads t j =
    let rec go r = r < Array.length t && (t.(r) <> t.(r lxor (1 lsl j)) || go (r + 1)) in
    go 0
  in
  (* Drop variable [j]: row [r] of the result inserts a 0 at bit [j]. *)
  let drop t j =
    Array.init (Array.length t / 2) (fun r ->
        t.(((r lsr j) lsl (j + 1)) lor (r land ((1 lsl j) - 1))))
  in
  let rec prune t vars j =
    if j = List.length vars then t, Array.of_list vars
    else if reads t j then prune t vars (j + 1)
    else prune (drop t j) (List.filteri (fun i _ -> i <> j) vars) j
  in
  let t, vars = prune t (Array.to_list vars) 0 in
  let row_lits r =
    Array.to_list (Array.mapi (fun j v -> if r land (1 lsl j) <> 0 then v else -v) vars)
  in
  let rows value = List.filter (fun r -> t.(r) = value) (List.init (Array.length t) Fun.id) in
  match rows true, rows false with
  | [], _ -> -lit_true
  | _, [] -> lit_true
  | [ r ], _ -> mk_and e (row_lits r)
  | _, [ r ] -> -mk_and e (row_lits r)
  | _ when Array.for_all Fun.id (Array.mapi (fun r x -> x = (t.(0) <> popcount_odd r)) t) ->
    let x = mk_xor e (Array.to_list vars) in
    if t.(0) then -x else x
  | _ -> gate e (Gate.Lut t) vars

(* [encode e c ~inputs ~keys] is the literal of each output of [c], with
   its primary inputs on the variables [inputs] and its keys pinned to
   [keys]. *)
let encode e c ~inputs ~keys =
  let lit = Array.make (Circuit.num_nodes c) 0 in
  Array.iteri (fun i id -> lit.(id) <- inputs.(i)) c.Circuit.inputs;
  Array.iteri (fun i id -> lit.(id) <- (if keys.(i) then lit_true else -lit_true)) c.Circuit.keys;
  Array.iter
    (fun id ->
      let nd = Circuit.node c id in
      let fan = Array.map (fun x -> lit.(x)) nd.Circuit.fanins in
      let all () = Array.to_list fan in
      let negated () = List.map (fun l -> -l) (all ()) in
      match nd.Circuit.kind with
      | Gate.Input | Gate.Key_input -> ()
      | Gate.Const b -> lit.(id) <- (if b then lit_true else -lit_true)
      | Gate.Buf -> lit.(id) <- fan.(0)
      | Gate.Not -> lit.(id) <- -fan.(0)
      | Gate.And -> lit.(id) <- mk_and e (all ())
      | Gate.Nand -> lit.(id) <- -mk_and e (all ())
      | Gate.Or -> lit.(id) <- -mk_and e (negated ())
      | Gate.Nor -> lit.(id) <- mk_and e (negated ())
      | Gate.Xor -> lit.(id) <- mk_xor e (all ())
      | Gate.Xnor -> lit.(id) <- -mk_xor e (all ())
      | Gate.Mux -> lit.(id) <- mk_mux e fan.(0) fan.(1) fan.(2)
      | Gate.Lut tt -> lit.(id) <- mk_lut e tt (all ()))
    (Option.get (View.topo_order (View.of_circuit c)));
  Array.map (fun (_, id) -> lit.(id)) c.Circuit.outputs

let check ?(budget = Cdcl.no_budget) ?(keys_a = [||]) ?(keys_b = [||]) a b =
  if Circuit.num_inputs a <> Circuit.num_inputs b then
    invalid_arg "Equiv.check: input counts differ";
  if Circuit.num_outputs a <> Circuit.num_outputs b then
    invalid_arg "Equiv.check: output counts differ";
  let acyclic c = View.is_acyclic (View.of_circuit c) in
  if not (acyclic a && acyclic b) then
    invalid_arg "Equiv.check: cyclic circuit (CNF equivalence would be unsound)";
  if Array.length keys_a <> Circuit.num_keys a then
    invalid_arg "Equiv.check: key length mismatch for first circuit";
  if Array.length keys_b <> Circuit.num_keys b then
    invalid_arg "Equiv.check: key length mismatch for second circuit";
  let f = Formula.create () in
  let size = Circuit.num_nodes a + Circuit.num_nodes b in
  let e = { f; shapes = Hashtbl.create size; defs = Hashtbl.create size } in
  let inputs = Formula.fresh_vars f (Circuit.num_inputs a) in
  let out_a = encode e a ~inputs ~keys:keys_a in
  let out_b = encode e b ~inputs ~keys:keys_b in
  (* Pairs that end on one literal drop out; a constant in a pair left
     becomes a variable forced true. *)
  let one =
    lazy
      (let v = Formula.fresh_var f in
       Tseytin.assert_lit f v;
       v)
  in
  let var l = if is_const l then if l > 0 then Lazy.force one else -Lazy.force one else l in
  let pairs =
    List.filter_map
      (fun (la, lb) -> if la = lb then None else Some (var la, var lb))
      (Array.to_list (Array.combine out_a out_b))
  in
  if pairs = [] then Equivalent
  else begin
    ignore (Tseytin.assert_any_differs f pairs);
    let solver = Cdcl.of_formula f in
    match Cdcl.solve ~budget solver with
    | Cdcl.Unsat -> Equivalent
    | Cdcl.Unknown -> Unknown
    | Cdcl.Sat ->
      (* An output may be a constant or a negated literal, so the outputs
         are simulated on the model's inputs rather than read off it. *)
      let inputs = Array.map (Cdcl.value solver) inputs in
      let sim c keys = View.eval (View.of_circuit c) ~inputs ~keys in
      Different { inputs; outputs_a = sim a keys_a; outputs_b = sim b keys_b }
  end

let check_key ?budget ~locked ~oracle key =
  check ?budget ~keys_a:key ~keys_b:[||] locked oracle
