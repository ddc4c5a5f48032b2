module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View

type t = {
  formula : Formula.t;
  inputs : int array;
  keys_a : int array;
  keys_b : int array;
  outputs_a : int array;
  outputs_b : int array;
}

let copy_interface (enc : Tseytin.encoding) =
  Array.concat
    [ enc.Tseytin.input_vars; enc.Tseytin.key_vars; enc.Tseytin.output_vars ]

let key_free c =
  let v = View.of_circuit c in
  let n = Circuit.num_nodes c in
  let free = Array.make n true in
  Array.iter (fun id -> free.(id) <- false) c.Circuit.keys;
  Array.iter (fun id -> free.(id) <- false) (View.key_cone v);
  if not (View.is_acyclic v) then begin
    (* A node on a cycle, or one a cycle reaches: its Tseytin clauses may
       leave it free (a BUF loop does), so it is no function of the
       inputs. *)
    let scc = View.scc v and fo = View.fanouts v in
    let size = Array.make n 0 in
    Array.iter (fun k -> size.(k) <- size.(k) + 1) scc;
    let stack = Array.make n 0 and top = ref 0 in
    let taint id =
      if free.(id) then begin
        free.(id) <- false;
        stack.(!top) <- id;
        incr top
      end
    in
    for id = 0 to n - 1 do
      if size.(scc.(id)) > 1 || Array.mem id (Circuit.node c id).Circuit.fanins
      then taint id
    done;
    while !top > 0 do
      decr top;
      Array.iter taint fo.(stack.(!top))
    done
  end;
  free

let of_copy c f (enc : Tseytin.encoding) =
  if Array.length enc.Tseytin.key_vars = 0 then
    invalid_arg "Miter: circuit has no key inputs";
  (* Copy B keeps the variables of key-free nodes, the inputs among them,
     and numbers every other variable of copy A anew, in order, after A's
     last one.  A clause over kept variables alone would be copied onto
     itself, so it is not copied. *)
  let nv = Formula.num_vars f in
  let ren = Array.make (nv + 1) 0 in
  let free = key_free c in
  Array.iteri (fun id v -> if free.(id) then ren.(v) <- v) enc.Tseytin.node_var;
  let next = ref nv in
  for v = 1 to nv do
    if ren.(v) = 0 then begin
      incr next;
      ren.(v) <- !next
    end
  done;
  Formula.reserve f !next;
  let rename l = if l > 0 then ren.(l) else -ren.(-l) in
  let kept l = ren.(abs l) = abs l in
  Array.iter
    (fun clause ->
      if not (Array.for_all kept clause) then
        Formula.add_clause_a f (Array.map rename clause))
    (Formula.clauses f);
  let outputs_b = Array.map rename enc.Tseytin.output_vars in
  (* A key-free output is one variable in both copies and cannot differ;
     with no other output, no input tells two keys apart. *)
  let pairs =
    List.filter
      (fun (a, b) -> a <> b)
      (Array.to_list (Array.combine enc.Tseytin.output_vars outputs_b))
  in
  if pairs = [] then begin
    let v = Formula.fresh_var f in
    Formula.add_clause f [ v ];
    Formula.add_clause f [ -v ]
  end
  else ignore (Tseytin.assert_any_differs f pairs);
  {
    formula = f;
    inputs = enc.Tseytin.input_vars;
    keys_a = enc.Tseytin.key_vars;
    keys_b = Array.map rename enc.Tseytin.key_vars;
    outputs_a = enc.Tseytin.output_vars;
    outputs_b;
  }

let build c =
  let f = Formula.create () in
  of_copy c f (Tseytin.encode f c)

let clause_variable_ratio c = Formula.ratio (build c).formula
