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

let of_copy f (enc : Tseytin.encoding) =
  if Array.length enc.Tseytin.key_vars = 0 then
    invalid_arg "Miter: circuit has no key inputs";
  (* Copy B keeps the input variables and numbers every other variable of
     copy A anew, in order, after A's last one. *)
  let nv = Formula.num_vars f in
  let ren = Array.make (nv + 1) 0 in
  Array.iter (fun v -> ren.(v) <- v) enc.Tseytin.input_vars;
  let next = ref nv in
  for v = 1 to nv do
    if ren.(v) = 0 then begin
      incr next;
      ren.(v) <- !next
    end
  done;
  Formula.reserve f !next;
  let rename l = if l > 0 then ren.(l) else -ren.(-l) in
  Array.iter
    (fun clause -> Formula.add_clause_a f (Array.map rename clause))
    (Formula.clauses f);
  let outputs_b = Array.map rename enc.Tseytin.output_vars in
  let pairs = Array.to_list (Array.combine enc.Tseytin.output_vars outputs_b) in
  let _diffs = Tseytin.assert_any_differs f pairs in
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
  of_copy f (Tseytin.encode f c)

let add_io_constraint m c ~inputs ~outputs =
  let values = View.eval_under_inputs (View.of_circuit c) ~inputs in
  let o =
    Tseytin.eliminate_locals (Tseytin.scratch ())
      (Tseytin.fold_observation c ~values ~outputs)
  in
  Tseytin.add_observation m.formula o ~share_keys:m.keys_a;
  Tseytin.add_observation m.formula o ~share_keys:m.keys_b

let interface_vars m =
  Array.concat [ m.inputs; m.keys_a; m.keys_b; m.outputs_a; m.outputs_b ]

let clause_variable_ratio c = Formula.ratio (build c).formula
