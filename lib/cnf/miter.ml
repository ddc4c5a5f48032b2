module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View

type t = {
  formula : Formula.t;
  inputs : int array;
  keys_a : int array;
  keys_b : int array;
  outputs_a : int array;
  outputs_b : int array;
  enc_a : Tseytin.encoding;
  enc_b : Tseytin.encoding;
}

let build c =
  if Circuit.num_keys c = 0 then
    invalid_arg "Miter.build: circuit has no key inputs";
  let f = Formula.create () in
  let enc_a = Tseytin.encode f c in
  let enc_b = Tseytin.encode ~share_inputs:enc_a.Tseytin.input_vars f c in
  let pairs =
    Array.to_list
      (Array.map2 (fun a b -> a, b) enc_a.Tseytin.output_vars
         enc_b.Tseytin.output_vars)
  in
  let _diffs = Tseytin.assert_any_differs f pairs in
  {
    formula = f;
    inputs = enc_a.Tseytin.input_vars;
    keys_a = enc_a.Tseytin.key_vars;
    keys_b = enc_b.Tseytin.key_vars;
    outputs_a = enc_a.Tseytin.output_vars;
    outputs_b = enc_b.Tseytin.output_vars;
    enc_a;
    enc_b;
  }

let add_io_constraint m c ~inputs ~outputs =
  let values = View.eval_under_inputs (View.of_circuit c) ~inputs in
  let pin share_keys =
    Tseytin.encode_observation m.formula c ~values ~share_keys ~outputs
  in
  pin m.keys_a;
  pin m.keys_b

let interface_vars m =
  Array.concat [ m.inputs; m.keys_a; m.keys_b; m.outputs_a; m.outputs_b ]

let clause_variable_ratio c = Formula.ratio (build c).formula
