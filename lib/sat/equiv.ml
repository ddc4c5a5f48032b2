module Circuit = Fl_netlist.Circuit
module Formula = Fl_cnf.Formula
module Tseytin = Fl_cnf.Tseytin

type verdict =
  | Equivalent
  | Different of { inputs : bool array; outputs_a : bool array; outputs_b : bool array }
  | Unknown

let check ?(budget = Cdcl.no_budget) ?(keys_a = [||]) ?(keys_b = [||]) a b =
  if Circuit.num_inputs a <> Circuit.num_inputs b then
    invalid_arg "Equiv.check: input counts differ";
  if Circuit.num_outputs a <> Circuit.num_outputs b then
    invalid_arg "Equiv.check: output counts differ";
  let acyclic c = Fl_netlist.View.is_acyclic (Fl_netlist.View.of_circuit c) in
  if not (acyclic a && acyclic b) then
    invalid_arg "Equiv.check: cyclic circuit (CNF equivalence would be unsound)";
  if Array.length keys_a <> Circuit.num_keys a then
    invalid_arg "Equiv.check: key length mismatch for first circuit";
  if Array.length keys_b <> Circuit.num_keys b then
    invalid_arg "Equiv.check: key length mismatch for second circuit";
  let f = Formula.create () in
  let enc_a = Tseytin.encode f a in
  let enc_b = Tseytin.encode ~share_inputs:enc_a.Tseytin.input_vars f b in
  Tseytin.assert_vector f enc_a.Tseytin.key_vars keys_a;
  Tseytin.assert_vector f enc_b.Tseytin.key_vars keys_b;
  let pairs =
    Array.to_list
      (Array.map2 (fun x y -> x, y) enc_a.Tseytin.output_vars enc_b.Tseytin.output_vars)
  in
  ignore (Tseytin.assert_any_differs f pairs);
  let solver = Cdcl.of_formula f in
  match Cdcl.solve ~budget solver with
  | Cdcl.Unsat -> Equivalent
  | Cdcl.Unknown -> Unknown
  | Cdcl.Sat ->
    let value v = Cdcl.value solver v in
    Different
      {
        inputs = Array.map value enc_a.Tseytin.input_vars;
        outputs_a = Array.map value enc_a.Tseytin.output_vars;
        outputs_b = Array.map value enc_b.Tseytin.output_vars;
      }

let check_key ?budget ~locked ~oracle key =
  check ?budget ~keys_a:key ~keys_b:[||] locked oracle
