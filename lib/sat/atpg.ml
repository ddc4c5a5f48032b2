module Circuit = Fl_netlist.Circuit
module Faults = Fl_netlist.Faults
module View = Fl_netlist.View
module Formula = Fl_cnf.Formula
module Tseytin = Fl_cnf.Tseytin

type outcome =
  | Test of bool array
  | Untestable
  | Unknown

type report = {
  tests : bool array list;
  testable : int;
  untestable : int;
  unknown : int;
}

let generate ?(budget = Cdcl.no_budget) c ~keys ~node ~stuck_at =
  if not (Circuit.is_acyclic c) then
    invalid_arg "Atpg.generate: cyclic circuit";
  if Array.length keys <> Circuit.num_keys c then
    invalid_arg "Atpg.generate: key length mismatch";
  let faulty = Faults.inject c { Faults.node; stuck_at } in
  let f = Formula.create () in
  let good = Tseytin.encode f c in
  let bad = Tseytin.encode ~share_inputs:good.Tseytin.input_vars f faulty in
  Tseytin.assert_vector f good.Tseytin.key_vars keys;
  Tseytin.assert_vector f bad.Tseytin.key_vars keys;
  let pairs =
    Array.to_list
      (Array.map2 (fun a b -> a, b) good.Tseytin.output_vars bad.Tseytin.output_vars)
  in
  ignore (Tseytin.assert_any_differs f pairs);
  let solver = Cdcl.of_formula f in
  match Cdcl.solve ~budget solver with
  | Cdcl.Sat ->
    Test (Array.map (fun v -> Cdcl.value solver v) good.Tseytin.input_vars)
  | Cdcl.Unsat -> Untestable
  | Cdcl.Unknown -> Unknown

let cover ?(budget_per_fault = 5.0) c ~keys ~faults =
  let packed_keys = View.broadcast keys in
  (* The accumulated test set, and its packed batches. *)
  let tests = ref [] and batches = ref [] in
  let testable = ref 0 and untestable = ref 0 and unknown = ref 0 in
  List.iter
    (fun (node, stuck_at) ->
      let fault = { Faults.node; stuck_at } in
      let already =
        List.exists
          (fun inputs -> Faults.detects c ~keys:packed_keys ~inputs fault)
          !batches
      in
      if already then incr testable
      else
        match
          generate ~budget:(Cdcl.budget_seconds budget_per_fault) c ~keys ~node
            ~stuck_at
        with
        | Test v ->
          incr testable;
          tests := v :: !tests;
          batches := Faults.batches !tests
        | Untestable -> incr untestable
        | Unknown -> incr unknown)
    faults;
  { tests = !tests; testable = !testable; untestable = !untestable; unknown = !unknown }

let pp_report fmt r =
  Format.fprintf fmt "%d testable (%d vectors), %d proved untestable, %d unknown"
    r.testable (List.length r.tests) r.untestable r.unknown
