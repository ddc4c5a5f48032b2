module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Faults = Fl_netlist.Faults
module Sim_word = Fl_netlist.Sim_word
module Formula = Fl_cnf.Formula
module Tseytin = Fl_cnf.Tseytin

type outcome =
  | Test of bool array
  | Untestable
  | Unknown

(* The faulty machine: a copy of [c] with the fault site forced to a
   constant.  Input-site faults keep the port (interface unchanged) and
   redirect consumers to the constant. *)
let inject_fault c ~node ~stuck_at =
  let b = Circuit.Builder.create ~name:(c.Circuit.name ^ "-faulty") () in
  let map = Circuit.copy_nodes_into b c in
  (match (Circuit.node c node).Circuit.kind with
   | Gate.Input | Gate.Key_input ->
     let const = Circuit.Builder.add b (Gate.Const stuck_at) [||] in
     for id = 0 to Circuit.num_nodes c - 1 do
       let fanins = Circuit.Builder.fanins_of b map.(id) in
       if Array.exists (fun f -> f = map.(node)) fanins then
         Circuit.Builder.set_fanins b map.(id)
           (Array.map (fun f -> if f = map.(node) then const else f) fanins)
     done;
     (* Output ports driven directly by the faulty input: *)
     Array.iter
       (fun (port, id) ->
         Circuit.Builder.output b port (if id = node then const else map.(id)))
       c.Circuit.outputs
   | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or
   | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Lut _ ->
     Circuit.Builder.replace b map.(node) (Gate.Const stuck_at) [||];
     Array.iter
       (fun (port, id) -> Circuit.Builder.output b port map.(id))
       c.Circuit.outputs);
  Circuit.of_builder b

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
  let faulty = inject_fault c ~node ~stuck_at in
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
  let packed_keys = Array.map (fun b -> if b then -1 else 0) keys in
  let tests = ref [] in
  let testable = ref 0 and untestable = ref 0 and unknown = ref 0 in
  (* Packed batches of the accumulated test set, rebuilt lazily. *)
  let batches = ref [] in
  let stale = ref false in
  let rebuild () =
    if !stale then begin
      let rec chunk acc current count = function
        | [] -> if current = [] then acc else List.rev current :: acc
        | v :: rest ->
          if count = Sim_word.lanes then chunk (List.rev current :: acc) [ v ] 1 rest
          else chunk acc (v :: current) (count + 1) rest
      in
      batches := List.map Sim_word.pack (chunk [] [] 0 !tests);
      stale := false
    end
  in
  List.iter
    (fun (node, stuck_at) ->
      rebuild ();
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
          stale := true
        | Untestable -> incr untestable
        | Unknown -> incr unknown)
    faults;
  { tests = !tests; testable = !testable; untestable = !untestable; unknown = !unknown }

let pp_report fmt r =
  Format.fprintf fmt "%d testable (%d vectors), %d proved untestable, %d unknown"
    r.testable (List.length r.tests) r.untestable r.unknown
