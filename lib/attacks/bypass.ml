module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Opt = Fl_netlist.Opt
module Formula = Fl_cnf.Formula
module Tseytin = Fl_cnf.Tseytin
module Cdcl = Fl_sat.Cdcl
module Equiv = Fl_sat.Equiv
module Locked = Fl_locking.Locked

type cube = {
  care : bool array;
  values : bool array;
  flips : bool array;
}

type result =
  | Bypassed of {
      wrong_key : bool array;
      cubes : cube list;
      repaired : Circuit.t;
      overhead_gates : int;
    }
  | Too_many_cubes of { wrong_key : bool array; found : int }
  | Inconclusive

(* One dual-copy instance: locked (key pinned) vs oracle on shared inputs.
   Returns the shared input variables and the per-output XOR variables. *)
let difference_instance locked ~key f =
  let enc_locked = Tseytin.encode f locked.Locked.locked in
  let enc_oracle =
    Tseytin.encode ~share_inputs:enc_locked.Tseytin.input_vars f
      locked.Locked.oracle
  in
  Tseytin.assert_vector f enc_locked.Tseytin.key_vars key;
  let diffs =
    Array.map2
      (fun a b -> Tseytin.xor_out f a b)
      enc_locked.Tseytin.output_vars enc_oracle.Tseytin.output_vars
  in
  enc_locked.Tseytin.input_vars, diffs

(* Is it true that on every input of the cube, locked(x, key) differs from
   the oracle by exactly [flips]?  UNSAT of the violation query is the
   proof. *)
let cube_exact ~deadline locked ~key cube =
  let f = Formula.create () in
  let inputs, diffs = difference_instance locked ~key f in
  Array.iteri
    (fun i v ->
      if cube.care.(i) then
        Tseytin.assert_lit f (if cube.values.(i) then v else -v))
    inputs;
  (* Violation: some output's difference disagrees with the expected flip. *)
  let violations =
    Array.to_list
      (Array.mapi
         (fun o d ->
           if cube.flips.(o) then -d else d)
         diffs)
  in
  Formula.add_clause f violations;
  let solver = Cdcl.of_formula f in
  match Cdcl.solve ~budget:(Cdcl.budget_seconds (deadline -. Unix.gettimeofday ())) solver with
  | Cdcl.Unsat -> `Exact
  | Cdcl.Sat -> `Violated
  | Cdcl.Unknown -> `Timeout

(* Greedy cube widening: try to drop each input bit, keeping the drop when
   the widened cube still disagrees by the same constant flip pattern. *)
let generalize ~deadline locked ~key minterm flips =
  let n = Array.length minterm in
  let cube = { care = Array.make n true; values = Array.copy minterm; flips } in
  let timeout = ref false in
  for i = 0 to n - 1 do
    if not !timeout then begin
      cube.care.(i) <- false;
      match cube_exact ~deadline locked ~key cube with
      | `Exact -> ()
      | `Violated -> cube.care.(i) <- true
      | `Timeout ->
        cube.care.(i) <- true;
        timeout := true
    end
  done;
  if !timeout then `Timeout else `Cube cube

(* Enumerate disagreement cubes, blocking each found cube's fixed bits. *)
let disagreement_cubes ~deadline locked ~key ~limit =
  let f = Formula.create () in
  let inputs, diffs = difference_instance locked ~key f in
  Formula.add_clause f (Array.to_list diffs);
  let solver = Cdcl.of_formula f in
  let rec loop acc count =
    if count > limit then `Too_many count
    else begin
      let budget = Cdcl.budget_seconds (deadline -. Unix.gettimeofday ()) in
      match Cdcl.solve ~budget solver with
      | Cdcl.Unsat -> `All (List.rev acc)
      | Cdcl.Unknown -> `Timeout
      | Cdcl.Sat ->
        let minterm = Array.map (fun v -> Cdcl.value solver v) inputs in
        let wrong = Locked.eval_locked locked ~key ~inputs:minterm in
        let right = Locked.query_oracle locked minterm in
        let flips = Array.map2 (fun w r -> w <> r) wrong right in
        (match generalize ~deadline locked ~key minterm flips with
         | `Timeout -> `Timeout
         | `Cube cube ->
           (* Block the whole cube. *)
           let blocking =
             Array.to_list inputs
             |> List.mapi (fun i v ->
                    if cube.care.(i) then Some (if cube.values.(i) then -v else v)
                    else None)
             |> List.filter_map Fun.id
           in
           (match blocking with
            | [] ->
              (* The cube covers the whole input space: one universal flip. *)
              `All (List.rev (cube :: acc))
            | clause ->
              Cdcl.add_clause solver clause;
              loop (cube :: acc) (count + 1)))
    end
  in
  loop [] 0

(* Wrap the wrongly-keyed core with comparators that flip the disagreeing
   outputs on each cube. *)
let build_repair locked ~key ~cubes =
  let core = Opt.hardwire_keys locked.Locked.locked key in
  let b = Circuit.Builder.create ~name:(core.Circuit.name ^ "-bypassed") () in
  let map = Circuit.copy_nodes_into b core in
  let inputs = Array.map (fun id -> map.(id)) core.Circuit.inputs in
  let per_output_flips = Array.make (Circuit.num_outputs core) ([] : int list) in
  List.iter
    (fun cube ->
      let literals =
        Array.to_list inputs
        |> List.mapi (fun i v ->
               if not cube.care.(i) then None
               else if cube.values.(i) then Some v
               else Some (Circuit.Builder.add b Gate.Not [| v |]))
        |> List.filter_map Fun.id
      in
      let matcher =
        match literals with
        | [] -> Circuit.Builder.add b (Gate.Const true) [||]
        | [ single ] -> single
        | several -> Circuit.Builder.add b Gate.And (Array.of_list several)
      in
      Array.iteri
        (fun o_idx flip ->
          if flip then per_output_flips.(o_idx) <- matcher :: per_output_flips.(o_idx))
        cube.flips)
    cubes;
  Array.iteri
    (fun o_idx (port, id) ->
      let driver =
        match per_output_flips.(o_idx) with
        | [] -> map.(id)
        | [ single ] -> Circuit.Builder.add b Gate.Xor [| map.(id); single |]
        | several ->
          let any = Circuit.Builder.add b Gate.Or (Array.of_list several) in
          Circuit.Builder.add b Gate.Xor [| map.(id); any |]
      in
      Circuit.Builder.output b port driver)
    core.Circuit.outputs;
  let repaired = Circuit.of_builder b in
  repaired, Circuit.num_gates repaired - Circuit.num_gates core

let run ?(max_cubes = 32) ?(timeout = 30.0) ?(seed = 0xb1fa55) locked =
  if not (Circuit.is_acyclic locked.Locked.locked) then
    invalid_arg "Bypass.run: cyclic locked netlist";
  let deadline = Unix.gettimeofday () +. timeout in
  let rng = Random.State.make [| seed |] in
  let nk = Locked.num_key_bits locked in
  let wrong_key =
    let k = Array.init nk (fun _ -> Random.State.bool rng) in
    if k = locked.Locked.correct_key then Array.map not k else k
  in
  match disagreement_cubes ~deadline locked ~key:wrong_key ~limit:max_cubes with
  | `Timeout -> Inconclusive
  | `Too_many found -> Too_many_cubes { wrong_key; found }
  | `All cubes ->
    let repaired, overhead_gates = build_repair locked ~key:wrong_key ~cubes in
    (* The construction must be exact: verify formally. *)
    (match Equiv.check repaired locked.Locked.oracle with
     | Equiv.Equivalent -> Bypassed { wrong_key; cubes; repaired; overhead_gates }
     | Equiv.Different _ | Equiv.Unknown -> Inconclusive)
