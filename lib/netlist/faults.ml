type fault = { node : int; stuck_at : bool }

let enumerate c =
  let result = ref [] in
  for id = Circuit.num_nodes c - 1 downto 0 do
    match (Circuit.node c id).Circuit.kind with
    | Gate.Key_input | Gate.Const _ -> ()
    | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or
    | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Lut _ ->
      result := { node = id; stuck_at = false } :: { node = id; stuck_at = true } :: !result
  done;
  !result

(* Input-site faults keep the port (interface unchanged) and redirect its
   consumers, output ports included, to the constant.  The name is unique
   per fault because view caches hash circuits by name and node count. *)
let inject c { node; stuck_at } =
  let name =
    Printf.sprintf "%s-faulty-%d-sa%d" c.Circuit.name node (Bool.to_int stuck_at)
  in
  let b = Circuit.Builder.create ~name () in
  let map = Circuit.copy_nodes_into b c in
  (match (Circuit.node c node).Circuit.kind with
   | Gate.Input | Gate.Key_input ->
     let const = Circuit.Builder.add b (Gate.Const stuck_at) [||] in
     for id = 0 to Circuit.num_nodes c - 1 do
       let fanins = (Circuit.node c id).Circuit.fanins in
       if Array.mem node fanins then
         Circuit.Builder.set_fanins b map.(id)
           (Array.map (fun f -> if f = node then const else map.(f)) fanins)
     done;
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

(* Detected where the good machine settles and the faulty machine either
   settles to a different value or fails to settle. *)
let differs (good : View.word array) (faulty : View.word array) =
  let hit = ref 0 in
  Array.iteri
    (fun i (g : View.word) ->
      let f = faulty.(i) in
      hit := !hit lor (g.defined land (lnot f.defined lor (g.value lxor f.value))))
    good;
  !hit <> 0

let detects c ~keys ~inputs fault =
  let good = View.eval_words (View.of_circuit c) ~inputs ~keys in
  differs good (View.eval_words (View.of_circuit (inject c fault)) ~inputs ~keys)

(* A short last batch repeats its first vector in the unused lanes: padding
   with the all-zero vector would test a vector the set does not hold. *)
let rec batches = function
  | [] -> []
  | first :: _ as vectors ->
    View.pack
      (List.init View.lanes (fun i ->
           Option.value (List.nth_opt vectors i) ~default:first))
    :: batches (List.filteri (fun i _ -> i >= View.lanes) vectors)

type coverage = { total : int; detected : int; undetected : fault list }

let coverage c ~keys ~vectors =
  let keys = View.broadcast keys in
  (* The good machine's response to each batch, computed once. *)
  let good = View.of_circuit c in
  let graded =
    List.map
      (fun inputs -> inputs, View.eval_words good ~inputs ~keys)
      (batches vectors)
  in
  let faults = enumerate c in
  let undetected =
    List.filter
      (fun fault ->
        let faulty = View.of_circuit (inject c fault) in
        not
          (List.exists
             (fun (inputs, good_out) ->
               differs good_out (View.eval_words faulty ~inputs ~keys))
             graded))
      faults
  in
  {
    total = List.length faults;
    detected = List.length faults - List.length undetected;
    undetected;
  }

let random_coverage c ~keys ~count ~seed =
  let rng = Random.State.make [| seed |] in
  let width = Circuit.num_inputs c in
  let vectors = List.init count (fun _ -> View.random_vector rng width) in
  coverage c ~keys ~vectors

let coverage_fraction cov =
  if cov.total = 0 then 1.0 else float_of_int cov.detected /. float_of_int cov.total

let pp_coverage fmt cov =
  Format.fprintf fmt "%d/%d stuck-at faults detected (%.1f%%)" cov.detected
    cov.total
    (100.0 *. coverage_fraction cov)
