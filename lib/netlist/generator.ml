type profile = {
  num_inputs : int;
  num_outputs : int;
  num_gates : int;
  max_fanin : int;
  and_bias : float;
}

let default_profile =
  { num_inputs = 8; num_outputs = 4; num_gates = 60; max_fanin = 4; and_bias = 0.8 }

let pick_kind rng bias =
  let roll = Random.State.float rng 1.0 in
  if roll < bias then
    match Random.State.int rng 4 with
    | 0 -> Gate.And
    | 1 -> Gate.Nand
    | 2 -> Gate.Or
    | _ -> Gate.Nor
  else
    match Random.State.int rng 3 with
    | 0 -> Gate.Xor
    | 1 -> Gate.Xnor
    | _ -> Gate.Not

(* The generator grows the circuit gate by gate, always drawing fanins from
   already-created nodes (guaranteeing acyclicity), with a locality bias so
   depth grows like a real netlist rather than collapsing into two levels.
   A final sweep retargets unread nodes into extra output cones so nothing
   dangles. *)
let random ~seed ~name profile =
  if profile.num_inputs < 2 then invalid_arg "Generator.random: need >= 2 inputs";
  if profile.num_outputs < 1 then invalid_arg "Generator.random: need >= 1 output";
  if profile.num_gates < profile.num_outputs then
    invalid_arg "Generator.random: need at least as many gates as outputs";
  let max_fanin = max 2 (min 5 profile.max_fanin) in
  let rng = Random.State.make [| seed; 0x9e3779b9 |] in
  let b = Circuit.Builder.create ~name () in
  let inputs =
    Array.init profile.num_inputs (fun i ->
        Circuit.Builder.input ~name:(Printf.sprintf "i%d" i) b)
  in
  let gates = Array.make profile.num_gates 0 in
  let pick_source upto =
    (* Prefer recent nodes: deepens the circuit. *)
    let pool = profile.num_inputs + upto in
    if upto > 0 && Random.State.float rng 1.0 < 0.7 then begin
      let window = max 1 (upto / 3) in
      let offset = Random.State.int rng window in
      gates.(upto - 1 - offset)
    end
    else begin
      let idx = Random.State.int rng pool in
      if idx < profile.num_inputs then inputs.(idx)
      else gates.(idx - profile.num_inputs)
    end
  in
  for g = 0 to profile.num_gates - 1 do
    let kind = pick_kind rng profile.and_bias in
    let fanin_count =
      match Gate.arity kind with
      | Some k -> k
      | None -> 2 + Random.State.int rng (max_fanin - 1)
    in
    let fanins = Array.make fanin_count 0 in
    let rec fill i attempts =
      if i < fanin_count then begin
        let src = pick_source g in
        (* Avoid duplicate fanins when the pool allows it. *)
        let dup = Array.exists (fun f -> f = src) (Array.sub fanins 0 i) in
        if dup && attempts < 8 then fill i (attempts + 1)
        else begin
          fanins.(i) <- src;
          fill (i + 1) 0
        end
      end
    in
    fill 0 0;
    gates.(g) <- Circuit.Builder.add ~name:(Printf.sprintf "g%d" g) b kind fanins
  done;
  (* Mark consumed nodes, then fold every unread gate and input into the
     output cones so that the circuit has no dead logic. *)
  let read = Hashtbl.create (profile.num_gates * 2) in
  Array.iter (fun g -> Array.iter (fun f -> Hashtbl.replace read f ()) (Circuit.Builder.peek_fanins b g)) gates;
  let unread =
    let from_inputs =
      Array.to_list inputs |> List.filter (fun id -> not (Hashtbl.mem read id))
    in
    let from_gates =
      Array.to_list gates |> List.filter (fun id -> not (Hashtbl.mem read id))
    in
    from_inputs @ from_gates
  in
  (* Choose output drivers: the last gates, with unread nodes XOR-folded in. *)
  let rec chunks k xs =
    if k <= 1 then [ xs ]
    else begin
      let len = List.length xs in
      let take = (len + k - 1) / k in
      let rec split i acc rest =
        if i = 0 then List.rev acc, rest
        else
          match rest with
          | [] -> List.rev acc, []
          | x :: tl -> split (i - 1) (x :: acc) tl
      in
      let first, rest = split take [] xs in
      first :: chunks (k - 1) rest
    end
  in
  let base_drivers =
    List.init profile.num_outputs (fun i ->
        gates.(profile.num_gates - 1 - (i mod profile.num_gates)))
  in
  let groups = chunks profile.num_outputs unread in
  List.iteri
    (fun i driver ->
      let extra = try List.nth groups i with Failure _ -> [] in
      let all = driver :: List.filter (fun x -> x <> driver) extra in
      let out_id =
        match all with
        | [ single ] -> single
        | several ->
          Circuit.Builder.add ~name:(Printf.sprintf "fold%d" i) b Gate.Xor
            (Array.of_list several)
      in
      Circuit.Builder.output b (Printf.sprintf "o%d" i) out_id)
    base_drivers;
  let c = Circuit.of_builder b in
  Circuit.validate c;
  c
