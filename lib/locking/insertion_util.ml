module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit

module Key_bag = struct
  type t = { builder : Circuit.Builder.t; mutable values : bool list (* reversed *) }

  let create builder = { builder; values = [] }

  let fresh bag correct_value =
    let id = Circuit.Builder.key_input bag.builder in
    bag.values <- correct_value :: bag.values;
    id

  let fresh_vector bag values = Array.map (fun v -> fresh bag v) values
  let correct_key bag = Array.of_list (List.rev bag.values)
end

module Reach = struct
  type t = { next : int array array; marks : Bytes.t; stack : int array }

  let create next =
    let n = Array.length next in
    { next; marks = Bytes.make n '\000'; stack = Array.make n 0 }

  let marked r id = Bytes.get r.marks id <> '\000'
  let clear r = Bytes.fill r.marks 0 (Bytes.length r.marks) '\000'

  (* Depth-first over [next], marking a node when it is pushed, so each
     node enters the stack at most once and the stack never overflows. *)
  let mark r start =
    if not (marked r start) then begin
      Bytes.set r.marks start '\001';
      r.stack.(0) <- start;
      let top = ref 1 in
      while !top > 0 do
        decr top;
        Array.iter
          (fun v ->
            if not (marked r v) then begin
              Bytes.set r.marks v '\001';
              r.stack.(!top) <- v;
              incr top
            end)
          r.next.(r.stack.(!top))
      done
    end
end

let lockable_gates c =
  let ids = ref [] in
  for id = Circuit.num_nodes c - 1 downto 0 do
    match (Circuit.node c id).Circuit.kind with
    | Gate.Input | Gate.Key_input | Gate.Const _ -> ()
    | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
    | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Lut _ ->
      ids := id :: !ids
  done;
  Array.of_list !ids

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let select_wires c rng ~count ~policy =
  let candidates = shuffle rng (lockable_gates c) in
  if Array.length candidates < count then
    invalid_arg "Insertion_util.select_wires: not enough gates";
  (* Reach marks over the wires chosen so far: [up] holds the nodes that
     reach a chosen wire, [down] the nodes a chosen wire reaches (a chosen
     wire is in both).  A candidate has a path to or from some chosen wire
     iff it is in either, so one test replaces a reach query per chosen
     wire, and choosing a wire extends both sets by one DFS each. *)
  let reach_sets () =
    (* Filled, not mapped: [Array.map] would start the array from the
       first fanin array, which a just-parsed host has in the minor heap. *)
    let fanins = Array.make (Circuit.num_nodes c) [||] in
    Array.iteri (fun id (nd : Circuit.node) -> fanins.(id) <- nd.Circuit.fanins) c.Circuit.nodes;
    Reach.create fanins, Reach.create (Circuit.fanouts c)
  in
  let related (up, down) id = Reach.marked up id || Reach.marked down id in
  let choose (up, down) id =
    Reach.mark up id;
    Reach.mark down id
  in
  match policy with
  | `Any -> Array.sub candidates 0 count
  | `Independent ->
    (* Greedy independent set (no path in either direction between any two
       chosen wires).  The greedy outcome is order-sensitive, so retry a few
       shuffles before concluding the circuit is too narrow. *)
    let ((up, down) as reach) = reach_sets () in
    let attempt order =
      Reach.clear up;
      Reach.clear down;
      let chosen = ref [] and n = ref 0 in
      Array.iter
        (fun id ->
          if !n < count && not (related reach id) then begin
            chosen := id :: !chosen;
            incr n;
            choose reach id
          end)
        order;
      if !n >= count then Some (Array.of_list (List.rev !chosen)) else None
    in
    let rec retry tries order =
      match attempt order with
      | Some wires -> wires
      | None ->
        if tries = 0 then
          invalid_arg
            (Printf.sprintf
               "Insertion_util.select_wires: could not find %d independent wires"
               count)
        else retry (tries - 1) (shuffle rng order)
    in
    retry 8 candidates
  | `Connected ->
    (* Seed with a random wire, then prefer wires connected (either
       direction) to the current set; fall back to arbitrary wires. *)
    let reach = reach_sets () in
    let picked = Bytes.make (Circuit.num_nodes c) '\000' in
    let chosen = ref [] and n = ref 0 in
    let pick id =
      chosen := id :: !chosen;
      incr n;
      Bytes.set picked id '\001'
    in
    pick candidates.(0);
    choose reach candidates.(0);
    let rest = Array.sub candidates 1 (Array.length candidates - 1) in
    Array.iter
      (fun id ->
        if !n < count && related reach id then begin
          pick id;
          choose reach id
        end)
      rest;
    Array.iter
      (fun id -> if !n < count && Bytes.get picked id = '\000' then pick id)
      rest;
    Array.of_list (List.rev !chosen)

module Pass = struct
  type t = {
    builder : Circuit.Builder.t;
    bag : Key_bag.t;
    drivers : int array;
    orig : Circuit.t;
  }

  let start ~name orig =
    let builder =
      Circuit.Builder.of_circuit ~name:(orig.Circuit.name ^ "-" ^ name) orig
    in
    {
      builder;
      bag = Key_bag.create builder;
      drivers = Array.map snd orig.Circuit.outputs;
      orig;
    }

  let builder p = p.builder
  let bag p = p.bag

  let snapshot p = Circuit.Builder.size p.builder

  let set_driver p ~output_index ~to_id = p.drivers.(output_index) <- to_id

  (* One scan for all pairs.  It equals redirecting the pairs one after
     another because no substitution feeds another: a wire listed twice
     keeps its first target, as the later redirect would find no reader,
     and every target is at or above [limit], so no rewired node or driver
     reads a wire that a later pair redirects.  Given the [readers], the
     scan visits them alone and looks targets up in [pairs] itself. *)
  let redirect_wires ?readers p ~limit pairs =
    let b = p.builder in
    Array.iter
      (fun (_, to_id) ->
        if to_id < limit then
          invalid_arg "Insertion_util.Pass.redirect_wires: target below limit")
      pairs;
    let target =
      match readers with
      | Some _ ->
        fun f ->
          let rec find i =
            if i = Array.length pairs then -1
            else if fst pairs.(i) = f then snd pairs.(i)
            else find (i + 1)
          in
          find 0
      | None ->
        let t = Array.make (Circuit.Builder.size b) (-1) in
        Array.iter (fun (f, to_id) -> if t.(f) < 0 then t.(f) <- to_id) pairs;
        Array.get t
    in
    let rewire id =
      let fanins = Circuit.Builder.peek_fanins b id in
      Array.exists (fun f -> target f >= 0) fanins
      && begin
        Circuit.Builder.set_fanins b id
          (Array.map (fun f -> if target f >= 0 then target f else f) fanins);
        true
      end
    in
    let rewired =
      match readers with
      | Some ids ->
        List.filter rewire
          (List.sort_uniq compare (List.filter (fun id -> id < limit) ids))
      | None ->
        let acc = ref [] in
        for id = limit - 1 downto 0 do
          if rewire id then acc := id :: !acc
        done;
        !acc
    in
    Array.iteri
      (fun i d -> if target d >= 0 then p.drivers.(i) <- target d)
      p.drivers;
    rewired

  let redirect_wire ?limit p ~from_id ~to_id =
    (* Nodes at or after [limit] belong to the block being inserted and read
       the original wire on purpose. *)
    let limit = Option.value ~default:to_id limit in
    ignore (redirect_wires p ~limit [| from_id, to_id |])

  let finish p ~scheme =
    Array.iteri
      (fun i (name, _) -> Circuit.Builder.output p.builder name p.drivers.(i))
      p.orig.Circuit.outputs;
    {
      Locked.locked = Circuit.of_builder p.builder;
      oracle = p.orig;
      correct_key = Key_bag.correct_key p.bag;
      scheme;
    }
end

let keyed_lut b bag ~addr ~truth_table =
  let k = Array.length addr in
  if Array.length truth_table <> 1 lsl k then
    invalid_arg "Insertion_util.keyed_lut: table size mismatch";
  let leaves = Key_bag.fresh_vector bag truth_table in
  (* Reduce pairs (2i, 2i+1) selecting on addr.(level): leaves are LSB-first,
     so adjacent entries differ in address bit [level]. *)
  let rec reduce values level =
    match Array.length values with
    | 1 -> values.(0)
    | len ->
      let half = len / 2 in
      let next =
        Array.init half (fun i ->
            Circuit.Builder.add b Gate.Mux
              [| addr.(level); values.(2 * i); values.((2 * i) + 1) |])
      in
      reduce next (level + 1)
  in
  reduce leaves 0
