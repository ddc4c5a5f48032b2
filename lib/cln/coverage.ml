type report = {
  spec : Cln.spec;
  distinct_permutations : int;
  total_permutations : int;
  keys_examined : int;
  exhaustive : bool;
}

let factorial n =
  let rec go acc i = if i > n then acc else go (acc * i) (i + 1) in
  if n > 20 then max_int else go 1 2

let measure ?(max_keys = 1 lsl 20) spec =
  if spec.Cln.planes <> 1 then
    invalid_arg "Coverage.measure: single-plane networks only";
  let boxes = Cln.num_switch_boxes spec in
  let space = if boxes >= 62 then max_int else 1 lsl boxes in
  let exhaustive = space <= max_keys in
  let keys_examined = if exhaustive then space else max_keys in
  let seen = Hashtbl.create 4096 in
  let rng = Random.State.make [| 0x5eed; boxes |] in
  let swaps = Array.make boxes false in
  for trial = 0 to keys_examined - 1 do
    if exhaustive then
      for b = 0 to boxes - 1 do
        swaps.(b) <- trial land (1 lsl b) <> 0
      done
    else
      for b = 0 to boxes - 1 do
        swaps.(b) <- Random.State.bool rng
      done;
    let key = Cln.key_of_swaps spec swaps in
    let action = Cln.decode spec ~key in
    Hashtbl.replace seen (Array.to_list action.Cln.source) ()
  done;
  {
    spec;
    distinct_permutations = Hashtbl.length seen;
    total_permutations = factorial spec.Cln.n;
    keys_examined;
    exhaustive;
  }

let coverage_fraction r =
  float_of_int r.distinct_permutations /. float_of_int r.total_permutations

(* Backtracking router with reachability pruning.  Works on the swap-only
   configuration space (box = pass | exchange), which is what lock
   generation uses.  On success the per-box swap choices are recorded in
   [swaps] (traversal order, matching {!Cln.key_of_swaps}). *)
let search_permutation spec perm swaps =
  if spec.Cln.planes <> 1 then
    invalid_arg "Coverage: routing analysis supports single-plane networks only";
  let topo = Cln.topology spec in
  let n = spec.Cln.n in
  if n > 62 then invalid_arg "Coverage.routes_permutation: n too large";
  if Array.length perm <> n then invalid_arg "Coverage.routes_permutation: bad permutation";
  (* target.(i) = output position that must receive input i. *)
  let target = Array.make n (-1) in
  Array.iteri
    (fun j src ->
      if src < 0 || src >= n || target.(src) >= 0 then
        invalid_arg "Coverage.routes_permutation: not a permutation";
      target.(src) <- j)
    perm;
  let layers = Array.of_list topo.Topology.layers in
  let num_layers = Array.length layers in
  (* reach.(l).(p): bitmask of final outputs reachable from position p just
     before layer l. reach.(num_layers) is the identity. *)
  let reach = Array.make_matrix (num_layers + 1) n 0 in
  for p = 0 to n - 1 do
    reach.(num_layers).(p) <- 1 lsl p
  done;
  for l = num_layers - 1 downto 0 do
    (match layers.(l) with
     | Topology.Route r ->
       (* after: value at i came from before-position r.(i) *)
       for i = 0 to n - 1 do
         reach.(l).(r.(i)) <- reach.(l).(r.(i)) lor reach.(l + 1).(i)
       done
     | Topology.Switch ->
       for box = 0 to (n / 2) - 1 do
         let m = reach.(l + 1).(2 * box) lor reach.(l + 1).((2 * box) + 1) in
         reach.(l).(2 * box) <- m;
         reach.(l).((2 * box) + 1) <- m
       done)
  done;
  let ok_at l p src = reach.(l).(p) land (1 lsl target.(src)) <> 0 in
  (* Ordinal of each Switch layer (for the swap-vector layout). *)
  let switch_ordinal = Array.make num_layers 0 in
  let counter = ref 0 in
  Array.iteri
    (fun l layer ->
      match layer with
      | Topology.Switch ->
        switch_ordinal.(l) <- !counter;
        incr counter
      | Topology.Route _ -> ())
    layers;
  (* DFS over layers; state = array of input indices at current positions. *)
  let rec go l state =
    if l = num_layers then Array.for_all2 (fun p src -> target.(src) = p) (Array.init n (fun i -> i)) state
    else
      match layers.(l) with
      | Topology.Route r ->
        let next = Array.map (fun srcpos -> state.(srcpos)) r in
        let feasible = ref true in
        Array.iteri (fun p src -> if not (ok_at (l + 1) p src) then feasible := false) next;
        !feasible && go (l + 1) next
      | Topology.Switch ->
        (* Choose pass/exchange per box with pruning, box by box. *)
        let next = Array.copy state in
        let base = switch_ordinal.(l) * (n / 2) in
        let rec boxes b =
          if b = n / 2 then go (l + 1) next
          else begin
            let a = state.(2 * b) and c = state.((2 * b) + 1) in
            let try_cfg x y swap =
              if ok_at (l + 1) (2 * b) x && ok_at (l + 1) ((2 * b) + 1) y then begin
                next.(2 * b) <- x;
                next.((2 * b) + 1) <- y;
                swaps.(base + b) <- swap;
                boxes (b + 1)
              end
              else false
            in
            try_cfg a c false || try_cfg c a true
          end
        in
        boxes 0
  in
  go 0 (Array.init n (fun i -> i))

let routes_permutation spec perm =
  let swaps = Array.make (Cln.num_switch_boxes spec) false in
  search_permutation spec perm swaps

let route spec ?inverted perm =
  let swaps = Array.make (Cln.num_switch_boxes spec) false in
  if not (search_permutation spec perm swaps) then None
  else begin
    let key = Cln.key_of_swaps spec swaps in
    (match inverted with
     | None -> ()
     | Some pattern -> Cln.set_inversions spec key ~inverted:pattern);
    Some key
  end
