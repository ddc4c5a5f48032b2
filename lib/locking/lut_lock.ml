module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Pass = Insertion_util.Pass

(* Replace gate [gid] in place: build a keyed LUT over the gate's fanins,
   then demote the gate to a BUF of the LUT output.  Keeping the node id
   intact preserves all consumer edges. *)
let lutify p gid =
  let b = Pass.builder p in
  let kind = Circuit.Builder.kind_of b gid in
  let fanins = Circuit.Builder.peek_fanins b gid in
  let truth_table = Gate.truth_table kind ~arity:(Array.length fanins) in
  let lut = Insertion_util.keyed_lut b (Pass.bag p) ~addr:fanins ~truth_table in
  Circuit.Builder.replace b gid Gate.Buf [| lut |]

let replaceable ?(max_fanin = 4) c id =
  let nd = Circuit.node c id in
  match nd.Circuit.kind with
  | Gate.Input | Gate.Key_input | Gate.Const _ -> false
  | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor
  | Gate.Xnor | Gate.Mux | Gate.Lut _ ->
    let a = Array.length nd.Circuit.fanins in
    a >= 1 && a <= max_fanin

let lock ?(max_fanin = 4) rng ~gates orig =
  let candidates =
    Insertion_util.lockable_gates orig
    |> Array.to_list
    |> List.filter (replaceable ~max_fanin orig)
    |> Array.of_list
  in
  if Array.length candidates < gates then
    invalid_arg "Lut_lock.lock: not enough low-fanin gates";
  (* Shuffle and take the first [gates]. *)
  let order = Array.init (Array.length candidates) (fun i -> i) in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let p = Pass.start ~name:"lutlock" orig in
  for i = 0 to gates - 1 do
    lutify p candidates.(order.(i))
  done;
  Pass.finish p ~scheme:"lut-lock"
