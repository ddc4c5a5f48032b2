module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Pass = Insertion_util.Pass

(* [fanout_cone b src] marks the builder nodes that [src] reaches,
   [src] included. *)
let fanout_cone b src =
  let size = Circuit.Builder.size b in
  let fanouts = Array.make size [] in
  for u = 0 to size - 1 do
    Array.iter (fun f -> fanouts.(f) <- u :: fanouts.(f)) (Circuit.Builder.peek_fanins b u)
  done;
  let seen = Array.make size false in
  let rec visit u =
    if not seen.(u) then begin
      seen.(u) <- true;
      List.iter visit fanouts.(u)
    end
  in
  visit src;
  seen

let lock rng ~key_bits orig =
  let p = Pass.start ~name:"mux" orig in
  let b = Pass.builder p in
  let wires = Insertion_util.select_wires orig rng ~count:key_bits ~policy:`Any in
  let num_nodes = Circuit.num_nodes orig in
  Array.iter
    (fun w ->
      (* Decoy: any original node that [w] does not reach in the circuit as
         modified so far, so MUX insertion cannot close a cycle.  The MUX
         feeds the decoy into the consumers of [w], which closes a cycle
         exactly when [w] reaches the decoy; earlier MUXes have added edges
         of their own, so the original circuit's fanout is not enough. *)
      let reached = fanout_cone b (Pass.wire p w) in
      let decoys = ref [] in
      for id = 0 to num_nodes - 1 do
        match (Circuit.node orig id).Circuit.kind with
        | Gate.Key_input | Gate.Const _ -> ()
        | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or
        | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Lut _ ->
          if not reached.(Pass.wire p id) then decoys := id :: !decoys
      done;
      match !decoys with
      | [] -> ()  (* no safe decoy for this wire; skip it *)
      | ds ->
        let decoy = List.nth ds (Random.State.int rng (List.length ds)) in
        let mw = Pass.wire p w and md = Pass.wire p decoy in
        let true_on_one = Random.State.bool rng in
        let k = Insertion_util.Key_bag.fresh (Pass.bag p) true_on_one in
        let limit = Pass.snapshot p in
        let fanins = if true_on_one then [| k; md; mw |] else [| k; mw; md |] in
        let m = Circuit.Builder.add b Gate.Mux fanins in
        Pass.redirect_wire ~limit p ~from_id:mw ~to_id:m)
    wires;
  Pass.finish p ~scheme:"mux-lock"
