module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Pass = Insertion_util.Pass

let lock rng ~key_bits orig =
  let width = min (max 1 (key_bits / 2)) (Circuit.num_inputs orig) in
  let p = Pass.start ~name:"antisat" orig in
  let b = Pass.builder p in
  let secret = Array.init width (fun _ -> Random.State.bool rng) in
  (* Correct key: K1 = K2 (both equal to [secret]). *)
  let k1 = Insertion_util.Key_bag.fresh_vector (Pass.bag p) secret in
  let k2 = Insertion_util.Key_bag.fresh_vector (Pass.bag p) secret in
  let inputs = Array.sub orig.Circuit.inputs 0 width in
  let xor_layer keys =
    Array.init width (fun i -> Circuit.Builder.add b Gate.Xor [| inputs.(i); keys.(i) |])
  in
  let and_tree wires =
    if width = 1 then wires.(0) else Circuit.Builder.add b Gate.And wires
  in
  let g1 = and_tree (xor_layer k1) in
  let g2 = and_tree (xor_layer k2) in
  let not_g2 = Circuit.Builder.add b Gate.Not [| g2 |] in
  let flip = Circuit.Builder.add b Gate.And [| g1; not_g2 |] in
  let _, first_out = orig.Circuit.outputs.(0) in
  let flipped = Circuit.Builder.add b Gate.Xor [| first_out; flip |] in
  Pass.set_driver p ~output_index:0 ~to_id:flipped;
  Pass.finish p ~scheme:"anti-sat"
