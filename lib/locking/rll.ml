module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Pass = Insertion_util.Pass

let lock rng ~key_bits orig =
  let p = Pass.start ~name:"rll" orig in
  let b = Pass.builder p in
  let wires = Insertion_util.select_wires orig rng ~count:key_bits ~policy:`Any in
  Array.iter
    (fun w ->
      let use_xnor = Random.State.bool rng in
      let k = Insertion_util.Key_bag.fresh (Pass.bag p) use_xnor in
      let limit = Pass.snapshot p in
      let kind = if use_xnor then Gate.Xnor else Gate.Xor in
      let g = Circuit.Builder.add b kind [| w; k |] in
      Pass.redirect_wire ~limit p ~from_id:w ~to_id:g)
    wires;
  Pass.finish p ~scheme:"rll"
