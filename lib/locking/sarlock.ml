module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Pass = Insertion_util.Pass

let lock rng ~key_bits orig =
  let width = min key_bits (Circuit.num_inputs orig) in
  if width < 1 then invalid_arg "Sarlock.lock: need at least one input";
  let p = Pass.start ~name:"sarlock" orig in
  let b = Pass.builder p in
  let secret = Array.init width (fun _ -> Random.State.bool rng) in
  let keys = Insertion_util.Key_bag.fresh_vector (Pass.bag p) secret in
  let inputs = Array.sub orig.Circuit.inputs 0 width in
  (* match_i = x_i XNOR k_i; cmp = AND match_i  (x equals applied key) *)
  let matches =
    Array.init width (fun i -> Circuit.Builder.add b Gate.Xnor [| inputs.(i); keys.(i) |])
  in
  let cmp =
    if width = 1 then matches.(0) else Circuit.Builder.add b Gate.And matches
  in
  (* wrong_i = k_i XOR secret_i (secret hardwired); wrong = OR wrong_i *)
  let consts =
    Array.map (fun bit -> Circuit.Builder.add b (Gate.Const bit) [||]) secret
  in
  let wrongs =
    Array.init width (fun i -> Circuit.Builder.add b Gate.Xor [| keys.(i); consts.(i) |])
  in
  let wrong =
    if width = 1 then wrongs.(0) else Circuit.Builder.add b Gate.Or wrongs
  in
  let flip = Circuit.Builder.add b Gate.And [| cmp; wrong |] in
  (* XOR the flip into the first output port only: the point function must
     not leak into internal logic, or the one-key-per-DIP property breaks. *)
  let _, first_out = orig.Circuit.outputs.(0) in
  let flipped = Circuit.Builder.add b Gate.Xor [| first_out; flip |] in
  Pass.set_driver p ~output_index:0 ~to_id:flipped;
  Pass.finish p ~scheme:"sarlock"
