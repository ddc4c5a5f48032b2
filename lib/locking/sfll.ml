module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Pass = Insertion_util.Pass

(* Combinational "exactly [h] of [bits] are 1", built by the dynamic
   programming recurrence E(i,j) = (~b_i & E(i-1,j)) | (b_i & E(i-1,j-1)).
   O(w*h) two-input gates. *)
let exactly b ~bits ~h =
  let w = Array.length bits in
  let const v = Circuit.Builder.add b (Gate.Const v) [||] in
  (* row.(j) = E(i, j) for the current i; only 0..h tracked. *)
  let row = Array.make (h + 1) (const false) in
  row.(0) <- const true;
  for i = 0 to w - 1 do
    let d = bits.(i) in
    let nd = Circuit.Builder.add b Gate.Not [| d |] in
    let prev = Array.copy row in
    for j = 0 to h do
      let keep = Circuit.Builder.add b Gate.And [| nd; prev.(j) |] in
      row.(j) <-
        (if j = 0 then keep
         else begin
           let take = Circuit.Builder.add b Gate.And [| d; prev.(j - 1) |] in
           Circuit.Builder.add b Gate.Or [| keep; take |]
         end)
    done
  done;
  row.(h)

let lock rng ~key_bits ~h orig =
  let width = min key_bits (Circuit.num_inputs orig) in
  if width < 1 then invalid_arg "Sfll.lock: need at least one input";
  if h < 0 || h > width then invalid_arg "Sfll.lock: h out of range";
  let p = Pass.start ~name:"sfll" orig in
  let b = Pass.builder p in
  let secret = Array.init width (fun _ -> Random.State.bool rng) in
  let keys = Insertion_util.Key_bag.fresh_vector (Pass.bag p) secret in
  let inputs = Array.sub orig.Circuit.inputs 0 width in
  (* Strip: HD(x, secret) = h with the secret hard-wired — this is the
     functionality removed from the shipped netlist. *)
  let strip_bits =
    Array.init width (fun i ->
        let c = Circuit.Builder.add b (Gate.Const secret.(i)) [||] in
        Circuit.Builder.add b Gate.Xor [| inputs.(i); c |])
  in
  let strip = exactly b ~bits:strip_bits ~h in
  (* Restore: HD(x, key) = h with the applied key. *)
  let restore_bits =
    Array.init width (fun i -> Circuit.Builder.add b Gate.Xor [| inputs.(i); keys.(i) |])
  in
  let restore = exactly b ~bits:restore_bits ~h in
  let _, first_out = orig.Circuit.outputs.(0) in
  let flipped = Circuit.Builder.add b Gate.Xor [| first_out; strip; restore |] in
  Pass.set_driver p ~output_index:0 ~to_id:flipped;
  Pass.finish p ~scheme:"sfll-hd"
