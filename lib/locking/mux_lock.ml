module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Pass = Insertion_util.Pass

let lock rng ~key_bits orig =
  let p = Pass.start ~name:"mux" orig in
  let b = Pass.builder p in
  let wires = Insertion_util.select_wires orig rng ~count:key_bits ~policy:`Any in
  let num_nodes = Circuit.num_nodes orig in
  (* The builder's fanout lists, kept up to date as each MUX goes in.  A
     key bit adds a key input and a MUX, so the builder never outgrows
     [capacity]. *)
  let capacity = Circuit.Builder.size b + (2 * Array.length wires) in
  let fanouts = Array.make capacity [] in
  for u = 0 to Circuit.Builder.size b - 1 do
    Array.iter
      (fun f -> fanouts.(f) <- u :: fanouts.(f))
      (Circuit.Builder.peek_fanins b u)
  done;
  (* [reach src] marks the builder nodes that [src] reaches, [src]
     included. *)
  let reached = Bytes.make capacity '\000' and stack = Array.make capacity 0 in
  let reach src =
    Bytes.fill reached 0 capacity '\000';
    Bytes.set reached src '\001';
    stack.(0) <- src;
    let top = ref 1 in
    while !top > 0 do
      decr top;
      List.iter
        (fun v ->
          if Bytes.get reached v = '\000' then begin
            Bytes.set reached v '\001';
            stack.(!top) <- v;
            incr top
          end)
        fanouts.(stack.(!top))
    done
  in
  (* Decoy candidates: any original node but key inputs and constants
     that the wire does not reach. *)
  let decoy_ok id =
    match (Circuit.node orig id).Circuit.kind with
    | Gate.Key_input | Gate.Const _ -> false
    | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or
    | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Lut _ ->
      Bytes.get reached id = '\000'
  in
  Array.iter
    (fun w ->
      (* Decoy: any original node that [w] does not reach in the circuit as
         modified so far, so MUX insertion cannot close a cycle.  The MUX
         feeds the decoy into the consumers of [w], which closes a cycle
         exactly when [w] reaches the decoy; earlier MUXes have added edges
         of their own, so the original circuit's fanout is not enough. *)
      reach w;
      let candidates = ref 0 in
      for id = 0 to num_nodes - 1 do
        if decoy_ok id then incr candidates
      done;
      if !candidates > 0 then begin
        (* The [r]-th candidate counting down from the highest id. *)
        let r = ref (Random.State.int rng !candidates) and decoy = ref num_nodes in
        while !r >= 0 do
          decr decoy;
          if decoy_ok !decoy then decr r
        done;
        let true_on_one = Random.State.bool rng in
        let k = Insertion_util.Key_bag.fresh (Pass.bag p) true_on_one in
        let limit = Pass.snapshot p in
        let fanins = if true_on_one then [| k; !decoy; w |] else [| k; w; !decoy |] in
        let m = Circuit.Builder.add b Gate.Mux fanins in
        (* Every reader of [w] below [limit] now reads [m]; the MUX is
           [w]'s only reader left.  [w]'s fanout list names those readers,
           so the redirect visits them alone. *)
        fanouts.(m) <-
          Pass.redirect_wires ~readers:fanouts.(w) p ~limit [| w, m |];
        fanouts.(w) <- [ m ];
        fanouts.(!decoy) <- m :: fanouts.(!decoy);
        fanouts.(k) <- [ m ]
      end)
    wires;
  Pass.finish p ~scheme:"mux-lock"
