module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Pass = Insertion_util.Pass

let lock rng ~cycles orig =
  if cycles < 1 then invalid_arg "Cyclic_lock.lock: need cycles >= 1";
  let candidates = Insertion_util.lockable_gates orig in
  if Array.length candidates < 2 then
    invalid_arg "Cyclic_lock.lock: circuit too small";
  let p = Pass.start ~name:"cyclic" orig in
  let b = Pass.builder p in
  let inserted = ref 0 in
  let attempts = ref 0 in
  let reached = Insertion_util.Reach.create (Circuit.fanouts orig) in
  (* Pick (w, d) with d strictly downstream of w so selecting d closes a
     real loop through the MUX. *)
  while !inserted < cycles && !attempts < 40 * cycles do
    incr attempts;
    let w = candidates.(Random.State.int rng (Array.length candidates)) in
    Insertion_util.Reach.clear reached;
    Insertion_util.Reach.mark reached w;
    let downstream =
      Array.to_list candidates
      |> List.filter (fun d -> d <> w && Insertion_util.Reach.marked reached d)
    in
    match downstream with
    | [] -> ()
    | ds ->
      let d = List.nth ds (Random.State.int rng (List.length ds)) in
      let k = Insertion_util.Key_bag.fresh (Pass.bag p) false in
      let limit = Pass.snapshot p in
      (* key = 0 selects the true wire; key = 1 closes the loop. *)
      let m = Circuit.Builder.add b Gate.Mux [| k; w; d |] in
      Pass.redirect_wire ~limit p ~from_id:w ~to_id:m;
      incr inserted
  done;
  if !inserted < cycles then
    invalid_arg "Cyclic_lock.lock: not enough connected wire pairs";
  Pass.finish p ~scheme:"cyclic-lock"
