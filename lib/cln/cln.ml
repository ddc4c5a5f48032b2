module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit

type inverter_placement = No_inverters | Outputs_only | Per_stage

type spec = {
  n : int;
  topology : Topology.kind;
  style : Switch_box.style;
  inverters : inverter_placement;
  planes : int;
}

let default_spec ~n =
  {
    n;
    topology = Topology.Near_non_blocking;
    style = Switch_box.Independent;
    inverters = Outputs_only;
    planes = 1;
  }

let blocking_spec ~n =
  {
    n;
    topology = Topology.Omega;
    style = Switch_box.Independent;
    inverters = Outputs_only;
    planes = 1;
  }

let log_nmp_spec ~n ~m ~p =
  {
    n;
    topology = Topology.Log_extra m;
    style = Switch_box.Independent;
    inverters = Outputs_only;
    planes = p;
  }

let check_spec spec =
  if spec.planes < 1 then invalid_arg "Cln: planes must be >= 1";
  if spec.planes > 1 && spec.inverters = Per_stage then
    invalid_arg "Cln: per-stage inverters are only supported with a single plane"

let ceil_log2 v =
  let rec go k m = if m >= v then k else go (k + 1) (m * 2) in
  go 0 1

(* Select bits consumed per output when picking among the planes. *)
let select_bits spec = if spec.planes = 1 then 0 else max 1 (ceil_log2 spec.planes)

let topology spec = Topology.make spec.topology ~n:spec.n

let num_switch_boxes spec =
  spec.planes * Topology.num_switch_boxes (topology spec)

let num_key_bits spec =
  check_spec spec;
  let topo = topology spec in
  let plane_switch_bits =
    Topology.num_switch_boxes topo * Switch_box.key_bits spec.style
  in
  let plane_inverter_bits =
    match spec.inverters with
    | Per_stage -> topo.Topology.switch_layers * spec.n
    | No_inverters | Outputs_only -> 0
  in
  let output_inverter_bits =
    match spec.inverters with Outputs_only -> spec.n | No_inverters | Per_stage -> 0
  in
  (spec.planes * (plane_switch_bits + plane_inverter_bits))
  + (spec.n * select_bits spec)
  + output_inverter_bits

(* The single traversal [build], [decode] and the key generators all use, so
   their key-bit consumption order can never diverge.  Key layout: per-plane
   switch (and per-stage inverter) bits in plane order, then the per-output
   plane-select bits, then the output inverter bits.  [switch ~kidx a b]
   consumes [Switch_box.key_bits style] bits starting at [kidx];
   [select ~kidx choices] consumes [select_bits spec]; [invert ~kidx v]
   consumes one. *)
let traverse spec values ~switch ~invert ~select =
  check_spec spec;
  let topo = topology spec in
  let bits_per_box = Switch_box.key_bits spec.style in
  let kctr = ref 0 in
  let take n =
    let i = !kctr in
    kctr := i + n;
    i
  in
  let run_plane () =
    let current = ref (Array.copy values) in
    let invert_all () =
      current := Array.map (fun v -> invert ~kidx:(take 1) v) !current
    in
    List.iter
      (fun layer ->
        match layer with
        | Topology.Route r -> current := Array.map (fun src -> !current.(src)) r
        | Topology.Switch ->
          let next = Array.copy !current in
          for box = 0 to (spec.n / 2) - 1 do
            let a = !current.(2 * box) and b = !current.((2 * box) + 1) in
            let kidx = take bits_per_box in
            let a', b' = switch ~kidx a b in
            next.(2 * box) <- a';
            next.((2 * box) + 1) <- b'
          done;
          current := next;
          (match spec.inverters with
           | Per_stage -> invert_all ()
           | No_inverters | Outputs_only -> ()))
      topo.Topology.layers;
    !current
  in
  let plane_outputs = Array.init spec.planes (fun _ -> run_plane ()) in
  let selected =
    if spec.planes = 1 then plane_outputs.(0)
    else
      Array.init spec.n (fun j ->
          let kidx = take (select_bits spec) in
          select ~kidx (Array.map (fun plane -> plane.(j)) plane_outputs))
  in
  let final =
    match spec.inverters with
    | Outputs_only -> Array.map (fun v -> invert ~kidx:(take 1) v) selected
    | No_inverters | Per_stage -> selected
  in
  final, !kctr

type action = { source : int array; inverted : bool array }

let decode spec ~key =
  if Array.length key <> num_key_bits spec then
    invalid_arg "Cln.decode: key length mismatch";
  let start = Array.init spec.n (fun i -> i, false) in
  let bits_per_box = Switch_box.key_bits spec.style in
  let sel_bits = select_bits spec in
  let result, consumed =
    traverse spec start
      ~switch:(fun ~kidx a b ->
        Switch_box.decode spec.style (Array.sub key kidx bits_per_box) (a, b))
      ~select:(fun ~kidx choices ->
        let index = ref 0 in
        for b = sel_bits - 1 downto 0 do
          index := (!index lsl 1) lor (if key.(kidx + b) then 1 else 0)
        done;
        (* Padding planes in the selection tree replicate plane 0. *)
        if !index < Array.length choices then choices.(!index) else choices.(0))
      ~invert:(fun ~kidx (src, inv) -> if key.(kidx) then src, not inv else src, inv)
  in
  assert (consumed = Array.length key);
  { source = Array.map fst result; inverted = Array.map snd result }

let is_permutation action =
  let n = Array.length action.source in
  let seen = Array.make n false in
  Array.for_all
    (fun src ->
      if seen.(src) then false
      else begin
        seen.(src) <- true;
        true
      end)
    action.source

let random_routable_key spec rng =
  let key = Array.make (num_key_bits spec) false in
  let dummy = Array.make spec.n () in
  (* All outputs select the same plane, so the combined action is that
     plane's permutation; the other planes carry decoy configurations. *)
  let chosen_plane =
    if spec.planes = 1 then 0 else Random.State.int rng spec.planes
  in
  let sel_bits = select_bits spec in
  let _, consumed =
    traverse spec dummy
      ~switch:(fun ~kidx () () ->
        let cfg = Switch_box.config_for_swap spec.style ~swap:(Random.State.bool rng) in
        Array.blit cfg 0 key kidx (Array.length cfg);
        (), ())
      ~select:(fun ~kidx _choices ->
        for b = 0 to sel_bits - 1 do
          key.(kidx + b) <- chosen_plane land (1 lsl b) <> 0
        done)
      ~invert:(fun ~kidx () ->
        key.(kidx) <- Random.State.bool rng;
        ())
  in
  assert (consumed = Array.length key);
  key

let key_for_identity spec = Array.make (num_key_bits spec) false

(* The key positions that control inverters, in traversal order.  With
   [Per_stage] placement they are interleaved with the switch-box bits. *)
let inverter_bit_indices spec =
  let acc = ref [] in
  let dummy = Array.make spec.n () in
  let _, _ =
    traverse spec dummy
      ~switch:(fun ~kidx:_ () () -> (), ())
      ~select:(fun ~kidx:_ _ -> ())
      ~invert:(fun ~kidx () -> acc := kidx :: !acc)
  in
  List.rev !acc

let set_inversions spec key ~inverted =
  if Array.length inverted <> spec.n then
    invalid_arg "Cln.set_inversions: pattern length mismatch";
  let mismatches () =
    let action = decode spec ~key in
    let count = ref 0 in
    Array.iteri
      (fun j inv -> if inv <> inverted.(j) then incr count)
      action.inverted;
    !count
  in
  let current = ref (mismatches ()) in
  List.iter
    (fun idx ->
      if !current > 0 then begin
        key.(idx) <- not key.(idx);
        let after = mismatches () in
        if after < !current then current := after else key.(idx) <- not key.(idx)
      end)
    (inverter_bit_indices spec);
  if !current > 0 then
    invalid_arg "Cln.set_inversions: not enough inverters to realise the pattern"

let key_of_swaps spec swaps =
  if spec.planes <> 1 then
    invalid_arg "Cln.key_of_swaps: single-plane networks only";
  if Array.length swaps <> num_switch_boxes spec then
    invalid_arg "Cln.key_of_swaps: need one swap bit per switch-box";
  let key = Array.make (num_key_bits spec) false in
  let box = ref 0 in
  let dummy = Array.make spec.n () in
  let _, _ =
    traverse spec dummy
      ~switch:(fun ~kidx () () ->
        let cfg = Switch_box.config_for_swap spec.style ~swap:swaps.(!box) in
        incr box;
        Array.blit cfg 0 key kidx (Array.length cfg);
        (), ())
      ~select:(fun ~kidx:_ _ -> ())
      ~invert:(fun ~kidx:_ () -> ())
  in
  key

let build spec builder ~inputs ~keys =
  if Array.length inputs <> spec.n then invalid_arg "Cln.build: need n input wires";
  if Array.length keys <> num_key_bits spec then
    invalid_arg "Cln.build: key id count mismatch";
  let bits_per_box = Switch_box.key_bits spec.style in
  let sel_bits = select_bits spec in
  (* Plane selection: a MUX tree over the plane outputs, padded with plane 0
     (matching decode's convention). *)
  let mux_tree select_ids data =
    let padded_len = 1 lsl sel_bits in
    let padded =
      Array.init padded_len (fun i ->
          if i < Array.length data then data.(i) else data.(0))
    in
    let rec reduce values level =
      match Array.length values with
      | 1 -> values.(0)
      | len ->
        let next =
          Array.init (len / 2) (fun i ->
              Circuit.Builder.add builder Gate.Mux
                [| select_ids.(level); values.(2 * i); values.((2 * i) + 1) |])
        in
        reduce next (level + 1)
    in
    reduce padded 0
  in
  let outputs, consumed =
    traverse spec inputs
      ~switch:(fun ~kidx a b ->
        Switch_box.build spec.style builder
          ~key_ids:(Array.sub keys kidx bits_per_box)
          ~a ~b)
      ~select:(fun ~kidx choices ->
        mux_tree (Array.sub keys kidx sel_bits) choices)
      ~invert:(fun ~kidx wire ->
        Circuit.Builder.add builder Gate.Xor [| wire; keys.(kidx) |])
  in
  assert (consumed = Array.length keys);
  outputs

let standalone ?name spec =
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "cln-%s-%d" (Topology.kind_to_string spec.topology) spec.n
  in
  let b = Circuit.Builder.create ~name () in
  let inputs =
    Array.init spec.n (fun i -> Circuit.Builder.input ~name:(Printf.sprintf "x%d" i) b)
  in
  let keys =
    Array.init (num_key_bits spec) (fun i ->
        Circuit.Builder.key_input ~name:(Printf.sprintf "keyinput%d" i) b)
  in
  let outputs = build spec b ~inputs ~keys in
  Array.iteri
    (fun i out -> Circuit.Builder.output b (Printf.sprintf "y%d" i) out)
    outputs;
  Circuit.of_builder b

let apply_action action values =
  Array.mapi (fun j src -> values.(src) <> action.inverted.(j)) action.source

let pp_spec fmt spec =
  Format.fprintf fmt "CLN n=%d %s boxes=%s inverters=%s (%d SwB, %d key bits)"
    spec.n
    (Topology.kind_to_string spec.topology)
    (Switch_box.style_to_string spec.style)
    (match spec.inverters with
     | No_inverters -> "none"
     | Outputs_only -> "outputs"
     | Per_stage -> "per-stage")
    (num_switch_boxes spec) (num_key_bits spec)
