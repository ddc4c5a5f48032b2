module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Cln = Fl_cln.Cln
module Locked = Fl_locking.Locked
module Util = Fl_locking.Insertion_util
module Pass = Util.Pass

type config = {
  cln : Cln.spec;
  lut_layer : bool;
  negate_leading : bool;
  max_lut_inputs : int;
}

let default_config ~n =
  { cln = Cln.default_spec ~n; lut_layer = true; negate_leading = true; max_lut_inputs = 5 }

let blocking_config ~n = { (default_config ~n) with cln = Cln.blocking_spec ~n }

let cln_key_bits config = Cln.num_key_bits config.cln

type insertion_policy = [ `Acyclic | `Cyclic ]

(* Insert one PLR over a wire group. *)
let insert_plr p rng config (wires : int array) =
  let b = Pass.builder p in
  let n = config.cln.Cln.n in
  assert (Array.length wires = n);
  (* 1. Twist: negate some leading gates. *)
  let inv_lead = Array.make n false in
  if config.negate_leading then
    Array.iteri
      (fun i mid ->
        let kind = Circuit.Builder.kind_of b mid in
        if Gate.is_negatable kind && Random.State.bool rng then begin
          Circuit.Builder.set_kind b mid (Gate.negate kind);
          inv_lead.(i) <- true
        end)
      wires;
  (* 2. CLN key: random routable permutation, inverters set to compensate
     the negations. *)
  let key = Cln.random_routable_key config.cln rng in
  let action = Cln.decode config.cln ~key in
  let needed = Array.map (fun src -> inv_lead.(src)) action.Cln.source in
  (try Cln.set_inversions config.cln key ~inverted:needed
   with Invalid_argument _ ->
     invalid_arg "Fulllock: could not compensate leading-gate negations");
  let action = Cln.decode config.cln ~key in
  assert (Array.for_all2 (fun a b -> a = b) action.Cln.inverted
            (Array.map (fun src -> inv_lead.(src)) action.Cln.source));
  (* 3. Build the CLN. *)
  let key_ids = Util.Key_bag.fresh_vector (Pass.bag p) key in
  let barrier = Pass.snapshot p in
  let outs = Cln.build config.cln b ~inputs:wires ~keys:key_ids in
  (* 4. Rewire every consumer of wire source(j) to CLN output j, in one
     pass.  The rewired nodes are exactly the gates below the barrier that
     now read a CLN output. *)
  let rewired =
    Pass.redirect_wires p ~limit:barrier
      (Array.mapi (fun j out -> wires.(action.Cln.source.(j)), out) outs)
  in
  (* 5. LUT layer: gates now reading CLN outputs become keyed LUTs.  The
     table's iteration order fixes the keyed-LUT node ids and key order,
     so it is filled in ascending id order. *)
  if config.lut_layer then begin
    let consumers = Hashtbl.create 16 in
    List.iter (fun id -> Hashtbl.replace consumers id ()) rewired;
    Hashtbl.iter
      (fun gid () ->
        let kind = Circuit.Builder.kind_of b gid in
        let fanins = Circuit.Builder.peek_fanins b gid in
        let arity = Array.length fanins in
        match kind with
        | Gate.Input | Gate.Key_input | Gate.Const _ -> ()
        | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
        | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Lut _ ->
          if arity >= 1 && arity <= config.max_lut_inputs then begin
            let truth_table = Gate.truth_table kind ~arity in
            let lut = Util.keyed_lut b (Pass.bag p) ~addr:fanins ~truth_table in
            Circuit.Builder.replace b gid Gate.Buf [| lut |]
          end)
      consumers
  end

let validate_config config =
  if config.negate_leading && config.cln.Cln.inverters = Cln.No_inverters then
    invalid_arg "Fulllock.lock: negate_leading requires CLN inverters";
  if config.max_lut_inputs < 1 then invalid_arg "Fulllock.lock: max_lut_inputs < 1"

let lock rng ?(policy = `Acyclic) ~configs orig =
  Fl_obs.with_span "core.lock" @@ fun () ->
  if configs = [] then invalid_arg "Fulllock.lock: no PLR configs";
  List.iter validate_config configs;
  let total = List.fold_left (fun acc c -> acc + c.cln.Cln.n) 0 configs in
  let selection_policy =
    match policy with `Acyclic -> `Independent | `Cyclic -> `Connected
  in
  let wires =
    Util.select_wires orig rng ~count:total ~policy:selection_policy
  in
  let p = Pass.start ~name:"fulllock" orig in
  let offset = ref 0 in
  List.iter
    (fun config ->
      let group = Array.sub wires !offset config.cln.Cln.n in
      offset := !offset + config.cln.Cln.n;
      insert_plr p rng config group)
    configs;
  Pass.finish p ~scheme:"full-lock"

let lock_one rng ?policy ~n orig = lock rng ?policy ~configs:[ default_config ~n ] orig

let standalone_cln_lock spec rng =
  let locked = Cln.standalone spec in
  let correct_key = Cln.random_routable_key spec rng in
  let action = Cln.decode spec ~key:correct_key in
  (* Oracle: the fixed permutation + inversions the secret key realises. *)
  let b = Circuit.Builder.create ~name:"cln-oracle" () in
  let inputs =
    Array.init spec.Cln.n (fun i -> Circuit.Builder.input ~name:(Printf.sprintf "x%d" i) b)
  in
  Array.iteri
    (fun j src ->
      let driver =
        if action.Cln.inverted.(j) then
          Circuit.Builder.add b Gate.Not [| inputs.(src) |]
        else Circuit.Builder.add b Gate.Buf [| inputs.(src) |]
      in
      Circuit.Builder.output b (Printf.sprintf "y%d" j) driver)
    action.Cln.source;
  {
    Locked.locked;
    oracle = Circuit.of_builder b;
    correct_key;
    scheme = Printf.sprintf "cln-%s" (Fl_cln.Topology.kind_to_string spec.Cln.topology);
  }

let parse_plr_sizes text =
  (* "2x16 + 1x8" -> [16; 16; 8] *)
  String.split_on_char '+' text
  |> List.concat_map (fun part ->
         let part = String.trim part in
         if part = "" then []
         else
           match String.split_on_char 'x' (String.lowercase_ascii part) with
           | [ count; size ] ->
             let count = int_of_string (String.trim count) in
             let size = int_of_string (String.trim size) in
             List.init count (fun _ -> size)
           | [ size ] -> [ int_of_string (String.trim size) ]
           | _ -> invalid_arg "Fulllock.parse_plr_sizes")
