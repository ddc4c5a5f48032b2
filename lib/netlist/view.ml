type tristate = V0 | V1 | VX

exception Unresolved of string

(* Observability: build/eval counters and per-memo hit/miss rates, all in
   the Fl_obs metric table.  Counters are bare int cells, so the hot
   paths pay one increment per *evaluation pass* (never per node). *)
let c_builds = Fl_obs.Counter.make "view.builds"
let c_cache_hits = Fl_obs.Counter.make "view.cache.hit"
let c_evals = Fl_obs.Counter.make "view.evals"
let c_fixpoint_sweeps = Fl_obs.Counter.make "view.fixpoint_sweeps"
let c_fanouts_hit = Fl_obs.Counter.make "view.memo.fanouts.hit"
let c_fanouts_miss = Fl_obs.Counter.make "view.memo.fanouts.miss"
let c_scc_hit = Fl_obs.Counter.make "view.memo.scc.hit"
let c_scc_miss = Fl_obs.Counter.make "view.memo.scc.miss"
let c_key_cone_hit = Fl_obs.Counter.make "view.memo.key_cone.hit"
let c_key_cone_miss = Fl_obs.Counter.make "view.memo.key_cone.miss"

type word = { defined : int; value : int }

let lanes = Sys.int_size
let all_ones = -1

(* One immediate opcode per node; [aux] carries the constant bit or the LUT
   table index, fanins live in one flat array sliced by [fanin_off]. *)
type opcode =
  | Onop  (* inputs and key inputs: values are loaded, never computed *)
  | Oconst
  | Obuf
  | Onot
  | Oand
  | Onand
  | Oor
  | Onor
  | Oxor
  | Oxnor
  | Omux
  | Olut

type t = {
  circuit : Circuit.t;
  topo : int array option;
  order : int array;  (* evaluation order: topo if acyclic, ids otherwise *)
  op : opcode array;
  aux : int array;
  fanin_off : int array;  (* length n+1, offsets into fanin_flat *)
  fanin_flat : int array;
  luts : bool array array;
  (* Scratch value arrays, reused by every evaluation (zero per-eval
     allocation on the per-node path).  Bit i of value.(id) is meaningful
     only when bit i of defined.(id) is set. *)
  defined : int array;
  value : int array;
  mutable fanouts_memo : int array array option;
  mutable scc_memo : int array option;
  mutable key_cone_memo : int array option;
}

let topo_order v = v.topo
let is_acyclic v = v.topo <> None

let build c =
  let n = Circuit.num_nodes c in
  let topo = Circuit.topological_order c in
  let order = match topo with Some o -> o | None -> Array.init n Fun.id in
  let op = Array.make n Onop in
  let aux = Array.make n 0 in
  let fanin_off = Array.make (n + 1) 0 in
  let total = ref 0 in
  for id = 0 to n - 1 do
    fanin_off.(id) <- !total;
    total := !total + Array.length (Circuit.node c id).Circuit.fanins
  done;
  fanin_off.(n) <- !total;
  let fanin_flat = Array.make (max 1 !total) 0 in
  let luts = ref [] in
  let num_luts = ref 0 in
  for id = 0 to n - 1 do
    let nd = Circuit.node c id in
    Array.blit nd.Circuit.fanins 0 fanin_flat fanin_off.(id)
      (Array.length nd.Circuit.fanins);
    op.(id) <-
      (match nd.Circuit.kind with
       | Gate.Input | Gate.Key_input -> Onop
       | Gate.Const b ->
         aux.(id) <- (if b then 1 else 0);
         Oconst
       | Gate.Buf -> Obuf
       | Gate.Not -> Onot
       | Gate.And -> Oand
       | Gate.Nand -> Onand
       | Gate.Or -> Oor
       | Gate.Nor -> Onor
       | Gate.Xor -> Oxor
       | Gate.Xnor -> Oxnor
       | Gate.Mux -> Omux
       | Gate.Lut tt ->
         aux.(id) <- !num_luts;
         incr num_luts;
         luts := Array.copy tt :: !luts;
         Olut)
  done;
  (* Filled from [[||]], not [Array.of_list]: see [Circuit.placeholder]. *)
  let lut_tables = Array.make !num_luts [||] in
  List.iteri (fun i tt -> lut_tables.(!num_luts - 1 - i) <- tt) !luts;
  {
    circuit = c;
    topo;
    order;
    op;
    aux;
    fanin_off;
    fanin_flat;
    luts = lut_tables;
    defined = Array.make n 0;
    value = Array.make n 0;
    fanouts_memo = None;
    scc_memo = None;
    key_cone_memo = None;
  }

(* Views are memoized per circuit physical identity (circuits are
   immutable); the ephemeron keys let views die with their circuits.

   The cache is domain-local: a view's scratch arrays are single-threaded
   state, so two domains must never share one view even for the same
   circuit.  Each domain (each Fl_par worker) builds and caches its own
   views; the ephemeron contract is per domain. *)
module Cache = Ephemeron.K1.Make (struct
  type t = Circuit.t

  let equal = ( == )
  let hash c = Hashtbl.hash (Circuit.num_nodes c, c.Circuit.name)
end)

let cache_key : t Cache.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Cache.create 64)

let of_circuit c =
  let cache = Domain.DLS.get cache_key in
  match Cache.find_opt cache c with
  | Some v ->
    Fl_obs.Counter.incr c_cache_hits;
    v
  | None ->
    let v = build c in
    Fl_obs.Counter.incr c_builds;
    Cache.replace cache c v;
    v

(* ------------------------------------------------------------------ *)
(* Cached structural analyses                                          *)
(* ------------------------------------------------------------------ *)

let fanouts v =
  match v.fanouts_memo with
  | Some f ->
    Fl_obs.Counter.incr c_fanouts_hit;
    f
  | None ->
    Fl_obs.Counter.incr c_fanouts_miss;
    let f = Circuit.fanouts v.circuit in
    v.fanouts_memo <- Some f;
    f

let scc v =
  match v.scc_memo with
  | Some s ->
    Fl_obs.Counter.incr c_scc_hit;
    s
  | None ->
    Fl_obs.Counter.incr c_scc_miss;
    let s = Circuit.strongly_connected_components v.circuit in
    v.scc_memo <- Some s;
    s

let key_cone v =
  match v.key_cone_memo with
  | Some k ->
    Fl_obs.Counter.incr c_key_cone_hit;
    k
  | None ->
    Fl_obs.Counter.incr c_key_cone_miss;
    let fo = fanouts v in
    let n = Array.length v.op in
    let reached = Bytes.make n '\000' and stack = Array.make n 0 in
    let top = ref 0 and size = ref 0 in
    let push id =
      if Bytes.get reached id = '\000' then begin
        Bytes.set reached id '\001';
        stack.(!top) <- id;
        incr top;
        incr size
      end
    in
    Array.iter (fun key -> Array.iter push fo.(key)) v.circuit.Circuit.keys;
    while !top > 0 do
      decr top;
      Array.iter push fo.(stack.(!top))
    done;
    let k = Array.make !size 0 and i = ref 0 in
    Array.iter
      (fun id ->
        if Bytes.get reached id <> '\000' then begin
          k.(!i) <- id;
          incr i
        end)
      v.order;
    v.key_cone_memo <- Some k;
    k

(* ------------------------------------------------------------------ *)
(* Compiled evaluation                                                 *)
(* ------------------------------------------------------------------ *)

(* Evaluate node [id] (Kleene strong three-valued connectives, bit-parallel)
   and merge the newly defined lanes into the scratch arrays; previously
   settled lanes keep their values, which makes a single forward pass and a
   cyclic fixpoint sweep the same code.  Returns the mask of lanes that
   became defined. *)
let step v id =
  let d = v.defined and vl = v.value in
  let off = v.fanin_off.(id) in
  let nd = ref 0 and nv = ref 0 in
  (match v.op.(id) with
   | Onop -> ()
   | Oconst ->
     nd := all_ones;
     nv := (if v.aux.(id) = 1 then all_ones else 0)
   | Obuf ->
     let f = v.fanin_flat.(off) in
     nd := d.(f);
     nv := vl.(f)
   | Onot ->
     let f = v.fanin_flat.(off) in
     nd := d.(f);
     nv := lnot vl.(f)
   | Oand | Onand ->
     (* Defined where all operands are, or where some operand is a defined
        0; undefined operands cannot force 0. *)
     let last = v.fanin_off.(id + 1) - 1 in
     let all_def = ref all_ones and forced0 = ref 0 and acc = ref all_ones in
     for i = off to last do
       let f = v.fanin_flat.(i) in
       let fd = d.(f) and fv = vl.(f) in
       all_def := !all_def land fd;
       forced0 := !forced0 lor (fd land lnot fv);
       acc := !acc land (fv lor lnot fd)
     done;
     nd := !all_def lor !forced0;
     nv := (if v.op.(id) = Onand then lnot !acc else !acc)
   | Oor | Onor ->
     let last = v.fanin_off.(id + 1) - 1 in
     let all_def = ref all_ones and forced1 = ref 0 and acc = ref 0 in
     for i = off to last do
       let f = v.fanin_flat.(i) in
       let fd = d.(f) and fv = vl.(f) in
       all_def := !all_def land fd;
       forced1 := !forced1 lor (fd land fv);
       acc := !acc lor (fv land fd)
     done;
     nd := !all_def lor !forced1;
     nv := (if v.op.(id) = Onor then lnot !acc else !acc)
   | Oxor | Oxnor ->
     let last = v.fanin_off.(id + 1) - 1 in
     let all_def = ref all_ones and acc = ref 0 in
     for i = off to last do
       let f = v.fanin_flat.(i) in
       all_def := !all_def land d.(f);
       acc := !acc lxor vl.(f)
     done;
     nd := !all_def;
     nv := (if v.op.(id) = Oxnor then lnot !acc else !acc)
   | Omux ->
     (* Defined where the select is defined and the chosen branch is, or
        where both branches agree while defined (an undefined select picks
        either). *)
     let s = v.fanin_flat.(off)
     and a = v.fanin_flat.(off + 1)
     and b = v.fanin_flat.(off + 2) in
     let sd = d.(s) and sv = vl.(s) in
     let ad = d.(a) and av = vl.(a) in
     let bd = d.(b) and bv = vl.(b) in
     let chosen = sd land ((sv land bd) lor (lnot sv land ad)) in
     let agree = ad land bd land lnot (av lxor bv) in
     nd := chosen lor agree;
     nv := (sv land bv) lor (lnot sv land av)
   | Olut ->
     (* Conservative definedness: all address bits defined. *)
     let tt = v.luts.(v.aux.(id)) in
     let k = v.fanin_off.(id + 1) - off in
     let all_def = ref all_ones in
     for i = off to off + k - 1 do
       all_def := !all_def land d.(v.fanin_flat.(i))
     done;
     let acc = ref 0 in
     Array.iteri
       (fun row set ->
         if set then begin
           let m = ref all_ones in
           for j = 0 to k - 1 do
             let fv = vl.(v.fanin_flat.(off + j)) in
             m := !m land (if row land (1 lsl j) <> 0 then fv else lnot fv)
           done;
           acc := !acc lor !m
         end)
       tt;
     nd := !all_def;
     nv := !acc);
  let keep = d.(id) in
  let fresh = !nd land lnot keep in
  if fresh <> 0 then begin
    vl.(id) <- (vl.(id) land keep) lor (!nv land fresh);
    d.(id) <- keep lor !nd
  end;
  fresh

let check_widths c ~inputs ~keys =
  if inputs <> Circuit.num_inputs c then
    invalid_arg
      (Printf.sprintf "View: expected %d inputs, got %d" (Circuit.num_inputs c)
         inputs);
  if keys <> Circuit.num_keys c then
    invalid_arg
      (Printf.sprintf "View: expected %d key bits, got %d" (Circuit.num_keys c)
         keys)

let reset v =
  let n = Array.length v.defined in
  Array.fill v.defined 0 n 0;
  Array.fill v.value 0 n 0

(* Step the nodes of [order], a sub-sequence of [v.order]: once each on
   an acyclic view, in sweeps to the fixpoint on a cyclic one. *)
let run_order v order =
  Fl_obs.Counter.incr c_evals;
  if is_acyclic v then Array.iter (fun id -> ignore (step v id)) order
  else begin
    (* Monotone fixpoint: definedness only grows, settled lanes are stable,
       so at most n sweeps are needed; in practice a handful. *)
    let n = Array.length order in
    let changed = ref true in
    let sweeps = ref 0 in
    while !changed && !sweeps <= n do
      changed := false;
      incr sweeps;
      for i = 0 to n - 1 do
        if step v order.(i) <> 0 then changed := true
      done
    done;
    Fl_obs.Counter.add c_fixpoint_sweeps !sweeps
  end

let run v = run_order v v.order

let load_words v ids words =
  Array.iteri
    (fun i id ->
      v.defined.(id) <- all_ones;
      v.value.(id) <- words.(i))
    ids

let run_packed v ~inputs ~keys =
  check_widths v.circuit ~inputs:(Array.length inputs) ~keys:(Array.length keys);
  reset v;
  load_words v v.circuit.Circuit.inputs inputs;
  load_words v v.circuit.Circuit.keys keys;
  run v

let load_bools v ids bits =
  Array.iteri
    (fun i id ->
      v.defined.(id) <- all_ones;
      v.value.(id) <- (if bits.(i) then all_ones else 0))
    ids

let run_bools v ~inputs ~keys =
  check_widths v.circuit ~inputs:(Array.length inputs) ~keys:(Array.length keys);
  reset v;
  load_bools v v.circuit.Circuit.inputs inputs;
  load_bools v v.circuit.Circuit.keys keys;
  run v

let tristate_of v id =
  if v.defined.(id) land 1 = 0 then VX
  else if v.value.(id) land 1 = 1 then V1
  else V0

(* Key inputs stay undefined, so a node settles exactly when the inputs
   alone force it under every key (least fixpoint on cyclic circuits). *)
let eval_under_inputs v ~inputs =
  let c = v.circuit in
  check_widths c ~inputs:(Array.length inputs) ~keys:(Circuit.num_keys c);
  reset v;
  load_bools v c.Circuit.inputs inputs;
  run v;
  Array.init (Circuit.num_nodes c) (tristate_of v)

let eval_tristate v ~inputs ~keys =
  run_bools v ~inputs ~keys;
  Array.map (fun (_, id) -> tristate_of v id) v.circuit.Circuit.outputs

let eval v ~inputs ~keys =
  run_bools v ~inputs ~keys;
  Array.map
    (fun (port, id) ->
      if v.defined.(id) land 1 = 0 then raise (Unresolved port)
      else v.value.(id) land 1 = 1)
    v.circuit.Circuit.outputs

let output_words v =
  Array.map
    (fun (_, id) -> { defined = v.defined.(id); value = v.value.(id) })
    v.circuit.Circuit.outputs

let eval_words v ~inputs ~keys =
  run_packed v ~inputs ~keys;
  output_words v

(* A node outside the key cone reads no key, so its value under the first
   key set is its value under every other.  Each further key set clears
   the cone, loads its keys and runs the cone alone: on a cyclic view the
   cone's least fixpoint over the fixed rest, which is the whole circuit's
   least fixpoint, and [step] writes only the lanes it defines, so every
   word comes out as a whole evaluation leaves it. *)
let eval_words_per_key v ~inputs ~keys =
  match keys with
  | [] -> []
  | first :: rest ->
    let words = eval_words v ~inputs ~keys:first in
    let cone = key_cone v in
    words
    :: List.map
         (fun k ->
           check_widths v.circuit ~inputs:(Array.length inputs)
             ~keys:(Array.length k);
           Array.iter
             (fun id ->
               v.defined.(id) <- 0;
               v.value.(id) <- 0)
             cone;
           load_words v v.circuit.Circuit.keys k;
           run_order v cone;
           output_words v)
         rest

let eval_packed v ~inputs ~keys =
  run_packed v ~inputs ~keys;
  Array.map
    (fun (port, id) ->
      if v.defined.(id) <> all_ones then raise (Unresolved port)
      else v.value.(id))
    v.circuit.Circuit.outputs

let broadcast bits = Array.map (fun b -> if b then all_ones else 0) bits

(* ------------------------------------------------------------------ *)
(* Random stimuli                                                      *)
(* ------------------------------------------------------------------ *)

let random_word rng =
  (* int_size random bits from two 30-bit draws and one top-slice draw. *)
  Random.State.bits rng
  lor (Random.State.bits rng lsl 30)
  lor (Random.State.bits rng lsl 60)

let random_words rng ~width = Array.init width (fun _ -> random_word rng)
let random_vector rng width = Array.init width (fun _ -> Random.State.bool rng)

let pack vectors =
  match vectors with
  | [] -> invalid_arg "View.pack: no vectors"
  | first :: _ ->
    let width = Array.length first in
    if List.length vectors > lanes then invalid_arg "View.pack: too many vectors";
    let words = Array.make width 0 in
    List.iteri
      (fun lane v ->
        if Array.length v <> width then invalid_arg "View.pack: ragged vectors";
        Array.iteri (fun j b -> if b then words.(j) <- words.(j) lor (1 lsl lane)) v)
      vectors;
    words

(* ------------------------------------------------------------------ *)
(* Key-correctness probing                                             *)
(* ------------------------------------------------------------------ *)

(* Outputs of the two views (already evaluated) agree on every lane of
   [mask]; an undefined lane on either side is a disagreement. *)
let outputs_agree va vb mask =
  let oa = va.circuit.Circuit.outputs and ob = vb.circuit.Circuit.outputs in
  let bad = ref 0 in
  Array.iteri
    (fun i (_, ida) ->
      let _, idb = ob.(i) in
      let def = va.defined.(ida) land vb.defined.(idb) in
      bad :=
        !bad lor lnot def
        lor ((va.value.(ida) lxor vb.value.(idb)) land def))
    oa;
  !bad land mask = 0

let agree_on_probes ?(exhaustive_limit = 10) ?(vectors = 256) ?(seed = 7) va
    ~keys_a vb ~keys_b =
  let n = Circuit.num_inputs va.circuit in
  if Circuit.num_inputs vb.circuit <> n then
    invalid_arg "View.agree_on_probes: input counts differ";
  if Array.length (va.circuit.Circuit.outputs)
     <> Array.length (vb.circuit.Circuit.outputs)
  then invalid_arg "View.agree_on_probes: output counts differ";
  let ka = broadcast keys_a and kb = broadcast keys_b in
  let inputs = Array.make n 0 in
  let probe used =
    let mask = if used >= lanes then all_ones else (1 lsl used) - 1 in
    run_packed va ~inputs ~keys:ka;
    (* va's scratch arrays survive vb's evaluation: each view owns its
       buffers. *)
    run_packed vb ~inputs ~keys:kb;
    outputs_agree va vb mask
  in
  if n <= exhaustive_limit then begin
    let space = 1 lsl n in
    let rec go base =
      base >= space
      ||
      let used = min lanes (space - base) in
      for j = 0 to n - 1 do
        let w = ref 0 in
        for l = 0 to used - 1 do
          if (base + l) land (1 lsl j) <> 0 then w := !w lor (1 lsl l)
        done;
        inputs.(j) <- !w
      done;
      probe used && go (base + used)
    in
    go 0
  end
  else begin
    let rng = Random.State.make [| seed |] in
    let rec go remaining =
      remaining <= 0
      ||
      let used = min lanes remaining in
      for j = 0 to n - 1 do
        inputs.(j) <- random_word rng
      done;
      probe used && go (remaining - used)
    in
    go vectors
  end

(* ------------------------------------------------------------------ *)
(* Uncached reference evaluator                                        *)
(* ------------------------------------------------------------------ *)

let tri_of_bool b = if b then V1 else V0

(* Three-valued gate evaluation.  MUX with a known select ignores the
   unselected (possibly X) branch -- this is what lets a correct key open a
   structural cycle. *)
let eval_gate_tri kind (args : tristate array) =
  let exception X in
  let bool_of = function V0 -> false | V1 -> true | VX -> raise X in
  match kind with
  | Gate.Mux ->
    (match args.(0) with
     | V0 -> args.(1)
     | V1 -> args.(2)
     | VX ->
       (* X select: output known only when both branches agree. *)
       if args.(1) = args.(2) && args.(1) <> VX then args.(1) else VX)
  | Gate.And | Gate.Nand ->
    let neg = kind = Gate.Nand in
    if Array.exists (fun v -> v = V0) args then tri_of_bool neg
    else if Array.exists (fun v -> v = VX) args then VX
    else tri_of_bool (not neg)
  | Gate.Or | Gate.Nor ->
    let neg = kind = Gate.Nor in
    if Array.exists (fun v -> v = V1) args then tri_of_bool (not neg)
    else if Array.exists (fun v -> v = VX) args then VX
    else tri_of_bool neg
  | Gate.Input | Gate.Key_input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.Xor
  | Gate.Xnor | Gate.Lut _ -> (
    (* Kinds whose output is X as soon as any input is X. *)
    try tri_of_bool (Gate.eval kind (Array.map bool_of args))
    with X -> VX)

let node_values c ~inputs ~keys =
  check_widths c ~inputs:(Array.length inputs) ~keys:(Array.length keys);
  let n = Circuit.num_nodes c in
  let values = Array.make n VX in
  Array.iteri (fun i id -> values.(id) <- tri_of_bool inputs.(i)) c.Circuit.inputs;
  Array.iteri (fun i id -> values.(id) <- tri_of_bool keys.(i)) c.Circuit.keys;
  let eval_node id =
    let nd = Circuit.node c id in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Key_input -> values.(id)
    | Gate.Const b -> tri_of_bool b
    | kind -> eval_gate_tri kind (Array.map (fun f -> values.(f)) nd.Circuit.fanins)
  in
  (match Circuit.topological_order c with
   | Some order -> Array.iter (fun id -> values.(id) <- eval_node id) order
   | None ->
     (* Values move monotonically from X to 0/1, so at most [n] sweeps
        settle. *)
     let changed = ref true in
     let sweeps = ref 0 in
     while !changed && !sweeps <= n do
       changed := false;
       incr sweeps;
       for id = 0 to n - 1 do
         if values.(id) = VX then begin
           let v = eval_node id in
           if v <> VX then begin
             values.(id) <- v;
             changed := true
           end
         end
       done
     done);
  values

let eval_tristate_reference c ~inputs ~keys =
  let values = node_values c ~inputs ~keys in
  Array.map (fun (_, id) -> values.(id)) c.Circuit.outputs

let eval_reference c ~inputs ~keys =
  Array.map2
    (fun (port, _) v ->
      match v with V0 -> false | V1 -> true | VX -> raise (Unresolved port))
    c.Circuit.outputs
    (eval_tristate_reference c ~inputs ~keys)
