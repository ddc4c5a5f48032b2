module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Locked = Fl_locking.Locked

(* Probability that a gate outputs 1 given independent fanin
   probabilities. *)
let gate_probability kind (ps : float array) =
  let all = Array.fold_left (fun acc p -> acc *. p) 1.0 in
  let none = Array.fold_left (fun acc p -> acc *. (1.0 -. p)) 1.0 in
  let parity () =
    (* P(odd number of ones) via the product formula. *)
    let prod = Array.fold_left (fun acc p -> acc *. (1.0 -. (2.0 *. p))) 1.0 ps in
    0.5 *. (1.0 -. prod)
  in
  match kind with
  | Gate.Input | Gate.Key_input -> 0.5
  | Gate.Const b -> if b then 1.0 else 0.0
  | Gate.Buf -> ps.(0)
  | Gate.Not -> 1.0 -. ps.(0)
  | Gate.And -> all ps
  | Gate.Nand -> 1.0 -. all ps
  | Gate.Or -> 1.0 -. none ps
  | Gate.Nor -> none ps
  | Gate.Xor -> parity ()
  | Gate.Xnor -> 1.0 -. parity ()
  | Gate.Mux -> ((1.0 -. ps.(0)) *. ps.(1)) +. (ps.(0) *. ps.(2))
  | Gate.Lut tt ->
    (* Sum over minterms of the table. *)
    let k = Array.length ps in
    let total = ref 0.0 in
    Array.iteri
      (fun row v ->
        if v then begin
          let p = ref 1.0 in
          for j = 0 to k - 1 do
            p := !p *. (if row land (1 lsl j) <> 0 then ps.(j) else 1.0 -. ps.(j))
          done;
          total := !total +. !p
        end)
      tt;
    !total

let probabilities c =
  let n = Circuit.num_nodes c in
  let prob = Array.make n 0.5 in
  let eval id =
    let nd = Circuit.node c id in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Key_input -> 0.5
    | kind -> gate_probability kind (Array.map (fun f -> prob.(f)) nd.Circuit.fanins)
  in
  (match Fl_netlist.View.topo_order (Fl_netlist.View.of_circuit c) with
   | Some order -> Array.iter (fun id -> prob.(id) <- eval id) order
   | None ->
     (* Damped fixpoint sweeps for cyclic circuits. *)
     for _ = 1 to 24 do
       for id = 0 to n - 1 do
         prob.(id) <- (0.5 *. prob.(id)) +. (0.5 *. eval id)
       done
     done);
  prob

let key_tainted c =
  let n = Circuit.num_nodes c in
  let tainted = Array.make n false in
  Array.iter (fun id -> tainted.(id) <- true) c.Circuit.keys;
  (* Propagate taint; iterate to a fixpoint to cover cyclic circuits. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for id = 0 to n - 1 do
      if not tainted.(id) then begin
        let nd = Circuit.node c id in
        if Array.exists (fun f -> tainted.(f)) nd.Circuit.fanins then begin
          tainted.(id) <- true;
          changed := true
        end
      end
    done
  done;
  tainted

(* For each 2-input XOR/XNOR whose one operand is key-dependent and the
   other key-free (the flip-gate pattern), the skew of the key-dependent
   operand, most skewed first.  An entry close to 0.5 means SPS pinpoints
   a removable point-function block. *)
let flip_wire_skew locked =
  let c = locked.Locked.locked in
  let prob = probabilities c in
  let tainted = key_tainted c in
  let results = ref [] in
  for id = 0 to Circuit.num_nodes c - 1 do
    let nd = Circuit.node c id in
    match nd.Circuit.kind, nd.Circuit.fanins with
    | (Gate.Xor | Gate.Xnor), [| a; b |] ->
      let candidate =
        if tainted.(a) && not tainted.(b) then Some a
        else if tainted.(b) && not tainted.(a) then Some b
        else None
      in
      (match candidate with
       | Some flip -> results := (flip, Float.abs (prob.(flip) -. 0.5)) :: !results
       | None -> ())
    | _, _ -> ()
  done;
  List.sort (fun (_, a) (_, b) -> compare b a) !results

let identifies_block ?(threshold = 0.45) locked =
  match flip_wire_skew locked with
  | (_, skew) :: _ -> skew >= threshold
  | [] -> false
