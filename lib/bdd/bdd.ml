module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit

type node = int
(* 0 = false, 1 = true, >= 2 internal *)

exception Too_large

type manager = {
  nvars : int;
  node_limit : int;
  mutable var_tab : int array;  (* node -> top variable (nvars for terminals) *)
  mutable low_tab : int array;
  mutable high_tab : int array;
  mutable count : int;
  unique : (int * int * int, int) Hashtbl.t;
  ite_cache : (int * int * int, int) Hashtbl.t;
}

let fls = 0
let tru = 1

let create ?(node_limit = 1_000_000) ~num_vars () =
  let m =
    {
      nvars = num_vars;
      node_limit;
      var_tab = Array.make 1024 0;
      low_tab = Array.make 1024 0;
      high_tab = Array.make 1024 0;
      count = 2;
      unique = Hashtbl.create 4096;
      ite_cache = Hashtbl.create 4096;
    }
  in
  (* Terminals sit below every variable. *)
  m.var_tab.(fls) <- num_vars;
  m.var_tab.(tru) <- num_vars;
  m

let level m n = m.var_tab.(n)

let mk m v lo hi =
  if lo = hi then lo
  else
    match Hashtbl.find_opt m.unique (v, lo, hi) with
    | Some n -> n
    | None ->
      if m.count >= m.node_limit then raise Too_large;
      if m.count >= Array.length m.var_tab then begin
        let cap = 2 * Array.length m.var_tab in
        let grow a =
          let a' = Array.make cap 0 in
          Array.blit a 0 a' 0 m.count;
          a'
        in
        m.var_tab <- grow m.var_tab;
        m.low_tab <- grow m.low_tab;
        m.high_tab <- grow m.high_tab
      end;
      let n = m.count in
      m.count <- n + 1;
      m.var_tab.(n) <- v;
      m.low_tab.(n) <- lo;
      m.high_tab.(n) <- hi;
      Hashtbl.add m.unique (v, lo, hi) n;
      n

let var m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.var: index out of range";
  mk m i fls tru

let cofactors m n v =
  if level m n = v then m.low_tab.(n), m.high_tab.(n) else n, n

let rec ite m f g h =
  if f = tru then g
  else if f = fls then h
  else if g = h then g
  else if g = tru && h = fls then f
  else
    match Hashtbl.find_opt m.ite_cache (f, g, h) with
    | Some r -> r
    | None ->
      let v = min (level m f) (min (level m g) (level m h)) in
      let f0, f1 = cofactors m f v in
      let g0, g1 = cofactors m g v in
      let h0, h1 = cofactors m h v in
      let lo = ite m f0 g0 h0 in
      let hi = ite m f1 g1 h1 in
      let r = mk m v lo hi in
      Hashtbl.add m.ite_cache (f, g, h) r;
      r

let mk_not m a = ite m a fls tru
let mk_and m a b = ite m a b fls
let mk_or m a b = ite m a tru b
let mk_xor m a b = ite m a (mk_not m b) b

let equal (a : node) (b : node) = a = b

let size m n =
  let seen = Hashtbl.create 64 in
  let rec walk n =
    if n > 1 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      walk m.low_tab.(n);
      walk m.high_tab.(n)
    end
  in
  walk n;
  Hashtbl.length seen

let sat_count m n =
  (* S(n): satisfying assignments over variables [level n .. nvars-1]. *)
  let memo = Hashtbl.create 64 in
  let rec s n =
    if n = fls then 0.0
    else if n = tru then 1.0
    else
      match Hashtbl.find_opt memo n with
      | Some v -> v
      | None ->
        let here = level m n in
        let lo = m.low_tab.(n) and hi = m.high_tab.(n) in
        let weight child =
          s child *. (2.0 ** float_of_int (level m child - here - 1))
        in
        let v = weight lo +. weight hi in
        Hashtbl.add memo n v;
        v
  in
  s n *. (2.0 ** float_of_int (level m n))

let eval m n assignment =
  if Array.length assignment <> m.nvars then invalid_arg "Bdd.eval: width mismatch";
  let rec walk n =
    if n = tru then true
    else if n = fls then false
    else if assignment.(m.var_tab.(n)) then walk m.high_tab.(n)
    else walk m.low_tab.(n)
  in
  walk n

let any_sat m n =
  if n = fls then None
  else begin
    (* In a reduced BDD every non-false node reaches true; prefer low. *)
    let assignment = Array.make m.nvars false in
    let rec walk n =
      if n <> tru then begin
        if m.low_tab.(n) <> fls then walk m.low_tab.(n)
        else begin
          assignment.(m.var_tab.(n)) <- true;
          walk m.high_tab.(n)
        end
      end
    in
    walk n;
    Some assignment
  end

let of_circuit m c ~keys =
  let order =
    match Circuit.topological_order c with
    | Some order -> order
    | None -> invalid_arg "Bdd.of_circuit: cyclic circuit"
  in
  if Circuit.num_inputs c <> m.nvars then
    invalid_arg "Bdd.of_circuit: manager variable count must equal input count";
  if Array.length keys <> Circuit.num_keys c then
    invalid_arg "Bdd.of_circuit: key length mismatch";
  let n = Circuit.num_nodes c in
  let node_bdd = Array.make n fls in
  Array.iteri (fun i id -> node_bdd.(id) <- var m i) c.Circuit.inputs;
  Array.iteri
    (fun i id -> node_bdd.(id) <- (if keys.(i) then tru else fls))
    c.Circuit.keys;
  let fold_binary op neutral fanins =
    Array.fold_left (fun acc f -> op acc node_bdd.(f)) neutral fanins
  in
  Array.iter
    (fun id ->
      let nd = Circuit.node c id in
      let fanins = nd.Circuit.fanins in
      node_bdd.(id) <-
        (match nd.Circuit.kind with
         | Gate.Input | Gate.Key_input -> node_bdd.(id)
         | Gate.Const b -> if b then tru else fls
         | Gate.Buf -> node_bdd.(fanins.(0))
         | Gate.Not -> mk_not m node_bdd.(fanins.(0))
         | Gate.And -> fold_binary (mk_and m) tru fanins
         | Gate.Nand -> mk_not m (fold_binary (mk_and m) tru fanins)
         | Gate.Or -> fold_binary (mk_or m) fls fanins
         | Gate.Nor -> mk_not m (fold_binary (mk_or m) fls fanins)
         | Gate.Xor -> fold_binary (mk_xor m) fls fanins
         | Gate.Xnor -> mk_not m (fold_binary (mk_xor m) fls fanins)
         | Gate.Mux ->
           ite m node_bdd.(fanins.(0)) node_bdd.(fanins.(2)) node_bdd.(fanins.(1))
         | Gate.Lut tt ->
           let result = ref fls in
           Array.iteri
             (fun row v ->
               if v then begin
                 let term = ref tru in
                 Array.iteri
                   (fun j f ->
                     let lit =
                       if row land (1 lsl j) <> 0 then node_bdd.(f)
                       else mk_not m node_bdd.(f)
                     in
                     term := mk_and m !term lit)
                   fanins;
                 result := mk_or m !result !term
               end)
             tt;
           !result))
    order;
  Array.map (fun (_, id) -> node_bdd.(id)) c.Circuit.outputs

let exact_corruption ?node_limit locked ~key =
  let oracle = locked.Fl_locking.Locked.oracle in
  let lc = locked.Fl_locking.Locked.locked in
  let n_in = Circuit.num_inputs oracle in
  let m = create ?node_limit ~num_vars:n_in () in
  let good = of_circuit m oracle ~keys:[||] in
  let bad = of_circuit m lc ~keys:key in
  let total = ref 0.0 in
  Array.iteri
    (fun i g ->
      let diff = mk_xor m g bad.(i) in
      total := !total +. sat_count m diff)
    good;
  !total /. (float_of_int (Array.length good) *. (2.0 ** float_of_int n_in))

let circuit_size ?node_limit c ~keys =
  match
    let m = create ?node_limit ~num_vars:(Circuit.num_inputs c) () in
    let outs = of_circuit m c ~keys in
    (* Count distinct nodes over all outputs. *)
    let seen = Hashtbl.create 1024 in
    let rec walk n =
      if n > 1 && not (Hashtbl.mem seen n) then begin
        Hashtbl.add seen n ();
        walk m.low_tab.(n);
        walk m.high_tab.(n)
      end
    in
    Array.iter walk outs;
    Hashtbl.length seen
  with
  | size -> Some size
  | exception Too_large -> None
