module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Pass = Insertion_util.Pass

let ceil_log2 n =
  let rec go k m = if m >= n then k else go (k + 1) (m * 2) in
  go 0 1

(* Full MUX tree: output = data.(value of select bits, LSB-first). *)
let mux_tree b ~select ~data =
  let rec reduce values level =
    match Array.length values with
    | 1 -> values.(0)
    | len ->
      let next =
        Array.init (len / 2) (fun i ->
            Circuit.Builder.add b Gate.Mux
              [| select.(level); values.(2 * i); values.((2 * i) + 1) |])
      in
      reduce next (level + 1)
  in
  reduce data 0

let lock rng ~n orig =
  if n < 2 then invalid_arg "Cross_lock.lock: need n >= 2";
  let p = Pass.start ~name:"crosslock" orig in
  let b = Pass.builder p in
  let wires = Insertion_util.select_wires orig rng ~count:n ~policy:`Independent in
  (* Random permutation: crossbar output j delivers wire sigma.(j). *)
  let sigma = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = sigma.(i) in
    sigma.(i) <- sigma.(j);
    sigma.(j) <- t
  done;
  let bits = max 1 (ceil_log2 n) in
  let padded = 1 lsl bits in
  let data = Array.init padded (fun i -> if i < n then wires.(i) else wires.(0)) in
  let barrier = Pass.snapshot p in
  let outputs =
    Array.init n (fun j ->
        let select =
          Insertion_util.Key_bag.fresh_vector (Pass.bag p)
            (Array.init bits (fun bit -> sigma.(j) land (1 lsl bit) <> 0))
        in
        mux_tree b ~select ~data)
  in
  ignore
    (Pass.redirect_wires p ~limit:barrier
       (Array.mapi (fun j out -> wires.(sigma.(j)), out) outputs));
  Pass.finish p ~scheme:"cross-lock"
