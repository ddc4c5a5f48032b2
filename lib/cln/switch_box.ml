module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit

type style = Independent | Swap

let key_bits = function Independent -> 2 | Swap -> 1

let decode style bits (a, b) =
  match style, bits with
  | Independent, [| s0; s1 |] ->
    (* out0 = s0 ? b : a;  out1 = s1 ? a : b *)
    (if s0 then b else a), (if s1 then a else b)
  | Swap, [| s |] -> if s then b, a else a, b
  | (Independent | Swap), _ ->
    invalid_arg "Switch_box.decode: wrong number of key bits"

let is_permutation style bits =
  match style, bits with
  | Independent, [| s0; s1 |] -> s0 = s1
  | Swap, [| _ |] -> true
  | (Independent | Swap), _ ->
    invalid_arg "Switch_box.is_permutation: wrong number of key bits"

let config_for_swap style ~swap =
  match style with
  | Independent -> [| swap; swap |]
  | Swap -> [| swap |]

let build style builder ~key_ids ~a ~b =
  match style, key_ids with
  | Independent, [| k0; k1 |] ->
    (* Mux fanins [s; x; y]: s=0 -> x.  out0: k0=0 -> a; out1: k1=0 -> b. *)
    let o0 = Circuit.Builder.add builder Gate.Mux [| k0; a; b |] in
    let o1 = Circuit.Builder.add builder Gate.Mux [| k1; b; a |] in
    o0, o1
  | Swap, [| k |] ->
    let o0 = Circuit.Builder.add builder Gate.Mux [| k; a; b |] in
    let o1 = Circuit.Builder.add builder Gate.Mux [| k; b; a |] in
    o0, o1
  | (Independent | Swap), _ ->
    invalid_arg "Switch_box.build: wrong number of key ids"

let style_to_string = function Independent -> "independent" | Swap -> "swap"
