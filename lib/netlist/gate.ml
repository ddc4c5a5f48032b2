type t =
  | Input
  | Key_input
  | Const of bool
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor
  | Mux
  | Lut of bool array

let equal a b =
  match a, b with
  | Lut ta, Lut tb -> ta = tb
  | Const x, Const y -> x = y
  | Input, Input
  | Key_input, Key_input
  | Buf, Buf
  | Not, Not
  | And, And
  | Nand, Nand
  | Or, Or
  | Nor, Nor
  | Xor, Xor
  | Xnor, Xnor
  | Mux, Mux ->
    true
  | ( ( Input | Key_input | Const _ | Buf | Not | And | Nand | Or | Nor | Xor
      | Xnor | Mux | Lut _ ),
      _ ) ->
    false

(* [log2_exact n] is [Some k] when [n = 2^k]. *)
let log2_exact n =
  let rec go k m = if m = n then Some k else if m > n then None else go (k + 1) (m * 2) in
  if n <= 0 then None else go 0 1

let arity = function
  | Input | Key_input | Const _ -> Some 0
  | Buf | Not -> Some 1
  | Mux -> Some 3
  | Lut tt ->
    (match log2_exact (Array.length tt) with
     | Some k -> Some k
     | None -> invalid_arg "Gate.arity: LUT table length is not a power of 2")
  | And | Nand | Or | Nor | Xor | Xnor -> None

let valid_fanin_count kind n =
  match arity kind with
  | Some k -> n = k
  | None -> n >= 2

let eval kind inputs =
  let n = Array.length inputs in
  if not (valid_fanin_count kind n) then
    invalid_arg
      (Printf.sprintf "Gate.eval: %d fanins invalid for this gate kind" n);
  let all_true () = Array.for_all (fun b -> b) inputs in
  let any_true () = Array.exists (fun b -> b) inputs in
  let parity () = Array.fold_left (fun acc b -> if b then not acc else acc) false inputs in
  match kind with
  | Input | Key_input ->
    invalid_arg "Gate.eval: inputs carry external values, they are not evaluated"
  | Const b -> b
  | Buf -> inputs.(0)
  | Not -> not inputs.(0)
  | And -> all_true ()
  | Nand -> not (all_true ())
  | Or -> any_true ()
  | Nor -> not (any_true ())
  | Xor -> parity ()
  | Xnor -> not (parity ())
  | Mux -> if inputs.(0) then inputs.(2) else inputs.(1)
  | Lut tt ->
    let idx = ref 0 in
    for i = n - 1 downto 0 do
      idx := (!idx lsl 1) lor (if inputs.(i) then 1 else 0)
    done;
    tt.(!idx)

let negate = function
  | Buf -> Not
  | Not -> Buf
  | And -> Nand
  | Nand -> And
  | Or -> Nor
  | Nor -> Or
  | Xor -> Xnor
  | Xnor -> Xor
  | Const b -> Const (not b)
  | Lut tt -> Lut (Array.map not tt)
  | Input | Key_input | Mux ->
    invalid_arg "Gate.negate: no complemented cell for this kind"

let is_negatable = function
  | Buf | Not | And | Nand | Or | Nor | Xor | Xnor | Const _ | Lut _ -> true
  | Input | Key_input | Mux -> false

let truth_table kind ~arity:k =
  if not (valid_fanin_count kind k) then
    invalid_arg "Gate.truth_table: arity invalid for this gate kind";
  let size = 1 lsl k in
  let inputs_of i = Array.init k (fun j -> i land (1 lsl j) <> 0) in
  match kind with
  | Input | Key_input ->
    invalid_arg "Gate.truth_table: inputs have no truth table"
  | Lut tt -> Array.copy tt
  | Const _ | Buf | Not | And | Nand | Or | Nor | Xor | Xnor | Mux ->
    Array.init size (fun i -> eval kind (inputs_of i))

let to_string = function
  | Input -> "input"
  | Key_input -> "keyinput"
  | Const false -> "const0"
  | Const true -> "const1"
  | Buf -> "buf"
  | Not -> "not"
  | And -> "and"
  | Nand -> "nand"
  | Or -> "or"
  | Nor -> "nor"
  | Xor -> "xor"
  | Xnor -> "xnor"
  | Mux -> "mux"
  | Lut tt ->
    (match log2_exact (Array.length tt) with
     | Some k -> Printf.sprintf "lut%d" k
     | None -> "lut?")

let of_string s =
  match String.lowercase_ascii s with
  | "input" -> Some Input
  | "keyinput" -> Some Key_input
  | "const0" -> Some (Const false)
  | "const1" -> Some (Const true)
  | "buf" | "buff" -> Some Buf
  | "not" | "inv" -> Some Not
  | "and" -> Some And
  | "nand" -> Some Nand
  | "or" -> Some Or
  | "nor" -> Some Nor
  | "xor" -> Some Xor
  | "xnor" -> Some Xnor
  | "mux" -> Some Mux
  | _ -> None

