(* Growable int stack: the solver's watch lists, trail and analysis
   scratch, and the preprocessor's occurrence lists.

   Tables of lists (one per literal) start every slot at the one shared
   [empty] sentinel, so building or growing a table is an [Array.make]
   plus a blit — no record and no storage per literal until the list
   first receives an element through [push_at]. *)

type t = { mutable data : int array; mutable size : int }

let empty = { data = [||]; size = 0 }
let create () = { data = Array.make 8 0; size = 0 }

let grow v =
  if v == empty then invalid_arg "Vec.push: the shared empty list is read-only";
  let data' = Array.make (max 8 (v.size * 2)) 0 in
  Array.blit v.data 0 data' 0 v.size;
  v.data <- data'

let push v x =
  if v.size = Array.length v.data then grow v;
  Array.unsafe_set v.data v.size x;
  v.size <- v.size + 1

let push_at a i x =
  let v = a.(i) in
  if v == empty then begin
    let data = Array.make 8 0 in
    Array.unsafe_set data 0 x;
    a.(i) <- { data; size = 1 }
  end
  else push v x

let get v i = Array.unsafe_get v.data i
let set v i x = Array.unsafe_set v.data i x
let size v = v.size
let shrink v n = if v.size <> n then v.size <- n
