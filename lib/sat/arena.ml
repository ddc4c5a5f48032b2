(* Flat clause arena: every clause of the solver — problem and learnt —
   lives in one growable int array, addressed by a [Cref.t] word offset.

   Layout of one clause at offset [c]:

     data.(c)              header: size lsl 2  |  dead lsl 1  |  learnt
     data.(c + 1)          activity slot (float bits, see below)
     data.(c + 2 .. c+1+n) the n literals, packed ({!Lit.t})

   Sequential propagation touches header + literals in one cache stream
   instead of chasing a pointer per clause; deletion is a header bit so
   watch lists can skip dead clauses lazily; compaction slides live
   clauses down in one pass and returns a remap for outstanding crefs.

   The activity slot stores the float's IEEE bits shifted right by one
   (OCaml ints are 63-bit); clause activities are non-negative, so losing
   the lowest mantissa bit never reorders two activities by more than one
   ulp — irrelevant for a deletion heuristic. *)

module Cref = struct
  type t = int

  let none = -1
end

type t = {
  mutable data : int array;
  mutable size : int;  (* words used *)
  mutable clauses : int;  (* live clauses *)
  mutable learnts : int;  (* live learnt clauses *)
  mutable wasted : int;  (* words held by dead clauses *)
}

let create () = { data = Array.make 1024 0; size = 0; clauses = 0; learnts = 0; wasted = 0 }

let header_words = 2

let ensure a extra =
  let cap = Array.length a.data in
  if a.size + extra > cap then begin
    let cap' = ref (max 1024 (2 * cap)) in
    while a.size + extra > !cap' do
      cap' := 2 * !cap'
    done;
    let data' = Array.make !cap' 0 in
    Array.blit a.data 0 data' 0 a.size;
    a.data <- data'
  end

let pack_act x = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 1)
let unpack_act b = Int64.float_of_bits (Int64.shift_left (Int64.of_int b) 1)

let alloc a ~learnt lits n =
  if n < 2 then invalid_arg "Arena.alloc: clauses must have >= 2 literals";
  ensure a (header_words + n);
  let c = a.size in
  a.data.(c) <- (n lsl 2) lor (if learnt then 1 else 0);
  a.data.(c + 1) <- 0;  (* pack_act 0.0 = 0 *)
  Array.blit lits 0 a.data (c + header_words) n;
  a.size <- c + header_words + n;
  a.clauses <- a.clauses + 1;
  if learnt then a.learnts <- a.learnts + 1;
  c

let data a = a.data
let size a c = Array.unsafe_get a.data c lsr 2
let learnt a c = Array.unsafe_get a.data c land 1 = 1
let is_dead a c = Array.unsafe_get a.data c land 2 <> 0
let lit a c i = Array.unsafe_get a.data (c + header_words + i)
let set_lit a c i l = Array.unsafe_set a.data (c + header_words + i) l

let swap_lits a c i j =
  let base = c + header_words in
  let tmp = a.data.(base + i) in
  a.data.(base + i) <- a.data.(base + j);
  a.data.(base + j) <- tmp

let activity a c = unpack_act a.data.(c + 1)
let set_activity a c x = a.data.(c + 1) <- pack_act x

let kill a c =
  if not (is_dead a c) then begin
    a.data.(c) <- a.data.(c) lor 2;
    a.clauses <- a.clauses - 1;
    if learnt a c then a.learnts <- a.learnts - 1;
    a.wasted <- a.wasted + header_words + size a c
  end

let num_clauses a = a.clauses
let num_learnts a = a.learnts
let wasted a = a.wasted

let iter a f =
  let c = ref 0 in
  while !c < a.size do
    let len = size a !c in
    if not (is_dead a !c) then f !c;
    c := !c + header_words + len
  done

let iter_learnts a f = iter a (fun c -> if learnt a c then f c)

(* The literals of clause [c], as a fresh array (tests, clause export). *)
let lits a c = Array.sub a.data (c + header_words) (size a c)

(* Slide live clauses down over dead ones, in order.  Returns the cref
   remap: every pre-compaction cref of a live clause maps to its new
   offset; dead crefs map to [Cref.none].  The remap reads forwarding
   addresses written into the old array, so it is O(1) per query and
   valid until the next [compact]. *)
let compact a =
  let old = a.data and old_size = a.size in
  let data' = Array.make (Array.length a.data) 0 in
  let w = ref 0 in
  let c = ref 0 in
  while !c < old_size do
    let header = old.(!c) in
    let len = header lsr 2 in
    if header land 2 = 0 then begin
      Array.blit old !c data' !w (header_words + len);
      (* Forwarding address for the remap, in the old activity slot. *)
      old.(!c + 1) <- !w;
      w := !w + header_words + len
    end;
    c := !c + header_words + len
  done;
  a.data <- data';
  a.size <- !w;
  a.wasted <- 0;
  fun cref ->
    if cref < 0 || cref >= old_size || old.(cref) land 2 <> 0 then Cref.none
    else old.(cref + 1)

(* O(1) snapshot/restore for append-only phases: [mark] records the
   allocation frontier and counters; [restore] truncates back to it,
   dropping every clause allocated since.  Only valid when no pre-mark
   clause was killed and no compaction ran in between — the counters are
   reset, not recomputed. *)
type snapshot = { s_size : int; s_clauses : int; s_learnts : int; s_wasted : int }

let mark a =
  { s_size = a.size; s_clauses = a.clauses; s_learnts = a.learnts; s_wasted = a.wasted }

let restore a snap =
  if snap.s_size > a.size then invalid_arg "Arena.restore: stale snapshot";
  a.size <- snap.s_size;
  a.clauses <- snap.s_clauses;
  a.learnts <- snap.s_learnts;
  a.wasted <- snap.s_wasted
