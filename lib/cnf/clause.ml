(* Sort by variable; each variable appears at most once per canonical
   clause, so the sign tiebreak never fires within one clause. *)
let lit_compare a b =
  let c = compare (abs a) (abs b) in
  if c <> 0 then c else compare a b

(* Sort [lits.(i .. i + n - 1)] by [lit_compare] by insertion, the cheaper
   sort on the short clauses miters are made of.  The order is total, so
   any sort gives the same array. *)
let insertion_sort (lits : int array) i n =
  for k = i + 1 to i + n - 1 do
    let x = lits.(k) in
    let j = ref (k - 1) in
    while !j >= i && lit_compare lits.(!j) x > 0 do
      lits.(!j + 1) <- lits.(!j);
      decr j
    done;
    lits.(!j + 1) <- x
  done

let canonicalize lits i n =
  if n <= 16 then insertion_sort lits i n
  else if i = 0 && n = Array.length lits then Array.sort lit_compare lits
  else begin
    let seg = Array.sub lits i n in
    Array.sort lit_compare seg;
    Array.blit seg 0 lits i n
  end;
  let w = ref i in
  let taut = ref false in
  (let k = ref i in
   while (not !taut) && !k < i + n do
     let l = lits.(!k) in
     if !k + 1 < i + n && lits.(!k + 1) = -l then taut := true
     else if !w > i && lits.(!w - 1) = l then ()
     else begin
       lits.(!w) <- l;
       incr w
     end;
     incr k
   done);
  if !taut then -1 else !w - i

(* No intermediate lists, so loading a large miter stays one packed array
   per clause. *)
let canonical lits =
  let n = Array.length lits in
  let w = canonicalize lits 0 n in
  if w < 0 then None else Some (if w = n then lits else Array.sub lits 0 w)

(* Merge walk from positions [i] and [j], which end at [ea] and [eb],
   [shared] literals of the prefixes counted twice so far. *)
let rec merge_length v (a : int array) i ea (b : int array) j eb shared =
  if i = ea || j = eb then shared
  else begin
    let x = a.(i) and y = b.(j) in
    let vx = abs x and vy = abs y in
    if vx < vy then merge_length v a (i + 1) ea b j eb shared
    else if vx > vy then merge_length v a i ea b (j + 1) eb shared
    else if vx = v then merge_length v a (i + 1) ea b (j + 1) eb (shared + 2)
    else if x = y then merge_length v a (i + 1) ea b (j + 1) eb (shared + 1)
    else -1
  end

let resolvent_length v a ia na b ib nb =
  let shared = merge_length v a ia (ia + na) b ib (ib + nb) 0 in
  if shared < 0 then -1 else na + nb - shared

let tautological v a b =
  resolvent_length v a 0 (Array.length a) b 0 (Array.length b) < 0

(* Both clauses are sorted by variable, so the merge is already
   canonical: no sort needed.  [dst] may be [a] or [b] when [at] lies
   past both clauses. *)
let resolve_into v a ia na b ib nb dst at =
  let ea = ia + na and eb = ib + nb in
  let w = ref at and i = ref ia and j = ref ib in
  while !i < ea || !j < eb do
    let l =
      if !j = eb || (!i < ea && abs a.(!i) < abs b.(!j)) then begin
        incr i;
        a.(!i - 1)
      end
      else if !i = ea || abs a.(!i) > abs b.(!j) then begin
        incr j;
        b.(!j - 1)
      end
      else begin
        (* Shared variable: [v] itself, or the same literal in both. *)
        incr i;
        incr j;
        a.(!i - 1)
      end
    in
    if abs l <> v then begin
      dst.(!w) <- l;
      incr w
    end
  done

let resolve v a b =
  let la = Array.length a and lb = Array.length b in
  let lits = Array.make (resolvent_length v a 0 la b 0 lb) 0 in
  resolve_into v a 0 la b 0 lb lits 0;
  lits

let max_occ = 40

let bounded np nn =
  np + nn > 0 && np + nn <= max_occ && np * nn <= max_occ * max_occ
