(* Occurrence-list clause database of {!Preprocess} (the one-shot
   SatELite pass): packed canonical clauses with per-clause 63-bit
   variable signatures, literal occurrence lists with lazy staleness
   compaction, a subsumption work queue, and one elimination stack driving
   model reconstruction.  {!Preprocess} runs the subsumption/BVE fixpoint
   over it.

   The record is exposed directly: the tests replay the fixpoint with
   every variable marked dirty and compare its counters and stack. *)

module Formula = Fl_cnf.Formula
module Clause = Fl_cnf.Clause

(* Literal index for occurrence lists. *)
let lidx l = (2 * (abs l - 1)) + if l < 0 then 1 else 0

(* The hot helpers below are plain loops over their arguments: a closure
   passed to [Array.iter] or [Array.exists] would be allocated on every
   call. *)

let signature (lits : int array) =
  let s = ref 0 in
  for i = 0 to Array.length lits - 1 do
    s := !s lor (1 lsl (abs (Array.unsafe_get lits i) mod 63))
  done;
  !s

let rec mem_from l (lits : int array) i =
  i < Array.length lits && (Array.unsafe_get lits i = l || mem_from l lits (i + 1))

(* Whether literal [l] occurs in [lits]. *)
let mem l lits = mem_from l lits 0

(* Merge walk over canonical clauses [c] and [d]:
   [`Subsumes] when c ⊆ d; [`Strengthen l] when (c \ {l}) ⊆ d and -l ∈ d
   (self-subsuming resolution removes -l from d); [`No] otherwise. *)
let subsumes c d =
  let lc = Array.length c and ld = Array.length d in
  if lc > ld then `No
  else begin
    let rec go i j flip =
      if i = lc then if flip = 0 then `Subsumes else `Strengthen flip
      else if j = ld then `No
      else begin
        let a = c.(i) and b = d.(j) in
        let va = abs a and vb = abs b in
        if va < vb then `No
        else if va > vb then go i (j + 1) flip
        else if a = b then go (i + 1) (j + 1) flip
        else if flip = 0 then go (i + 1) (j + 1) a
        else `No
      end
    in
    go 0 0 0
  end

type t = {
  nvars : int;
  frozen_set : Bytes.t;  (* var-1 -> '\001' when frozen *)
  mutable cl : int array array;  (* [||] = dead slot *)
  mutable sg : int array;  (* per-clause variable signature *)
  mutable n : int;  (* clause slots used *)
  occ : Vec.t array;  (* literal -> clause indices (stale entries allowed) *)
  queue : Vec.t;  (* subsumption work list, FIFO from [qhead] *)
  mutable qhead : int;
  mutable queued : Bytes.t;  (* clause idx -> queued flag *)
  elim_set : Bytes.t;  (* var-1 -> '\001' when eliminated *)
  dirty : Bytes.t;  (* var-1 -> '\001' when touched since its last BVE try *)
  mutable elim_stack : (int * int array list) list;
  mutable unsat : bool;
  (* counters *)
  mutable n_taut : int;
  mutable n_dup : int;
  mutable n_sub : int;
  mutable n_str : int;
  mutable n_elim : int;
  mutable n_res : int;
  mutable n_attempts : int;
}

let alive db ci = db.cl.(ci) <> [||]
let frozen db v = Bytes.get db.frozen_set (v - 1) = '\001'
let eliminated db v = Bytes.get db.elim_set (v - 1) = '\001'

let enqueue_clause db ci =
  if Bytes.get db.queued ci = '\000' then begin
    Bytes.set db.queued ci '\001';
    Vec.push db.queue ci
  end

(* Mark every variable of [lits] as touched: its clause set changed, so a
   failed elimination attempt on it may now succeed.  [append], [kill] and
   [strengthen] are the only clause mutations, and each calls this. *)
let touch db (lits : int array) =
  for i = 0 to Array.length lits - 1 do
    Bytes.set db.dirty (abs lits.(i) - 1) '\001'
  done

let kill db ci =
  if alive db ci then begin
    touch db db.cl.(ci);
    db.cl.(ci) <- [||];
    db.sg.(ci) <- 0
  end

(* Append a canonical clause; occurrence entries for every literal, queued
   for a subsumption pass. *)
let append db lits =
  if Array.length lits = 0 then begin
    db.unsat <- true;
    -1
  end
  else begin
    if db.n = Array.length db.cl then begin
      let cap = max 64 (db.n * 2) in
      let cl' = Array.make cap [||] in
      Array.blit db.cl 0 cl' 0 db.n;
      db.cl <- cl';
      let sg' = Array.make cap 0 in
      Array.blit db.sg 0 sg' 0 db.n;
      db.sg <- sg';
      let queued' = Bytes.make cap '\000' in
      Bytes.blit db.queued 0 queued' 0 db.n;
      db.queued <- queued'
    end;
    let ci = db.n in
    db.cl.(ci) <- lits;
    db.sg.(ci) <- signature lits;
    db.n <- ci + 1;
    for i = 0 to Array.length lits - 1 do
      Vec.push_at db.occ (lidx lits.(i)) ci
    done;
    touch db lits;
    enqueue_clause db ci;
    ci
  end

(* Remove literal [l] from clause [ci] (self-subsuming resolution).  The
   occurrence entry for [l] goes stale; the others stay valid. *)
let strengthen db ci l =
  let old = db.cl.(ci) in
  touch db old;
  let lits = Array.make (Array.length old - 1) 0 in
  let w = ref 0 in
  for i = 0 to Array.length old - 1 do
    if old.(i) <> l then begin
      lits.(!w) <- old.(i);
      incr w
    end
  done;
  if Array.length lits = 0 then db.unsat <- true
  else begin
    db.cl.(ci) <- lits;
    db.sg.(ci) <- signature lits;
    db.n_str <- db.n_str + 1;
    enqueue_clause db ci
  end

(* Drop the stale entries of literal [l]'s occurrence list in place: the
   list then holds, in order, exactly the live clauses containing [l].
   Returns the list. *)
let compact db l =
  let v = db.occ.(lidx l) in
  let w = ref 0 in
  for i = 0 to Vec.size v - 1 do
    let ci = Vec.get v i in
    if alive db ci && mem l db.cl.(ci) then begin
      Vec.set v !w ci;
      incr w
    end
  done;
  Vec.shrink v !w;
  v

let occ_count db v = Vec.size db.occ.(lidx v) + Vec.size db.occ.(lidx (-v))

(* Subsume or strengthen, with clause [ci] = [c], every other clause
   of occ([l]).  The stale entries are dropped in the same walk that
   handles the candidates, which gives what compacting first and then
   walking the result would: handling a candidate changes that clause
   alone, and a clause index appears at most once in a list. *)
let subsume_occ db ci c l =
  let sig_c = db.sg.(ci) in
  let v = db.occ.(lidx l) in
  let w = ref 0 in
  for i = 0 to Vec.size v - 1 do
    let di = Vec.get v i in
    if alive db di && mem l db.cl.(di) then begin
      Vec.set v !w di;
      incr w;
      if di <> ci && sig_c land lnot db.sg.(di) = 0 then
        match subsumes c db.cl.(di) with
        | `Subsumes ->
          kill db di;
          db.n_sub <- db.n_sub + 1
        | `Strengthen fl ->
          (* c \ {fl} ⊆ d and -fl ∈ d: remove -fl from d. *)
          strengthen db di (-fl)
        | `No -> ()
    end
  done;
  Vec.shrink v !w

(* Backward subsumption/strengthening with clause [ci] as the subsumer.
   Candidates containing every literal of [ci] lie in occ(p) for any p in
   the clause; candidates reachable by flipping p itself lie in occ(-p) —
   so scanning occ(p) ∪ occ(-p) for one literal p covers both cases
   (SatELite's trick).  p is chosen to minimize the scan. *)
let backward_subsume db ci =
  let c = db.cl.(ci) in
  if Array.length c > 0 then begin
    let best = ref c.(0) and best_cost = ref (occ_count db (abs c.(0))) in
    for i = 1 to Array.length c - 1 do
      let cost = occ_count db (abs c.(i)) in
      if cost < !best_cost then begin
        best := c.(i);
        best_cost := cost
      end
    done;
    subsume_occ db ci c !best;
    subsume_occ db ci c (- !best)
  end

let drain_subsumption db =
  while (not db.unsat) && db.qhead < Vec.size db.queue do
    let ci = Vec.get db.queue db.qhead in
    db.qhead <- db.qhead + 1;
    Bytes.set db.queued ci '\000';
    if alive db ci then backward_subsume db ci
  done;
  if db.qhead = Vec.size db.queue then begin
    (* Drained: reuse the storage from the start. *)
    Vec.shrink db.queue 0;
    db.qhead <- 0
  end

(* Non-tautological resolvents on [v] of the clauses listed in [pos] x
   [neg], counted until the count passes [budget]. *)
let count_resolvents db v ~budget pos neg =
  let acc = ref 0 and i = ref 0 in
  while !acc <= budget && !i < Vec.size pos do
    let a = db.cl.(Vec.get pos !i) in
    let j = ref 0 in
    while !acc <= budget && !j < Vec.size neg do
      if not (Clause.tautological v a db.cl.(Vec.get neg !j)) then incr acc;
      incr j
    done;
    incr i
  done;
  !acc

(* Bounded variable elimination of [v]: worthwhile when the surviving
   resolvents do not outnumber the removed clauses.  Variables outside
   [Clause.bounded] are skipped (quadratic-resolvent guard).  The outcome
   depends only on the live clauses containing [v] or [-v] and on the
   frozen/eliminated flags, which is what lets {!elimination_sweep} skip
   untouched variables. *)
let try_eliminate db v =
  if not (frozen db v || eliminated db v || db.unsat) then begin
    db.n_attempts <- db.n_attempts + 1;
    (* Compacted, the two occurrence lists are the live clauses of [v]
       and of [-v], in order.  Nothing below adds to them: a resolvent
       holds neither literal. *)
    let pos = compact db v and neg = compact db (-v) in
    let np = Vec.size pos and nn = Vec.size neg in
    if Clause.bounded np nn then begin
      let budget = np + nn in
      let count = count_resolvents db v ~budget pos neg in
      if count <= budget then begin
        (* Accepted: build the resolvents, pos-major, into [resolvents]
           from the back (they are appended last-built first), save the
           clauses of v and remove them, add the resolvents.  A killed
           clause's array is never written again, so the saved list, which
           drives model reconstruction, holds the arrays themselves. *)
        let resolvents = Array.make count [||] in
        let r = ref count in
        for i = 0 to np - 1 do
          let a = db.cl.(Vec.get pos i) in
          for j = 0 to nn - 1 do
            let b = db.cl.(Vec.get neg j) in
            if not (Clause.tautological v a b) then begin
              decr r;
              resolvents.(!r) <- Clause.resolve v a b
            end
          done
        done;
        let saved = ref [] in
        for j = nn - 1 downto 0 do
          let ci = Vec.get neg j in
          saved := db.cl.(ci) :: !saved;
          kill db ci
        done;
        for i = np - 1 downto 0 do
          let ci = Vec.get pos i in
          saved := db.cl.(ci) :: !saved;
          kill db ci
        done;
        (* The snapshot {!reconstruct_stack} replays. *)
        db.elim_stack <- (v, !saved) :: db.elim_stack;
        Bytes.set db.elim_set (v - 1) '\001';
        db.n_elim <- db.n_elim + 1;
        db.n_res <- db.n_res + count;
        for i = 0 to count - 1 do
          ignore (append db resolvents.(i))
        done
      end
    end
  end

(* One elimination sweep in increasing [occ_count] at sweep start, ties
   by variable index, draining the subsumption queue after each variable
   (resolvents re-arm it).  The order is a stable counting sort of the
   variables on that key.  Only variables touched since their last
   attempt are tried: an untouched variable's live clauses are the ones
   its last attempt saw, so trying it again would fail again.  Its
   occurrence lists also hold no stale entries (those come only from
   [kill] and [strengthen], which touch), so skipping it leaves every
   [occ_count], and with it the order, as a full sweep would.

   The order holds only the candidates: variables neither frozen nor
   eliminated at sweep start, as an attempt on any other is a no-op.
   Restricting a stable sort keeps the candidates' relative order.  The
   dirty flag is read at the visit, not at sweep start: an elimination
   earlier in the sweep touches its neighbours, and a neighbour placed
   later must still be tried in this sweep.  With the subsumption queue
   drained before the first visit, draining after each attempt leaves
   the same clauses as draining after every variable.  Returns how many
   variables the sweep eliminated. *)
let elimination_sweep db =
  let before = db.n_elim in
  let cand = Array.make db.nvars 0 and key = Array.make db.nvars 0 in
  let m = ref 0 and kmax = ref 0 in
  for v = 1 to db.nvars do
    if not (frozen db v || eliminated db v) then begin
      let k = occ_count db v in
      cand.(!m) <- v;
      key.(!m) <- k;
      kmax := Int.max !kmax k;
      incr m
    end
  done;
  let m = !m in
  (* [start.(k)]: the next free position for key [k] in [order]. *)
  let start = Array.make (!kmax + 2) 0 in
  for i = 0 to m - 1 do
    start.(key.(i) + 1) <- start.(key.(i) + 1) + 1
  done;
  for k = 1 to !kmax + 1 do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let order = Array.make m 0 in
  for i = 0 to m - 1 do
    let k = key.(i) in
    order.(start.(k)) <- cand.(i);
    start.(k) <- start.(k) + 1
  done;
  drain_subsumption db;
  for i = 0 to m - 1 do
    let v = order.(i) in
    if Bytes.get db.dirty (v - 1) = '\001' then begin
      Bytes.set db.dirty (v - 1) '\000';
      try_eliminate db v;
      drain_subsumption db
    end
  done;
  db.n_elim - before

(* ------------------------------------------------------------------ *)

let count_occurring_vars db =
  let seen = Bytes.make db.nvars '\000' in
  for ci = 0 to db.n - 1 do
    let c = db.cl.(ci) in
    for i = 0 to Array.length c - 1 do
      Bytes.set seen (abs c.(i) - 1) '\001'
    done
  done;
  let n = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr n) seen;
  !n

let live_counts db =
  let clauses = ref 0 and literals = ref 0 in
  for ci = 0 to db.n - 1 do
    if alive db ci then begin
      incr clauses;
      literals := !literals + Array.length db.cl.(ci)
    end
  done;
  !clauses, !literals

let rec bit_length n = if n = 0 then 0 else 1 + bit_length (n lsr 1)

(* FNV-style hash of a canonical clause, for the duplicate table. *)
let hash_clause (lits : int array) =
  let h = ref (Array.length lits) in
  for i = 0 to Array.length lits - 1 do
    h := (!h lxor Array.unsafe_get lits i) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

(* Whether two clauses are equal literal for literal. *)
let same_clause (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
    incr i
  done;
  !i = n

(* Load a formula: canonicalize every clause, drop tautologies and exact
   duplicates, count both. *)
let create ~frozen f =
  let nvars = Formula.num_vars f in
  let frozen_set = Bytes.make (max 1 nvars) '\000' in
  Array.iter
    (fun v -> if v >= 1 && v <= nvars then Bytes.set frozen_set (v - 1) '\001')
    frozen;
  let db =
    {
      nvars;
      frozen_set;
      cl = Array.make (max 64 (Formula.num_clauses f)) [||];
      sg = Array.make (max 64 (Formula.num_clauses f)) 0;
      n = 0;
      occ = Array.make (2 * max 1 nvars) Vec.empty;
      queue = Vec.create ();
      qhead = 0;
      queued = Bytes.make (max 64 (Formula.num_clauses f)) '\000';
      elim_set = Bytes.make (max 1 nvars) '\000';
      dirty = Bytes.make (max 1 nvars) '\001';
      elim_stack = [];
      unsat = false;
      n_taut = 0;
      n_dup = 0;
      n_sub = 0;
      n_str = 0;
      n_elim = 0;
      n_res = 0;
      n_attempts = 0;
    }
  in
  (* Exact duplicates: an open-addressing table of the indices of the
     clauses loaded so far (-1 = free), probed linearly from a hash of the
     literals.  [create] runs no simplification, so a loaded index still
     holds the clause it was loaded with. *)
  let mask = (1 lsl Int.max 4 (1 + bit_length (Formula.num_clauses f))) - 1 in
  let slots = Array.make (mask + 1) (-1) in
  let seen_empty = ref false in
  Formula.iter_clauses f (fun clause ->
      (* Copy before canonicalizing: the input formula owns [clause] and
         [canonical] sorts in place. *)
      match Clause.canonical (Array.copy clause) with
      | None -> db.n_taut <- db.n_taut + 1
      | Some [||] ->
        if !seen_empty then db.n_dup <- db.n_dup + 1
        else begin
          seen_empty := true;
          ignore (append db [||])
        end
      | Some lits ->
        let s = ref (hash_clause lits land mask) in
        while slots.(!s) >= 0 && not (same_clause db.cl.(slots.(!s)) lits) do
          s := (!s + 1) land mask
        done;
        if slots.(!s) >= 0 then db.n_dup <- db.n_dup + 1
        else slots.(!s) <- append db lits);
  db

(* Emit the reduced formula, numbering preserved.  The clause arrays
   transfer ownership: the working db dies with its pass and the
   elimination stack holds only killed clauses, so the packed clauses
   flow into the formula — and from there into the solver arena —
   without another per-clause materialization. *)
let extract db =
  let reduced = Formula.create () in
  Formula.reserve reduced db.nvars;
  if not db.unsat then
    for ci = 0 to db.n - 1 do
      if alive db ci then Formula.add_clause_a reduced db.cl.(ci)
    done;
  reduced

(* Replay an elimination stack most-recent-first: when variable [v] is
   fixed, every variable eliminated after it already has a value, and the
   clauses saved at [v]'s elimination mention only [v], surviving variables
   and later-eliminated ones — so each clause is decidable.  [v] must be
   true iff some saved clause containing the positive literal is not
   already satisfied by the other literals (resolution completeness
   guarantees the negative-literal clauses are then satisfied too). *)
let reconstruct_stack stack model =
  let need = ref (Array.length model) in
  List.iter (fun (v, _) -> if v + 1 > !need then need := v + 1) stack;
  let m = Array.make !need false in
  Array.blit model 0 m 0 (Array.length model);
  let lit_true l = if l > 0 then m.(l) else not m.(-l) in
  List.iter
    (fun (v, saved) ->
      let forced_true =
        List.exists
          (fun clause ->
            Array.exists (fun l -> l = v) clause
            && not
                 (Array.exists
                    (fun l -> abs l <> v && lit_true l)
                    clause))
          saved
      in
      m.(v) <- forced_true)
    stack;
  m
