(* Shared occurrence-list clause database for the CNF simplifiers.

   {!Preprocess} (the one-shot SatELite pass) and {!Inprocess} (the
   between-iterations engine) both work on the same representation: packed
   canonical clauses with per-clause 63-bit variable signatures, literal
   occurrence lists with lazy staleness compaction, a subsumption work
   queue, and one elimination stack driving model reconstruction.  This
   module is the single copy of that machinery; the two passes layer their
   own reasoning (subsumption/BVE fixpoints, probing, SCC collapsing,
   XOR/Gauss) on top of it.

   The record is exposed directly — the clients live
   in this library and need structural access to clauses and occurrence
   lists. *)

module Formula = Fl_cnf.Formula

(* Literal index for occurrence lists. *)
let lidx l = (2 * (abs l - 1)) + if l < 0 then 1 else 0

(* Sort by variable; each variable appears at most once per canonical
   clause, so the sign tiebreak never fires within one clause. *)
let lit_compare a b =
  let c = compare (abs a) (abs b) in
  if c <> 0 then c else compare a b

let signature lits =
  Array.fold_left (fun s l -> s lor (1 lsl (abs l mod 63))) 0 lits

(* Canonicalize a literal array in place: sort, drop duplicate literals,
   detect tautologies.  Returns [None] for a tautology, otherwise a
   clause trimmed to its deduplicated prefix — no intermediate lists, so
   loading a large miter stays one packed array per clause.  The caller
   must own [lits] (it is sorted and possibly truncated). *)
let canonical lits =
  Array.sort lit_compare lits;
  let n = Array.length lits in
  let w = ref 0 in
  let taut = ref false in
  (let i = ref 0 in
   while (not !taut) && !i < n do
     let l = lits.(!i) in
     if !i + 1 < n && lits.(!i + 1) = -l then taut := true
     else if !w > 0 && lits.(!w - 1) = l then ()
     else begin
       lits.(!w) <- l;
       incr w
     end;
     incr i
   done);
  if !taut then None
  else Some (if !w = n then lits else Array.sub lits 0 !w)

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
  queue : int Queue.t;  (* subsumption work list *)
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
    Queue.add ci db.queue
  end

(* Mark every variable of [lits] as touched: its clause set changed, so a
   failed elimination attempt on it may now succeed.  [append], [kill] and
   [strengthen] are the only clause mutations, and each calls this. *)
let touch db lits =
  Array.iter (fun l -> Bytes.set db.dirty (abs l - 1) '\001') lits

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
    Array.iter (fun l -> Vec.push_at db.occ (lidx l) ci) lits;
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
  Array.iter
    (fun x ->
      if x <> l then begin
        lits.(!w) <- x;
        incr w
      end)
    old;
  if Array.length lits = 0 then db.unsat <- true
  else begin
    db.cl.(ci) <- lits;
    db.sg.(ci) <- signature lits;
    db.n_str <- db.n_str + 1;
    enqueue_clause db ci
  end

(* Live clause indices currently containing literal [l], compacting the
   occurrence list in place. *)
let occurrences db l =
  let v = db.occ.(lidx l) in
  let out = ref [] in
  let w = ref 0 in
  for i = 0 to Vec.size v - 1 do
    let ci = Vec.get v i in
    if alive db ci && Array.exists (fun x -> x = l) db.cl.(ci) then begin
      Vec.set v !w ci;
      incr w;
      out := ci :: !out
    end
  done;
  Vec.shrink v !w;
  List.rev !out

let occ_count db v = Vec.size db.occ.(lidx v) + Vec.size db.occ.(lidx (-v))

(* Backward subsumption/strengthening with clause [ci] as the subsumer.
   Candidates containing every literal of [ci] lie in occ(p) for any p in
   the clause; candidates reachable by flipping p itself lie in occ(-p) —
   so scanning occ(p) ∪ occ(-p) for one literal p covers both cases
   (SatELite's trick).  p is chosen to minimize the scan. *)
let backward_subsume db ci =
  let c = db.cl.(ci) in
  if Array.length c > 0 then begin
    let best = ref c.(0) in
    let cost l = Vec.size db.occ.(lidx l) + Vec.size db.occ.(lidx (-l)) in
    Array.iter (fun l -> if cost l < cost !best then best := l) c;
    let sig_c = db.sg.(ci) in
    let scan l =
      List.iter
        (fun di ->
          if di <> ci && alive db di && sig_c land lnot db.sg.(di) = 0 then
            match subsumes c db.cl.(di) with
            | `Subsumes ->
              kill db di;
              db.n_sub <- db.n_sub + 1
            | `Strengthen fl ->
              (* c \ {fl} ⊆ d and -fl ∈ d: remove -fl from d. *)
              strengthen db di (-fl)
            | `No -> ())
        (occurrences db l)
    in
    scan !best;
    scan (- !best)
  end

let drain_subsumption db =
  while (not db.unsat) && not (Queue.is_empty db.queue) do
    let ci = Queue.take db.queue in
    Bytes.set db.queued ci '\000';
    if alive db ci then backward_subsume db ci
  done

(* Merge walk over canonical [a] (containing v) and [b] (containing -v):
   whether their resolvent on [v] is a tautology.  Allocates nothing. *)
let tautological v a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i = la || j = lb then false
    else begin
      let x = a.(i) and y = b.(j) in
      let vx = abs x and vy = abs y in
      if vx < vy then go (i + 1) j
      else if vx > vy then go i (j + 1)
      else if x = y || vx = v then go (i + 1) (j + 1)
      else true
    end
  in
  go 0 0

(* Resolvent of canonical [a] (containing v) and [b] (containing -v) on
   [v], which must not be tautological.  Both clauses are sorted by
   variable, so the merge is already canonical: no sort needed. *)
let resolve v a b =
  let la = Array.length a and lb = Array.length b in
  let lits = Array.make (la + lb - 2) 0 in
  let w = ref 0 in
  let take l =
    if abs l <> v then begin
      lits.(!w) <- l;
      incr w
    end
  in
  let i = ref 0 and j = ref 0 in
  while !i < la || !j < lb do
    if !j = lb || (!i < la && abs a.(!i) < abs b.(!j)) then begin
      take a.(!i);
      incr i
    end
    else if !i = la || abs a.(!i) > abs b.(!j) then begin
      take b.(!j);
      incr j
    end
    else begin
      (* Shared variable: [v] itself, or the same literal in both. *)
      take a.(!i);
      incr i;
      incr j
    end
  done;
  if !w = Array.length lits then lits else Array.sub lits 0 !w

(* Non-tautological resolvents of [pos] x [neg] on [v], counted until the
   count passes [budget]. *)
let count_resolvents db v ~budget pos neg =
  let rec over_neg a acc = function
    | [] -> acc
    | ni :: rest ->
      if acc > budget then acc
      else
        over_neg a (if tautological v a db.cl.(ni) then acc else acc + 1) rest
  in
  let rec over_pos acc = function
    | [] -> acc
    | pi :: rest ->
      if acc > budget then acc else over_pos (over_neg db.cl.(pi) acc neg) rest
  in
  over_pos 0 pos

(* Record [v] as eliminated with the clauses removed at its elimination —
   the snapshots {!reconstruct_stack} replays. *)
let push_elim db v saved =
  db.elim_stack <- (v, saved) :: db.elim_stack;
  Bytes.set db.elim_set (v - 1) '\001'

(* Bounded variable elimination of [v]: worthwhile when the surviving
   resolvents do not outnumber the removed clauses.  Variables with more
   than [max_occ] occurrences are skipped (quadratic-resolvent guard).
   The outcome depends only on the live clauses containing [v] or [-v]
   and on the frozen/eliminated flags, which is what lets
   {!elimination_sweep} skip untouched variables. *)
let try_eliminate db ~max_occ v =
  if not (frozen db v || eliminated db v || db.unsat) then begin
    db.n_attempts <- db.n_attempts + 1;
    let pos = occurrences db v and neg = occurrences db (-v) in
    let np = List.length pos and nn = List.length neg in
    if
      np + nn > 0
      && np + nn <= max_occ
      && np * nn <= max_occ * max_occ
    then begin
      let budget = np + nn in
      if count_resolvents db v ~budget pos neg <= budget then begin
        (* Accepted: build the resolvents (pos-major, then reversed, the
           order they are appended in), snapshot and remove the clauses of
           v, add the resolvents.  The snapshots drive model
           reconstruction. *)
        let resolvents = ref [] in
        List.iter
          (fun pi ->
            let a = db.cl.(pi) in
            List.iter
              (fun ni ->
                let b = db.cl.(ni) in
                if not (tautological v a b) then
                  resolvents := resolve v a b :: !resolvents)
              neg)
          pos;
        let saved = List.map (fun ci -> Array.copy db.cl.(ci)) (pos @ neg) in
        List.iter (kill db) pos;
        List.iter (kill db) neg;
        push_elim db v saved;
        db.n_elim <- db.n_elim + 1;
        List.iter
          (fun r ->
            db.n_res <- db.n_res + 1;
            ignore (append db r))
          !resolvents
      end
    end
  end

(* One elimination sweep, cheapest variable first, draining the
   subsumption queue after each (resolvents re-arm it).  Only variables
   touched since their last attempt are tried: an untouched variable's
   live clauses are the ones its last attempt saw, so trying it again
   would fail again.  Its occurrence lists also hold no stale entries
   (those come only from [kill] and [strengthen], which touch), so
   skipping it leaves every [occ_count], and with it the sort order, as a
   full sweep would.  Returns how many variables the sweep eliminated. *)
let elimination_sweep ?(max_occ = 40) db =
  let before = db.n_elim in
  let key = Array.init db.nvars (fun i -> occ_count db (i + 1)) in
  let order = Array.init db.nvars (fun i -> i + 1) in
  Array.sort (fun a b -> Int.compare key.(a - 1) key.(b - 1)) order;
  Array.iter
    (fun v ->
      if Bytes.get db.dirty (v - 1) = '\001' then begin
        Bytes.set db.dirty (v - 1) '\000';
        try_eliminate db ~max_occ v
      end;
      drain_subsumption db)
    order;
  db.n_elim - before

(* ------------------------------------------------------------------ *)

let count_occurring_vars db =
  let seen = Bytes.make db.nvars '\000' in
  for ci = 0 to db.n - 1 do
    Array.iter (fun l -> Bytes.set seen (abs l - 1) '\001') db.cl.(ci)
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
      queue = Queue.create ();
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
  let seen = Hashtbl.create (Formula.num_clauses f) in
  Formula.iter_clauses f (fun clause ->
      (* Copy before canonicalizing: the input formula owns [clause] and
         [canonical] sorts in place. *)
      match canonical (Array.copy clause) with
      | None -> db.n_taut <- db.n_taut + 1
      | Some lits ->
        if Hashtbl.mem seen lits then db.n_dup <- db.n_dup + 1
        else begin
          Hashtbl.add seen lits ();
          ignore (append db lits)
        end);
  db

(* Emit the reduced formula, numbering preserved.  The clause arrays
   transfer ownership: the working db dies with its pass and the
   elimination stack snapshotted its own copies, so the packed clauses
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
   guarantees the negative-literal clauses are then satisfied too).

   Equivalence substitutions ([v := l], see {!Inprocess}) use the same
   entry shape — saved clauses [[v; -l]; [-v; l]] — and the same rule
   assigns [v] the value of [l], so one replay covers elimination, derived
   units ([[l]]) and substitution uniformly. *)
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
