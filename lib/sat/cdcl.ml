(* MiniSAT-style CDCL on a flat clause arena.

   Literals are packed ({!Lit}): external DIMACS literal [l] maps to
   [2*(|l|-1) + (l<0)]; [neg l = l lxor 1].  Assignments are one byte per
   variable in {!Lit.Lbool} coding (0 false / 1 true / 2 undef), so a
   literal evaluates with one byte load and one xor: 0 false, 1 true,
   >= 2 undef.

   Every clause lives in the {!Arena}: a [Cref.t] is a word offset into
   one flat int array (header + activity + literals inline), so
   propagation walks contiguous memory instead of chasing a pointer per
   clause.  Watchers carry a blocking literal — a cached literal of the
   clause checked before the arena is touched; when it is already true
   the clause is satisfied and propagation skips the clause body
   entirely (the common case on clause-dense Full-Lock miters). *)

type outcome = Sat | Unsat | Unknown

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned_clauses : int;
  learned_literals : int;
  reductions : int;
  max_decision_level : int;
  chrono_backtracks : int;
}

let zero_stats =
  {
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    learned_clauses = 0;
    learned_literals = 0;
    reductions = 0;
    max_decision_level = 0;
    chrono_backtracks = 0;
  }

let add_stats a b =
  {
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    conflicts = a.conflicts + b.conflicts;
    restarts = a.restarts + b.restarts;
    learned_clauses = a.learned_clauses + b.learned_clauses;
    learned_literals = a.learned_literals + b.learned_literals;
    reductions = a.reductions + b.reductions;
    max_decision_level = max a.max_decision_level b.max_decision_level;
    chrono_backtracks = a.chrono_backtracks + b.chrono_backtracks;
  }

let sub_stats a b =
  {
    decisions = a.decisions - b.decisions;
    propagations = a.propagations - b.propagations;
    conflicts = a.conflicts - b.conflicts;
    restarts = a.restarts - b.restarts;
    learned_clauses = a.learned_clauses - b.learned_clauses;
    learned_literals = a.learned_literals - b.learned_literals;
    reductions = a.reductions - b.reductions;
    max_decision_level = a.max_decision_level;
    chrono_backtracks = a.chrono_backtracks - b.chrono_backtracks;
  }

(* Deep distribution telemetry (DESIGN.md §4f): learnt-clause quality and
   search-shape histograms, recorded in the conflict path only when
   [Fl_obs.set_deep] is on — the off cost is one atomic load and branch
   per conflict.  Striped atomics, so sweep domains merge. *)
let h_lbd = Fl_obs.Hist.make "cdcl.lbd"
let h_learnt_len = Fl_obs.Hist.make "cdcl.learnt_len"
let h_conflict_level = Fl_obs.Hist.make "cdcl.conflict_level"
let h_props_per_decision = Fl_obs.Hist.make "cdcl.props_per_decision"

type budget = { max_conflicts : int; deadline : float }

let no_budget = { max_conflicts = -1; deadline = -1.0 }
let budget_conflicts n = { no_budget with max_conflicts = n }
let budget_seconds s = { no_budget with deadline = Unix.gettimeofday () +. s }

(* Search constants: VSIDS and learnt-clause activity decay, and the
   conflicts in the first Luby restart segment. *)
let var_decay_factor = 0.95
let clause_decay_factor = 0.999
let restart_base = 64

(* A learnt clause that would backjump more than this many levels
   backtracks one level instead (Nadel and Ryvchin's T). *)
let chrono_threshold = 100

(* Indexed max-heap over variables ordered by activity. *)
module Heap = struct
  type t = {
    mutable heap : int array;  (* heap position -> var *)
    mutable index : int array;  (* var -> heap position, -1 if absent *)
    mutable size : int;
    mutable act : float array;
        (* the solver's activity array, re-pointed when it grows *)
  }

  let create act = { heap = Array.make 8 0; index = Array.make 8 (-1); size = 0; act }

  let grow h n =
    if n > Array.length h.index then begin
      let cap = max n (2 * Array.length h.index) in
      let index' = Array.make cap (-1) in
      Array.blit h.index 0 index' 0 (Array.length h.index);
      h.index <- index';
      let heap' = Array.make cap 0 in
      Array.blit h.heap 0 heap' 0 h.size;
      h.heap <- heap'
    end

  (* [up] and [down] carry the moving variable in a hole and write it
     once at its final position.  They make the comparisons that swapping
     it at each step makes, so the layout is the same. *)
  let up h i =
    let heap = h.heap and index = h.index and act = h.act in
    let v = heap.(i) in
    let i = ref i in
    while !i > 0 && act.(v) > act.(heap.((!i - 1) / 2)) do
      let parent = (!i - 1) / 2 in
      let pv = heap.(parent) in
      heap.(!i) <- pv;
      index.(pv) <- !i;
      i := parent
    done;
    heap.(!i) <- v;
    index.(v) <- !i

  let down h i =
    let heap = h.heap and index = h.index and act = h.act and size = h.size in
    let v = heap.(i) in
    let i = ref i and moving = ref true in
    while !moving do
      let left = (2 * !i) + 1 in
      let right = left + 1 in
      (* The larger child, the left one on a tie; it moves up when it
         beats [v]. *)
      let child =
        if right < size && act.(heap.(right)) > act.(heap.(left)) then right
        else left
      in
      if child < size && act.(heap.(child)) > act.(v) then begin
        let cv = heap.(child) in
        heap.(!i) <- cv;
        index.(cv) <- !i;
        i := child
      end
      else moving := false
    done;
    heap.(!i) <- v;
    index.(v) <- !i

  let mem h v = v < Array.length h.index && h.index.(v) >= 0

  let insert h v =
    grow h (v + 1);
    if not (mem h v) then begin
      h.heap.(h.size) <- v;
      h.index.(v) <- h.size;
      h.size <- h.size + 1;
      up h h.index.(v)
    end

  let decrease h v = if mem h v then up h h.index.(v)  (* activity increased *)

  let pop h =
    let v = h.heap.(0) in
    h.index.(v) <- -1;
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.heap.(0) <- h.heap.(h.size);
      h.index.(h.heap.(0)) <- 0;
      down h 0
    end;
    v

  let is_empty h = h.size = 0
end

type t = {
  mutable nvars : int;
  mutable ok : bool;  (* false once a top-level contradiction is derived *)
  arena : Arena.t;  (* every clause, problem + learnt, packed flat *)
  inc : float array;
      (* [| var_inc; cla_inc |]: a float array stores its floats unboxed,
         so the per-conflict decays allocate nothing, where a mutable
         float field of this mixed record would box on every write *)
  mutable reductions : int;
  mutable assigns : Bytes.t;  (* var -> Lbool: 0 false / 1 true / 2 undef *)
  mutable level : int array;
  mutable reason : int array;  (* var -> cref or Cref.none *)
  mutable watches : Vec.t array;
      (* lit -> flat (blocker, cref) pairs, stride 2.  The blocker is
         some other literal of the clause; when it is already true the
         clause is satisfied and the arena is never touched.  A literal
         nothing watches holds the shared {!Vec.empty}. *)
  mutable bin_watches : Vec.t array;
      (* lit -> flat (implied_lit, cref) pairs, stride 2: binary
         clauses propagate off this list without touching the clause
         arena.  Entries are static — no watch surgery — and complete
         (each binary clause is listed under both its literals). *)
  mutable polarity : Bytes.t;  (* saved phase: 0 -> pick false first *)
  mutable seen : Bytes.t;  (* scratch for conflict analysis *)
  heap : Heap.t;
  mutable named : Bytes.t;
      (* var -> '\000' until a clause or an assumption names it, '\001'
         once named but not yet in [heap], '\002' once in it.  Only named
         variables are ever decided (DESIGN.md §4e). *)
  mutable pending_lo : int;
  mutable pending_hi : int;
      (* Every '\001' variable lies in [pending_lo .. pending_hi]; the
         range is empty ([lo > hi]) when none is pending. *)
  trail : Vec.t;
      (* Assigned literals in assignment order.  A literal may sit above
         literals of a higher level (chronological backtracking keeps
         lower-level literals in place); [level] is the truth. *)
  trail_lim : Vec.t;
  mutable qhead : int;
  kept : Vec.t;  (* [cancel_until] scratch: the literals it keeps *)
  mutable conflict_single : bool;
      (* set by [conflict_level]: one literal alone at the highest level *)
  (* Memoized Luby sequence, 1-based: luby.(i-1) = luby(i).  Grows by
     one entry per restart instead of re-deriving the sequence
     recursively from scratch each time. *)
  luby : Vec.t;
  (* statistics *)
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable n_learned : int;
  mutable n_learned_lits : int;
  mutable max_dl : int;
  mutable n_chrono : int;
  (* Model of the last Sat solve: var -> '\001' true, in the first
     [model_n] bytes of a buffer reused across solves; [model_n] is -1
     after a solve that was not Sat. *)
  mutable model_buf : Bytes.t;
  mutable model_n : int;
  (* Allocation-free scratch: the clause being loaded, the learnt clause
     and the variables marked while analysing a conflict, and learnt
     activities for the reduction median. *)
  load_buf : Vec.t;
  learnt : Vec.t;
  marked : Vec.t;
  mutable acts : float array;
  (* deep-telemetry scratch: stamped level marks for O(len) LBD, and the
     propagation/decision watermarks of the previous conflict *)
  mutable lbd_seen : int array;
  mutable lbd_stamp : int;
  mutable deep_mark_props : int;
  mutable deep_mark_decisions : int;
  (* periodic progress hook: fires every [progress_every] conflicts with the
     stat deltas accumulated since the last firing.  [progress_next] is
     [max_int] when disabled, so the hot-loop check is one int compare. *)
  mutable progress_every : int;
  mutable progress_next : int;
  mutable progress_mark : stats;
  mutable progress_cb : stats -> unit;
}

let create () =
  {
    nvars = 0;
    ok = true;
    arena = Arena.create ();
    inc = [| 1.0; 1.0 |];
    reductions = 0;
    assigns = Bytes.make 8 '\002';
    level = Array.make 8 0;
    reason = Array.make 8 Arena.Cref.none;
    watches = Array.make 16 Vec.empty;
    bin_watches = Array.make 16 Vec.empty;
    polarity = Bytes.make 8 '\000';
    seen = Bytes.make 8 '\000';
    heap = Heap.create (Array.make 8 0.0);
    named = Bytes.make 8 '\000';
    pending_lo = max_int;
    pending_hi = -1;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    kept = Vec.create ();
    conflict_single = false;
    luby = Vec.create ();
    n_decisions = 0;
    n_propagations = 0;
    n_conflicts = 0;
    n_restarts = 0;
    n_learned = 0;
    n_learned_lits = 0;
    max_dl = 0;
    n_chrono = 0;
    model_buf = Bytes.empty;
    model_n = -1;
    load_buf = Vec.create ();
    learnt = Vec.create ();
    marked = Vec.create ();
    acts = [||];
    lbd_seen = Array.make 8 0;
    lbd_stamp = 0;
    deep_mark_props = 0;
    deep_mark_decisions = 0;
    progress_every = 0;
    progress_next = max_int;
    progress_mark = zero_stats;
    progress_cb = ignore;
  }

let num_learnts s = Arena.num_learnts s.arena

let ensure_vars s n =
  if n > s.nvars then begin
    let old_cap = Bytes.length s.assigns in
    if n > old_cap then begin
      let cap = max n (2 * old_cap) in
      let assigns' = Bytes.make cap '\002' in
      Bytes.blit s.assigns 0 assigns' 0 old_cap;
      s.assigns <- assigns';
      let polarity' = Bytes.make cap '\000' in
      Bytes.blit s.polarity 0 polarity' 0 old_cap;
      s.polarity <- polarity';
      let seen' = Bytes.make cap '\000' in
      Bytes.blit s.seen 0 seen' 0 old_cap;
      s.seen <- seen';
      let named' = Bytes.make cap '\000' in
      Bytes.blit s.named 0 named' 0 old_cap;
      s.named <- named';
      let level' = Array.make cap 0 in
      Array.blit s.level 0 level' 0 old_cap;
      s.level <- level';
      let reason' = Array.make cap Arena.Cref.none in
      Array.blit s.reason 0 reason' 0 old_cap;
      s.reason <- reason';
      let act' = Array.make cap 0.0 in
      Array.blit s.heap.Heap.act 0 act' 0 old_cap;
      s.heap.Heap.act <- act';
      let watches' = Array.make (2 * cap) Vec.empty in
      Array.blit s.watches 0 watches' 0 (Array.length s.watches);
      s.watches <- watches';
      let bin' = Array.make (2 * cap) Vec.empty in
      Array.blit s.bin_watches 0 bin' 0 (Array.length s.bin_watches);
      s.bin_watches <- bin'
    end;
    s.nvars <- n
  end

(* Mark the variables of the DIMACS literals [lits] named; the first
   naming queues a variable for the heap. *)
let name_vars s lits =
  for i = 0 to Array.length lits - 1 do
    let v = abs lits.(i) - 1 in
    if Bytes.get s.named v = '\000' then begin
      Bytes.set s.named v '\001';
      if v < s.pending_lo then s.pending_lo <- v;
      if v > s.pending_hi then s.pending_hi <- v
    end
  done

(* Insert the variables named since the last solve into the heap in
   ascending index order: the order, and so the heap, that creating them
   used to give when creation inserted every variable. *)
let flush_named s =
  for v = s.pending_lo to s.pending_hi do
    if Bytes.unsafe_get s.named v = '\001' then begin
      Bytes.unsafe_set s.named v '\002';
      Heap.insert s.heap v
    end
  done;
  s.pending_lo <- max_int;
  s.pending_hi <- -1

(* --- value manipulation --- *)

let var_of l = l lsr 1
let lneg l = l lxor 1
let lit_of_dimacs = Lit.of_dimacs
let value_var s v = Lit.value_var s.assigns v

(* 0 = false, 1 = true, >= 2 = undef (see {!Lit.value}). *)
let value_lit s l = Lit.value s.assigns l

let decision_level s = Vec.size s.trail_lim

let stats s =
  {
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    conflicts = s.n_conflicts;
    restarts = s.n_restarts;
    learned_clauses = s.n_learned;
    learned_literals = s.n_learned_lits;
    reductions = s.reductions;
    max_decision_level = s.max_dl;
    chrono_backtracks = s.n_chrono;
  }

let enqueue_at s l reason lvl =
  let v = var_of l in
  Lit.assign s.assigns l;
  s.level.(v) <- lvl;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let enqueue s l reason = enqueue_at s l reason (decision_level s)

let var_inc = 0
let cla_inc = 1

let var_bump s v =
  let act = s.heap.Heap.act in
  act.(v) <- act.(v) +. s.inc.(var_inc);
  if act.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      act.(i) <- act.(i) *. 1e-100
    done;
    s.inc.(var_inc) <- s.inc.(var_inc) *. 1e-100
  end;
  Heap.decrease s.heap v

let var_decay s = s.inc.(var_inc) <- s.inc.(var_inc) /. var_decay_factor

let cla_bump s ci =
  if Arena.learnt s.arena ci then begin
    let a = Arena.activity s.arena ci +. s.inc.(cla_inc) in
    Arena.set_activity s.arena ci a;
    if a > 1e20 then begin
      Arena.iter_learnts s.arena (fun c ->
          Arena.set_activity s.arena c (Arena.activity s.arena c *. 1e-20));
      s.inc.(cla_inc) <- s.inc.(cla_inc) *. 1e-20
    end
  end

let cla_decay s = s.inc.(cla_inc) <- s.inc.(cla_inc) /. clause_decay_factor

(* Unassign every literal above level [target].  The literals of level
   [target] or lower that sit above [trail_lim.(target)] stay assigned and
   go back on the trail in their order; [qhead] points at the first of
   them, so they propagate again.  With none kept this is the plain
   backjump. *)
let cancel_until s target =
  if decision_level s > target then begin
    let trail = s.trail and kept = s.kept in
    let bound = Vec.get s.trail_lim target in
    Vec.shrink kept 0;
    for i = Vec.size trail - 1 downto bound do
      let l = Vec.get trail i in
      let v = var_of l in
      if s.level.(v) > target then begin
        Bytes.unsafe_set s.polarity v (if l land 1 = 0 then '\001' else '\000');
        Lit.unassign s.assigns v;
        s.reason.(v) <- Arena.Cref.none;
        Heap.insert s.heap v
      end
      else Vec.push kept l
    done;
    Vec.shrink trail bound;
    for k = Vec.size kept - 1 downto 0 do
      Vec.push trail (Vec.get kept k)
    done;
    Vec.shrink s.trail_lim target;
    s.qhead <- bound
  end

(* --- clause management --- *)

(* Register a clause (already in the arena) with the watch scheme: binary
   clauses go on the static stride-2 binary lists (both directions);
   longer clauses watch slots 0 and 1, each watcher carrying the other
   watched literal as its blocker. *)
let attach s ci =
  let l0 = Arena.lit s.arena ci 0 and l1 = Arena.lit s.arena ci 1 in
  if Arena.size s.arena ci = 2 then begin
    Vec.push_at s.bin_watches l0 l1;
    Vec.push_at s.bin_watches l0 ci;
    Vec.push_at s.bin_watches l1 l0;
    Vec.push_at s.bin_watches l1 ci
  end
  else begin
    Vec.push_at s.watches l0 l1;
    Vec.push_at s.watches l0 ci;
    Vec.push_at s.watches l1 l0;
    Vec.push_at s.watches l1 ci
  end

(* Copy the literals on the scratch stack [v] into the arena and watch
   them. *)
let push_clause s ~learnt v =
  let ci = Arena.alloc s.arena ~learnt v.Vec.data (Vec.size v) in
  attach s ci;
  ci

(* Sort the first [n] ints of [a] in place.  Ints under their total
   order have one sorted arrangement, so the choice of algorithm cannot
   change a loaded clause: insertion sort for the short clauses that
   dominate Tseytin output, [Array.sort] on a copy for long ones. *)
let sort_prefix a n =
  if n <= 16 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let b = Array.sub a 0 n in
    Array.sort Int.compare b;
    Array.blit b 0 a 0 n
  end

(* Add a problem clause of DIMACS literals; assumes every variable is
   known and the trail is at level 0.  The literals go through the
   [load_buf] scratch: packed, simplified against permanent (level-0)
   assignments, sorted and compacted in place, so the arena copy is the
   only allocation.  Drops duplicate literals and detects
   tautologies. *)
let load_clause s lits =
  if s.ok then begin
    (* Keep undefined literals; a true literal satisfies the clause. *)
    let buf = s.load_buf in
    Vec.shrink buf 0;
    let n = Array.length lits in
    let sat = ref false in
    (let i = ref 0 in
     while (not !sat) && !i < n do
       let l = lit_of_dimacs lits.(!i) in
       (match value_lit s l with
        | 1 -> sat := true
        | 0 -> ()
        | _ -> Vec.push buf l);
       incr i
     done);
    if not !sat then begin
      let kept = buf.Vec.data in
      let m = Vec.size buf in
      sort_prefix kept m;
      (* Deduplicate in place; adjacent [2v, 2v+1] is a tautology. *)
      let w = ref 0 in
      (let i = ref 0 in
       while (not !sat) && !i < m do
         let l = kept.(!i) in
         if !i + 1 < m && kept.(!i + 1) = lneg l then sat := true
         else if !w > 0 && kept.(!w - 1) = l then ()
         else begin
           kept.(!w) <- l;
           incr w
         end;
         incr i
       done);
      if not !sat then
        if !w = 0 then s.ok <- false
        else if !w = 1 then begin
          (* Unit at level 0: enqueue permanently (propagated on next
             solve). *)
          match value_lit s kept.(0) with
          | 1 -> ()
          | 0 -> s.ok <- false
          | _ -> enqueue s kept.(0) Arena.Cref.none
        end
        else begin
          Vec.shrink buf !w;
          ignore (push_clause s ~learnt:false buf)
        end
    end
  end

let max_var lits =
  let m = ref 0 in
  for i = 0 to Array.length lits - 1 do
    let v = abs lits.(i) in
    if v > !m then m := v
  done;
  !m

let add_clause_a s lits =
  ensure_vars s (max_var lits);
  name_vars s lits;
  cancel_until s 0;
  load_clause s lits

let add_clause s lits = add_clause_a s (Array.of_list lits)

let of_formula f =
  let s = create () in
  ensure_vars s (Fl_cnf.Formula.num_vars f);
  Fl_cnf.Formula.iter_clauses f (fun lits ->
      name_vars s lits;
      load_clause s lits);
  s

(* --- propagation --- *)

(* Returns conflicting cref or -1.  The assignment bytes, [level],
   [reason] and the arena words are loaded once per call and the scanned
   watch list once per propagated literal: nothing in the loop
   reallocates them (a moved watcher goes to another literal's list, and
   the trail, the one array that grows here, is read through its [Vec]).
   Propagations are counted in a local.

   An implied literal takes the highest level among the other literals
   of its reason.  When the propagated literal [p] is at the current
   level that is the current level; only a literal kept below the current
   level by chronological backtracking pays for a scan. *)
let propagate s =
  let assigns = s.assigns and level = s.level and reason = s.reason in
  let trail = s.trail and watches = s.watches in
  let data = Arena.data s.arena and hw = Arena.header_words in
  let dl = decision_level s in
  let conflict = ref (-1) in
  let props = ref 0 in
  while !conflict < 0 && s.qhead < Vec.size trail do
    let p = Vec.get trail s.qhead in
    s.qhead <- s.qhead + 1;
    incr props;
    let plevel = level.(var_of p) in
    let false_lit = lneg p in
    (* Binary fast path: every binary clause containing [false_lit] now
       implies its other literal.  The list is static, so this is a flat
       scan with no arena access and no watch-list surgery. *)
    let bw = s.bin_watches.(false_lit) in
    let bd = bw.Vec.data and nb = Vec.size bw in
    let b = ref 0 in
    while !conflict < 0 && !b < nb do
      let other = Array.unsafe_get bd !b in
      let value = Lit.value assigns other in
      if value = 0 then begin
        conflict := Array.unsafe_get bd (!b + 1);
        s.qhead <- Vec.size trail
      end
      else if value >= 2 then begin
        let v = var_of other in
        Lit.assign assigns other;
        level.(v) <- plevel;
        reason.(v) <- Array.unsafe_get bd (!b + 1);
        Vec.push trail other
      end;
      b := !b + 2
    done;
    if !conflict < 0 then begin
      let ws = watches.(false_lit) in
      let wd = ws.Vec.data and n = Vec.size ws in
      let j = ref 0 in
      let i = ref 0 in
      while !i < n do
        let blocker = Array.unsafe_get wd !i in
        let ci = Array.unsafe_get wd (!i + 1) in
        i := !i + 2;
        (* Blocking literal: when it is already true the clause is
           satisfied and the arena is never dereferenced. *)
        if Lit.value assigns blocker = 1 then begin
          Array.unsafe_set wd !j blocker;
          Array.unsafe_set wd (!j + 1) ci;
          j := !j + 2
        end
        else begin
          (* Ensure the false literal is in slot 1. *)
          let base = ci + hw in
          let l0 = Array.unsafe_get data base in
          let first =
            if l0 = false_lit then begin
              let l1 = Array.unsafe_get data (base + 1) in
              Array.unsafe_set data base l1;
              Array.unsafe_set data (base + 1) false_lit;
              l1
            end
            else l0
          in
          if Lit.value assigns first = 1 then begin
            (* Clause already satisfied: keep the watch, cache the true
               literal as the new blocker. *)
            Array.unsafe_set wd !j first;
            Array.unsafe_set wd (!j + 1) ci;
            j := !j + 2
          end
          else begin
            (* Look for a new literal to watch. *)
            let len = Array.unsafe_get data ci lsr 2 in
            let k = ref 2 in
            while !k < len && Lit.value assigns (Array.unsafe_get data (base + !k)) = 0 do
              incr k
            done;
            if !k < len then begin
              let lk = Array.unsafe_get data (base + !k) in
              Array.unsafe_set data (base + 1) lk;
              Array.unsafe_set data (base + !k) false_lit;
              Vec.push_at watches lk first;
              Vec.push_at watches lk ci
            end
            else begin
              (* Unit or conflicting. *)
              Array.unsafe_set wd !j first;
              Array.unsafe_set wd (!j + 1) ci;
              j := !j + 2;
              if Lit.value assigns first = 0 then begin
                conflict := ci;
                s.qhead <- Vec.size trail;
                (* Copy back the rest of the watch list. *)
                while !i < n do
                  Array.unsafe_set wd !j (Array.unsafe_get wd !i);
                  incr j;
                  incr i
                done
              end
              else begin
                let lvl =
                  if plevel = dl then dl
                  else begin
                    let m = ref plevel in
                    for k = 2 to len - 1 do
                      let lk = level.(var_of (Array.unsafe_get data (base + k))) in
                      if lk > !m then m := lk
                    done;
                    !m
                  end
                in
                let v = var_of first in
                Lit.assign assigns first;
                level.(v) <- lvl;
                reason.(v) <- ci;
                Vec.push trail first
              end
            end
          end
        end
      done;
      Vec.shrink ws !j
    end
  done;
  s.n_propagations <- s.n_propagations + !props;
  !conflict

(* --- conflict analysis (first UIP) --- *)

(* Drop the watcher of clause [ci] from literal [l]'s list, keeping the
   order of the others. *)
let unwatch s l ci =
  let ws = s.watches.(l) in
  let n = Vec.size ws in
  let i = ref 1 in
  while !i < n && Vec.get ws !i <> ci do
    i := !i + 2
  done;
  for k = !i + 1 to n - 1 do
    Vec.set ws (k - 2) (Vec.get ws k)
  done;
  Vec.shrink ws (n - 2)

(* The highest level among the literals of the conflicting clause [ci];
   [s.conflict_single] tells whether one literal is alone at it.  When
   both watched literals are at the current level, that is the answer.
   Otherwise the clause is scanned, and when neither watched literal of a
   long clause is at the highest level, the first literal that is moves
   into slot 0 and takes the watcher of the literal it displaces.  No
   allocation: the level is the result, the flag a solver field. *)
let conflict_level s ci =
  let arena = s.arena and level = s.level in
  let dl = decision_level s in
  let l0 = Arena.lit arena ci 0 and l1 = Arena.lit arena ci 1 in
  if level.(var_of l0) = dl && level.(var_of l1) = dl then begin
    s.conflict_single <- false;
    dl
  end
  else begin
    let len = Arena.size arena ci in
    let top = ref (-1) and count = ref 0 and at = ref 0 in
    for k = 0 to len - 1 do
      let lv = level.(var_of (Arena.lit arena ci k)) in
      if lv > !top then begin
        top := lv;
        count := 1;
        at := k
      end
      else if lv = !top then incr count
    done;
    if !at >= 2 then begin
      let x = Arena.lit arena ci !at in
      Arena.set_lit arena ci 0 x;
      Arena.set_lit arena ci !at l0;
      unwatch s l0 ci;
      Vec.push_at s.watches x l1;
      Vec.push_at s.watches x ci
    end;
    s.conflict_single <- !count = 1;
    !top
  end

(* Local conflict-clause minimization: a tail literal is redundant when
   its reason clause contains only marked or level-0 literals —
   self-resolution removes it without changing the clause's meaning. *)
let redundant s q =
  let arena = s.arena in
  let v = var_of q in
  let r = s.reason.(v) in
  r >= 0
  &&
  let len = Arena.size arena r in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < len do
    let lv = var_of (Arena.lit arena r !k) in
    if not (lv = v || s.level.(lv) = 0 || Bytes.get s.seen lv = '\001') then
      ok := false;
    incr k
  done;
  !ok

(* Leaves the learnt clause in [s.learnt]: the asserting literal in slot
   0, then the minimized tail in reverse discovery order, with the
   highest-level tail literal swapped into slot 1.  Returns the backjump
   level. *)
let analyze s confl =
  let arena = s.arena in
  let learnt = s.learnt and marked = s.marked in
  let dl = decision_level s in
  Vec.shrink learnt 0;
  Vec.shrink marked 0;
  Vec.push learnt 0;  (* slot 0: the asserting literal, set below *)
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (Vec.size s.trail - 1) in
  let continue = ref true in
  while !continue do
    cla_bump s !confl;
    (* Skip the implied literal of a reason clause by value, not position:
       binary reasons come off the static binary watch lists, which never
       reorder the arena clause. *)
    let len = Arena.size arena !confl in
    for k = 0 to len - 1 do
      let q = Arena.lit arena !confl k in
      let v = var_of q in
      if q <> !p && Bytes.get s.seen v = '\000' && s.level.(v) > 0 then begin
        Bytes.set s.seen v '\001';
        Vec.push marked v;
        var_bump s v;
        if s.level.(v) >= dl then incr counter
        else Vec.push learnt q
      end
    done;
    (* Walk the trail backwards to the next marked literal of the
       conflict level; marked lower-level literals, which may sit above
       it on the trail, are already in the tail. *)
    while
      let v = var_of (Vec.get s.trail !index) in
      Bytes.get s.seen v = '\000' || s.level.(v) < dl
    do
      decr index
    done;
    p := Vec.get s.trail !index;
    decr index;
    decr counter;
    if !counter = 0 then continue := false
    else confl := s.reason.(var_of !p)
  done;
  (* The UIP must not count as marked during minimization. *)
  Bytes.set s.seen (var_of !p) '\000';
  Vec.set learnt 0 (lneg !p);
  (* Reverse the tail to latest-discovered first, then drop redundant
     literals in place.  Literal order is part of the search: it breaks
     the slot-1 tie below and orders propagation's scan for a new
     watch. *)
  let n = Vec.size learnt in
  let i = ref 1 and j = ref (n - 1) in
  while !i < !j do
    let t = Vec.get learnt !i in
    Vec.set learnt !i (Vec.get learnt !j);
    Vec.set learnt !j t;
    incr i;
    decr j
  done;
  let w = ref 1 in
  for k = 1 to n - 1 do
    let q = Vec.get learnt k in
    if not (redundant s q) then begin
      Vec.set learnt !w q;
      incr w
    end
  done;
  Vec.shrink learnt !w;
  (* Clear every raised flag (including dropped literals'). *)
  for k = 0 to Vec.size marked - 1 do
    Bytes.set s.seen (Vec.get marked k) '\000'
  done;
  (* Backjump level = highest level among the (minimized) tail. *)
  let n = !w in
  let btlevel = ref 0 in
  for k = 1 to n - 1 do
    if s.level.(var_of (Vec.get learnt k)) > !btlevel then
      btlevel := s.level.(var_of (Vec.get learnt k))
  done;
  (* Watch invariant: slot 1 must hold the highest-level tail literal so that
     after backjumping the watched literal is never a stale false literal
     from a lower level (that would silence future unit propagations). *)
  if n > 2 then begin
    let best = ref 1 in
    for k = 2 to n - 1 do
      if s.level.(var_of (Vec.get learnt k)) > s.level.(var_of (Vec.get learnt !best))
      then best := k
    done;
    let tmp = Vec.get learnt 1 in
    Vec.set learnt 1 (Vec.get learnt !best);
    Vec.set learnt !best tmp
  end;
  !btlevel

(* --- search --- *)

(* Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
   Memoized iteratively: entry [i] only ever refers back to an entry
   [< i], so the cache fills left to right, one entry per restart. *)
let luby s i =
  while Vec.size s.luby < i do
    let j = Vec.size s.luby + 1 in
    (* Smallest k with 2^k - 1 >= j. *)
    let k = ref 1 in
    while (1 lsl !k) - 1 < j do
      incr k
    done;
    let v =
      if (1 lsl !k) - 1 = j then 1 lsl (!k - 1)
      else Vec.get s.luby (j - ((1 lsl (!k - 1)) - 1) - 1)
    in
    Vec.push s.luby v
  done;
  Vec.get s.luby (i - 1)

let out_of_budget budget s start_check =
  (budget.max_conflicts >= 0 && s.n_conflicts - start_check >= budget.max_conflicts)
  || (s.n_conflicts land 255 = 0
      && budget.deadline >= 0.0
      && Unix.gettimeofday () > budget.deadline)

(* [select a n k] is the [k]-th smallest of [a.(0 .. n-1)] (0-based),
   found by Hoare quickselect, which reorders that prefix in place. *)
let select (a : float array) n k =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while a.(!j) > pivot do
        decr j
      done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    (* [lo..j] <= pivot <= [i..hi], and everything between equals it. *)
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done;
  a.(k)

(* Drop the less active half of the learnt clauses and compact the arena.
   Called only at decision level 0: level-0 reasons are never dereferenced
   by [analyze] (it skips level-0 variables), so clearing them is safe, and
   watches are rebuilt on literals that are not permanently false so no
   future propagation is silenced. *)
let reduce_db s =
  assert (decision_level s = 0);
  let arena = s.arena in
  (* Median learnt activity as the deletion threshold; keep binary clauses.
     The median is the element at [count / 2] of the ascending order, so
     selecting it gives the same threshold a full sort would. *)
  if Array.length s.acts < Arena.num_learnts arena then
    s.acts <- Array.make (max 64 (2 * Arena.num_learnts arena)) 0.0;
  let count = ref 0 in
  Arena.iter_learnts arena (fun ci ->
      if Arena.size arena ci > 2 then begin
        s.acts.(!count) <- Arena.activity arena ci;
        incr count
      end);
  let threshold = if !count = 0 then infinity else select s.acts !count (!count / 2) in
  Arena.iter_learnts arena (fun ci ->
      if Arena.size arena ci > 2 && Arena.activity arena ci <= threshold then
        Arena.kill arena ci);
  (* Compaction renumbers every surviving cref.  Reasons on the (level-0)
     trail are never read again — clear rather than remap them; watch
     lists are rebuilt from the compacted arena below. *)
  let _remap = Arena.compact arena in
  for i = 0 to Vec.size s.trail - 1 do
    s.reason.(var_of (Vec.get s.trail i)) <- Arena.Cref.none
  done;
  (* Rebuild watches, preferring literals that are not permanently false so
     satisfied-then-unwound clauses keep live watches. *)
  for l = 0 to (2 * s.nvars) - 1 do
    Vec.shrink s.watches.(l) 0;
    Vec.shrink s.bin_watches.(l) 0
  done;
  Arena.iter arena (fun ci ->
      let len = Arena.size arena ci in
      if len > 2 then begin
        let slot = ref 0 in
        let k = ref 0 in
        while !slot < 2 && !k < len do
          if value_lit s (Arena.lit arena ci !k) <> 0 then begin
            Arena.swap_lits arena ci !slot !k;
            incr slot
          end;
          incr k
        done
      end;
      attach s ci);
  s.reductions <- s.reductions + 1

(* Learnt-clause LBD (Audemard & Simon: number of distinct decision levels
   among the clause's literals) plus the other conflict-shape samples.
   Runs before backtracking, while the learnt literals' levels are still
   current; the stamped scratch array keeps it allocation-free. *)
let record_conflict_stats s =
  let learnt = s.learnt in
  Fl_obs.Hist.record h_conflict_level (decision_level s);
  Fl_obs.Hist.record h_learnt_len (Vec.size learnt);
  let stamp = s.lbd_stamp + 1 in
  s.lbd_stamp <- stamp;
  let lbd = ref 0 in
  for k = 0 to Vec.size learnt - 1 do
      let lv = s.level.(var_of (Vec.get learnt k)) in
      if lv >= Array.length s.lbd_seen then begin
        (* levels can outgrow the var arrays only via repeated-assumption
           dummy levels; grow lazily rather than burden ensure_vars *)
        let cap = max (lv + 1) (2 * Array.length s.lbd_seen) in
        let a = Array.make cap 0 in
        Array.blit s.lbd_seen 0 a 0 (Array.length s.lbd_seen);
        s.lbd_seen <- a
      end;
      if s.lbd_seen.(lv) <> stamp then begin
        s.lbd_seen.(lv) <- stamp;
        incr lbd
      end
  done;
  Fl_obs.Hist.record h_lbd !lbd;
  let dp = s.n_propagations - s.deep_mark_props
  and dd = s.n_decisions - s.deep_mark_decisions in
  s.deep_mark_props <- s.n_propagations;
  s.deep_mark_decisions <- s.n_decisions;
  Fl_obs.Hist.record h_props_per_decision (dp / max 1 dd)

exception Found of outcome

(* Pop the most active unassigned decision variable, or -1 when all are
   assigned. *)
let rec pick_branch s =
  if Heap.is_empty s.heap then -1
  else begin
    let v = Heap.pop s.heap in
    if Lit.Lbool.is_undef (value_var s v) then v else pick_branch s
  end

(* [assumptions] holds packed literals; assumption [i] is decided at
   level [i + 1]. *)
let search s assumptions budget conflict_budget start_conflicts =
  let conflicts_this_run = ref 0 in
  try
    while true do
      let confl = propagate s in
      if confl >= 0 then begin
        s.n_conflicts <- s.n_conflicts + 1;
        incr conflicts_this_run;
        let cl = conflict_level s confl in
        if cl = 0 then begin
          s.ok <- false;
          raise (Found Unsat)
        end;
        if s.conflict_single then
          (* Below [cl] the clause is unit; re-propagating the kept
             literals finds it. *)
          cancel_until s (cl - 1)
        else begin
          cancel_until s cl;
          let btlevel = analyze s confl in
          let learnt = s.learnt in
          if Fl_obs.deep_enabled () then record_conflict_stats s;
          (if Vec.size learnt = 1 then begin
             let unit_lit = Vec.get learnt 0 in
             cancel_until s 0;
             match value_lit s unit_lit with
             | 0 ->
               s.ok <- false;
               raise (Found Unsat)
             | 1 -> ()
             | _ -> enqueue s unit_lit Arena.Cref.none
           end
           else begin
             (* A far backjump backtracks one level and asserts the
                learnt literal at [btlevel], above higher-level
                literals. *)
             let dl = decision_level s in
             if dl - btlevel > chrono_threshold then begin
               s.n_chrono <- s.n_chrono + 1;
               cancel_until s (dl - 1)
             end
             else cancel_until s btlevel;
             let ci = push_clause s ~learnt:true learnt in
             enqueue_at s (Vec.get learnt 0) ci btlevel
           end);
          s.n_learned <- s.n_learned + 1;
          s.n_learned_lits <- s.n_learned_lits + Vec.size learnt;
          var_decay s;
          cla_decay s
        end;
        if s.n_conflicts >= s.progress_next then begin
          let now = stats s in
          s.progress_cb (sub_stats now s.progress_mark);
          s.progress_mark <- now;
          s.progress_next <- s.n_conflicts + s.progress_every
        end;
        if out_of_budget budget s start_conflicts then raise (Found Unknown)
      end
      else begin
        (* No conflict: restart, or decide. *)
        if !conflicts_this_run >= conflict_budget then begin
          cancel_until s 0;
          s.n_restarts <- s.n_restarts + 1;
          if Fl_obs.enabled () then
            Fl_obs.emit
              ~fields:
                [
                  "restarts", Fl_obs.Int s.n_restarts;
                  "conflicts", Fl_obs.Int s.n_conflicts;
                  "learnts", Fl_obs.Int (Arena.num_learnts s.arena);
                ]
              "cdcl.restart";
          if Arena.num_learnts s.arena > 2000 + (500 * s.reductions) then
            reduce_db s;
          raise Exit
        end;
        let dl = decision_level s in
        if dl < Array.length assumptions then begin
          let a = assumptions.(dl) in
          match value_lit s a with
          | 1 ->
            Vec.push s.trail_lim (Vec.size s.trail)
            (* dummy level: keeps assumption index = level *)
          | 0 -> raise (Found Unsat)
          | _ ->
            Vec.push s.trail_lim (Vec.size s.trail);
            s.n_decisions <- s.n_decisions + 1;
            enqueue s a Arena.Cref.none
        end
        else begin
          let v = pick_branch s in
          if v < 0 then raise (Found Sat)
          else begin
            let phase_true = Bytes.get s.polarity v = '\001' in
            let l = (2 * v) lor (if phase_true then 0 else 1) in
            Vec.push s.trail_lim (Vec.size s.trail);
            if decision_level s > s.max_dl then s.max_dl <- decision_level s;
            s.n_decisions <- s.n_decisions + 1;
            enqueue s l Arena.Cref.none
          end
        end
      end
    done;
    assert false
  with
  | Found r -> Some r
  | Exit -> None

let solve ?(assumptions = []) ?(budget = no_budget) s =
  let assumptions = Array.of_list assumptions in
  ensure_vars s (max_var assumptions);
  name_vars s assumptions;
  for i = 0 to Array.length assumptions - 1 do
    assumptions.(i) <- lit_of_dimacs assumptions.(i)
  done;
  cancel_until s 0;
  flush_named s;
  s.model_n <- -1;
  if not s.ok then Unsat
  else begin
    let start_conflicts = s.n_conflicts in
    let rec run i =
      if out_of_budget budget s start_conflicts then Unknown
      else begin
        let conflict_budget = restart_base * luby s i in
        match search s assumptions budget conflict_budget start_conflicts with
        | Some r -> r
        | None -> run (i + 1)
      end
    in
    let result = run 1 in
    if result = Sat then begin
      if Bytes.length s.model_buf < s.nvars then
        s.model_buf <- Bytes.create (Bytes.length s.assigns);
      for v = 0 to s.nvars - 1 do
        Bytes.set s.model_buf v (if value_var s v = 1 then '\001' else '\000')
      done;
      s.model_n <- s.nvars
    end;
    cancel_until s 0;
    result
  end

let value s v =
  if s.model_n < 0 then invalid_arg "Cdcl.value: no model (last solve was not Sat)";
  if v < 1 || v > s.model_n then invalid_arg "Cdcl.value: unknown variable";
  Bytes.get s.model_buf (v - 1) = '\001'

let model s =
  if s.model_n < 0 then invalid_arg "Cdcl.model: no model (last solve was not Sat)";
  Array.init (s.model_n + 1) (fun i -> i > 0 && Bytes.get s.model_buf (i - 1) = '\001')

(* Forced learnt-database reduction at level 0 — the path DB reduction
   takes during search, exposed so tests can drive arena compaction and
   the watch-list rebuild directly. *)
let reduce_now s =
  cancel_until s 0;
  if s.ok then reduce_db s

let set_progress s ~every cb =
  if every <= 0 then invalid_arg "Cdcl.set_progress: every must be positive";
  s.progress_every <- every;
  s.progress_next <- s.n_conflicts + every;
  s.progress_mark <- stats s;
  s.progress_cb <- cb

let stats_fields (d : stats) =
  [
    "decisions", Fl_obs.Int d.decisions;
    "propagations", Fl_obs.Int d.propagations;
    "conflicts", Fl_obs.Int d.conflicts;
    "restarts", Fl_obs.Int d.restarts;
    "learned_clauses", Fl_obs.Int d.learned_clauses;
    "learned_literals", Fl_obs.Int d.learned_literals;
    "reductions", Fl_obs.Int d.reductions;
    "max_decision_level", Fl_obs.Int d.max_decision_level;
    "chrono_backtracks", Fl_obs.Int d.chrono_backtracks;
  ]

let pp_stats fmt st =
  Format.fprintf fmt
    "decisions %d, propagations %d, conflicts %d, restarts %d, learned %d (avg len %.1f), reductions %d, max level %d, chrono backtracks %d"
    st.decisions st.propagations st.conflicts st.restarts st.learned_clauses
    (if st.learned_clauses = 0 then 0.0
     else float_of_int st.learned_literals /. float_of_int st.learned_clauses)
    st.reductions st.max_decision_level st.chrono_backtracks

let solve_formula ?budget f =
  let s = of_formula f in
  let outcome = solve ?budget s in
  let m = match outcome with Sat -> Some (model s) | Unsat | Unknown -> None in
  outcome, m, stats s
