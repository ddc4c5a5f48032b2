module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View

type encoding = {
  node_var : int array;
  input_vars : int array;
  key_vars : int array;
  output_vars : int array;
}

(* Where the gate table writes its clauses: [put] adds a literal to the
   open clause, [close] ends it, and [fresh] numbers a new variable (the
   inner stages of n-ary XOR chains).  A full circuit copy writes into a
   formula ([formula_sink]); a folded observation copy writes into a flat
   template ([fold_observation]). *)
type sink = { put : int -> unit; close : unit -> unit; fresh : unit -> int }

let clause2 s a b =
  s.put a;
  s.put b;
  s.close ()

let clause3 s a b c =
  s.put a;
  s.put b;
  s.put c;
  s.close ()

(* Binary XOR: the 4 clauses of Table 1. *)
let encode_xor2 s ~out a b =
  clause3 s (-a) (-b) (-out);
  clause3 s a b (-out);
  clause3 s a (-b) out;
  clause3 s (-a) b out

(* n-ary XOR via a balanced pairwise tree of fresh variables; the final
   stage optionally complements for XNOR.  Same n-1 XOR2 stages (and thus
   clause count and shapes) as a linear chain, but log instead of linear
   depth, so unit propagation across a wide XOR resolves in O(log n)
   implication steps. *)
let encode_xor_chain s ~out ~negated fanins n =
  assert (n >= 2);
  let rec reduce layer =
    let m = Array.length layer in
    if m <= 2 then layer
    else begin
      let next = Array.make ((m + 1) / 2) 0 in
      for i = 0 to (m / 2) - 1 do
        let t = s.fresh () in
        encode_xor2 s ~out:t layer.(2 * i) layer.(2 * i + 1);
        next.(i) <- t
      done;
      if m land 1 = 1 then next.(((m + 1) / 2) - 1) <- layer.(m - 1);
      reduce next
    end
  in
  let out = if negated then -out else out in
  if n = 2 then encode_xor2 s ~out fanins.(0) fanins.(1)
  else
    let pair = reduce (Array.sub fanins 0 n) in
    encode_xor2 s ~out pair.(0) pair.(1)

(* The clauses of Table 1 for [out = kind(fanins.(0..n-1))], written to
   [s]: the one table behind the full circuit copy and the folded
   observation copy. *)
let gate_clauses s kind ~out fanins n =
  match kind with
  | Gate.Input | Gate.Key_input ->
    invalid_arg "Tseytin.encode_gate: inputs are free variables"
  | Gate.Const b ->
    s.put (if b then out else -out);
    s.close ()
  | Gate.Buf ->
    clause2 s fanins.(0) (-out);
    clause2 s (-fanins.(0)) out
  | Gate.Not ->
    clause2 s (-fanins.(0)) (-out);
    clause2 s fanins.(0) out
  | Gate.And | Gate.Nand ->
    (* AND: (¬A1 ∨ … ∨ ¬An ∨ C) ∧ ∧i (Ai ∨ ¬C); NAND complements C. *)
    let c = if kind = Gate.And then out else -out in
    for i = 0 to n - 1 do
      s.put (-fanins.(i))
    done;
    s.put c;
    s.close ();
    for i = 0 to n - 1 do
      clause2 s fanins.(i) (-c)
    done
  | Gate.Or | Gate.Nor ->
    let c = if kind = Gate.Or then out else -out in
    for i = 0 to n - 1 do
      s.put fanins.(i)
    done;
    s.put (-c);
    s.close ();
    for i = 0 to n - 1 do
      clause2 s (-fanins.(i)) c
    done
  | Gate.Xor -> encode_xor_chain s ~out ~negated:false fanins n
  | Gate.Xnor -> encode_xor_chain s ~out ~negated:true fanins n
  | Gate.Mux ->
    (* C = A·¬S + B·S with fanins [S; A; B] — Table 1's four clauses. *)
    let sel = fanins.(0) and a = fanins.(1) and b = fanins.(2) in
    clause3 s sel (-a) out;
    clause3 s sel a (-out);
    clause3 s (-sel) (-b) out;
    clause3 s (-sel) b (-out)
  | Gate.Lut tt ->
    (* One clause per table row: (row holds) -> out = tt(row). *)
    Array.iteri
      (fun row set ->
        for j = 0 to n - 1 do
          s.put (if row land (1 lsl j) <> 0 then -fanins.(j) else fanins.(j))
        done;
        s.put (if set then out else -out);
        s.close ())
      tt

(* A growable int array, the one scratch buffer of each sink. *)
type buf = { mutable data : int array; mutable len : int }

let buf_create () = { data = Array.make 16 0; len = 0 }

let buf_push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

(* Each clause becomes an array of its own in [f]. *)
let formula_sink f =
  let b = buf_create () in
  {
    put = buf_push b;
    close =
      (fun () ->
        Formula.add_clause_a f (Array.sub b.data 0 b.len);
        b.len <- 0);
    fresh = (fun () -> Formula.fresh_var f);
  }

let encode_gate f kind ~out ~fanins =
  let n = Array.length fanins in
  if not (Gate.valid_fanin_count kind n) then
    invalid_arg "Tseytin.encode_gate: fanin count mismatch";
  gate_clauses (formula_sink f) kind ~out fanins n

let encode ?share_inputs ?share_keys f c =
  let n = Circuit.num_nodes c in
  let node_var = Array.make n 0 in
  (* Assign variables to inputs first (shared or fresh). *)
  let assign_ports ports shared label =
    match shared with
    | None -> Array.iter (fun id -> node_var.(id) <- Formula.fresh_var f) ports
    | Some vars ->
      if Array.length vars <> Array.length ports then
        invalid_arg (Printf.sprintf "Tseytin.encode: shared %s length mismatch" label);
      Array.iteri (fun i id -> node_var.(id) <- vars.(i)) ports
  in
  assign_ports c.Circuit.inputs share_inputs "inputs";
  assign_ports c.Circuit.keys share_keys "keys";
  for id = 0 to n - 1 do
    if node_var.(id) = 0 then node_var.(id) <- Formula.fresh_var f
  done;
  (* Gate clauses go out in topological order when acyclic (fanin-defining
     clauses before their consumers helps unit propagation); variable
     numbering above stays in id order either way. *)
  let sink = formula_sink f in
  let fan = ref [||] in
  let emit id =
    let nd = Circuit.node c id in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Key_input -> ()
    | kind ->
      let fanins = nd.Circuit.fanins in
      let m = Array.length fanins in
      if Array.length !fan < m then fan := Array.make (2 * m) 0;
      for i = 0 to m - 1 do
        !fan.(i) <- node_var.(fanins.(i))
      done;
      gate_clauses sink kind ~out:node_var.(id) !fan m
  in
  (match View.topo_order (View.of_circuit c) with
   | Some order -> Array.iter emit order
   | None ->
     for id = 0 to n - 1 do
       emit id
     done);
  {
    node_var;
    input_vars = Array.map (fun id -> node_var.(id)) c.Circuit.inputs;
    key_vars = Array.map (fun id -> node_var.(id)) c.Circuit.keys;
    output_vars = Array.map (fun (_, id) -> node_var.(id)) c.Circuit.outputs;
  }

let xor_out f a b =
  let x = Formula.fresh_var f in
  encode_xor2 (formula_sink f) ~out:x a b;
  x

let assert_any_differs f pairs =
  let diffs = List.map (fun (a, b) -> xor_out f a b) pairs in
  Formula.add_clause f diffs;
  Array.of_list diffs

let assert_lit f lit = Formula.add_clause f [ lit ]

let assert_vector f vars bits =
  if Array.length vars <> Array.length bits then
    invalid_arg "Tseytin.assert_vector: length mismatch";
  Array.iteri (fun i v -> assert_lit f (if bits.(i) then v else -v)) vars

(* ------------------------------------------------------------------ *)
(* Observation copies, folded to the key cone                          *)
(* ------------------------------------------------------------------ *)

(* A template numbers its variables locally: key slot [i] is variable
   [i + 1], and the [j]-th fresh variable (from 1) is [keys + j].  Its
   clauses lie end to end in one array, each ended by a 0. *)
type observation = { keys : int; locals : int; clauses : int array }

(* A node the evaluator settled stands as a constant literal: [lit_true]
   or its negation.  No variable has this number, and only the fold's
   sink sees it: a false constant drops out of its clause, a true one
   satisfies (and so skips) the clause.  Every gate clause also mentions
   the gate's own, unsettled, output, so no clause folds to empty. *)
let lit_true = max_int

let fold_observation c ~values ~outputs =
  let n = Circuit.num_nodes c in
  if Array.length values <> n then
    invalid_arg "Tseytin.fold_observation: values length mismatch";
  if Array.length outputs <> Circuit.num_outputs c then
    invalid_arg "Tseytin.fold_observation: outputs length mismatch";
  let keys = Circuit.num_keys c in
  (* Settled nodes hold a constant, keys their slot, and the unsettled
     gates 0 until they get a literal below. *)
  let lit =
    Array.map
      (function View.V0 -> -lit_true | View.V1 -> lit_true | View.VX -> 0)
      values
  in
  Array.iteri (fun i id -> lit.(id) <- i + 1) c.Circuit.keys;
  let locals = ref 0 in
  let fresh () =
    incr locals;
    keys + !locals
  in
  let out = buf_create () in
  let start = ref 0 and satisfied = ref false in
  let sink =
    {
      put =
        (fun l ->
          if l = lit_true then satisfied := true
          else if l <> -lit_true then buf_push out l);
      close =
        (fun () ->
          if !satisfied then begin
            out.len <- !start;
            satisfied := false
          end
          else begin
            buf_push out 0;
            start := out.len
          end);
      fresh;
    }
  in
  let unit l =
    sink.put l;
    sink.close ()
  in
  (* The gate an unsettled node still computes once its settled fanins are
     folded in, with its live fanins in [fan.(0 .. !arity - 1)]: neutral
     constants leave AND/OR/XOR (an XOR absorbs true ones as a
     complement), and a gate left with one live fanin is a BUF or a NOT.
     A settled fanin that decides the gate cannot occur here: the
     evaluator would have settled the node too. *)
  let fan = ref (Array.make 8 0) and arity = ref 0 in
  let keep l =
    !fan.(!arity) <- l;
    incr arity
  in
  let unary negated = if negated then Gate.Not else Gate.Buf in
  let folded id =
    let nd = Circuit.node c id in
    let fanins = nd.Circuit.fanins in
    let m = Array.length fanins in
    if Array.length !fan < m then fan := Array.make (2 * m) 0;
    arity := 0;
    match nd.Circuit.kind with
    | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor) as kind ->
      for i = 0 to m - 1 do
        let l = lit.(fanins.(i)) in
        if abs l <> lit_true then keep l
      done;
      if !arity = 1 then unary (kind = Gate.Nand || kind = Gate.Nor) else kind
    | (Gate.Xor | Gate.Xnor) as kind ->
      let negated = ref (kind = Gate.Xnor) in
      for i = 0 to m - 1 do
        let l = lit.(fanins.(i)) in
        if l = lit_true then negated := not !negated
        else if l <> -lit_true then keep l
      done;
      if !arity = 1 then unary !negated
      else if !negated then Gate.Xnor
      else Gate.Xor
    | Gate.Mux ->
      let s = lit.(fanins.(0)) and a = lit.(fanins.(1)) and b = lit.(fanins.(2)) in
      if s = lit_true then (keep b; Gate.Buf)
      else if s = -lit_true then (keep a; Gate.Buf)
      else if abs a = lit_true && abs b = lit_true then (keep s; unary (a = lit_true))
      else (keep s; keep a; keep b; Gate.Mux)
    | kind ->
      for i = 0 to m - 1 do
        keep lit.(fanins.(i))
      done;
      kind
  in
  (* A gate left with one live fanin takes that fanin's literal; any
     other gets a fresh variable and its clauses. *)
  let define id =
    match folded id with
    | Gate.Buf when !arity = 1 -> lit.(id) <- !fan.(0)
    | Gate.Not when !arity = 1 -> lit.(id) <- - !fan.(0)
    | kind ->
      let o = fresh () in
      lit.(id) <- o;
      gate_clauses sink kind ~out:o !fan !arity
  in
  (match View.topo_order (View.of_circuit c) with
   | Some order -> Array.iter (fun id -> if lit.(id) = 0 then define id) order
   | None ->
     (* On a cycle an alias could chase itself (a BUF loop), so nodes are
        resolved depth-first over their fanins.  A node reached again
        while its own resolution is open gets a fresh variable: that cuts
        the cycle there, and the node's clauses go out once its fanins
        are resolved.  Every other node is defined as above.  Aliasing
        substitutes a literal for a variable, so each cycle keeps its
        constraint through the one variable that cuts it (DESIGN.md
        §4h). *)
     let opened = Bytes.make n '\000' in
     let rec resolve id =
       if lit.(id) = 0 then
         if Bytes.get opened id = '\001' then lit.(id) <- fresh ()
         else begin
           Bytes.set opened id '\001';
           Array.iter resolve (Circuit.node c id).Circuit.fanins;
           Bytes.set opened id '\000';
           if lit.(id) = 0 then define id
           else
             let kind = folded id in
             gate_clauses sink kind ~out:lit.(id) !fan !arity
         end
     in
     for id = 0 to n - 1 do
       resolve id
     done);
  Array.iteri
    (fun i (_, id) ->
      let l = if outputs.(i) then lit.(id) else -lit.(id) in
      if l = -lit_true then begin
        (* A settled output contradicts the observation: no key explains
           it, so the copy is unsatisfiable. *)
        let v = fresh () in
        unit v;
        unit (-v)
      end
      else if l <> lit_true then unit l)
    c.Circuit.outputs;
  { keys; locals = !locals; clauses = Array.sub out.data 0 out.len }

let add_observation f o ~share_keys =
  if Array.length share_keys <> o.keys then
    invalid_arg "Tseytin.add_observation: shared keys length mismatch";
  let base = Formula.num_vars f - o.keys in
  Formula.reserve f (Formula.num_vars f + o.locals);
  let rename l =
    let v = abs l in
    let w = if v <= o.keys then share_keys.(v - 1) else base + v in
    if l > 0 then w else -w
  in
  let lits = o.clauses in
  let start = ref 0 in
  for i = 0 to Array.length lits - 1 do
    if lits.(i) = 0 then begin
      let clause = Array.make (i - !start) 0 in
      for j = 0 to i - !start - 1 do
        clause.(j) <- rename lits.(!start + j)
      done;
      Formula.add_clause_a f clause;
      start := i + 1
    end
  done

(* The template of an observation no key explains: one local forced
   both ways, as the fold writes a settled output that contradicts it. *)
let contradiction keys =
  { keys; locals = 1; clauses = [| keys + 1; 0; -(keys + 1); 0 |] }

(* Bounded variable elimination over the locals, in one sweep in variable
   order with the SatELite rule: a local goes when the non-tautological
   resolvents of its clauses do not outnumber them.  No subsumption and
   no duplicate table: the pass runs once per observation, so it must
   cost less than the search it saves, and it allocates no array per
   clause.  The clauses lie in one store, each as its length followed by
   its literals, canonical; the length is set to 0 when the clause is
   removed.  [at] maps clause numbers to their offsets in the store.  The
   occurrences of each local literal form a list linked through [ent]:
   entry [e] holds a clause number at [e] and the next entry at [e + 1],
   and [head] holds the first entry of each local literal, -1 ending a
   list.  Removed clauses stay in the lists and are skipped.  The buffers
   outlive a call, so a session that eliminates one observation after
   another allocates them once. *)
type scratch = {
  store : buf;
  at : buf;
  ent : buf;
  mutable head : int array;
  mutable number : int array;  (* old local -> new variable, at the end *)
  pos : int array;  (* live clauses of [v] and of [-v] *)
  neg : int array;
  lens : int array;  (* resolvent lengths, pos-major *)
}

let scratch () =
  let bound = Clause.max_occ + 1 in
  {
    store = buf_create ();
    at = buf_create ();
    ent = buf_create ();
    head = [||];
    number = [||];
    pos = Array.make bound 0;
    neg = Array.make bound 0;
    lens = Array.make (Clause.max_occ * Clause.max_occ) 0;
  }

let eliminate_locals sc o =
  let keys = o.keys and src = o.clauses in
  let { store; at; ent; pos; neg; lens; _ } = sc in
  store.len <- 0;
  at.len <- 0;
  ent.len <- 0;
  if Array.length sc.head < 2 * o.locals then
    sc.head <- Array.make (4 * o.locals) (-1)
  else Array.fill sc.head 0 (2 * o.locals) (-1);
  let head = sc.head in
  let slot l = if l > 0 then 2 * (l - keys - 1) else (2 * (-l - keys - 1)) + 1 in
  let reserve n =
    if store.len + n > Array.length store.data then begin
      let data = Array.make (2 * (store.len + n)) 0 in
      Array.blit store.data 0 data 0 store.len;
      store.data <- data
    end
  in
  (* Number the clause of [n] literals at [store.len] and list it under
     its local literals. *)
  let add n =
    let p = store.len in
    store.data.(p) <- n;
    store.len <- p + 1 + n;
    let ci = at.len in
    buf_push at p;
    for k = p + 1 to p + n do
      let l = store.data.(k) in
      if abs l > keys then begin
        let s = slot l in
        buf_push ent ci;
        buf_push ent head.(s);
        head.(s) <- ent.len - 2
      end
    done
  in
  (* Each template clause takes its length in the store where its
     terminating 0 stood. *)
  reserve (Array.length src);
  let start = ref 0 in
  for i = 0 to Array.length src - 1 do
    if src.(i) = 0 then begin
      let n = i - !start in
      Array.blit src !start store.data (store.len + 1) n;
      let n = Clause.canonicalize store.data (store.len + 1) n in
      if n >= 0 then add n;
      start := i + 1
    end
  done;
  (* The live clauses of literal [l] go to [into], [Clause.max_occ + 1] at
     most (one more than {!Clause.bounded} admits); returns how many. *)
  let live l into =
    let e = ref head.(slot l) and k = ref 0 in
    while !e >= 0 && !k <= Clause.max_occ do
      let ci = ent.data.(!e) in
      if store.data.(at.data.(ci)) > 0 then begin
        into.(!k) <- ci;
        incr k
      end;
      e := ent.data.(!e + 1)
    done;
    !k
  in
  let unsat = ref false in
  for v = keys + 1 to keys + o.locals do
    if not !unsat then begin
      let np = live v pos and nn = live (-v) neg in
      if Clause.bounded np nn then begin
        let budget = np + nn and count = ref 0 and pair = ref 0 in
        while !count <= budget && !pair < np * nn do
          let a = at.data.(pos.(!pair / nn)) and b = at.data.(neg.(!pair mod nn)) in
          let d = store.data in
          let n = Clause.resolvent_length v d (a + 1) d.(a) d (b + 1) d.(b) in
          lens.(!pair) <- n;
          if n >= 0 then incr count;
          incr pair
        done;
        if !count <= budget then begin
          for pair = 0 to (np * nn) - 1 do
            let n = lens.(pair) in
            if n = 0 then unsat := true
            else if n > 0 then begin
              reserve (n + 1);
              let a = at.data.(pos.(pair / nn)) and b = at.data.(neg.(pair mod nn)) in
              let d = store.data in
              Clause.resolve_into v d (a + 1) d.(a) d (b + 1) d.(b) d (store.len + 1);
              add n
            end
          done;
          for i = 0 to np - 1 do
            store.data.(at.data.(pos.(i))) <- 0
          done;
          for j = 0 to nn - 1 do
            store.data.(at.data.(neg.(j))) <- 0
          done
        end
      end
    end
  done;
  if !unsat then contradiction keys
  else begin
    (* The surviving locals, renumbered in order from [keys + 1]. *)
    let d = store.data in
    if Array.length sc.number <= o.locals then
      sc.number <- Array.make (2 * (o.locals + 1)) 0
    else Array.fill sc.number 0 (o.locals + 1) 0;
    let number = sc.number and len = ref 0 in
    for ci = 0 to at.len - 1 do
      let p = at.data.(ci) in
      if d.(p) > 0 then len := !len + d.(p) + 1;
      for k = p + 1 to p + d.(p) do
        let v = abs d.(k) in
        if v > keys then number.(v - keys) <- 1
      done
    done;
    let locals = ref 0 in
    for j = 1 to o.locals do
      if number.(j) > 0 then begin
        incr locals;
        number.(j) <- keys + !locals
      end
    done;
    let clauses = Array.make !len 0 and w = ref 0 in
    for ci = 0 to at.len - 1 do
      let p = at.data.(ci) in
      if d.(p) > 0 then begin
        for k = p + 1 to p + d.(p) do
          let l = d.(k) in
          let v = abs l in
          let u = if v > keys then number.(v - keys) else v in
          clauses.(!w) <- (if l > 0 then u else -u);
          incr w
        done;
        incr w
      end
    done;
    { keys; locals = !locals; clauses }
  end
