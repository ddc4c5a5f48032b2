(* Vector and evaluation conveniences shared by the test executables.  The
   library has no use for them; the circuit evaluator itself is
   Fl_netlist.View. *)

module View = Fl_netlist.View

(* [vector_of_int ~width v] is the LSB-first bit vector of [v]. *)
let vector_of_int ~width v = Array.init width (fun i -> v land (1 lsl i) <> 0)

let int_of_vector bits =
  Array.fold_right (fun b acc -> (acc lsl 1) lor Bool.to_int b) bits 0

(* Scalar vectors back from packed words, lane-major. *)
let unpack ~lanes_used words =
  List.init lanes_used (fun lane ->
      Array.map (fun w -> w land (1 lsl lane) <> 0) words)

(* Number of lanes where two packed output vectors differ. *)
let count_diff_lanes a b =
  if Array.length a <> Array.length b then
    invalid_arg "count_diff_lanes: width mismatch";
  let diff = ref 0 in
  Array.iteri (fun i w -> diff := !diff lor (w lxor b.(i))) a;
  let rec popcount x acc =
    if x = 0 then acc else popcount (x lsr 1) (acc + (x land 1))
  in
  popcount (!diff land max_int) (if !diff < 0 then 1 else 0)

(* Whether [c] under [keys] settles (no X output) on [probes] random input
   vectors: a cheap check that a key opens every cycle. *)
let settles ?(probes = 8) ?(seed = 0) c ~keys =
  let rng = Random.State.make [| seed |] in
  let v = View.of_circuit c in
  let width = Fl_netlist.Circuit.num_inputs c in
  List.for_all
    (fun _ ->
      let inputs = View.random_vector rng width in
      not (Array.mem View.VX (View.eval_tristate v ~inputs ~keys)))
    (List.init probes Fun.id)

(* Functional equality of [a] and [b], both under [keys]: exhaustive up to
   20 inputs, an unsettled output counts as a disagreement. *)
let equivalent ?(keys = [||]) a b =
  View.agree_on_probes ~exhaustive_limit:20 (View.of_circuit a) ~keys_a:keys
    (View.of_circuit b) ~keys_b:keys

(* One oracle observation on a miter: both key copies must reproduce
   [outputs] on [inputs].  The fold and the elimination run once and
   serve both copies, as in a session. *)
let add_io_constraint (m : Fl_cnf.Miter.t) c ~inputs ~outputs =
  let module Tseytin = Fl_cnf.Tseytin in
  let values = View.eval_under_inputs (View.of_circuit c) ~inputs in
  let o =
    Tseytin.eliminate_locals (Tseytin.scratch ())
      (Tseytin.fold_observation c ~values ~outputs)
  in
  Tseytin.add_observation m.formula o ~share_keys:m.keys_a;
  Tseytin.add_observation m.formula o ~share_keys:m.keys_b

(* ---- Reference implementations for differential tests ---------------- *)

module Circuit = Fl_netlist.Circuit
module Gate = Fl_netlist.Gate

(* Wire selection as it was before the reach marks: one transitive-fanin
   mask per candidate, the policies tested pair by pair.  The shuffle and
   the order of its random draws are the library's. *)
let reference_select_wires c rng ~count ~policy =
  let shuffle a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let candidates = shuffle (Fl_locking.Insertion_util.lockable_gates c) in
  if Array.length candidates < count then
    invalid_arg "Insertion_util.select_wires: not enough gates";
  match policy with
  | `Any -> Array.sub candidates 0 count
  | `Independent ->
    let fanin_of id = Circuit.transitive_fanin c id in
    let attempt order =
      let chosen = ref [] in
      let independent id =
        List.for_all
          (fun other -> (not (fanin_of id).(other)) && not (fanin_of other).(id))
          !chosen
      in
      Array.iter
        (fun id ->
          if List.length !chosen < count && independent id then
            chosen := id :: !chosen)
        order;
      if List.length !chosen >= count then Some (Array.of_list (List.rev !chosen))
      else None
    in
    let rec retry tries order =
      match attempt order with
      | Some wires -> wires
      | None ->
        if tries = 0 then
          invalid_arg
            (Printf.sprintf
               "Insertion_util.select_wires: could not find %d independent wires"
               count)
        else retry (tries - 1) (shuffle order)
    in
    retry 8 candidates
  | `Connected ->
    let chosen = ref [ candidates.(0) ] in
    let connected id =
      List.exists
        (fun other ->
          (Circuit.transitive_fanin c other).(id) || (Circuit.transitive_fanin c id).(other))
        !chosen
    in
    let rest = Array.sub candidates 1 (Array.length candidates - 1) in
    Array.iter
      (fun id -> if List.length !chosen < count && connected id then chosen := id :: !chosen)
      rest;
    Array.iter
      (fun id ->
        if List.length !chosen < count && not (List.mem id !chosen) then
          chosen := id :: !chosen)
      rest;
    Array.of_list (List.rev !chosen)

(* The builder's naming as it was with one string table for every name:
   a generated name is the first ["n<k>"], [k] counting up from the last
   one issued, that the table lacks; an explicit name already in the
   table is an [Invalid_argument].  [adopt names] is a builder that
   copied nodes so named into an empty one (no name issued yet). *)
module Reference_names = struct
  type t = {
    table : (string, int) Hashtbl.t;
    mutable names : string list;  (* reversed *)
    mutable fresh : int;
  }

  let create () = { table = Hashtbl.create 16; names = []; fresh = 0 }

  let size t = Hashtbl.length t.table

  let push ?name t =
    let name =
      match name with
      | Some n ->
        if Hashtbl.mem t.table n then
          invalid_arg (Printf.sprintf "Circuit.Builder: duplicate name %S" n);
        n
      | None ->
        let rec go () =
          let candidate = "n" ^ string_of_int t.fresh in
          t.fresh <- t.fresh + 1;
          if Hashtbl.mem t.table candidate then go () else candidate
        in
        go ()
    in
    let id = size t in
    Hashtbl.add t.table name id;
    t.names <- name :: t.names;
    id

  let adopt names =
    let t = create () in
    Array.iter (fun name -> ignore (push ~name t)) names;
    t

  let names t = Array.of_list (List.rev t.names)
  let find_by_name t name = Hashtbl.find_opt t.table name

  let unique_name t base =
    if not (Hashtbl.mem t.table base) then base
    else begin
      let rec go i =
        let candidate = Printf.sprintf "%s_c%d" base i in
        if Hashtbl.mem t.table candidate then go (i + 1) else candidate
      in
      go 1
    end
end

(* The .bench parser as it was before the index scanner: whole-line
   [split_on_char] and [String.sub] copies, its own name table.  One
   change: a LUT table is read digit by digit with bits beyond [2^arity]
   rejected, the rule the library parser follows since LUTs of arity 6 and
   more stopped fitting a 63-bit integer.  Another: a gate with a wrong
   fanin count is a parse error at its line, not an [Invalid_argument]
   from the builder. *)
module Reference_bench = struct
  exception Parse_error = Fl_netlist.Bench_io.Parse_error

  let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

  type line_decl =
    | L_input of string
    | L_key_input of string
    | L_output of string
    | L_gate of string * Gate.t * string list

  let is_key_name name =
    let prefix = "keyinput" in
    String.length name >= String.length prefix
    && String.lowercase_ascii (String.sub name 0 (String.length prefix)) = prefix

  let strip_comment s =
    match String.index_opt s '#' with
    | Some i -> String.sub s 0 i
    | None -> s

  (* "0x..." hex digits, most significant first, into [1 lsl arity] entries
     LSB-first; [None] when the text is not such a constant. *)
  let lut_digits hex =
    let n = String.length hex in
    let body = if n > 2 then String.sub hex 2 (n - 2) else "" in
    if n < 3 || hex.[0] <> '0' || (hex.[1] <> 'x' && hex.[1] <> 'X')
       || not (String.for_all (String.contains "0123456789abcdefABCDEF") body)
    then None
    else Some (List.init (n - 2) (fun i -> int_of_string ("0x" ^ String.make 1 hex.[n - 1 - i])))

  let parse_call lineno s =
    match String.index_opt s '(' with
    | None -> fail lineno "expected '(' in gate application %S" s
    | Some lp ->
      if s.[String.length s - 1] <> ')' then fail lineno "missing ')' in %S" s;
      let head = String.trim (String.sub s 0 lp) in
      let args_str = String.sub s (lp + 1) (String.length s - lp - 2) in
      let args =
        String.split_on_char ',' args_str
        |> List.map String.trim
        |> List.filter (fun a -> a <> "")
      in
      let kind =
        match String.split_on_char ' ' head |> List.filter (fun w -> w <> "") with
        | [ word ] ->
          (match Gate.of_string word with
           | Some k -> k
           | None -> fail lineno "unknown gate kind %S" word)
        | [ lut; hex ] when String.lowercase_ascii lut = "lut" ->
          let digits =
            match lut_digits hex with
            | Some d -> d
            | None -> fail lineno "bad LUT table constant %S" hex
          in
          let arity = List.length args in
          if arity < 1 || arity > 16 then fail lineno "LUT arity %d unsupported" arity;
          let size = 1 lsl arity in
          let tt = Array.make size false in
          List.iteri
            (fun d v ->
              for bit = 0 to 3 do
                if v land (1 lsl bit) <> 0 then begin
                  let i = (4 * d) + bit in
                  if i >= size then
                    fail lineno "LUT table %s has bits beyond its %d entries" hex size;
                  tt.(i) <- true
                end
              done)
            digits;
          Gate.Lut tt
        | _ -> fail lineno "cannot parse gate head %S" head
      in
      kind, args

  let parse_line lineno raw =
    let s = String.trim (strip_comment raw) in
    if s = "" then None
    else
      let upper_prefix prefix =
        String.length s > String.length prefix
        && String.uppercase_ascii (String.sub s 0 (String.length prefix)) = prefix
      in
      let inside () =
        match String.index_opt s '(' with
        | Some lp when s.[String.length s - 1] = ')' ->
          String.trim (String.sub s (lp + 1) (String.length s - lp - 2))
        | Some _ | None -> fail lineno "malformed declaration %S" s
      in
      if upper_prefix "INPUT" then begin
        let name = inside () in
        if is_key_name name then Some (L_key_input name) else Some (L_input name)
      end
      else if upper_prefix "KEYINPUT" then Some (L_key_input (inside ()))
      else if upper_prefix "OUTPUT" then Some (L_output (inside ()))
      else
        match String.index_opt s '=' with
        | None -> fail lineno "cannot parse line %S" s
        | Some eq ->
          let lhs = String.trim (String.sub s 0 eq) in
          let rhs = String.trim (String.sub s (eq + 1) (String.length s - eq - 1)) in
          if lhs = "" then fail lineno "empty target name";
          let kind, args = parse_call lineno rhs in
          Some (L_gate (lhs, kind, args))

  let parse_string ?(name = "bench") text =
    let decls = ref [] in
    List.iteri
      (fun i raw ->
        match parse_line (i + 1) raw with
        | Some decl -> decls := (i + 1, decl) :: !decls
        | None -> ())
      (String.split_on_char '\n' text);
    let decls = List.rev !decls in
    let b = Circuit.Builder.create ~name () in
    let ids = Hashtbl.create 64 in
    let declare lineno wire kind =
      if Hashtbl.mem ids wire then
        fail lineno "wire %S defined more than once" wire
      else Hashtbl.add ids wire (Circuit.Builder.declare ~name:wire b kind)
    in
    List.iter
      (fun (lineno, decl) ->
        match decl with
        | L_input wire -> declare lineno wire Gate.Input
        | L_key_input wire -> declare lineno wire Gate.Key_input
        | L_output _ -> ()
        | L_gate (wire, kind, _) -> declare lineno wire kind)
      decls;
    let lookup lineno wire =
      match Hashtbl.find_opt ids wire with
      | Some id -> id
      | None -> fail lineno "wire %S is used but never defined" wire
    in
    List.iter
      (fun (lineno, decl) ->
        match decl with
        | L_input _ | L_key_input _ -> ()
        | L_output wire -> Circuit.Builder.output b wire (lookup lineno wire)
        | L_gate (wire, kind, args) ->
          let fanins = Array.of_list (List.map (lookup lineno) args) in
          if not (Gate.valid_fanin_count kind (Array.length fanins)) then
            fail lineno "gate %s takes %s fanins, not %d" (Gate.to_string kind)
            (match Gate.arity kind with
             | Some k -> string_of_int k
             | None -> "2 or more")
            (Array.length fanins);
          Circuit.Builder.set_fanins b (lookup lineno wire) fanins)
      decls;
    if not (List.exists (function _, L_output _ -> true | _ -> false) decls) then
      fail (List.length (String.split_on_char '\n' text)) "no OUTPUT declared";
    Circuit.of_builder b
end

(* The Tseytin encoder as it was before observations were folded once
   into a template and the gate table wrote through a clause sink: the
   full copy, the per-copy observation encoding and the miter of two full
   copies.  The library must produce these formulas clause for clause. *)
module Reference_tseytin = struct
  module View = Fl_netlist.View

  type encoding = Fl_cnf.Tseytin.encoding = {
    node_var : int array;
    input_vars : int array;
    key_vars : int array;
    output_vars : int array;
  }

  (* Binary XOR: the 4 clauses of Table 1. *)
  let encode_xor2 emit ~out a b =
    emit [| -a; -b; -out |];
    emit [| a; b; -out |];
    emit [| a; -b; out |];
    emit [| -a; b; out |]

  (* n-ary XOR via a balanced pairwise tree of fresh variables; the final
     stage optionally complements for XNOR.  Same n-1 XOR2 stages (and thus
     clause count and shapes) as a linear chain, but log instead of linear
     depth, so unit propagation across a wide XOR resolves in O(log n)
     implication steps. *)
  let encode_xor_chain emit f ~out ~negated fanins =
    let n = Array.length fanins in
    assert (n >= 2);
    let rec reduce layer =
      let m = Array.length layer in
      if m <= 2 then layer
      else begin
        let next = Array.make ((m + 1) / 2) 0 in
        for i = 0 to (m / 2) - 1 do
          let t = Fl_cnf.Formula.fresh_var f in
          encode_xor2 emit ~out:t layer.(2 * i) layer.(2 * i + 1);
          next.(i) <- t
        done;
        if m land 1 = 1 then next.(((m + 1) / 2) - 1) <- layer.(m - 1);
        reduce next
      end
    in
    let pair = reduce fanins in
    encode_xor2 emit ~out:(if negated then -out else out) pair.(0) pair.(1)

  (* Gate clauses go through [emit], so the full circuit copy
     ([Fl_cnf.Formula.add_clause_a]) and the folded observation copy ([fold_emit]
     below) share this one table of Table 1's clause shapes. *)
  let encode_gate ?emit f kind ~out ~fanins =
    let emit = match emit with Some e -> e | None -> Fl_cnf.Formula.add_clause_a f in
    let n = Array.length fanins in
    if not (Gate.valid_fanin_count kind n) then
      invalid_arg "Tseytin.encode_gate: fanin count mismatch";
    match kind with
    | Gate.Input | Gate.Key_input ->
      invalid_arg "Tseytin.encode_gate: inputs are free variables"
    | Gate.Const b -> emit [| (if b then out else -out) |]
    | Gate.Buf ->
      emit [| fanins.(0); -out |];
      emit [| -fanins.(0); out |]
    | Gate.Not ->
      emit [| -fanins.(0); -out |];
      emit [| fanins.(0); out |]
    | Gate.And ->
      (* (¬A1 ∨ … ∨ ¬An ∨ C) ∧ ∧i (Ai ∨ ¬C) *)
      emit (Array.append (Array.map (fun a -> -a) fanins) [| out |]);
      Array.iter (fun a -> emit [| a; -out |]) fanins
    | Gate.Nand ->
      emit (Array.append (Array.map (fun a -> -a) fanins) [| -out |]);
      Array.iter (fun a -> emit [| a; out |]) fanins
    | Gate.Or ->
      emit (Array.append fanins [| -out |]);
      Array.iter (fun a -> emit [| -a; out |]) fanins
    | Gate.Nor ->
      emit (Array.append fanins [| out |]);
      Array.iter (fun a -> emit [| -a; -out |]) fanins
    | Gate.Xor -> encode_xor_chain emit f ~out ~negated:false fanins
    | Gate.Xnor -> encode_xor_chain emit f ~out ~negated:true fanins
    | Gate.Mux ->
      (* C = A·¬S + B·S with fanins [S; A; B] — Table 1's four clauses. *)
      let s = fanins.(0) and a = fanins.(1) and b = fanins.(2) in
      emit [| s; -a; out |];
      emit [| s; a; -out |];
      emit [| -s; -b; out |];
      emit [| -s; b; -out |]
    | Gate.Lut tt ->
      (* One clause per table row: (row holds) -> out = tt(row). *)
      Array.iteri
        (fun row set ->
          let clause =
            Array.init (n + 1) (fun j ->
                if j = n then if set then out else -out
                else if row land (1 lsl j) <> 0 then -fanins.(j)
                else fanins.(j))
          in
          emit clause)
        tt

  let encode ?share_inputs ?share_keys f c =
    let n = Circuit.num_nodes c in
    let node_var = Array.make n 0 in
    (* Assign variables to inputs first (shared or fresh). *)
    let assign_ports ports shared label =
      match shared with
      | None -> Array.iter (fun id -> node_var.(id) <- Fl_cnf.Formula.fresh_var f) ports
      | Some vars ->
        if Array.length vars <> Array.length ports then
          invalid_arg (Printf.sprintf "Tseytin.encode: shared %s length mismatch" label);
        Array.iteri (fun i id -> node_var.(id) <- vars.(i)) ports
    in
    assign_ports c.Circuit.inputs share_inputs "inputs";
    assign_ports c.Circuit.keys share_keys "keys";
    for id = 0 to n - 1 do
      if node_var.(id) = 0 then node_var.(id) <- Fl_cnf.Formula.fresh_var f
    done;
    (* Gate clauses go out in topological order when acyclic (fanin-defining
       clauses before their consumers helps unit propagation); variable
       numbering above stays in id order either way. *)
    let emit id =
      let nd = Circuit.node c id in
      match nd.Circuit.kind with
      | Gate.Input | Gate.Key_input -> ()
      | kind ->
        encode_gate f kind ~out:node_var.(id)
          ~fanins:(Array.map (fun fid -> node_var.(fid)) nd.Circuit.fanins)
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

  let assert_equal f a b =
    Fl_cnf.Formula.add_clause f [ -a; b ];
    Fl_cnf.Formula.add_clause f [ a; -b ]

  let xor_out f a b =
    let x = Fl_cnf.Formula.fresh_var f in
    encode_xor2 (Fl_cnf.Formula.add_clause_a f) ~out:x a b;
    x

  let assert_any_differs f pairs =
    let diffs = List.map (fun (a, b) -> xor_out f a b) pairs in
    Fl_cnf.Formula.add_clause f diffs;
    Array.of_list diffs

  let assert_lit f lit = Fl_cnf.Formula.add_clause f [ lit ]

  let assert_vector f vars bits =
    if Array.length vars <> Array.length bits then
      invalid_arg "Tseytin.assert_vector: length mismatch";
    Array.iteri (fun i v -> assert_lit f (if bits.(i) then v else -v)) vars

  (* ------------------------------------------------------------------ *)
  (* Observation copies, folded to the key cone                          *)
  (* ------------------------------------------------------------------ *)

  (* A node the evaluator settled stands as a constant literal: [lit_true]
     or its negation.  No variable has this number, and only [fold_emit]
     sees it: a false constant drops out of its clause, a true one satisfies
     (and so skips) the clause.  Every gate clause also mentions the gate's
     own, unsettled, output, so no clause folds to empty. *)
  let lit_true = max_int

  let filter_lits keep lits = Array.of_seq (Seq.filter keep (Array.to_seq lits))

  let fold_emit f clause =
    if not (Array.exists (fun l -> l = lit_true) clause) then
      Fl_cnf.Formula.add_clause_a f
        (if Array.exists (fun l -> l = -lit_true) clause then
           filter_lits (fun l -> l <> -lit_true) clause
         else clause)

  (* The gate an unsettled node still computes once its settled fanins are
     folded in: neutral constants leave AND/OR/XOR (an XOR absorbs true ones
     as a complement), and a gate left with one live fanin is a BUF or a NOT.
     A settled fanin that decides the gate cannot occur here: the evaluator
     would have settled the node too. *)
  let fold_gate kind fanins =
    let live = filter_lits (fun l -> abs l <> lit_true) fanins in
    let unary negated = if negated then Gate.Not else Gate.Buf in
    match kind with
    | Gate.And | Gate.Nand | Gate.Or | Gate.Nor when Array.length live = 1 ->
      unary (kind = Gate.Nand || kind = Gate.Nor), live
    | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> kind, live
    | Gate.Xor | Gate.Xnor ->
      let negated =
        Array.fold_left
          (fun acc l -> acc <> (l = lit_true))
          (kind = Gate.Xnor) fanins
      in
      if Array.length live = 1 then unary negated, live
      else (if negated then Gate.Xnor else Gate.Xor), live
    | Gate.Mux ->
      let s = fanins.(0) and a = fanins.(1) and b = fanins.(2) in
      if s = lit_true then Gate.Buf, [| b |]
      else if s = -lit_true then Gate.Buf, [| a |]
      else if abs a = lit_true && abs b = lit_true then
        unary (a = lit_true), [| s |]
      else kind, fanins
    | _ -> kind, fanins

  let encode_observation f c ~values ~share_keys ~outputs =
    let n = Circuit.num_nodes c in
    if Array.length values <> n then
      invalid_arg "Tseytin.encode_observation: values length mismatch";
    if Array.length share_keys <> Circuit.num_keys c then
      invalid_arg "Tseytin.encode_observation: shared keys length mismatch";
    if Array.length outputs <> Circuit.num_outputs c then
      invalid_arg "Tseytin.encode_observation: outputs length mismatch";
    (* Settled nodes hold a constant, keys their shared variable, and the
       unsettled gates 0 until they get a literal below. *)
    let lit =
      Array.map
        (function View.V0 -> -lit_true | View.V1 -> lit_true | View.VX -> 0)
        values
    in
    Array.iteri (fun i id -> lit.(id) <- share_keys.(i)) c.Circuit.keys;
    let folded id =
      let nd = Circuit.node c id in
      fold_gate nd.Circuit.kind
        (Array.map (fun fid -> lit.(fid)) nd.Circuit.fanins)
    in
    let emit = fold_emit f in
    (* A gate left with one live fanin takes that fanin's literal; any
       other gets a fresh variable and its clauses. *)
    let define id =
      match folded id with
      | Gate.Buf, [| a |] -> lit.(id) <- a
      | Gate.Not, [| a |] -> lit.(id) <- -a
      | kind, fanins ->
        let out = Fl_cnf.Formula.fresh_var f in
        lit.(id) <- out;
        encode_gate ~emit f kind ~out ~fanins
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
           if Bytes.get opened id = '\001' then lit.(id) <- Fl_cnf.Formula.fresh_var f
           else begin
             Bytes.set opened id '\001';
             Array.iter resolve (Circuit.node c id).Circuit.fanins;
             Bytes.set opened id '\000';
             if lit.(id) = 0 then define id
             else
               let kind, fanins = folded id in
               encode_gate ~emit f kind ~out:lit.(id) ~fanins
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
          let v = Fl_cnf.Formula.fresh_var f in
          assert_lit f v;
          assert_lit f (-v)
        end
        else if l <> lit_true then assert_lit f l)
      c.Circuit.outputs

  (* The miter of two full copies sharing their inputs, then one XOR per
     output pair and the clause asking for a difference. *)
  let miter c =
    let f = Fl_cnf.Formula.create () in
    let enc_a = encode f c in
    let enc_b = encode ~share_inputs:enc_a.input_vars f c in
    let pairs =
      Array.to_list
        (Array.map2 (fun a b -> a, b) enc_a.output_vars enc_b.output_vars)
    in
    ignore (assert_any_differs f pairs);
    f, enc_a, enc_b

  (* The nodes whose transitive fanin holds no key input and no node on
     a cycle. *)
  let key_free c =
    let n = Circuit.num_nodes c in
    let tfi = Array.init n (Circuit.transitive_fanin c) in
    let on_cycle id =
      Array.exists (fun f -> tfi.(f).(id)) (Circuit.node c id).Circuit.fanins
    in
    let bad =
      Array.init n (fun id ->
          (Circuit.node c id).Circuit.kind = Gate.Key_input || on_cycle id)
    in
    Array.init n (fun id ->
        let free = ref true in
        Array.iteri (fun j reaches -> if reaches && bad.(j) then free := false) tfi.(id);
        !free)

  (* [miter] with copy B's key-free node variables mapped onto copy A's:
     B's clauses the mapping turns into clauses over A's variables alone
     are dropped, B's other variables keep their order after A's, and
     an output pair that became one variable leaves the difference (with
     none left, a fresh variable forced both ways). *)
  let shared_miter c =
    let f = Fl_cnf.Formula.create () in
    let a = encode f c in
    let na = Fl_cnf.Formula.num_vars f and ca = Fl_cnf.Formula.num_clauses f in
    let b = encode ~share_inputs:a.input_vars f c in
    let nb = Fl_cnf.Formula.num_vars f in
    let sigma = Array.init (nb + 1) Fun.id in
    Array.iteri
      (fun id free -> if free then sigma.(b.node_var.(id)) <- a.node_var.(id))
      (key_free c);
    let next = ref na in
    for v = na + 1 to nb do
      if sigma.(v) > na then begin
        incr next;
        sigma.(v) <- !next
      end
    done;
    let map l = if l > 0 then sigma.(l) else -sigma.(-l) in
    let g = Fl_cnf.Formula.create () in
    Fl_cnf.Formula.reserve g !next;
    Array.iteri
      (fun i clause ->
        if i < ca then Fl_cnf.Formula.add_clause_a g clause
        else
          let image = Array.map map clause in
          if Array.exists (fun l -> abs l > na) image then
            Fl_cnf.Formula.add_clause_a g image)
      (Fl_cnf.Formula.clauses f);
    let b =
      {
        node_var = Array.map map b.node_var;
        input_vars = b.input_vars;
        key_vars = Array.map map b.key_vars;
        output_vars = Array.map map b.output_vars;
      }
    in
    let pairs =
      List.filter
        (fun (x, y) -> x <> y)
        (Array.to_list
           (Array.map2 (fun x y -> x, y) a.output_vars b.output_vars))
    in
    if pairs = [] then begin
      let v = Fl_cnf.Formula.fresh_var g in
      assert_lit g v;
      assert_lit g (-v)
    end
    else ignore (assert_any_differs g pairs);
    g, a, b
end

(* The equivalence check as it was before both circuits went through one
   folding, sharing encoder: two unrelated Tseytin copies with common
   inputs, the keys pinned by unit clauses, every output pair XORed into
   the miter.  Verdicts of [Fl_sat.Equiv.check] must agree with it. *)
module Reference_equiv = struct
  module Equiv = Fl_sat.Equiv
  module Cdcl = Fl_sat.Cdcl
  module Tseytin = Fl_cnf.Tseytin

  let check ?(budget = Cdcl.no_budget) ?(keys_a = [||]) ?(keys_b = [||]) a b =
    let f = Fl_cnf.Formula.create () in
    let enc_a = Tseytin.encode f a in
    let enc_b = Tseytin.encode ~share_inputs:enc_a.Tseytin.input_vars f b in
    Tseytin.assert_vector f enc_a.Tseytin.key_vars keys_a;
    Tseytin.assert_vector f enc_b.Tseytin.key_vars keys_b;
    let pairs =
      Array.to_list
        (Array.map2 (fun x y -> x, y) enc_a.Tseytin.output_vars enc_b.Tseytin.output_vars)
    in
    ignore (Tseytin.assert_any_differs f pairs);
    let solver = Cdcl.of_formula f in
    match Cdcl.solve ~budget solver with
    | Cdcl.Unsat -> Equiv.Equivalent
    | Cdcl.Unknown -> Equiv.Unknown
    | Cdcl.Sat ->
      let value v = Cdcl.value solver v in
      Equiv.Different
        {
          inputs = Array.map value enc_a.Tseytin.input_vars;
          outputs_a = Array.map value enc_a.Tseytin.output_vars;
          outputs_b = Array.map value enc_b.Tseytin.output_vars;
        }
end
