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
          Circuit.reaches c ~src:id ~dst:other || Circuit.reaches c ~src:other ~dst:id)
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

(* The .bench parser as it was before the index scanner: whole-line
   [split_on_char] and [String.sub] copies, its own name table.  One
   change: a LUT table is read digit by digit with bits beyond [2^arity]
   rejected, the rule the library parser follows since LUTs of arity 6 and
   more stopped fitting a 63-bit integer. *)
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
        | L_gate (wire, _, args) ->
          Circuit.Builder.set_fanins b (lookup lineno wire)
            (Array.of_list (List.map (lookup lineno) args)))
      decls;
    Circuit.of_builder b
end
