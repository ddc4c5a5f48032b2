exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

(* The parser scans [text] by index.  A line is a range [a, b) of [text];
   the helpers below find, trim and compare within such a range, so only
   declared names, output ports and messages are copied out.  Whitespace
   is [String.trim]'s.  A wire name is held as its range: [(a, b)] in a
   declaration, and [a0; b0; a1; b1; ...] for a gate's operands. *)
type line_decl =
  | L_input of int * int
  | L_key_input of int * int
  | L_output of int * int
  | L_gate of int * int * Gate.t * int array

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* First index of [ch] in [a, b), or [b]. *)
let index_in text a b ch =
  let i = ref a in
  while !i < b && String.unsafe_get text !i <> ch do incr i done;
  !i

let skip_space text a b =
  let i = ref a in
  while !i < b && is_space (String.unsafe_get text !i) do incr i done;
  !i

(* End of [a, b) once trailing whitespace is dropped. *)
let trim_end text a b =
  let i = ref b in
  while !i > a && is_space (String.unsafe_get text (!i - 1)) do decr i done;
  !i

(* Whether [a, b) is longer than [prefix] and starts with it, ignoring
   case ([prefix] is upper case). *)
let has_prefix text a b prefix =
  let n = String.length prefix in
  b - a > n
  &&
  let i = ref 0 in
  while !i < n && Char.uppercase_ascii text.[a + !i] = prefix.[!i] do incr i done;
  !i = n

let is_key_name text a b =
  let prefix = "keyinput" in
  let n = String.length prefix in
  b - a >= n
  &&
  let i = ref 0 in
  while !i < n && Char.lowercase_ascii text.[a + !i] = prefix.[!i] do incr i done;
  !i = n

let hex_digit = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | _ -> -1

(* "0x..." into a table of [1 lsl arity] entries, LSB-first: the last
   digit holds entries 0-3, the one before it 4-7, and so on. *)
let lut_table lineno hex ~arity =
  let n = String.length hex in
  if n < 3 || hex.[0] <> '0' || (hex.[1] <> 'x' && hex.[1] <> 'X')
     || not (String.for_all (fun ch -> hex_digit ch >= 0) (String.sub hex 2 (n - 2)))
  then fail lineno "bad LUT table constant %S" hex;
  if arity < 1 || arity > 16 then fail lineno "LUT arity %d unsupported" arity;
  let size = 1 lsl arity in
  let tt = Array.make size false in
  for d = 0 to n - 3 do
    let v = hex_digit hex.[n - 1 - d] in
    for bit = 0 to 3 do
      if v land (1 lsl bit) <> 0 then begin
        let i = (4 * d) + bit in
        if i >= size then fail lineno "LUT table %s has bits beyond its %d entries" hex size;
        tt.(i) <- true
      end
    done
  done;
  tt

(* First index of [a, b) that is not a space, or [b]. *)
let skip_blanks text a b =
  let i = ref a in
  while !i < b && String.unsafe_get text !i = ' ' do incr i done;
  !i

let parse_call text lineno a b =
  (* "GATE(a, b, c)" or "LUT 0x8 (a, b)" over the trimmed range [a, b) ->
     kind, operand ranges *)
  let lp = index_in text a b '(' in
  if lp = b then
    fail lineno "expected '(' in gate application %S" (String.sub text a (b - a));
  if text.[b - 1] <> ')' then fail lineno "missing ')' in %S" (String.sub text a (b - a));
  (* Operand ranges: one more than there are commas, less the empty ones. *)
  let commas = ref 0 in
  for i = lp + 1 to b - 2 do
    if String.unsafe_get text i = ',' then incr commas
  done;
  let args = Array.make (2 * (!commas + 1)) 0 and arity = ref 0 in
  let p = ref (lp + 1) in
  while !p <= b - 1 do
    let q = index_in text !p (b - 1) ',' in
    let pa = skip_space text !p q in
    let pb = trim_end text pa q in
    if pb > pa then begin
      args.(2 * !arity) <- pa;
      args.((2 * !arity) + 1) <- pb;
      incr arity
    end;
    p := q + 1
  done;
  let args = if !arity = !commas + 1 then args else Array.sub args 0 (2 * !arity) in
  let ha = skip_space text a lp in
  let hb = trim_end text ha lp in
  (* The head's space-separated words: a gate name, or "LUT" and its
     table.  [ha] starts a word unless the head is empty. *)
  let e1 = index_in text ha hb ' ' in
  let s2 = skip_blanks text e1 hb in
  let e2 = index_in text s2 hb ' ' in
  let kind =
    if ha < hb && s2 = hb then begin
      let word = String.sub text ha (e1 - ha) in
      match Gate.of_string word with
      | Some k -> k
      | None -> fail lineno "unknown gate kind %S" word
    end
    else if ha < hb && skip_blanks text e2 hb = hb
            && String.lowercase_ascii (String.sub text ha (e1 - ha)) = "lut"
    then Gate.Lut (lut_table lineno (String.sub text s2 (e2 - s2)) ~arity:!arity)
    else fail lineno "cannot parse gate head %S" (String.sub text ha (hb - ha))
  in
  kind, args

(* The trimmed name inside "INPUT( name )" and the like, [a, b). *)
let inside text lineno a b =
  let lp = index_in text a b '(' in
  if lp = b || text.[b - 1] <> ')' then
    fail lineno "malformed declaration %S" (String.sub text a (b - a));
  let na = skip_space text (lp + 1) (b - 1) in
  na, trim_end text na (b - 1)

(* The declaration on line [lineno], the range [a, b) of [text]. *)
let parse_line text lineno a b =
  let b = index_in text a b '#' in
  let a = skip_space text a b in
  let b = trim_end text a b in
  if a = b then None
  else if has_prefix text a b "INPUT" then begin
    let na, nb = inside text lineno a b in
    if is_key_name text na nb then Some (L_key_input (na, nb)) else Some (L_input (na, nb))
  end
  else if has_prefix text a b "KEYINPUT" then begin
    let na, nb = inside text lineno a b in
    Some (L_key_input (na, nb))
  end
  else if has_prefix text a b "OUTPUT" then begin
    let na, nb = inside text lineno a b in
    Some (L_output (na, nb))
  end
  else
    let eq = index_in text a b '=' in
    if eq = b then fail lineno "cannot parse line %S" (String.sub text a (b - a));
    let na = skip_space text a eq in
    let nb = trim_end text na eq in
    if na = nb then fail lineno "empty target name";
    let ra = skip_space text (eq + 1) b in
    let kind, args = parse_call text lineno ra (trim_end text ra b) in
    Some (L_gate (na, nb, kind, args))

(* Wire names by their range in the text: open addressing over [slots],
   three ints per slot (start, end, node id), a start of -1 marking a free
   slot.  A name is hashed and compared where it lies, never copied. *)
module Wires = struct
  type t = { text : string; slots : int array; mask : int }

  let create text count =
    let size = ref 16 in
    while !size < 2 * count do size := 2 * !size done;
    { text; slots = Array.make (3 * !size) (-1); mask = !size - 1 }

  let hash text a b =
    let h = ref 0x811c9dc5 in
    for i = a to b - 1 do
      h := (!h lxor Char.code (String.unsafe_get text i)) * 0x100000001b3
    done;
    !h lxor (!h lsr 29)

  let same text a b a' b' =
    b - a = b' - a'
    &&
    let i = ref 0 in
    while !i < b - a && String.unsafe_get text (a + !i) = String.unsafe_get text (a' + !i) do
      incr i
    done;
    !i = b - a

  (* The slot holding [a, b), or the free slot where it would go. *)
  let slot t a b =
    let i = ref (hash t.text a b land t.mask) in
    while
      t.slots.(3 * !i) >= 0
      && not (same t.text a b t.slots.(3 * !i) t.slots.((3 * !i) + 1))
    do
      i := (!i + 1) land t.mask
    done;
    3 * !i

  (* The id of the wire named [a, b), or -1. *)
  let find t a b =
    let s = slot t a b in
    if t.slots.(s) < 0 then -1 else t.slots.(s + 2)

  (* Names [a, b) as wire [id] and is [true], or is [false] if a wire
     already has that name.  At most [count] names are added. *)
  let add t a b id =
    let s = slot t a b in
    t.slots.(s) < 0
    && begin
      t.slots.(s) <- a;
      t.slots.(s + 1) <- b;
      t.slots.(s + 2) <- id;
      true
    end
end

let parse_string ?(name = "bench") text =
  Fl_obs.with_span "netlist.parse" @@ fun () ->
  (* (line number, declaration), in file order; lines are the pieces
     between newlines, the last one after the final newline included. *)
  let decls = ref [] in
  let len = String.length text in
  let start = ref 0 and lineno = ref 1 in
  while !start <= len do
    let stop = index_in text !start len '\n' in
    (match parse_line text !lineno !start stop with
     | Some decl -> decls := (!lineno, decl) :: !decls
     | None -> ());
    start := stop + 1;
    incr lineno
  done;
  let decls = List.rev !decls in
  let b = Circuit.Builder.create ~name () in
  let wires = Wires.create text (List.length decls) in
  (* Pass 1: declare every named node so forward references and cycles
     resolve.  A redefinition is reported at its own line.  One probe of
     [wires] checks and records each name, so the builder skips its own
     check. *)
  let declare lineno wa wb kind =
    if not (Wires.add wires wa wb (Circuit.Builder.size b)) then
      fail lineno "wire %S defined more than once" (String.sub text wa (wb - wa));
    ignore (Circuit.Builder.declare_distinct ~name:(String.sub text wa (wb - wa)) b kind)
  in
  List.iter
    (fun (lineno, decl) ->
      match decl with
      | L_input (wa, wb) -> declare lineno wa wb Gate.Input
      | L_key_input (wa, wb) -> declare lineno wa wb Gate.Key_input
      | L_output _ -> ()
      | L_gate (wa, wb, kind, _) -> declare lineno wa wb kind)
    decls;
  let lookup lineno wa wb =
    let id = Wires.find wires wa wb in
    if id < 0 then
      fail lineno "wire %S is used but never defined" (String.sub text wa (wb - wa));
    id
  in
  (* Pass 2: wire fanins and outputs in file order, so an undefined wire
     or a wrong fanin count is reported at its line.  Declarations took
     ids in file order, so [next] is the id of the next gate. *)
  let next = ref 0 and outputs = ref false in
  List.iter
    (fun (lineno, decl) ->
      match decl with
      | L_input _ | L_key_input _ -> incr next
      | L_output (wa, wb) ->
        outputs := true;
        let id = lookup lineno wa wb in
        Circuit.Builder.output b (String.sub text wa (wb - wa)) id
      | L_gate (_, _, kind, args) ->
        let fanins = Array.make (Array.length args / 2) 0 in
        for i = 0 to Array.length fanins - 1 do
          fanins.(i) <- lookup lineno args.(2 * i) args.((2 * i) + 1)
        done;
        if not (Gate.valid_fanin_count kind (Array.length fanins)) then
          fail lineno "gate %s takes %s fanins, not %d" (Gate.to_string kind)
          (match Gate.arity kind with
           | Some k -> string_of_int k
           | None -> "2 or more")
          (Array.length fanins);
        Circuit.Builder.set_fanins b !next fanins;
        incr next)
    decls;
  (* A netlist without outputs computes nothing: reported at the last
     line, after every fault a line of its own shows. *)
  if not !outputs then fail (!lineno - 1) "no OUTPUT declared";
  Circuit.of_builder b

let parse_file path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  parse_string ~name:(Filename.remove_extension (Filename.basename path)) text

let gate_call node =
  let buf = Buffer.create 32 in
  (match node.Circuit.kind with
   | Gate.Lut tt ->
     (* Four entries per hex digit, most significant digit first, no
        leading zeros. *)
     Buffer.add_string buf "LUT 0x";
     let digits = (Array.length tt + 3) / 4 in
     let digit d =
       let v = ref 0 in
       for bit = 3 downto 0 do
         let i = (4 * d) + bit in
         v := (!v lsl 1) lor (if i < Array.length tt && tt.(i) then 1 else 0)
       done;
       !v
     in
     let top = ref (digits - 1) in
     while !top > 0 && digit !top = 0 do decr top done;
     for d = !top downto 0 do
       Buffer.add_char buf "0123456789abcdef".[digit d]
     done;
     Buffer.add_char buf ' ' 
   | Gate.Const b ->
     (* Constants are printed as 0-ary gate calls CONST0()/CONST1(). *)
     Buffer.add_string buf (if b then "CONST1" else "CONST0")
   | kind -> Buffer.add_string buf (String.uppercase_ascii (Gate.to_string kind)));
  buf

(* The wire name each node prints under.  An output port whose driving
   node has another name prints as [port = BUF(wire)], so a node that
   already holds the port's name (the gate that drove a port before
   locking moved it to a new gate) is renamed to a name no node or port
   uses. *)
let wire_names c =
  let names = Array.map (fun (nd : Circuit.node) -> nd.name) c.Circuit.nodes in
  let taken = Hashtbl.create (Array.length names) in
  Array.iter (fun n -> Hashtbl.replace taken n ()) names;
  Array.iter (fun (port, _) -> Hashtbl.replace taken port ()) c.Circuit.outputs;
  let aliased = Hashtbl.create 8 in
  Array.iter
    (fun (port, id) -> if names.(id) <> port then Hashtbl.replace aliased port ())
    c.Circuit.outputs;
  Array.iteri
    (fun id name ->
      if Hashtbl.mem aliased name then begin
        let k = ref 0 in
        while Hashtbl.mem taken (Printf.sprintf "%s_w%d" name !k) do
          incr k
        done;
        let fresh = Printf.sprintf "%s_w%d" name !k in
        Hashtbl.replace taken fresh ();
        names.(id) <- fresh
      end)
    names;
  names

let to_string c =
  let names = wire_names c in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" c.Circuit.name);
  Buffer.add_string buf
    (Printf.sprintf "# %d inputs, %d keys, %d outputs, %d gates\n"
       (Circuit.num_inputs c) (Circuit.num_keys c) (Circuit.num_outputs c)
       (Circuit.num_gates c));
  Array.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" names.(id)))
    c.Circuit.inputs;
  Array.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "KEYINPUT(%s)\n" names.(id)))
    c.Circuit.keys;
  Array.iter
    (fun (port, _) -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" port))
    c.Circuit.outputs;
  for id = 0 to Circuit.num_nodes c - 1 do
    let nd = Circuit.node c id in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Key_input -> ()
    | _ ->
      let call = gate_call nd in
      let args =
        Array.to_list nd.Circuit.fanins
        |> List.map (fun f -> names.(f))
        |> String.concat ", "
      in
      Buffer.add_string buf
        (Printf.sprintf "%s = %s(%s)\n" names.(id)
           (Buffer.contents call |> String.trim)
           args)
  done;
  (* An output port named unlike its driving wire is defined as a BUF of
     that wire, so it parses back as a wire of its own. *)
  Array.iter
    (fun (port, id) ->
      if not (String.equal port names.(id)) then
        Buffer.add_string buf (Printf.sprintf "%s = BUF(%s)\n" port names.(id)))
    c.Circuit.outputs;
  Buffer.contents buf

let write_file c path =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc
