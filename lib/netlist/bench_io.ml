exception Parse_error of int * string

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

let parse_call lineno s =
  (* "GATE(a, b, c)" or "LUT 0x8 (a, b)" -> kind, operand names *)
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
        let table_bits =
          match int_of_string_opt hex with
          | Some v -> v
          | None -> fail lineno "bad LUT table constant %S" hex
        in
        let arity = List.length args in
        if arity < 1 || arity > 16 then fail lineno "LUT arity %d unsupported" arity;
        let tt = Array.init (1 lsl arity) (fun i -> table_bits land (1 lsl i) <> 0) in
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
  (* (line number, declaration), in file order. *)
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
  (* Pass 1: declare every named node so forward references and cycles
     resolve.  A redefinition is reported at its own line. *)
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
  (* Pass 2: wire fanins and outputs in file order, so an undefined wire
     is reported at the line of its first use. *)
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

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string ~name:(Filename.remove_extension (Filename.basename path)) text

let gate_call node =
  let buf = Buffer.create 32 in
  (match node.Circuit.kind with
   | Gate.Lut tt ->
     let v = ref 0 in
     for i = Array.length tt - 1 downto 0 do
       v := (!v lsl 1) lor (if tt.(i) then 1 else 0)
     done;
     Buffer.add_string buf (Printf.sprintf "LUT 0x%x " !v)
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
