type node = { kind : Gate.t; fanins : int array; name : string }

type t = {
  name : string;
  nodes : node array;
  inputs : int array;
  keys : int array;
  outputs : (string * int) array;
}

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Arrays of 257 or more words whose initial element is a young block are
   made by promoting that block with a whole minor collection (OCaml 5's
   [caml_make_vect]); [Array.init], [Array.map] and [Array.of_list] start
   from their first element.  Arrays of nodes and of fanin arrays are
   therefore made from these static placeholders and filled. *)
let placeholder = { kind = Gate.Input; fanins = [||]; name = "" }

(* [k] when [name] is ["n" ^ string_of_int k], the form of generated names
   (at most 18 digits, so [k] cannot overflow), else [-1]. *)
let name_number name =
  let len = String.length name in
  if len < 2 || len > 19 || String.unsafe_get name 0 <> 'n'
     || (len > 2 && String.unsafe_get name 1 = '0')
  then -1
  else begin
    let k = ref 0 and i = ref 1 in
    while
      !i < len
      &&
      match String.unsafe_get name !i with
      | '0' .. '9' as ch ->
        k := (!k * 10) + Char.code ch - Char.code '0';
        true
      | _ -> false
    do
      incr i
    done;
    if !i = len then !k else -1
  end

module Builder = struct
  type t = {
    circuit_name : string;
    mutable node_count : int;
    mutable kinds : Gate.t array;
    mutable fanin_tab : int array array;
    mutable names : string array;
    (* Names ["n<k>"] (see [name_number]), generated or explicit:
       [by_number.(k)] is the node so named, or -1.  One with [k] at or
       past the capacity is in [far] until the arrays grow past it. *)
    mutable by_number : int array;
    mutable far : (int * int) list;
    (* Every other name, built from [names] on the first lookup or checked
       explicit push; [None] until then. *)
    mutable index : int Names.t option;
    mutable input_ids : int list;  (* reversed *)
    mutable key_ids : int list;  (* reversed *)
    mutable output_ports : (string * int) list;  (* reversed *)
    mutable fresh : int;
    mutable pending : Bytes.t;  (* 1 = declared but not yet wired *)
    mutable pending_count : int;
  }

  let with_capacity name cap =
    {
      circuit_name = name;
      node_count = 0;
      kinds = Array.make cap Gate.Input;
      fanin_tab = Array.make cap [||];
      names = Array.make cap "";
      by_number = Array.make cap (-1);
      far = [];
      index = None;
      input_ids = [];
      key_ids = [];
      output_ports = [];
      fresh = 0;
      pending = Bytes.make cap '\000';
      pending_count = 0;
    }

  let create ?(name = "circuit") () = with_capacity name 16

  let size b = b.node_count

  let ensure_capacity b =
    let cap = Array.length b.kinds in
    if b.node_count >= cap then begin
      let cap' = cap * 2 in
      let grow fill a =
        let a' = Array.make cap' fill in
        Array.blit a 0 a' 0 cap;
        a'
      in
      b.kinds <- grow Gate.Input b.kinds;
      b.fanin_tab <- grow [||] b.fanin_tab;
      b.names <- grow "" b.names;
      b.by_number <- grow (-1) b.by_number;
      let near, far = List.partition (fun (k, _) -> k < cap') b.far in
      List.iter (fun (k, id) -> b.by_number.(k) <- id) near;
      b.far <- far;
      let pending = Bytes.make cap' '\000' in
      Bytes.blit b.pending 0 pending 0 cap;
      b.pending <- pending
    end

  (* The name of node [id], below the capacity: the first [n<k>] with [k]
     at or above [fresh] that no node holds.  Only generated names move
     [fresh], so every name at or above it is explicit, and [by_number]
     rejects exactly the candidates a probe of all names would.  Each
     candidate tried is [id]'s own number or another node's name, so
     [k <= id]. *)
  let fresh_name b id =
    let k = ref b.fresh in
    while b.by_number.(!k) >= 0 do incr k done;
    b.by_number.(!k) <- id;
    b.fresh <- !k + 1;
    "n" ^ string_of_int !k

  let index b =
    match b.index with
    | Some t -> t
    | None ->
      let t = Names.create (max 64 (2 * b.node_count)) in
      for id = 0 to b.node_count - 1 do
        if name_number b.names.(id) < 0 then Names.add t b.names.(id) id
      done;
      b.index <- Some t;
      t

  let find_by_name b name =
    let k = name_number name in
    if k < 0 then Names.find_opt (index b) name
    else if k < Array.length b.by_number then begin
      let id = b.by_number.(k) in
      if id < 0 then None else Some id
    end
    else List.assoc_opt k b.far

  (* Record explicit name [name] of node [id]; no node holds it yet. *)
  let register b name id =
    let k = name_number name in
    if k < 0 then Option.iter (fun t -> Names.add t name id) b.index
    else if k < Array.length b.by_number then b.by_number.(k) <- id
    else b.far <- (k, id) :: b.far

  let unique_name b base =
    if find_by_name b base = None then base
    else begin
      let rec go i =
        let candidate = Printf.sprintf "%s_c%d" base i in
        if find_by_name b candidate <> None then go (i + 1) else candidate
      in
      go 1
    end

  let check_fanins b kind fanins =
    if not (Gate.valid_fanin_count kind (Array.length fanins)) then
      invalid_arg
        (Printf.sprintf "Circuit.Builder: %d fanins invalid for gate %s"
           (Array.length fanins) (Gate.to_string kind));
    for i = 0 to Array.length fanins - 1 do
      let id = fanins.(i) in
      if id < 0 || id >= b.node_count then
        invalid_arg (Printf.sprintf "Circuit.Builder: unknown fanin id %d" id)
    done

  (* [~distinct:true]: the caller has checked that no node holds [name]. *)
  let push ?(distinct = false) ?name b kind fanins =
    ensure_capacity b;
    let id = b.node_count in
    let name =
      match name with
      | None -> fresh_name b id
      | Some n ->
        if (not distinct) && find_by_name b n <> None then
          invalid_arg (Printf.sprintf "Circuit.Builder: duplicate name %S" n);
        register b n id;
        n
    in
    b.kinds.(id) <- kind;
    b.fanin_tab.(id) <- fanins;
    b.names.(id) <- name;
    b.node_count <- id + 1;
    (match kind with
     | Gate.Input -> b.input_ids <- id :: b.input_ids
     | Gate.Key_input -> b.key_ids <- id :: b.key_ids
     | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or
     | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Lut _ ->
       ());
    id

  let add ?name b kind fanins =
    check_fanins b kind fanins;
    push ?name b kind (Array.copy fanins)

  let declare_node ~distinct ?name b kind =
    let id = push ~distinct ?name b kind [||] in
    if not (Gate.valid_fanin_count kind 0) then begin
      Bytes.set b.pending id '\001';
      b.pending_count <- b.pending_count + 1
    end;
    id

  let declare ?name b kind = declare_node ~distinct:false ?name b kind
  let declare_distinct ~name b kind = declare_node ~distinct:true ~name b kind

  (* The host's own kinds, fanin arrays and names: a frozen circuit's
     names are distinct and its fanins never change in place, so nothing
     is checked, hashed or copied.  The string index is left to build on
     first use. *)
  let of_circuit ?name c =
    let n = Array.length c.nodes in
    let b = with_capacity (Option.value ~default:c.name name) (max 16 (2 * n)) in
    Array.iteri
      (fun id nd ->
        b.kinds.(id) <- nd.kind;
        b.fanin_tab.(id) <- nd.fanins;
        b.names.(id) <- nd.name;
        register b nd.name id)
      c.nodes;
    b.node_count <- n;
    b.input_ids <- Array.fold_left (fun acc id -> id :: acc) [] c.inputs;
    b.key_ids <- Array.fold_left (fun acc id -> id :: acc) [] c.keys;
    b

  let input ?name b = add ?name b Gate.Input [||]
  let key_input ?name b = add ?name b Gate.Key_input [||]

  let wired b id =
    if Bytes.get b.pending id <> '\000' then begin
      Bytes.set b.pending id '\000';
      b.pending_count <- b.pending_count - 1
    end

  (* [set_fanins] without the copy, for arrays no caller keeps. *)
  let set_fanins_owned b id fanins =
    if id < 0 || id >= b.node_count then
      invalid_arg "Circuit.Builder.set_fanins: unknown id";
    check_fanins b b.kinds.(id) fanins;
    b.fanin_tab.(id) <- fanins;
    wired b id

  let set_fanins b id fanins = set_fanins_owned b id (Array.copy fanins)

  let set_kind b id kind =
    if id < 0 || id >= b.node_count then
      invalid_arg "Circuit.Builder.set_kind: unknown id";
    (match kind, b.kinds.(id) with
     | (Gate.Input | Gate.Key_input), _ | _, (Gate.Input | Gate.Key_input) ->
       invalid_arg "Circuit.Builder.set_kind: cannot change input-ness"
     | _, _ -> ());
    if not (Gate.valid_fanin_count kind (Array.length b.fanin_tab.(id))) then
      invalid_arg "Circuit.Builder.set_kind: fanin count invalid for new kind";
    b.kinds.(id) <- kind

  let replace b id kind fanins =
    if id < 0 || id >= b.node_count then
      invalid_arg "Circuit.Builder.replace: unknown id";
    (match kind, b.kinds.(id) with
     | (Gate.Input | Gate.Key_input), _ | _, (Gate.Input | Gate.Key_input) ->
       invalid_arg "Circuit.Builder.replace: cannot change input-ness"
     | _, _ -> ());
    check_fanins b kind fanins;
    b.kinds.(id) <- kind;
    b.fanin_tab.(id) <- Array.copy fanins;
    wired b id

  let output b name id =
    if id < 0 || id >= b.node_count then
      invalid_arg "Circuit.Builder.output: unknown id";
    b.output_ports <- (name, id) :: b.output_ports

  let kind_of b id =
    if id < 0 || id >= b.node_count then
      invalid_arg "Circuit.Builder.kind_of: unknown id";
    b.kinds.(id)

  let peek_fanins b id =
    if id < 0 || id >= b.node_count then
      invalid_arg "Circuit.Builder.peek_fanins: unknown id";
    b.fanin_tab.(id)

  let freeze b =
    if b.output_ports = [] then
      invalid_arg "Circuit.Builder.freeze: circuit has no outputs";
    if b.pending_count > 0 then begin
      let id = Bytes.index b.pending '\001' in
      invalid_arg
        (Printf.sprintf "Circuit.Builder.freeze: node %S declared but never wired"
           b.names.(id))
    end;
    let nodes = Array.make b.node_count placeholder in
    for id = 0 to b.node_count - 1 do
      nodes.(id) <- { kind = b.kinds.(id); fanins = b.fanin_tab.(id); name = b.names.(id) }
    done;
    let outputs = Array.make (List.length b.output_ports) ("", 0) in
    List.iteri
      (fun i port -> outputs.(Array.length outputs - 1 - i) <- port)
      b.output_ports;
    {
      name = b.circuit_name;
      nodes;
      inputs = Array.of_list (List.rev b.input_ids);
      keys = Array.of_list (List.rev b.key_ids);
      outputs;
    }
end

let of_builder = Builder.freeze

(* Two-phase copy (declare, then wire) so forward references and
   combinational cycles survive the trip. *)
let copy_nodes_into b c =
  let map =
    Array.map
      (fun (n : node) -> Builder.declare ~name:(Builder.unique_name b n.name) b n.kind)
      c.nodes
  in
  Array.iteri
    (fun id (n : node) ->
      if Array.length n.fanins > 0 then
        Builder.set_fanins_owned b map.(id) (Array.map (fun f -> map.(f)) n.fanins))
    c.nodes;
  map

let copy_into b c =
  let map = copy_nodes_into b c in
  Array.iter (fun (name, id) -> Builder.output b name map.(id)) c.outputs;
  map

let node c id = c.nodes.(id)
let num_nodes c = Array.length c.nodes
let num_inputs c = Array.length c.inputs
let num_keys c = Array.length c.keys
let num_outputs c = Array.length c.outputs

let num_gates c =
  Array.fold_left
    (fun acc n ->
      match n.kind with
      | Gate.Input | Gate.Key_input | Gate.Const _ -> acc
      | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
      | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Lut _ ->
        acc + 1)
    0 c.nodes

let find_by_name c name =
  let n = Array.length c.nodes in
  let rec go i =
    if i >= n then None
    else if String.equal c.nodes.(i).name name then Some i
    else go (i + 1)
  in
  go 0

let fanouts c =
  let n = Array.length c.nodes in
  let counts = Array.make n 0 in
  Array.iter
    (fun nd -> Array.iter (fun f -> counts.(f) <- counts.(f) + 1) nd.fanins)
    c.nodes;
  let result = Array.make n [||] in
  Array.iteri (fun i k -> result.(i) <- Array.make k 0) counts;
  let fill = Array.make n 0 in
  Array.iteri
    (fun id nd ->
      Array.iter
        (fun f ->
          result.(f).(fill.(f)) <- id;
          fill.(f) <- fill.(f) + 1)
        nd.fanins)
    c.nodes;
  result

let topological_order c =
  (* Kahn's algorithm; duplicate fanin edges are counted on both sides, which
     keeps the decrements symmetric. *)
  let n = Array.length c.nodes in
  let indegree = Array.make n 0 in
  Array.iteri
    (fun id nd -> indegree.(id) <- Array.length nd.fanins)
    c.nodes;
  let fan_out = fanouts c in
  let queue = Queue.create () in
  Array.iteri (fun id d -> if d = 0 then Queue.add id queue) indegree;
  let order = Array.make n 0 in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    order.(!filled) <- id;
    incr filled;
    Array.iter
      (fun consumer ->
        indegree.(consumer) <- indegree.(consumer) - 1;
        if indegree.(consumer) = 0 then Queue.add consumer queue)
      fan_out.(id)
  done;
  if !filled = n then Some order else None

let is_acyclic c = topological_order c <> None

let transitive_fanin c id =
  let n = Array.length c.nodes in
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      Array.iter visit c.nodes.(i).fanins
    end
  in
  visit id;
  seen

(* Iterative Tarjan over the signal-flow graph (edges fanin -> node). *)
let strongly_connected_components c =
  let n = Array.length c.nodes in
  let fan_out = fanouts c in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let scc = Array.make n (-1) in
  let stack = Stack.create () in
  let next_index = ref 0 in
  let next_scc = ref 0 in
  (* Explicit DFS stack of (node, next-child position). *)
  let visit root =
    let call_stack = ref [ root, ref 0 ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    Stack.push root stack;
    on_stack.(root) <- true;
    while !call_stack <> [] do
      match !call_stack with
      | [] -> ()
      | (u, child) :: rest ->
        if !child < Array.length fan_out.(u) then begin
          let v = fan_out.(u).(!child) in
          incr child;
          if index.(v) < 0 then begin
            index.(v) <- !next_index;
            lowlink.(v) <- !next_index;
            incr next_index;
            Stack.push v stack;
            on_stack.(v) <- true;
            call_stack := (v, ref 0) :: !call_stack
          end
          else if on_stack.(v) && index.(v) < lowlink.(u) then
            lowlink.(u) <- index.(v)
        end
        else begin
          call_stack := rest;
          (match rest with
           | (parent, _) :: _ ->
             if lowlink.(u) < lowlink.(parent) then lowlink.(parent) <- lowlink.(u)
           | [] -> ());
          if lowlink.(u) = index.(u) then begin
            let continue = ref true in
            while !continue do
              let w = Stack.pop stack in
              on_stack.(w) <- false;
              scc.(w) <- !next_scc;
              if w = u then continue := false
            done;
            incr next_scc
          end
        end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  scc

let find_cycles c ~limit =
  (* Bounded DFS cycle enumeration: for each node, search for a path back to
     itself through fanouts.  Sufficient for diagnostics and CycSAT on locked
     circuits where cycles pass through inserted routing blocks. *)
  let n = Array.length c.nodes in
  let fan_out = fanouts c in
  let cycles = ref [] in
  let count = ref 0 in
  let on_path = Array.make n false in
  let rec dfs root path id =
    if !count < limit then
      Array.iter
        (fun next ->
          if !count < limit then
            if next = root then begin
              cycles := List.rev (id :: path) :: !cycles;
              incr count
            end
            else if next > root && not on_path.(next) then begin
              on_path.(next) <- true;
              dfs root (id :: path) next;
              on_path.(next) <- false
            end)
        fan_out.(id)
  in
  let root = ref 0 in
  while !root < n && !count < limit do
    on_path.(!root) <- true;
    dfs !root [] !root;
    on_path.(!root) <- false;
    incr root
  done;
  List.rev !cycles

let kind_histogram c =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun nd ->
      let key = Gate.to_string nd.kind in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (prev + 1))
    c.nodes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let depth c =
  match topological_order c with
  | None -> None
  | Some order ->
    let level = Array.make (Array.length c.nodes) 0 in
    Array.iter
      (fun id ->
        let nd = c.nodes.(id) in
        if Array.length nd.fanins > 0 then begin
          let m = Array.fold_left (fun acc f -> max acc level.(f)) 0 nd.fanins in
          level.(id) <- m + 1
        end)
      order;
    Some (Array.fold_left max 0 level)

let validate c =
  let n = Array.length c.nodes in
  let seen_names = Hashtbl.create n in
  Array.iteri
    (fun id (nd : node) ->
      if Hashtbl.mem seen_names nd.name then
        invalid_arg (Printf.sprintf "Circuit.validate: duplicate name %S" nd.name);
      Hashtbl.add seen_names nd.name ();
      if not (Gate.valid_fanin_count nd.kind (Array.length nd.fanins)) then
        invalid_arg
          (Printf.sprintf "Circuit.validate: node %d (%s) has bad fanin count" id
             nd.name);
      Array.iter
        (fun f ->
          if f < 0 || f >= n then
            invalid_arg
              (Printf.sprintf "Circuit.validate: node %d references unknown id %d"
                 id f))
        nd.fanins)
    c.nodes;
  Array.iter
    (fun id ->
      match c.nodes.(id).kind with
      | Gate.Input -> ()
      | _ -> invalid_arg "Circuit.validate: inputs array lists a non-input")
    c.inputs;
  Array.iter
    (fun id ->
      match c.nodes.(id).kind with
      | Gate.Key_input -> ()
      | _ -> invalid_arg "Circuit.validate: keys array lists a non-key")
    c.keys;
  if Array.length c.outputs = 0 then
    invalid_arg "Circuit.validate: circuit has no outputs";
  Array.iter
    (fun (_, id) ->
      if id < 0 || id >= n then
        invalid_arg "Circuit.validate: output references unknown id")
    c.outputs

let pp_stats fmt c =
  Format.fprintf fmt
    "@[<v>circuit %s: %d nodes, %d gates, %d inputs, %d keys, %d outputs%s@,%a@]"
    c.name (num_nodes c) (num_gates c) (num_inputs c) (num_keys c)
    (num_outputs c)
    (if is_acyclic c then "" else " (cyclic)")
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
       (fun f (k, v) -> Format.fprintf f "%s:%d" k v))
    (kind_histogram c)
