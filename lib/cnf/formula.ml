type lit = int


type t = {
  mutable vars : int;
  mutable clause_count : int;
  mutable store : lit array array;
  mutable literal_count : int;
}

let create () = { vars = 0; clause_count = 0; store = Array.make 64 [||]; literal_count = 0 }

let fresh_var f =
  f.vars <- f.vars + 1;
  f.vars

let fresh_vars f n = Array.init n (fun _ -> fresh_var f)

let reserve f n = if n > f.vars then f.vars <- n

let check_lit f l =
  if l = 0 then invalid_arg "Formula.add_clause: zero literal";
  let v = abs l in
  if v > f.vars then
    invalid_arg (Printf.sprintf "Formula.add_clause: variable %d not allocated" v)

let push f clause =
  let cap = Array.length f.store in
  if f.clause_count >= cap then begin
    let store' = Array.make (cap * 2) [||] in
    Array.blit f.store 0 store' 0 cap;
    f.store <- store'
  end;
  f.store.(f.clause_count) <- clause;
  f.clause_count <- f.clause_count + 1;
  f.literal_count <- f.literal_count + Array.length clause

let add_clause_a f clause =
  if Array.length clause = 0 then invalid_arg "Formula.add_clause: empty clause";
  Array.iter (check_lit f) clause;
  push f clause

let add_clause f lits = add_clause_a f (Array.of_list lits)

let num_vars f = f.vars
let num_clauses f = f.clause_count
let num_literals f = f.literal_count

let clauses f = Array.sub f.store 0 f.clause_count

let iter_clauses_from f i k =
  for i = max 0 i to f.clause_count - 1 do
    k f.store.(i)
  done

let iter_clauses f k = iter_clauses_from f 0 k

let ratio f = if f.vars = 0 then 0.0 else float_of_int f.clause_count /. float_of_int f.vars

let copy f =
  {
    vars = f.vars;
    clause_count = f.clause_count;
    store = Array.map Array.copy (Array.sub f.store 0 f.clause_count);
    literal_count = f.literal_count;
  }

let to_dimacs f =
  let buf = Buffer.create (f.literal_count * 4) in
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" f.vars f.clause_count);
  iter_clauses f (fun clause ->
      Array.iter (fun l -> Buffer.add_string buf (string_of_int l); Buffer.add_char buf ' ') clause;
      Buffer.add_string buf "0\n");
  Buffer.contents buf

exception Dimacs_error of string

let of_dimacs text =
  let f = create () in
  let fail lineno fmt =
    Printf.ksprintf
      (fun m -> raise (Dimacs_error (Printf.sprintf "line %d: %s" lineno m)))
      fmt
  in
  let words line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun tok -> tok <> "")
  in
  (* [max_var] is the header's variable count, once a header is read. *)
  let max_var = ref None in
  let current = ref [] and last_line = ref 0 in
  let header lineno line =
    if !max_var <> None then fail lineno "second problem line %S" line;
    if !current <> [] || num_clauses f > 0 then
      fail lineno "problem line %S after clauses" line;
    let count s =
      match int_of_string_opt s with Some n when n >= 0 -> Some n | _ -> None
    in
    match words line with
    | [ "p"; "cnf"; v; c ] when count v <> None && count c <> None ->
      max_var := count v
    | _ -> fail lineno "bad problem line %S (expected p cnf VARS CLAUSES)" line
  in
  let handle_token lineno token =
    last_line := lineno;
    match int_of_string_opt token with
    | None -> fail lineno "bad literal %S" token
    | Some 0 ->
      (match !current with
       | [] -> fail lineno "empty clause in input"
       | lits ->
         List.iter (fun l -> reserve f (abs l)) lits;
         add_clause f (List.rev lits);
         current := [])
    | Some l ->
      (match !max_var with
       | Some n when abs l > n ->
         fail lineno "literal %d out of range (the header declares %d variables)" l n
       | _ -> ());
      current := l :: !current
  in
  String.split_on_char '\n' text
  |> List.iteri (fun i line ->
         let lineno = i + 1 in
         let line = String.trim line in
         if line = "" || line.[0] = 'c' || line.[0] = '%' then ()
         else if line.[0] = 'p' then header lineno line
         else List.iter (handle_token lineno) (words line));
  if !current <> [] then fail !last_line "trailing clause without terminating 0";
  f
