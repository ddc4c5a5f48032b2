(* Table 5: smallest SAT-resilient PLR configuration per circuit, compared
   with the crossbar count Cross-Lock needs.  The ladder of configurations
   is probed bottom-up with the (scaled) attack budget; the paper's shape is
   that Full-Lock needs far less routing fabric than Cross-Lock. *)

module Bench_suite = Fl_netlist.Bench_suite
module Fulllock = Fl_core.Fulllock
module Cross_lock = Fl_locking.Cross_lock
module Cycsat = Fl_attacks.Cycsat
module Sat_attack = Fl_attacks.Sat_attack

(* Resilience = the attack exhausts its budget.  The budget is a solver
   conflict cap (machine-load-independent) so the probe ladder settles on
   the same configuration at any --jobs width; [timeout] is a generous
   wall backstop only. *)
let resilient_full_lock ~timeout ~max_conflicts circuit ~sizes ~seed =
  let rng = Random.State.make [| seed |] in
  let configs = List.map (fun n -> Fulllock.default_config ~n) sizes in
  match Fulllock.lock rng ~policy:`Cyclic ~configs circuit with
  | exception Invalid_argument _ -> None
  | locked ->
    let r = Cycsat.run ~timeout ~max_conflicts locked in
    (match r.Sat_attack.status with
     | Sat_attack.Timeout -> Some true
     | Sat_attack.Broken _ | Sat_attack.No_key_found -> Some false)

(* Several crossbars = chain the pass; the oracle stays the original and the
   correct key is the concatenation (key order = key-input creation order,
   which appending preserves). *)
let resilient_cross_lock ~timeout ~max_conflicts circuit ~n ~count ~seed =
  let rng = Random.State.make [| seed; n; count |] in
  let rec extend i (acc : Fl_locking.Locked.t) =
    if i = 0 then Some acc
    else
      match Cross_lock.lock rng ~n acc.Fl_locking.Locked.locked with
      | exception Invalid_argument _ -> None
      | next ->
        extend (i - 1)
          {
            acc with
            Fl_locking.Locked.locked = next.Fl_locking.Locked.locked;
            correct_key =
              Array.append acc.Fl_locking.Locked.correct_key
                next.Fl_locking.Locked.correct_key;
          }
  in
  match Cross_lock.lock rng ~n circuit with
  | exception Invalid_argument _ -> None
  | first ->
    (match extend (count - 1) first with
     | None -> None
     | Some locked ->
       let r = Cycsat.run ~timeout ~max_conflicts locked in
       (match r.Sat_attack.status with
        | Sat_attack.Timeout -> Some true
        | Sat_attack.Broken _ | Sat_attack.No_key_found -> Some false))

let ladder ~deep =
  if deep then [ [ 8 ]; [ 8; 8 ]; [ 16 ]; [ 16; 8 ]; [ 16; 16 ]; [ 16; 16; 8 ] ]
  else [ [ 4 ]; [ 4; 4 ]; [ 8 ]; [ 8; 4 ]; [ 8; 8 ]; [ 8; 8; 4 ] ]

let describe sizes =
  let counts = Hashtbl.create 4 in
  List.iter
    (fun n ->
      Hashtbl.replace counts n (1 + Option.value ~default:0 (Hashtbl.find_opt counts n)))
    sizes;
  Hashtbl.fold (fun n c acc -> Printf.sprintf "%dx%dx%d" c n n :: acc) counts []
  |> List.sort compare
  |> String.concat " + "

(* A circuit's bottom-up ladder probe is inherently sequential (each rung
   depends on the previous failing), so the Fl_par unit is one probe — two
   tasks per circuit, Full-Lock's ladder and Cross-Lock's count sweep. *)
let probe_full_lock ~deep ~timeout ~max_conflicts c ~seed =
  let rec probe = function
    | [] -> "> ladder"
    | sizes :: rest ->
      (match resilient_full_lock ~timeout ~max_conflicts c ~sizes ~seed with
       | Some true -> describe sizes
       | Some false | None -> probe rest)
  in
  probe (ladder ~deep)

let probe_cross_lock ~deep ~timeout ~max_conflicts c ~seed =
  let xn = if deep then 8 else 4 in
  let rec probe count =
    if count > 6 then "> 6"
    else
      match resilient_cross_lock ~timeout ~max_conflicts c ~n:xn ~count ~seed with
      | Some true -> Printf.sprintf "%dx%dx%d" count xn xn
      | Some false | None -> probe (count + 1)
  in
  probe 1

let run ~deep ~pool () =
  let max_conflicts = if deep then 200_000 else 50_000 in
  let timeout = if deep then 600.0 else 120.0 in
  let scale = if deep then 2 else 4 in
  let circuits =
    if deep then Bench_suite.names else [ "c432"; "c880"; "c1355"; "apex2"; "i4" ]
  in
  let tasks =
    List.concat_map (fun name -> [ name, `Full; name, `Cross ]) circuits
  in
  let cells =
    Fl_par.map_list pool
      (fun (name, which) ->
        let c = Bench_suite.load_scaled name ~scale in
        let seed = Hashtbl.hash name in
        match which with
        | `Full -> probe_full_lock ~deep ~timeout ~max_conflicts c ~seed
        | `Cross -> probe_cross_lock ~deep ~timeout ~max_conflicts c ~seed)
      tasks
    |> List.map Fl_par.get
  in
  let rows =
    List.mapi
      (fun i name ->
        let entry = Option.get (Bench_suite.find name) in
        let full_lock = List.nth cells (2 * i) in
        let cross_lock = List.nth cells ((2 * i) + 1) in
        [
          name;
          string_of_int entry.Bench_suite.gates;
          Printf.sprintf "%d/%d" entry.Bench_suite.inputs entry.Bench_suite.outputs;
          full_lock;
          cross_lock;
        ])
      circuits
  in
  Tables.print
    ~title:
      (Printf.sprintf
         "Table 5 — smallest SAT-resilient configuration at 1/%d scale, %dk-conflict budget \
          (paper: 16x16/32x32 PLRs vs 32x36 crossbars, 2e6 s)"
         scale (max_conflicts / 1000))
    [ "circuit"; "gates (full)"; "I/O (full)"; "Full-Lock PLRs"; "Cross-Lock crossbars" ]
    rows;
  Report.add_section "results"
    (List.map2
       (fun (name, which) cell ->
         ( Printf.sprintf "%s %s" name
             (match which with `Full -> "full_lock" | `Cross -> "cross_lock"),
           Fl_obs.String cell ))
       tasks cells);
  Report.add_parallelism ~jobs:(Fl_par.jobs pool) (Fl_par.last_stats pool);
  print_endline
    "Shape reproduced when Full-Lock reaches resilience with less routing fabric\n\
     than Cross-Lock (cascaded switch-boxes vs one shallow crossbar per output)."
