(* Security experiments beyond the SAT tables: permutation coverage
   (Section 3.1), removal attack (4.2.2), SPS, affine/algebraic attack
   (4.2.3) and output corruption (Section 2). *)

module Bench_suite = Fl_netlist.Bench_suite
module Cln = Fl_cln.Cln
module Coverage = Fl_cln.Coverage
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Removal = Fl_attacks.Removal
module Sps = Fl_attacks.Sps
module Affine = Fl_attacks.Affine
module Bypass = Fl_attacks.Bypass

(* The sweep experiments below fan one row per Fl_par task; rows come back
   in task-index order, so tables and summaries match --jobs 1 exactly. *)

let coverage ~deep ~pool () =
  let sizes = if deep then [ 4; 8; 16 ] else [ 4; 8 ] in
  let tasks =
    List.concat_map
      (fun n -> [ n, `Blocking; n, `Non_blocking ])
      sizes
  in
  let rows =
    Fl_par.map_list pool
      (fun (n, kind) ->
        let spec, label =
          match kind with
          | `Blocking -> Cln.blocking_spec ~n, "blocking (omega)"
          | `Non_blocking -> Cln.default_spec ~n, "almost non-blocking"
        in
        let r = Coverage.measure ~max_keys:(1 lsl 18) spec in
        [
          Printf.sprintf "%s N=%d" label n;
          string_of_int r.Coverage.distinct_permutations;
          string_of_int r.Coverage.total_permutations;
          Printf.sprintf "%.2f%%" (100.0 *. Coverage.coverage_fraction r);
          (if r.Coverage.exhaustive then "exhaustive"
           else Printf.sprintf "sampled %d" r.Coverage.keys_examined);
        ])
      tasks
    |> List.map Fl_par.get
  in
  Tables.print
    ~title:"Section 3.1 — permutation coverage: blocking vs almost non-blocking CLN"
    [ "network"; "distinct perms"; "N!"; "coverage"; "method" ]
    rows;
  Report.add_parallelism ~jobs:(Fl_par.jobs pool) (Fl_par.last_stats pool);
  print_endline
    "The blocking network realises only a sliver of the permutation space; the\n\
     LOG(N, log2N-2, 1) network approaches it — the basis of its SAT-hardness."

let host ~scale = Bench_suite.load_scaled "c880" ~scale

let removal ~deep ~pool () =
  let scale = if deep then 2 else 4 in
  let cases =
    [
      ("SARLock", fun rng c -> Fl_locking.Sarlock.lock rng ~key_bits:8 c);
      ("Anti-SAT", fun rng c -> Fl_locking.Antisat.lock rng ~key_bits:16 c);
      ("SFLL-HD (h=1)", fun rng c -> Fl_locking.Sfll.lock rng ~key_bits:8 ~h:1 c);
      ("RLL (XOR)", fun rng c -> Fl_locking.Rll.lock rng ~key_bits:8 c);
      ("Cross-Lock", fun rng c -> Fl_locking.Cross_lock.lock rng ~n:8 c);
      ("Full-Lock", fun rng c -> Fulllock.lock_one rng ~n:8 c);
    ]
  in
  let rows =
    Fl_par.map_list pool
      (fun (name, lock) ->
        let c = host ~scale in
        let rng = Random.State.make [| Hashtbl.hash name |] in
        let locked = lock rng c in
        let r = Removal.run locked in
        let sps = Sps.identifies_block locked in
        let bypass =
          if Fl_netlist.Circuit.is_acyclic locked.Locked.locked then
            match Bypass.run ~max_cubes:24 ~timeout:15.0 locked with
            | Bypass.Bypassed { cubes; overhead_gates; _ } ->
              Printf.sprintf "BROKEN (%d cubes, +%d gates)" (List.length cubes)
                overhead_gates
            | Bypass.Too_many_cubes { found; _ } ->
              Printf.sprintf "survives (>%d cubes)" (found - 1)
            | Bypass.Inconclusive -> "inconclusive"
          else "n/a (cyclic)"
        in
        [
          name;
          string_of_int r.Removal.removed_flip_gates;
          string_of_int r.Removal.bypassed_mux_islands;
          (if r.Removal.equivalent then "BROKEN" else "survives");
          (if sps then "flagged" else "hidden");
          bypass;
        ])
      cases
    |> List.map Fl_par.get
  in
  Tables.print
    ~title:"Section 4.2.2 — removal, SPS and bypass attacks"
    [ "scheme"; "flip gates cut"; "MUXes bypassed"; "removal"; "SPS"; "bypass" ]
    rows;
  Report.add_parallelism ~jobs:(Fl_par.jobs pool) (Fl_par.last_stats pool);
  print_endline
    "Point-function schemes are excised or bypassed outright; Full-Lock survives:\n\
     the twisted leading gates and key-programmed LUTs make every bypass guess\n\
     wrong and its corruption makes bypass comparators impractically large."

let affine () =
  let rng = Random.State.make [| 0xaff |] in
  let rows =
    [
      (let l = Fulllock.standalone_cln_lock (Cln.blocking_spec ~n:8) rng in
       let fit = Affine.attack_oracle l in
       [ "bare CLN (blocking, N=8)";
         (if fit.Affine.is_affine then "YES — y = A.x + b recovered" else "no");
         string_of_int fit.Affine.counterexamples ]);
      (let l = Fulllock.standalone_cln_lock (Cln.default_spec ~n:8) rng in
       let fit = Affine.attack_oracle l in
       [ "bare CLN (non-blocking, N=8)";
         (if fit.Affine.is_affine then "YES — y = A.x + b recovered" else "no");
         string_of_int fit.Affine.counterexamples ]);
      (let spec = Cln.default_spec ~n:8 in
       let key = Cln.random_routable_key spec rng in
       let action = Cln.decode spec ~key in
       let plr x =
         let routed = Cln.apply_action action x in
         Array.init 4 (fun i -> routed.(2 * i) && routed.((2 * i) + 1))
       in
       let fit = Affine.fit_function ~arity:8 plr in
       [ "PLR (CLN + LUT layer)";
         (if fit.Affine.is_affine then "YES" else "no — non-linear");
         string_of_int fit.Affine.counterexamples ]);
    ]
  in
  Tables.print
    ~title:"Section 4.2.3 — algebraic (affine) attack"
    [ "target"; "affine-expressible"; "counterexamples" ]
    rows;
  print_endline
    "A routing-only CLN is an affine map over GF(2) and falls to n+1 queries; the\n\
     LUT layer of the PLR destroys linearity (the paper's argument verbatim)."

let corruption ~deep ~pool () =
  let scale = if deep then 2 else 4 in
  let cases =
    [
      ("SARLock", fun rng c -> Fl_locking.Sarlock.lock rng ~key_bits:8 c);
      ("Anti-SAT", fun rng c -> Fl_locking.Antisat.lock rng ~key_bits:16 c);
      ("SFLL-HD (h=2)", fun rng c -> Fl_locking.Sfll.lock rng ~key_bits:8 ~h:2 c);
      ("RLL (XOR)", fun rng c -> Fl_locking.Rll.lock rng ~key_bits:8 c);
      ("LUT-Lock", fun rng c -> Fl_locking.Lut_lock.lock rng ~gates:6 c);
      ("Cyclic (SRC)", fun rng c -> Fl_locking.Cyclic_lock.lock rng ~cycles:6 c);
      ("Cross-Lock", fun rng c -> Fl_locking.Cross_lock.lock rng ~n:8 c);
      ("Full-Lock", fun rng c -> Fulllock.lock_one rng ~n:8 c);
    ]
  in
  let rows =
    Fl_par.map_list pool
      (fun (name, lock) ->
        let c = host ~scale in
        let rng = Random.State.make [| Hashtbl.hash name; 3 |] in
        let locked = lock rng c in
        let corr =
          Locked.output_corruption ~trials:32 ~batches:2 locked
            (Random.State.make [| 4 |])
        in
        (* Exact (BDD model-counted) corruption of one fixed wrong key, when
           the BDD stays tractable. *)
        let exact =
          if not (Fl_netlist.Circuit.is_acyclic locked.Locked.locked) then "n/a"
          else begin
            let wrong = Array.map not locked.Locked.correct_key in
            match Fl_bdd.Bdd.exact_corruption ~node_limit:2_000_000 locked ~key:wrong with
            | v -> Printf.sprintf "%.4f" v
            | exception Fl_bdd.Bdd.Too_large -> "BDD blow-up"
          end
        in
        [
          name;
          Printf.sprintf "%.4f" corr;
          exact;
          String.make (max 1 (int_of_float (40.0 *. Float.min 1.0 (corr *. 2.0)))) '#';
        ])
      cases
    |> List.map Fl_par.get
  in
  Tables.print
    ~title:"Section 2 — output corruption under random wrong keys"
    [ "scheme"; "sampled (random keys)"; "exact (one wrong key, BDD)"; "profile" ]
    rows;
  Report.add_parallelism ~jobs:(Fl_par.jobs pool) (Fl_par.last_stats pool);
  print_endline
    "Full-Lock corrupts broadly under wrong keys, unlike the point-function\n\
     schemes whose unactivated ICs behave almost correctly (the paper's critique)."
