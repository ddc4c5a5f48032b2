(* Tests for Fl_attacks: SAT attack, CycSAT, AppSAT, brute force, removal,
   SPS, affine — against every locking scheme. *)

module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Generator = Fl_netlist.Generator
module Gate = Fl_netlist.Gate
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Cln = Fl_cln.Cln
module Sat_attack = Fl_attacks.Sat_attack
module Cycsat = Fl_attacks.Cycsat
module Appsat = Fl_attacks.Appsat
module Brute_force = Fl_attacks.Brute_force
module Removal = Fl_attacks.Removal
module Sps = Fl_attacks.Sps
module Affine = Fl_attacks.Affine
module Bypass = Fl_attacks.Bypass
module Session = Fl_attacks.Session

let check = Alcotest.check
let bool_t = Alcotest.bool

let host ?(seed = 201) ?(gates = 60) ?(inputs = 8) ?(outputs = 4) () =
  Generator.random ~seed ~name:"host"
    { Generator.num_inputs = inputs; num_outputs = outputs; num_gates = gates;
      max_fanin = 3; and_bias = 0.8 }

let broken_correct r =
  match r.Sat_attack.status with
  | Sat_attack.Broken _ -> r.Sat_attack.key_check = Sat_attack.Key_correct
  | _ -> false

(* ------------------------------------------------------------------ *)
(* SAT attack                                                          *)
(* ------------------------------------------------------------------ *)

let test_sat_breaks_rll () =
  let rng = Random.State.make [| 1 |] in
  let l = Fl_locking.Rll.lock rng ~key_bits:8 (host ()) in
  let r = Sat_attack.run ~timeout:30.0 l in
  check bool_t "broken correctly" true (broken_correct r);
  check bool_t "few iterations" true (r.Sat_attack.iterations <= 20)

let test_sat_breaks_mux_lock () =
  let rng = Random.State.make [| 2 |] in
  let l = Fl_locking.Mux_lock.lock rng ~key_bits:8 (host ()) in
  let r = Sat_attack.run ~timeout:30.0 l in
  check bool_t "broken correctly" true (broken_correct r)

let test_sat_breaks_lut_lock () =
  let rng = Random.State.make [| 3 |] in
  let l = Fl_locking.Lut_lock.lock rng ~gates:4 (host ()) in
  let r = Sat_attack.run ~timeout:30.0 l in
  check bool_t "broken correctly" true (broken_correct r)

let test_sat_breaks_cross_lock () =
  let rng = Random.State.make [| 4 |] in
  let l = Fl_locking.Cross_lock.lock rng ~n:4 (host ~gates:100 ()) in
  let r = Sat_attack.run ~timeout:30.0 l in
  check bool_t "broken correctly" true (broken_correct r)

let test_sarlock_needs_many_iterations () =
  (* SARLock's defining property: ~one key ruled out per DIP, so the
     iteration count approaches the key-space size; RLL needs far fewer. *)
  let rng = Random.State.make [| 5 |] in
  let c = host ~inputs:6 () in
  let sar = Fl_locking.Sarlock.lock rng ~key_bits:5 c in
  let rll = Fl_locking.Rll.lock rng ~key_bits:5 c in
  let r_sar = Sat_attack.run ~timeout:60.0 sar in
  let r_rll = Sat_attack.run ~timeout:60.0 rll in
  check bool_t "sarlock broken" true (broken_correct r_sar);
  check bool_t "rll broken" true (broken_correct r_rll);
  check bool_t
    (Printf.sprintf "sarlock iters (%d) > rll iters (%d)"
       r_sar.Sat_attack.iterations r_rll.Sat_attack.iterations)
    true
    (r_sar.Sat_attack.iterations > r_rll.Sat_attack.iterations)

let test_sat_breaks_small_cln () =
  List.iter
    (fun spec ->
      let rng = Random.State.make [| 6 |] in
      let l = Fulllock.standalone_cln_lock spec rng in
      let r = Sat_attack.run ~timeout:60.0 l in
      check bool_t "cln broken" true (broken_correct r))
    [ Cln.blocking_spec ~n:4; Cln.default_spec ~n:4 ]

let test_sat_breaks_small_fulllock () =
  let rng = Random.State.make [| 7 |] in
  let l = Fulllock.lock_one rng ~n:4 (host ~gates:80 ()) in
  let r = Sat_attack.run ~timeout:120.0 l in
  check bool_t "small full-lock broken" true (broken_correct r)

let test_sat_timeout_reported () =
  let rng = Random.State.make [| 8 |] in
  let l = Fulllock.lock_one rng ~n:8 (host ~gates:120 ~inputs:12 ()) in
  let r = Sat_attack.run ~timeout:0.05 l in
  check bool_t "timeout" true (r.Sat_attack.status = Sat_attack.Timeout)

let test_sat_ratio_positive () =
  let rng = Random.State.make [| 10 |] in
  let l = Fl_locking.Rll.lock rng ~key_bits:4 (host ()) in
  let r = Sat_attack.run ~timeout:30.0 l in
  check bool_t "ratio sane" true
    (r.Sat_attack.clause_var_ratio > 1.0 && r.Sat_attack.clause_var_ratio < 10.0)

(* ------------------------------------------------------------------ *)
(* CycSAT                                                              *)
(* ------------------------------------------------------------------ *)

let cyclic_fulllock ?(seed = 23) () =
  (* Search seeds until the cyclic policy actually yields a cyclic locked
     circuit (most seeds do). *)
  let c = host ~gates:100 () in
  let rec go s =
    if s > seed + 30 then failwith "no cyclic instance found"
    else begin
      let rng = Random.State.make [| s |] in
      let l = Fulllock.lock_one rng ~policy:`Cyclic ~n:4 c in
      if Circuit.is_acyclic l.Locked.locked then go (s + 1) else l
    end
  in
  go seed

let test_cycsat_breaks_cyclic_fulllock () =
  let l = cyclic_fulllock () in
  check bool_t "feedback edges > 0" true
    (Cycsat.num_feedback_edges l.Locked.locked > 0);
  let r = Cycsat.run ~timeout:120.0 l in
  check bool_t "cycsat broke it with a correct key" true (broken_correct r)

let test_cycsat_breaks_cyclic_lock () =
  (* The SRCLock-style cyclic baseline is exactly what CycSAT was published
     against. *)
  let c = host ~gates:100 () in
  let rng = Random.State.make [| 31 |] in
  let l = Fl_locking.Cyclic_lock.lock rng ~cycles:3 c in
  check bool_t "cyclic" false (Circuit.is_acyclic l.Locked.locked);
  let r = Cycsat.run ~timeout:60.0 l in
  check bool_t "broken correctly" true (broken_correct r)

let test_sat_on_sfll_needs_many_iterations () =
  (* SFLL-HD with h=0 degenerates to SARLock's point function: one key per
     DIP, so iterations approach the key-space size.  Larger h trades
     resilience for corruption (checked: fewer iterations than h=0).  The
     claim is about the distribution, not one search path — the DIP equal
     to the protected pattern removes every wrong key at once, and when it
     comes up depends on the encoding — so it is checked on the median of
     a fixed sweep of instances (the first is host seed 201, lock seed
     32). *)
  let sweep = 24 in
  let median xs =
    let a = Array.of_list xs in
    Array.sort Int.compare a;
    a.(Array.length a / 2)
  in
  let runs =
    List.init sweep (fun s ->
        let rng = Random.State.make [| 32 + s |] in
        let c = host ~seed:(201 + s) ~inputs:6 () in
        let l0 = Fl_locking.Sfll.lock rng ~key_bits:5 ~h:0 c in
        let l1 = Fl_locking.Sfll.lock rng ~key_bits:5 ~h:1 c in
        Sat_attack.run ~timeout:120.0 l0, Sat_attack.run ~timeout:120.0 l1)
  in
  List.iteri
    (fun s (r0, r1) ->
      check bool_t (Printf.sprintf "instance %d: h=0 broken" s) true
        (broken_correct r0);
      check bool_t (Printf.sprintf "instance %d: h=1 broken" s) true
        (broken_correct r1))
    runs;
  let m0 = median (List.map (fun (r0, _) -> r0.Sat_attack.iterations) runs)
  and m1 = median (List.map (fun (_, r1) -> r1.Sat_attack.iterations) runs) in
  check bool_t (Printf.sprintf "h=0 median DIPs (%d) >= 8" m0) true (m0 >= 8);
  check bool_t
    (Printf.sprintf "h=1 median DIPs (%d) <= h=0 median (%d)" m1 m0)
    true (m1 <= m0)

let test_appsat_approximates_sfll () =
  let rng = Random.State.make [| 33 |] in
  let l = Fl_locking.Sfll.lock rng ~key_bits:8 ~h:1 (host ~inputs:10 ()) in
  let r = Appsat.run ~timeout:60.0 l in
  match r.Appsat.key with
  | None -> Alcotest.fail "appsat found no key"
  | Some _ ->
    check bool_t
      (Printf.sprintf "low error (%.3f)" r.Appsat.estimated_error)
      true
      (r.Appsat.estimated_error <= 0.02)

let test_cycsat_on_acyclic_equals_sat () =
  let rng = Random.State.make [| 11 |] in
  let l = Fl_locking.Rll.lock rng ~key_bits:6 (host ()) in
  check bool_t "no feedback" true (Cycsat.num_feedback_edges l.Locked.locked = 0);
  let r = Cycsat.run ~timeout:30.0 l in
  check bool_t "still breaks" true (broken_correct r)

let test_nc_conditions_allow_correct_key () =
  (* The correct key must satisfy the no-cycle conditions: assert NC plus
     the correct key as units and check satisfiability. *)
  let l = cyclic_fulllock ~seed:40 () in
  let f = Fl_cnf.Formula.create () in
  let nk = Locked.num_key_bits l in
  let key_vars = Fl_cnf.Formula.fresh_vars f nk in
  Cycsat.no_cycle_condition l.Locked.locked f key_vars;
  Array.iteri
    (fun i v ->
      Fl_cnf.Formula.add_clause f [ (if l.Locked.correct_key.(i) then v else -v) ])
    key_vars;
  let outcome, _, _ = Fl_sat.Cdcl.solve_formula f in
  check bool_t "correct key satisfies NC" true (outcome = Fl_sat.Cdcl.Sat)

(* ------------------------------------------------------------------ *)
(* AppSAT                                                              *)
(* ------------------------------------------------------------------ *)

let test_appsat_approximates_sarlock () =
  (* AppSAT should settle on a low-error key for SARLock long before the
     exact attack's ~2^k iterations. *)
  let rng = Random.State.make [| 12 |] in
  let l = Fl_locking.Sarlock.lock rng ~key_bits:8 (host ~inputs:10 ()) in
  let r = Appsat.run ~timeout:60.0 l in
  match r.Appsat.key with
  | None -> Alcotest.fail "appsat found no key"
  | Some _ ->
    check bool_t
      (Printf.sprintf "low error (%.3f)" r.Appsat.estimated_error)
      true
      (r.Appsat.estimated_error <= 0.02)

let test_appsat_exact_on_rll () =
  let rng = Random.State.make [| 13 |] in
  let l = Fl_locking.Rll.lock rng ~key_bits:6 (host ()) in
  let r = Appsat.run ~timeout:60.0 l in
  match r.Appsat.key with
  | Some key ->
    check bool_t "key works" true (Locked.key_matches l ~key)
  | None -> Alcotest.fail "appsat failed on rll"

(* ------------------------------------------------------------------ *)
(* Brute force                                                         *)
(* ------------------------------------------------------------------ *)

let test_brute_force_small () =
  let rng = Random.State.make [| 14 |] in
  let l = Fl_locking.Rll.lock rng ~key_bits:6 (host ()) in
  let r = Brute_force.run l in
  match r.Brute_force.key with
  | Some key -> check bool_t "key works" true (Locked.key_matches l ~key)
  | None -> Alcotest.fail "brute force failed"

let test_brute_force_rejects_large () =
  let rng = Random.State.make [| 15 |] in
  let l = Fulllock.lock_one rng ~n:8 (host ~gates:120 ~inputs:12 ()) in
  try
    ignore (Brute_force.run l);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_brute_force_agrees_with_sat () =
  let rng = Random.State.make [| 16 |] in
  let l = Fl_locking.Mux_lock.lock rng ~key_bits:5 (host ()) in
  let bf = Brute_force.run l in
  let sa = Sat_attack.run ~timeout:30.0 l in
  check bool_t "both found keys" true (bf.Brute_force.key <> None && broken_correct sa)

(* ------------------------------------------------------------------ *)
(* Removal                                                             *)
(* ------------------------------------------------------------------ *)

let test_removal_breaks_sarlock () =
  let rng = Random.State.make [| 17 |] in
  let l = Fl_locking.Sarlock.lock rng ~key_bits:6 (host ~inputs:8 ()) in
  let r = Removal.run l in
  check bool_t "flip gate removed" true (r.Removal.removed_flip_gates >= 1);
  check bool_t "equivalent" true r.Removal.equivalent

let test_removal_breaks_antisat () =
  let rng = Random.State.make [| 18 |] in
  let l = Fl_locking.Antisat.lock rng ~key_bits:12 (host ~inputs:8 ()) in
  let r = Removal.run l in
  check bool_t "equivalent" true r.Removal.equivalent

let test_removal_fails_on_fulllock () =
  let rng = Random.State.make [| 19 |] in
  let l = Fulllock.lock_one rng ~n:4 (host ~gates:80 ()) in
  let r = Removal.run l in
  check bool_t "not equivalent" false r.Removal.equivalent

let test_removal_fails_on_crosslock_with_secret_routing () =
  (* The crossbar bypass guesses identity routing; with a random secret
     permutation this is almost surely wrong. *)
  let rng = Random.State.make [| 20 |] in
  let l = Fl_locking.Cross_lock.lock rng ~n:8 (host ~gates:120 ()) in
  let r = Removal.run l in
  check bool_t "bypassed muxes" true (r.Removal.bypassed_mux_islands > 0);
  check bool_t "not equivalent" false r.Removal.equivalent

(* ------------------------------------------------------------------ *)
(* Bypass                                                              *)
(* ------------------------------------------------------------------ *)

let test_bypass_breaks_sarlock () =
  (* One wrong key disagrees on exactly one input pattern: the bypass is a
     single comparator. *)
  let rng = Random.State.make [| 41 |] in
  let l = Fl_locking.Sarlock.lock rng ~key_bits:6 (host ~inputs:8 ()) in
  match Bypass.run l with
  | Bypass.Bypassed { cubes; repaired; _ } ->
    (* Cube generalization recovers SARLock's single comparator cube. *)
    check bool_t "single cube" true (List.length cubes = 1);
    check bool_t "repaired equals oracle" true
      (Fl_sat.Equiv.check repaired l.Locked.oracle = Fl_sat.Equiv.Equivalent)
  | Bypass.Too_many_cubes _ | Bypass.Inconclusive ->
    Alcotest.fail "bypass should break sarlock"

let test_bypass_breaks_sfll () =
  let rng = Random.State.make [| 42 |] in
  let l = Fl_locking.Sfll.lock rng ~key_bits:6 ~h:1 (host ~inputs:8 ()) in
  match Bypass.run ~max_cubes:80 l with
  | Bypass.Bypassed { cubes; repaired; _ } ->
    check bool_t "bounded cubes" true (List.length cubes <= 80);
    check bool_t "repaired equals oracle" true
      (Fl_sat.Equiv.check repaired l.Locked.oracle = Fl_sat.Equiv.Equivalent)
  | Bypass.Too_many_cubes _ | Bypass.Inconclusive ->
    Alcotest.fail "bypass should break sfll-hd at small h"

let test_bypass_fails_on_fulllock () =
  (* High corruption: a wrong key disagrees on a large fraction of the input
     space, so minterm enumeration blows past any practical bypass budget. *)
  let rng = Random.State.make [| 43 |] in
  let l = Fulllock.lock_one rng ~n:4 (host ~gates:80 ~inputs:10 ()) in
  match Bypass.run ~max_cubes:24 ~timeout:60.0 l with
  | Bypass.Too_many_cubes { found; _ } ->
    check bool_t "blew the budget" true (found > 24)
  | Bypass.Bypassed { cubes; _ } ->
    Alcotest.failf "unexpected bypass with %d cubes" (List.length cubes)
  | Bypass.Inconclusive -> ()

let test_bypass_fails_on_rll () =
  (* RLL also corrupts broadly — bypass is the point-function killer only. *)
  let rng = Random.State.make [| 44 |] in
  let l = Fl_locking.Rll.lock rng ~key_bits:8 (host ~inputs:10 ()) in
  match Bypass.run ~max_cubes:24 ~timeout:60.0 l with
  | Bypass.Too_many_cubes _ -> ()
  | Bypass.Bypassed { cubes; _ } ->
    (* a lucky wrong key may corrupt only a few cubes; accept small repairs *)
    check bool_t "only small bypass accepted" true (List.length cubes <= 24)
  | Bypass.Inconclusive -> ()

(* ------------------------------------------------------------------ *)
(* SPS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sps_probability_sanity () =
  let b = Circuit.Builder.create ~name:"p" () in
  let x = Circuit.Builder.input ~name:"x" b in
  let y = Circuit.Builder.input ~name:"y" b in
  let g_and = Circuit.Builder.add ~name:"g_and" b Gate.And [| x; y |] in
  let g_xor = Circuit.Builder.add ~name:"g_xor" b Gate.Xor [| x; y |] in
  let g_nor3 = Circuit.Builder.add ~name:"g_nor" b Gate.Nor [| x; y; g_xor |] in
  Circuit.Builder.output b "a" g_and;
  Circuit.Builder.output b "b" g_nor3;
  let c = Circuit.of_builder b in
  let p = Sps.probabilities c in
  check (Alcotest.float 1e-9) "and" 0.25 p.(g_and);
  check (Alcotest.float 1e-9) "xor" 0.5 p.(g_xor);
  check bool_t "nor3 low" true (p.(g_nor3) < 0.25)

let test_sps_flags_antisat () =
  let rng = Random.State.make [| 21 |] in
  let l = Fl_locking.Antisat.lock rng ~key_bits:16 (host ~inputs:10 ()) in
  check bool_t "identified" true (Sps.identifies_block l)

let test_sps_does_not_flag_fulllock () =
  let rng = Random.State.make [| 22 |] in
  let l = Fulllock.lock_one rng ~n:8 (host ~gates:120 ~inputs:12 ()) in
  check bool_t "not identified" false (Sps.identifies_block l)

(* ------------------------------------------------------------------ *)
(* Affine                                                              *)
(* ------------------------------------------------------------------ *)

let test_affine_fits_cln () =
  (* A bare CLN (permutation + inversions) is affine — the §4.2.3
     vulnerability of routing-only obfuscation. *)
  let rng = Random.State.make [| 23 |] in
  let l = Fulllock.standalone_cln_lock (Cln.default_spec ~n:8) rng in
  let fit = Affine.attack_oracle l in
  check bool_t "affine" true fit.Affine.is_affine

let test_affine_rejects_nonlinear () =
  (* Append one AND gate to a permutation: no longer affine. *)
  let f x =
    [| x.(1); x.(0); x.(2) && x.(1) |]
  in
  let fit = Affine.fit_function ~arity:3 f in
  check bool_t "not affine" false fit.Affine.is_affine;
  check bool_t "counterexamples seen" true (fit.Affine.counterexamples > 0)

let test_affine_apply_matches () =
  let rng = Random.State.make [| 24 |] in
  let l = Fulllock.standalone_cln_lock (Cln.blocking_spec ~n:8) rng in
  let fit = Affine.attack_oracle l in
  let x = View.random_vector (Random.State.make [| 3 |]) 8 in
  check (Alcotest.array bool_t) "fit reproduces oracle"
    (Locked.query_oracle l x) (Affine.apply fit x)

let test_affine_rejects_plr () =
  (* CLN followed by key-programmed AND-like LUTs (the PLR shape): pairs of
     CLN outputs feed 2-input gates — not affine. *)
  let rng = Random.State.make [| 25 |] in
  let spec = Cln.default_spec ~n:8 in
  let key = Cln.random_routable_key spec rng in
  let action = Cln.decode spec ~key in
  let f x =
    let routed = Cln.apply_action action x in
    Array.init 4 (fun i -> routed.(2 * i) && routed.((2 * i) + 1))
  in
  let fit = Affine.fit_function ~arity:8 f in
  check bool_t "plr not affine" false fit.Affine.is_affine

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_case ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_sat_attack_recovers_function =
  (* Whatever scheme, on small instances the SAT attack's recovered key is
     functionally correct (acyclic circuits only). *)
  let gen = QCheck2.Gen.(pair (int_bound 1000) (int_range 0 3)) in
  qcheck_case "sat attack sound on acyclic schemes" gen (fun (seed, which) ->
      let c = host ~seed:(seed + 31) () in
      let rng = Random.State.make [| seed |] in
      let l =
        match which with
        | 0 -> Fl_locking.Rll.lock rng ~key_bits:5 c
        | 1 -> Fl_locking.Mux_lock.lock rng ~key_bits:5 c
        | 2 -> Fl_locking.Lut_lock.lock rng ~gates:3 c
        | _ -> Fl_locking.Cross_lock.lock rng ~n:4 c
      in
      let r = Sat_attack.run ~timeout:60.0 l in
      broken_correct r)

let prop_cycsat_sound_on_cyclic_fulllock =
  let gen = QCheck2.Gen.int_bound 1000 in
  qcheck_case ~count:6 "cycsat sound on cyclic full-lock" gen (fun seed ->
      let c = host ~seed:(seed + 77) ~gates:90 () in
      let rng = Random.State.make [| seed |] in
      let l = Fulllock.lock_one rng ~policy:`Cyclic ~n:4 c in
      let r = Cycsat.run ~timeout:120.0 l in
      broken_correct r)

(* The miter from one preprocessed circuit copy and the unpreprocessed
   miter admit the same interface behaviour: after the same observations,
   the same random partial assignments to the inputs, both key vectors
   and both output vectors are satisfiable in both or in neither. *)
let prop_one_copy_preprocessing_sound =
  let gen = QCheck2.Gen.(triple (int_bound 1_000_000) bool bool) in
  qcheck_case ~count:40 "one preprocessed copy = unpreprocessed miter" gen
    (fun (seed, cyclic, no_cycle) ->
      let rng = Random.State.make [| seed |] in
      let c = host ~seed:(seed mod 1009) ~gates:40 ~inputs:6 ~outputs:3 () in
      let policy = if cyclic then `Cyclic else `Acyclic in
      match Fulllock.lock_one rng ~policy ~n:4 c with
      | exception Invalid_argument _ -> QCheck2.assume_fail ()
      | l ->
        let circuit = l.Locked.locked in
        let extra_key_constraint =
          if no_cycle then Some (Cycsat.no_cycle_condition circuit) else None
        in
        let pre, m_pre =
          Session.base_miter ?extra_key_constraint ~preprocess:true circuit
        in
        let _, m_ref =
          Session.base_miter ?extra_key_constraint ~preprocess:false circuit
        in
        let bits n = Array.init n (fun _ -> Random.State.bool rng) in
        for _ = 1 to Random.State.int rng 4 do
          let inputs = bits (Circuit.num_inputs circuit) in
          let outputs =
            if Random.State.bool rng then Locked.query_oracle l inputs
            else bits (Circuit.num_outputs circuit)
          in
          Test_support.add_io_constraint m_pre circuit ~inputs ~outputs;
          Test_support.add_io_constraint m_ref circuit ~inputs ~outputs
        done;
        let s_pre = Fl_sat.Cdcl.of_formula m_pre.Fl_cnf.Miter.formula
        and s_ref = Fl_sat.Cdcl.of_formula m_ref.Fl_cnf.Miter.formula in
        let interface m =
          Array.concat
            Fl_cnf.Miter.[ m.inputs; m.keys_a; m.keys_b; m.outputs_a; m.outputs_b ]
        in
        let if_pre = interface m_pre and if_ref = interface m_ref in
        let agree () =
          let pick =
            Array.map
              (fun _ ->
                if Random.State.int rng 3 = 0 then Some (Random.State.bool rng)
                else None)
              if_pre
          in
          let assumptions iface =
            List.filter_map Fun.id
              (Array.to_list
                 (Array.mapi
                    (fun i v -> Option.map (fun b -> if b then v else -v) pick.(i))
                    iface))
          in
          Fl_sat.Cdcl.solve ~assumptions:(assumptions if_pre) s_pre
          = Fl_sat.Cdcl.solve ~assumptions:(assumptions if_ref) s_ref
        in
        pre <> None && List.for_all (fun _ -> agree ()) (List.init 25 Fun.id))

(* NC against a graph oracle: under a full key, NC must be satisfiable
   exactly when the structural graph minus the edges that key blocks is
   acyclic.  An edge is blocked when it enters data slot 1 of a
   key-selected MUX whose key bit is 1, or slot 2 and the bit is 0. *)
let key_open_acyclic c key =
  let n = Circuit.num_nodes c in
  let key_index = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.add key_index id i) c.Circuit.keys;
  let open_fanins u =
    let nd = Circuit.node c u in
    let key_bit =
      if nd.Circuit.kind = Gate.Mux then Hashtbl.find_opt key_index nd.Circuit.fanins.(0)
      else None
    in
    List.filteri
      (fun slot _ ->
        match key_bit with
        | Some ki when slot = 1 -> not key.(ki)
        | Some ki when slot = 2 -> key.(ki)
        | _ -> true)
      (Array.to_list nd.Circuit.fanins)
  in
  (* A cycle exists iff the DFS along open fanins meets a grey node. *)
  let color = Array.make n 0 in
  let rec visit u =
    color.(u) <- 1;
    let cyclic =
      List.exists
        (fun f -> color.(f) = 1 || (color.(f) = 0 && visit f))
        (open_fanins u)
    in
    color.(u) <- 2;
    cyclic
  in
  let cyclic = ref false in
  for u = 0 to n - 1 do
    if (not !cyclic) && color.(u) = 0 then cyclic := visit u
  done;
  not !cyclic

(* The NC formula of [c] over key variables 1..k, with its solver. *)
let nc_solver c =
  let f = Fl_cnf.Formula.create () in
  let key_vars = Fl_cnf.Formula.fresh_vars f (Circuit.num_keys c) in
  Cycsat.no_cycle_condition c f key_vars;
  f, Fl_sat.Cdcl.of_formula f

let key_lits key = Array.to_list (Array.mapi (fun i b -> if b then i + 1 else -(i + 1)) key)

let nc_allows solver key =
  Fl_sat.Cdcl.solve ~assumptions:(key_lits key) solver = Fl_sat.Cdcl.Sat

(* Ports: key-selected MUXes with a data fanin in their own SCC. *)
let num_ports c =
  let scc = Circuit.strongly_connected_components c in
  let is_key = Array.make (Circuit.num_nodes c) false in
  Array.iter (fun id -> is_key.(id) <- true) c.Circuit.keys;
  let ports = ref 0 in
  for u = 0 to Circuit.num_nodes c - 1 do
    let nd = Circuit.node c u in
    if nd.Circuit.kind = Gate.Mux && is_key.(nd.Circuit.fanins.(0))
       && (scc.(nd.Circuit.fanins.(1)) = scc.(u) || scc.(nd.Circuit.fanins.(2)) = scc.(u))
    then incr ports
  done;
  !ports

(* NC and the oracle agree on the correct key and on random keys, every
   model of NC is a key under which the graph is acyclic, and NC uses at
   most P² variables per key copy for P ports. *)
let nc_matches_oracle ~seed (l : Locked.t) =
  let c = l.Locked.locked in
  let k = Circuit.num_keys c in
  let f, solver = nc_solver c in
  let p = num_ports c in
  let rng = Random.State.make [| seed |] in
  let agrees key = nc_allows solver key = key_open_acyclic c key in
  let models =
    (* Distinct models of NC, each blocked before drawing the next. *)
    let s = Fl_sat.Cdcl.of_formula (Fl_cnf.Formula.copy f) in
    let rec draw acc n =
      if n = 0 then acc
      else
        match Fl_sat.Cdcl.solve s with
        | Fl_sat.Cdcl.Sat ->
          let key = Array.init k (fun i -> Fl_sat.Cdcl.value s (i + 1)) in
          Fl_sat.Cdcl.add_clause s (List.map (fun l -> -l) (key_lits key));
          draw (key :: acc) (n - 1)
        | _ -> acc
    in
    draw [] 12
  in
  Fl_cnf.Formula.num_vars f - k <= p * p
  && agrees l.Locked.correct_key
  && List.for_all agrees (List.init 24 (fun _ -> Array.init k (fun _ -> Random.State.bool rng)))
  && models <> []
  && List.for_all (fun key -> key_open_acyclic c key) models

let prop_nc_matches_graph_oracle =
  let gen = QCheck2.Gen.int_bound 1000 in
  qcheck_case ~count:50 "NC = graph oracle" gen (fun seed ->
      let c = host ~seed:(seed + 401) ~gates:80 () in
      let full = Fulllock.lock_one (Random.State.make [| seed |]) ~policy:`Cyclic ~n:4 c in
      let cyc = Fl_locking.Cyclic_lock.lock (Random.State.make [| seed |]) ~cycles:3 c in
      nc_matches_oracle ~seed full && nc_matches_oracle ~seed:(seed + 1) cyc)

(* Hand-built cyclic netlists over inputs a, b and key bits k0.. ; each
   case checks NC against the oracle and an expected verdict on every key. *)
let nc_case ~keys build expect =
  let b = Circuit.Builder.create ~name:"nc" () in
  let a = Circuit.Builder.input ~name:"a" b in
  let x = Circuit.Builder.input ~name:"b" b in
  let k = Array.init keys (fun i -> Circuit.Builder.key_input ~name:(Printf.sprintf "k%d" i) b) in
  Circuit.Builder.output b "o" (build b a x k);
  let c = Circuit.of_builder b in
  let _, solver = nc_solver c in
  for code = 0 to (1 lsl keys) - 1 do
    let key = Array.init keys (fun i -> code land (1 lsl i) <> 0) in
    let name = Printf.sprintf "key %d" code in
    check bool_t (name ^ ": oracle") (expect key) (key_open_acyclic c key);
    check bool_t (name ^ ": NC") (expect key) (nc_allows solver key)
  done

let test_nc_always_open_cycle () =
  (* g1 <-> g2 through plain gates, next to a cycle a key can cut: no key
     admits the netlist. *)
  nc_case ~keys:1
    (fun b a _ k ->
      let g1 = Circuit.Builder.declare b Gate.And in
      let g2 = Circuit.Builder.add b Gate.Or [| g1; a |] in
      Circuit.Builder.set_fanins b g1 [| g2; a |];
      let m = Circuit.Builder.declare b Gate.Mux in
      let h = Circuit.Builder.add b Gate.Xor [| m; g1 |] in
      Circuit.Builder.set_fanins b m [| k.(0); h; a |];
      m)
    (fun _ -> false)

let test_nc_self_loop () =
  (* m = MUX(k0, m, a): key 0 selects the loop, key 1 cuts it. *)
  nc_case ~keys:1
    (fun b a _ k ->
      let m = Circuit.Builder.declare b Gate.Mux in
      Circuit.Builder.set_fanins b m [| k.(0); m; a |];
      m)
    (fun key -> key.(0))

let test_nc_same_data_slots () =
  (* m = MUX(k0, g, g), g = AND(m, a): whichever slot k0 selects, the loop
     stays closed. *)
  nc_case ~keys:1
    (fun b a _ k ->
      let m = Circuit.Builder.declare b Gate.Mux in
      let g = Circuit.Builder.add b Gate.And [| m; a |] in
      Circuit.Builder.set_fanins b m [| k.(0); g; g |];
      m)
    (fun _ -> false)

let test_nc_shared_port () =
  (* p = MUX(k0, g, a), g = OR(q1, q2), qi = MUX(ki, p, b): the cycles
     p -> q1 -> g -> p and p -> q2 -> g -> p share port p, so k0 = 1 cuts
     both, and otherwise k1 = 1 and k2 = 1 must cut one each. *)
  nc_case ~keys:3
    (fun b a x k ->
      let p = Circuit.Builder.declare b Gate.Mux in
      let q1 = Circuit.Builder.add b Gate.Mux [| k.(1); p; x |] in
      let q2 = Circuit.Builder.add b Gate.Mux [| k.(2); p; x |] in
      let g = Circuit.Builder.add b Gate.Or [| q1; q2 |] in
      Circuit.Builder.set_fanins b p [| k.(0); g; a |];
      p)
    (fun key -> key.(0) || (key.(1) && key.(2)))

(* ------------------------------------------------------------------ *)
(* DIP screening vs reference                                          *)
(* ------------------------------------------------------------------ *)


(* Drive the CEGAR loop by hand through [dip_fn] until the miter is
   exhausted, returning the recovered key and iteration count. *)
let recover_key ~dip_fn l =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let s = Session.create ~deadline l in
  let rec loop () =
    match dip_fn s with
    | `Dip dip ->
      Session.observe s dip;
      loop ()
    | `Exhausted ->
      (match Session.candidate_key s with
       | `Key k -> Some (k, Session.iterations s)
       | `None | `Timeout -> None)
    | `Timeout -> None
  in
  loop ()

let test_screened_find_dip_matches_reference () =
  let c_screened = Fl_obs.Counter.make "session.dip.screened" in
  let c_solver = Fl_obs.Counter.make "session.dip.solver" in
  let try_seed seed =
    (* Full-Lock hosts: enough iterations for the witness pool to fill, and
       wrong permutations corrupt densely, so the screen genuinely fires. *)
    let rng = Random.State.make [| seed |] in
    let l = Fulllock.lock_one rng ~n:4 (host ~seed:(seed + 1) ~gates:80 ()) in
    let s0 = Fl_obs.Counter.value c_screened in
    let v0 = Fl_obs.Counter.value c_solver in
    let screened = recover_key ~dip_fn:Session.find_dip l in
    let ds = Fl_obs.Counter.value c_screened - s0 in
    let dv = Fl_obs.Counter.value c_solver - v0 in
    let reference = recover_key ~dip_fn:Session.find_dip_reference l in
    (match screened, reference with
     | Some (k1, iters), Some (k2, _) ->
       check bool_t "screened loop recovers a correct key" true
         (Locked.key_matches l ~key:k1);
       check bool_t "reference loop recovers a correct key" true
         (Locked.key_matches l ~key:k2);
       (* Every DIP of the screened loop came from exactly one source. *)
       check Alcotest.int "screened + solver DIPs = iterations" iters (ds + dv)
     | _ -> Alcotest.fail "both loops should exhaust the miter");
    ds
  in
  (* Across a few instances the screen must actually fire, not just be a
     no-op that trivially agrees with the reference. *)
  let total_screened = List.fold_left (fun acc s -> acc + try_seed s) 0 [ 7; 8; 9 ] in
  check bool_t "screening produced at least one DIP" true (total_screened > 0)

(* ------------------------------------------------------------------ *)
(* Preprocessed vs reference attack paths                              *)
(* ------------------------------------------------------------------ *)

let test_preprocessed_attack_matches_reference () =
  (* Both paths must recover a functionally correct key (different search
     orders may yield different-but-correct keys). *)
  let attack_both name l =
    let r_pre = Sat_attack.run ~timeout:120.0 ~preprocess:true l in
    let r_ref = Sat_attack.run ~timeout:120.0 ~preprocess:false l in
    check bool_t (name ^ ": preprocessed path breaks it") true
      (broken_correct r_pre);
    check bool_t (name ^ ": reference path breaks it") true (broken_correct r_ref)
  in
  let rng = Random.State.make [| 51 |] in
  (* c17 is too small to host a Full-Lock block; RLL exercises the same
     session machinery. *)
  attack_both "c17"
    (Fl_locking.Rll.lock rng ~key_bits:4 (Fl_netlist.Bench_suite.c17 ()));
  let rng = Random.State.make [| 52 |] in
  attack_both "c432/4"
    (Fulllock.lock_one rng ~n:4 (Fl_netlist.Bench_suite.load_scaled "c432" ~scale:4))

let test_session_preprocess_reduces () =
  (* The default session runs the one-shot miter preprocessing and reports
     a genuinely smaller formula. *)
  let rng = Random.State.make [| 53 |] in
  let l = Fulllock.lock_one rng ~n:4 (host ~gates:80 ()) in
  let deadline = Unix.gettimeofday () +. 60.0 in
  let s = Session.create ~deadline l in
  (match Session.preprocess_stats s with
   | None -> Alcotest.fail "preprocessing should be on by default"
   | Some st ->
     check bool_t "clauses reduced" true
       (st.Fl_sat.Preprocess.clauses_after < st.Fl_sat.Preprocess.clauses_before);
     check bool_t "no variables resurrected" true
       (st.Fl_sat.Preprocess.vars_after <= st.Fl_sat.Preprocess.vars_before));
  let s_off = Session.create ~preprocess:false ~deadline l in
  check bool_t "flag disables preprocessing" true
    (Session.preprocess_stats s_off = None)

(* The key-recovery formula gets each observation at the next
   [candidate_key].  Driven as the SAT attack (oracle DIPs, one key at
   exhaustion) and as AppSAT (random queries between DIPs, a key every
   few iterations), every key must be the one of a recovery formula that
   gets each observation at once, encoded per copy as before the fold. *)
let test_deferred_key_copy_matches_reference () =
  let module Ref = Test_support.Reference_tseytin in
  let run ?extra_key_constraint ~appsat l =
    let circuit = l.Locked.locked in
    let deadline = Unix.gettimeofday () +. 60.0 in
    let s = Session.create ?extra_key_constraint ~deadline l in
    let f = Fl_cnf.Formula.create () in
    let keys = Fl_cnf.Formula.fresh_vars f (Circuit.num_keys circuit) in
    Option.iter (fun add -> add f keys) extra_key_constraint;
    let solver = Fl_sat.Cdcl.create () and loaded = ref 0 in
    let reference_key () =
      Fl_sat.Cdcl.ensure_vars solver (Fl_cnf.Formula.num_vars f);
      Fl_cnf.Formula.iter_clauses_from f !loaded (Fl_sat.Cdcl.add_clause_a solver);
      loaded := Fl_cnf.Formula.num_clauses f;
      match Fl_sat.Cdcl.solve solver with
      | Fl_sat.Cdcl.Sat -> `Key (Array.map (Fl_sat.Cdcl.value solver) keys)
      | Fl_sat.Cdcl.Unsat -> `None
      | Fl_sat.Cdcl.Unknown -> `Timeout
    in
    let keys_compared = ref 0 in
    let compare_keys () =
      incr keys_compared;
      check bool_t "candidate key = reference" true
        (Session.candidate_key s = reference_key ())
    in
    let observe inputs outputs =
      Session.constrain_io s ~inputs ~outputs;
      let values = View.eval_under_inputs (View.of_circuit circuit) ~inputs in
      Ref.encode_observation f circuit ~values ~share_keys:keys ~outputs
    in
    let rng = Random.State.make [| 11 |] in
    let rec loop i =
      match Session.find_dip s with
      | `Dip dip ->
        observe dip (Locked.query_oracle l dip);
        if appsat then begin
          let inputs = View.random_vector rng (Circuit.num_inputs circuit) in
          observe inputs (Locked.query_oracle l inputs);
          if i mod 3 = 2 then compare_keys ()
        end;
        loop (i + 1)
      | `Exhausted -> compare_keys ()
      | `Timeout -> Alcotest.fail "attack timed out"
    in
    loop 0;
    check bool_t "keys compared" true (!keys_compared > 0)
  in
  let rng = Random.State.make [| 29 |] in
  run ~appsat:false (Fl_locking.Rll.lock rng ~key_bits:8 (host ()));
  run ~appsat:true (Fl_locking.Sarlock.lock rng ~key_bits:5 (host ~inputs:6 ()));
  let cyclic = Fulllock.lock_one rng ~policy:`Cyclic ~n:4 (host ~gates:80 ()) in
  run ~appsat:false
    ~extra_key_constraint:(Cycsat.no_cycle_condition cyclic.Locked.locked)
    cyclic;
  run ~appsat:true cyclic

(* The screening pool is filtered in one word evaluation, one key per
   lane.  It must keep exactly the keys the scalar filter keeps: those
   under which [View.eval] returns the observed outputs without raising
   [Unresolved].  Pools of one to six keys (the pool's bound), random and
   correct, on acyclic and cyclic Full-Lock; outputs the oracle's or
   random.  The draws must include keys whose cyclic evaluation does not
   settle, and both kept and dropped keys. *)
let test_pool_lane_filter () =
  let unresolved = ref 0 and kept = ref 0 and dropped = ref 0 in
  for seed = 0 to 59 do
    let rng = Random.State.make [| seed; 3 |] in
    let c = host ~seed:(seed + 5) ~gates:50 ~inputs:6 ~outputs:3 () in
    let policy = if seed mod 3 = 0 then `Acyclic else `Cyclic in
    match Fulllock.lock_one rng ~policy ~n:4 c with
    | exception Invalid_argument _ -> ()
    | l ->
      let circuit = l.Locked.locked in
      let view = View.of_circuit circuit in
      let bits n = Array.init n (fun _ -> Random.State.bool rng) in
      for _ = 1 to 10 do
        let pool =
          List.init
            (1 + Random.State.int rng 6)
            (fun _ ->
              if Random.State.int rng 4 = 0 then l.Locked.correct_key
              else bits (Circuit.num_keys circuit))
        in
        let inputs = bits (Circuit.num_inputs circuit) in
        let outputs =
          if Random.State.bool rng then Locked.query_oracle l inputs
          else bits (Circuit.num_outputs circuit)
        in
        let scalar =
          List.filter
            (fun key ->
              match View.eval view ~inputs ~keys:key with
              | outs -> outs = outputs
              | exception View.Unresolved _ ->
                incr unresolved;
                false)
            pool
        in
        kept := !kept + List.length scalar;
        dropped := !dropped + List.length pool - List.length scalar;
        check bool_t "lane filter = scalar filter" true
          (Session.consistent_keys view ~inputs ~outputs pool = scalar)
      done
  done;
  check bool_t "some key leaves a cycle unsettled" true (!unresolved > 0);
  check bool_t "some keys kept, some dropped" true (!kept > 0 && !dropped > 0)

(* Key bits that reach no output: every output is key-free, so copy B
   shares them all with copy A and no output pair is left to differ.  The
   miter is exhausted before any DIP, and any key consistent with no
   observation is correct. *)
let test_keys_reaching_no_output () =
  let c = host ~seed:17 () in
  let p = Fl_locking.Insertion_util.Pass.start ~name:"dangling" c in
  let b = Fl_locking.Insertion_util.Pass.builder p in
  let bag = Fl_locking.Insertion_util.Pass.bag p in
  let k0 = Fl_locking.Insertion_util.Key_bag.fresh bag true in
  let k1 = Fl_locking.Insertion_util.Key_bag.fresh bag false in
  let g = Circuit.Builder.add b Gate.Xor [| c.Circuit.inputs.(0); k0 |] in
  ignore (Circuit.Builder.add b Gate.And [| g; k1 |]);
  let l = Fl_locking.Insertion_util.Pass.finish p ~scheme:"dangling" in
  List.iter
    (fun preprocess ->
      let s = Session.create ~preprocess ~deadline:(Unix.gettimeofday () +. 30.0) l in
      check bool_t "exhausted at once" true (Session.find_dip s = `Exhausted);
      check Alcotest.int "no conflict" 0 (Session.solver_stats s).Fl_sat.Cdcl.conflicts)
    [ true; false ];
  let r = Sat_attack.run ~timeout:30.0 l in
  check Alcotest.int "no DIP" 0 r.Sat_attack.iterations;
  match r.Sat_attack.status with
  | Sat_attack.Broken key ->
    check bool_t "Equiv.check_key accepts" true
      (Fl_sat.Equiv.check_key ~locked:l.Locked.locked ~oracle:l.Locked.oracle key
       = Fl_sat.Equiv.Equivalent)
  | _ -> Alcotest.fail "the attack should return a key"

(* Making an array of 257 or more words from a young first element runs a
   whole minor collection (DESIGN.md §4j).  Here one OR gate [x] reads 300
   key MUXes that each read [x] on data slot 1, so every MUX is a port
   whose closure (through [x]) holds 300 key edges.  With a minor heap
   too large to fill, the no-cycle analysis runs no collection; it ran
   one (which promoted the edge records, so only one) while closures were
   made with [Array.of_list]. *)
let test_no_cycle_condition_forces_no_minor_collection () =
  let b = Circuit.Builder.create ~name:"wide-port" () in
  let a = Circuit.Builder.input b in
  let x = Circuit.Builder.declare b Gate.Or in
  let muxes =
    Array.init 300 (fun _ ->
        let k = Circuit.Builder.key_input b in
        Circuit.Builder.add b Gate.Mux [| k; x; a |])
  in
  Circuit.Builder.set_fanins b x (Array.append [| a |] muxes);
  Circuit.Builder.output b "y" x;
  let circuit = Circuit.of_builder b in
  ignore (View.scc (View.of_circuit circuit));
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 8 lsl 20 };
  Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
  let minors () = (Gc.quick_stat ()).Gc.minor_collections in
  let before = minors () in
  let (_ : Fl_cnf.Formula.t -> int array -> unit) =
    Cycsat.no_cycle_condition circuit
  in
  check Alcotest.int "minor collections" before (minors ())

let () =
  Alcotest.run "attacks"
    [
      ( "sat_attack",
        [
          Alcotest.test_case "breaks rll" `Quick test_sat_breaks_rll;
          Alcotest.test_case "breaks mux" `Quick test_sat_breaks_mux_lock;
          Alcotest.test_case "breaks lutlock" `Quick test_sat_breaks_lut_lock;
          Alcotest.test_case "breaks crosslock" `Quick test_sat_breaks_cross_lock;
          Alcotest.test_case "sarlock needs many DIPs" `Slow test_sarlock_needs_many_iterations;
          Alcotest.test_case "breaks small cln" `Quick test_sat_breaks_small_cln;
          Alcotest.test_case "breaks small fulllock" `Slow test_sat_breaks_small_fulllock;
          Alcotest.test_case "timeout" `Quick test_sat_timeout_reported;
          Alcotest.test_case "ratio" `Quick test_sat_ratio_positive;
          Alcotest.test_case "screened dips = reference" `Quick
            test_screened_find_dip_matches_reference;
          Alcotest.test_case "preprocessed = reference" `Slow
            test_preprocessed_attack_matches_reference;
          Alcotest.test_case "session preprocess reduces" `Quick
            test_session_preprocess_reduces;
          Alcotest.test_case "deferred key copy = reference" `Quick
            test_deferred_key_copy_matches_reference;
          Alcotest.test_case "pool lane filter = scalar filter" `Quick
            test_pool_lane_filter;
          Alcotest.test_case "keys reaching no output" `Quick
            test_keys_reaching_no_output;
        ] );
      ( "cycsat",
        [
          Alcotest.test_case "breaks cyclic fulllock" `Slow test_cycsat_breaks_cyclic_fulllock;
          Alcotest.test_case "acyclic = sat" `Quick test_cycsat_on_acyclic_equals_sat;
          Alcotest.test_case "breaks cyclic-lock" `Quick test_cycsat_breaks_cyclic_lock;
          Alcotest.test_case "NC admits correct key" `Quick test_nc_conditions_allow_correct_key;
          Alcotest.test_case "NC always-open cycle" `Quick test_nc_always_open_cycle;
          Alcotest.test_case "NC self-loop" `Quick test_nc_self_loop;
          Alcotest.test_case "NC same data slots" `Quick test_nc_same_data_slots;
          Alcotest.test_case "NC shared port" `Quick test_nc_shared_port;
          Alcotest.test_case "NC forces no minor collection" `Quick
            test_no_cycle_condition_forces_no_minor_collection;
          prop_nc_matches_graph_oracle;
        ] );
      ( "appsat",
        [
          Alcotest.test_case "approximates sarlock" `Slow test_appsat_approximates_sarlock;
          Alcotest.test_case "approximates sfll" `Slow test_appsat_approximates_sfll;
          Alcotest.test_case "sfll many DIPs" `Slow test_sat_on_sfll_needs_many_iterations;
          Alcotest.test_case "exact on rll" `Quick test_appsat_exact_on_rll;
        ] );
      ( "brute_force",
        [
          Alcotest.test_case "small" `Quick test_brute_force_small;
          Alcotest.test_case "rejects large" `Quick test_brute_force_rejects_large;
          Alcotest.test_case "agrees with sat" `Quick test_brute_force_agrees_with_sat;
        ] );
      ( "removal",
        [
          Alcotest.test_case "breaks sarlock" `Quick test_removal_breaks_sarlock;
          Alcotest.test_case "breaks antisat" `Quick test_removal_breaks_antisat;
          Alcotest.test_case "fails on fulllock" `Quick test_removal_fails_on_fulllock;
          Alcotest.test_case "fails on crosslock" `Quick test_removal_fails_on_crosslock_with_secret_routing;
        ] );
      ( "bypass",
        [
          Alcotest.test_case "breaks sarlock" `Quick test_bypass_breaks_sarlock;
          Alcotest.test_case "breaks sfll" `Quick test_bypass_breaks_sfll;
          Alcotest.test_case "fails on fulllock" `Quick test_bypass_fails_on_fulllock;
          Alcotest.test_case "fails on rll" `Quick test_bypass_fails_on_rll;
        ] );
      ( "sps",
        [
          Alcotest.test_case "probability sanity" `Quick test_sps_probability_sanity;
          Alcotest.test_case "flags antisat" `Quick test_sps_flags_antisat;
          Alcotest.test_case "ignores fulllock" `Quick test_sps_does_not_flag_fulllock;
        ] );
      ( "affine",
        [
          Alcotest.test_case "fits cln" `Quick test_affine_fits_cln;
          Alcotest.test_case "rejects nonlinear" `Quick test_affine_rejects_nonlinear;
          Alcotest.test_case "apply matches" `Quick test_affine_apply_matches;
          Alcotest.test_case "rejects plr" `Quick test_affine_rejects_plr;
        ] );
      ( "properties",
        [ prop_sat_attack_recovers_function; prop_cycsat_sound_on_cyclic_fulllock;
          prop_one_copy_preprocessing_sound ] );
    ]
