(* Table 2: SAT attack iterations and execution time on blocking
   (shuffle-based) vs almost non-blocking CLNs of growing size.

   The absolute budget is scaled down from the paper's 2e6-second testbed
   runs; the *shape* to reproduce is (1) exponential growth with N and
   (2) the almost non-blocking CLN timing out at a much smaller N than the
   blocking one. *)

module Cln = Fl_cln.Cln
module Fulllock = Fl_core.Fulllock
module Sat_attack = Fl_attacks.Sat_attack

let attack_row ~timeout spec seed =
  let rng = Random.State.make [| seed |] in
  let locked = Fulllock.standalone_cln_lock spec rng in
  let r = Sat_attack.run ~timeout locked in
  let per_iter =
    if r.Sat_attack.iterations = 0 then "-"
    else
      Printf.sprintf "%.3f"
        (r.Sat_attack.wall_time /. float_of_int r.Sat_attack.iterations)
  in
  match r.Sat_attack.status with
  | Sat_attack.Broken _ ->
    let iters =
      match r.Sat_attack.key_check with
      | Sat_attack.Key_correct -> string_of_int r.Sat_attack.iterations
      | Sat_attack.Key_wrong -> Printf.sprintf "%d (wrong key)" r.Sat_attack.iterations
      | Sat_attack.Key_unchecked ->
        Printf.sprintf "%d (key unchecked)" r.Sat_attack.iterations
    in
    iters, Tables.seconds r.Sat_attack.wall_time, per_iter
  | Sat_attack.Timeout -> Printf.sprintf "%d*" r.Sat_attack.iterations, "TO", per_iter
  | Sat_attack.No_key_found -> "-", "-", per_iter

let run ~deep () =
  let sizes = if deep then [ 4; 8; 16; 32; 64 ] else [ 4; 8; 16; 32 ] in
  let timeout = if deep then 300.0 else 20.0 in
  let header =
    [ "CLN size (N)"; "blocking iters"; "blocking time (s)"; "blocking s/iter";
      "non-blocking iters"; "non-blocking time (s)"; "non-blocking s/iter" ]
  in
  let rows =
    List.map
      (fun n ->
        let bi, bt, bp = attack_row ~timeout (Cln.blocking_spec ~n) (n + 1) in
        let ni, nt, np = attack_row ~timeout (Cln.default_spec ~n) (n + 2) in
        [ string_of_int n; bi; bt; bp; ni; nt; np ])
      sizes
  in
  Tables.print
    ~title:
      (Printf.sprintf
         "Table 2 — SAT attack on blocking vs almost non-blocking CLN (timeout %.0fs; \
          paper used 2e6 s)"
         timeout)
    header rows;
  print_endline
    "TO = timeout; N* = iterations completed before the timeout.  The paper's shape:\n\
     time grows exponentially with N and the almost non-blocking CLN resists at a\n\
     size (N=64) where the blocking CLN still falls (N<512)."
