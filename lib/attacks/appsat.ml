module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Locked = Fl_locking.Locked

type result = {
  key : bool array option;
  estimated_error : float;
  exact : bool;
  iterations : int;
  random_queries : int;
  wall_time : float;
}

(* Settle every [settle_every] DIP iterations on [samples] random
   queries; accept at an estimated error of at most [error_threshold]. *)
let settle_every = 4
let samples = 64
let error_threshold = 0.01

(* Error rate of a key candidate on random inputs; also returns the
   disagreeing queries so they can reinforce the constraint set.  Probes run
   {!View.lanes} per word-sim pass; only disagreeing lanes are unpacked back
   into scalar (inputs, outputs) observations. *)
let estimate_error locked rng key =
  let oracle_v = View.of_circuit locked.Locked.oracle in
  let locked_v = View.of_circuit locked.Locked.locked in
  let n = Circuit.num_inputs locked.Locked.oracle in
  let packed_key = View.broadcast key in
  let wrong = ref [] in
  let wrong_count = ref 0 in
  let remaining = ref samples in
  while !remaining > 0 do
    let used = min View.lanes !remaining in
    remaining := !remaining - used;
    let inputs = View.random_words rng ~width:n in
    let reference = View.eval_words oracle_v ~inputs ~keys:[||] in
    let out = View.eval_words locked_v ~inputs ~keys:packed_key in
    let bad = ref 0 in
    Array.iteri
      (fun i wa ->
        (* A lane disagrees when either side is undefined or the defined
           values differ. *)
        let wb = reference.(i) in
        bad :=
          !bad
          lor lnot (wa.View.defined land wb.View.defined)
          lor ((wa.View.value lxor wb.View.value)
               land wa.View.defined land wb.View.defined))
      out;
    let mask = if used >= View.lanes then -1 else (1 lsl used) - 1 in
    let bad = !bad land mask in
    if bad <> 0 then
      for l = 0 to used - 1 do
        if bad land (1 lsl l) <> 0 then begin
          incr wrong_count;
          let bit w = w land (1 lsl l) <> 0 in
          let iv = Array.map bit inputs in
          let ov = Array.map (fun w -> bit w.View.value) reference in
          wrong := (iv, ov) :: !wrong
        end
      done
  done;
  float_of_int !wrong_count /. float_of_int samples, !wrong

let run ?(timeout = 60.0) locked =
  Fl_obs.with_span "attack.appsat" @@ fun () ->
  let deadline = Unix.gettimeofday () +. timeout in
  let session = Session.create ~label:"appsat" ~deadline locked in
  let rng = Random.State.make [| 0; 0xa99 |] in
  let queries = ref 0 in
  let finish ?key ?(error = 1.0) ~exact () =
    {
      key;
      estimated_error = error;
      exact;
      iterations = Session.iterations session;
      random_queries = !queries;
      wall_time = Session.elapsed session;
    }
  in
  let try_settle () =
    match Session.candidate_key session with
    | `Key key ->
      let error, disagreements = estimate_error locked rng key in
      queries := !queries + samples;
      if Fl_obs.enabled () then
        Fl_obs.emit "appsat.settle"
          ~fields:
            [
              "iter", Fl_obs.Int (Session.iterations session);
              "error", Fl_obs.Float error;
              "random_queries", Fl_obs.Int !queries;
              "disagreements", Fl_obs.Int (List.length disagreements);
              "elapsed_s", Fl_obs.Float (Session.elapsed session);
            ];
      if error <= error_threshold then Some (finish ~key ~error ~exact:false ())
      else begin
        (* Reinforce: add the disagreeing oracle observations. *)
        List.iter
          (fun (inputs, outputs) -> Session.constrain_io session ~inputs ~outputs)
          disagreements;
        None
      end
    | `None | `Timeout -> None
  in
  let rec loop () =
    match Session.find_dip session with
    | `Timeout -> finish ~exact:false ()
    | `Exhausted ->
      (match Session.candidate_key session with
       | `Key key -> finish ~key ~error:0.0 ~exact:true ()
       | `None | `Timeout -> finish ~exact:false ())
    | `Dip dip ->
      Session.observe session dip;
      if Session.iterations session mod settle_every = 0 then
        match try_settle () with Some r -> r | None -> loop ()
      else loop ()
  in
  loop ()

let pp_result fmt r =
  Format.fprintf fmt
    "%s key, error %.3f%s, %d iterations, %d random queries, %.2fs"
    (match r.key with Some _ -> "found" | None -> "no")
    r.estimated_error
    (if r.exact then " (exact)" else "")
    r.iterations r.random_queries r.wall_time
