module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View

type t = {
  locked : Circuit.t;
  oracle : Circuit.t;
  correct_key : bool array;
  scheme : string;
}

(* Both circuits evaluate through their memoized compiled views; repeated
   oracle queries (the SAT-attack hot path) pay no per-call analysis. *)
let query_oracle t inputs =
  View.eval (View.of_circuit t.oracle) ~inputs ~keys:[||]

let eval_locked t ~key ~inputs =
  View.eval (View.of_circuit t.locked) ~inputs ~keys:key

let key_matches ?exhaustive_limit ?vectors ?seed t ~key =
  View.agree_on_probes ?exhaustive_limit ?vectors ?seed
    (View.of_circuit t.locked) ~keys_a:key
    (View.of_circuit t.oracle) ~keys_b:[||]

let verify ?exhaustive_limit ?vectors ?seed t =
  key_matches ?exhaustive_limit ?vectors ?seed t ~key:t.correct_key

let output_corruption ?(trials = 16) ?(batches = 2) t rng =
  let n = Circuit.num_inputs t.oracle in
  let nk = Array.length t.correct_key in
  let corrupted = ref 0 and total = ref 0 in
  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    go (x land max_int) (if x < 0 then 1 else 0)
  in
  for _ = 1 to trials do
    let key = Array.init nk (fun _ -> Random.State.bool rng) in
    if key <> t.correct_key then begin
      let packed_key = View.broadcast key in
      for _ = 1 to batches do
        let inputs = View.random_words rng ~width:n in
        let reference =
          View.eval_packed (View.of_circuit t.oracle) ~inputs ~keys:[||]
        in
        let out =
          View.eval_words (View.of_circuit t.locked) ~inputs ~keys:packed_key
        in
        Array.iteri
          (fun i (w : View.word) ->
            (* A lane is corrupted when it differs from the oracle or never
               settles (undefined). *)
            let bad =
              lnot w.defined lor ((w.value lxor reference.(i)) land w.defined)
            in
            corrupted := !corrupted + popcount bad;
            total := !total + View.lanes)
          out
      done
    end
  done;
  if !total = 0 then 0.0 else float_of_int !corrupted /. float_of_int !total

let num_key_bits t = Array.length t.correct_key

let pp fmt t =
  Format.fprintf fmt "%s: %d gates locked with %d key bits (oracle: %d gates)"
    t.scheme (Circuit.num_gates t.locked) (num_key_bits t)
    (Circuit.num_gates t.oracle)
