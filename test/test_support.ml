(* Vector and evaluation conveniences shared by the test executables.  The
   library has no use for them; the circuit evaluator itself is
   Fl_netlist.View. *)

module View = Fl_netlist.View

(* [vector_of_int ~width v] is the LSB-first bit vector of [v]. *)
let vector_of_int ~width v = Array.init width (fun i -> v land (1 lsl i) <> 0)

let int_of_vector bits =
  Array.fold_right (fun b acc -> (acc lsl 1) lor Bool.to_int b) bits 0

(* Scalar vectors back from packed words, lane-major. *)
let unpack ~lanes_used words =
  List.init lanes_used (fun lane ->
      Array.map (fun w -> w land (1 lsl lane) <> 0) words)

(* Number of lanes where two packed output vectors differ. *)
let count_diff_lanes a b =
  if Array.length a <> Array.length b then
    invalid_arg "count_diff_lanes: width mismatch";
  let diff = ref 0 in
  Array.iteri (fun i w -> diff := !diff lor (w lxor b.(i))) a;
  let rec popcount x acc =
    if x = 0 then acc else popcount (x lsr 1) (acc + (x land 1))
  in
  popcount (!diff land max_int) (if !diff < 0 then 1 else 0)

(* Whether [c] under [keys] settles (no X output) on [probes] random input
   vectors: a cheap check that a key opens every cycle. *)
let settles ?(probes = 8) ?(seed = 0) c ~keys =
  let rng = Random.State.make [| seed |] in
  let v = View.of_circuit c in
  let width = Fl_netlist.Circuit.num_inputs c in
  List.for_all
    (fun _ ->
      let inputs = View.random_vector rng width in
      not (Array.mem View.VX (View.eval_tristate v ~inputs ~keys)))
    (List.init probes Fun.id)

(* Functional equality of [a] and [b], both under [keys]: exhaustive up to
   20 inputs, an unsettled output counts as a disagreement. *)
let equivalent ?(keys = [||]) a b =
  View.agree_on_probes ~exhaustive_limit:20 (View.of_circuit a) ~keys_a:keys
    (View.of_circuit b) ~keys_b:keys
