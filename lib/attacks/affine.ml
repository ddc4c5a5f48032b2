module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View
module Locked = Fl_locking.Locked

type fit = {
  matrix : bool array array;
  offset : bool array;
  is_affine : bool;
  counterexamples : int;
}

let apply fit x =
  Array.mapi
    (fun row b0 ->
      let acc = ref b0 in
      Array.iteri (fun col a -> if a && x.(col) then acc := not !acc) fit.matrix.(row);
      !acc)
    fit.offset

let fit_function ?(samples = 128) ?(seed = 5) ~arity f =
  let zero = Array.make arity false in
  let offset = f zero in
  let m = Array.length offset in
  (* Column j of A = f(e_j) xor f(0). *)
  let columns =
    Array.init arity (fun j ->
        let e = Array.make arity false in
        e.(j) <- true;
        Array.map2 (fun v b -> v <> b) (f e) offset)
  in
  let matrix = Array.init m (fun row -> Array.init arity (fun col -> columns.(col).(row))) in
  let candidate = { matrix; offset; is_affine = true; counterexamples = 0 } in
  let rng = Random.State.make [| seed |] in
  let counterexamples = ref 0 in
  for _ = 1 to samples do
    let x = View.random_vector rng arity in
    if f x <> apply candidate x then incr counterexamples
  done;
  { candidate with is_affine = !counterexamples = 0; counterexamples = !counterexamples }

let attack_oracle ?samples ?seed locked =
  let oracle = locked.Locked.oracle in
  let arity = Circuit.num_inputs oracle in
  fit_function ?samples ?seed ~arity (fun inputs -> Locked.query_oracle locked inputs)
