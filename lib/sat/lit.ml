(* Packed literal representation shared by the solver core.

   A literal is one int: [2*var + sign] over 0-based variables, sign 1 for
   the negated polarity (the MiniSAT convention; see SNIPPETS.md's [Lit]).
   Negation is one xor, the watch-list index is the literal itself, and
   literals live directly in the flat clause arena with no boxing.

   Truth values ([lbool]) are byte-coded for the assignment array:
   0 = false, 1 = true, 2 = undef.  This ordering (unlike the seed's
   undef/true/false) buys a branch-free literal evaluation:

     value(lit) = assigns.(var lit) lxor (sign lit)

   which yields 0 = false, 1 = true and >= 2 = undef relative to the
   literal's polarity — one unsafe byte load and one xor on the hottest
   line of propagation. *)

type t = int

(* DIMACS literal [l] (non-zero, 1-based variable) -> packed form. *)
let of_dimacs l = (2 * (abs l - 1)) lor (if l < 0 then 1 else 0)

module Lbool = struct
  type t = int

  let is_undef v = v >= 2
end

(* Assignment array primitives.  The array is indexed by 0-based variable;
   one byte per variable keeps the whole assignment of a million-variable
   miter in L2. *)

let value_var assigns v = Char.code (Bytes.unsafe_get assigns v)

(* Literal value under [assigns]: 0 false, 1 true, >= 2 undef.  The xor
   folds the literal's sign into the stored polarity; undef (2) maps to
   2 or 3, both covered by the [>= 2] test. *)
let value assigns l =
  Char.code (Bytes.unsafe_get assigns (l lsr 1)) lxor (l land 1)

(* [assign assigns l] makes [l] true: stores 1 for a positive literal,
   0 for a negative one. *)
let assign assigns l =
  Bytes.unsafe_set assigns (l lsr 1) (Char.unsafe_chr (1 - (l land 1)))

let unassign assigns v = Bytes.unsafe_set assigns v '\002'
