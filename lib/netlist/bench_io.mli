(** ISCAS-85 [.bench] format reader and writer.

    The dialect accepted matches the classic benchmark distribution plus the
    extensions used by logic-locking tools:

    {v
    # comment
    INPUT(a)
    KEYINPUT(k0)          # extension: key input (also accepted: INPUT(keyinput0))
    OUTPUT(y)
    w1 = NAND(a, b)
    w2 = MUX(s, a, b)
    w3 = LUT 0x8 (a, b)   # extension: constant LUT, hex table LSB-first
    v}

    Input names starting with [keyinput] are treated as key inputs, matching
    the convention of published locked benchmarks.  A LUT table is [0x]
    followed by hex digits, four entries per digit, the last digit holding
    entries 0-3; a set bit past the [2^arity] entries is a parse error. *)

exception Parse_error of int * string
(** [(line, message)]: a malformed line, a wire used but never defined, a
    wrong fanin count, or a file without an [OUTPUT] line (reported at
    its last line). *)

val parse_string : ?name:string -> string -> Circuit.t
val parse_file : string -> Circuit.t

val to_string : Circuit.t -> string
val write_file : Circuit.t -> string -> unit
