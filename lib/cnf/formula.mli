(** CNF formulas in DIMACS literal convention.

    A literal is a non-zero integer: variable [v >= 1] appears positively as
    [v] and negatively as [-v].  The formula tracks the variable count and
    accumulates clauses; it is the exchange format between the Tseytin
    encoder, the SAT solvers and the attack framework. *)

type lit = int


type t

val create : unit -> t

(** [fresh_var f] allocates a new variable (numbered from 1). *)
val fresh_var : t -> int

(** [fresh_vars f n] allocates [n] consecutive variables. *)
val fresh_vars : t -> int -> int array

(** [reserve f n] ensures variables [1..n] are allocated. *)
val reserve : t -> int -> unit

(** [add_clause f lits] appends a clause.
    @raise Invalid_argument on an empty clause, a zero literal, or a literal
    whose variable was never allocated. *)
val add_clause : t -> lit list -> unit

val add_clause_a : t -> lit array -> unit

val num_vars : t -> int
val num_clauses : t -> int

(** Total number of literal occurrences. *)
val num_literals : t -> int

(** Clauses in insertion order.  The returned arrays are owned by the
    formula; callers must not mutate them. *)
val clauses : t -> lit array array

val iter_clauses : t -> (lit array -> unit) -> unit

(** [iter_clauses_from f i k] applies [k] to the clauses with insertion
    index [i] and later, without copying the store: incremental consumers
    feed a solver only what was appended since their last visit. *)
val iter_clauses_from : t -> int -> (lit array -> unit) -> unit

(** Clauses-to-variables ratio — the paper's SAT-hardness metric (§3). *)
val ratio : t -> float

val copy : t -> t

(** {1 DIMACS} *)

val to_dimacs : t -> string

exception Dimacs_error of string

(** Parses a DIMACS [cnf] problem.  The [p cnf VARS CLAUSES] line is
    optional; when present it must come before the clauses, have that
    shape, and bound every literal's variable by [VARS] (the clause count
    is not checked).  @raise Dimacs_error with a message starting
    ["line N: "] on malformed input. *)
val of_dimacs : string -> t
