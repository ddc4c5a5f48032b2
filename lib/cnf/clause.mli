(** Canonical clauses and resolution on them: the one implementation
    behind the CNF preprocessor ({!Fl_sat.Simp_db}) and the elimination
    pass over folded observation templates ({!Tseytin.eliminate_locals}).

    A canonical clause is a run of DIMACS literals sorted by variable,
    each variable at most once.  The preprocessor keeps each clause in an
    array of its own; the template pass keeps its clauses end to end in
    one array, so each operation also comes on a segment [a.(i .. i + n -
    1)]. *)

(** [canonicalize lits i n] canonicalizes the segment [lits.(i .. i + n -
    1)] in place: sorts it by variable and moves its distinct literals to
    its front.  Returns how many there are, or [-1] when the segment holds
    a literal and its complement. *)
val canonicalize : int array -> int -> int -> int

(** [canonical lits] is {!canonicalize} on the whole array: [None] for a
    tautology, otherwise the clause trimmed to its deduplicated prefix.
    The caller must own the array (it is sorted and possibly
    truncated). *)
val canonical : int array -> int array option

(** [resolvent_length v a ia na b ib nb] is the length of the resolvent
    on [v] of the canonical segments [a.(ia .. ia + na - 1)] (containing
    [v]) and [b.(ib .. ib + nb - 1)] (containing [-v]), or [-1] when it is
    a tautology.  Allocates nothing. *)
val resolvent_length :
  int -> int array -> int -> int -> int array -> int -> int -> int

(** [tautological v a b] is whether the resolvent on [v] of canonical
    [a] (containing [v]) and [b] (containing [-v]) is a tautology. *)
val tautological : int -> int array -> int array -> bool

(** [resolve_into v a ia na b ib nb dst at] writes the resolvent of the
    segments of {!resolvent_length}, which must not be a tautology, to
    [dst] from [at] on, canonical.  [dst] may be [a] or [b] when [at] lies
    past both segments. *)
val resolve_into :
  int -> int array -> int -> int -> int array -> int -> int -> int array -> int -> unit

(** [resolve v a b] is the resolvent on [v] of canonical [a] and [b] as
    a fresh array: empty when they are [[v]] and [[-v]].  It must not be
    a tautology. *)
val resolve : int -> int array -> int array -> int array

(** The occurrence bound of bounded variable elimination: a variable
    with more than this many clauses is not tried, nor one whose clauses
    would give more than its square of candidate resolvents. *)
val max_occ : int

(** [bounded np nn] is whether a variable with [np] positive and [nn]
    negative clauses, at least one, is within the bound {!max_occ}. *)
val bounded : int -> int -> bool
