(** Flat clause arena.

    All clauses live in one growable int array; a clause is addressed by
    an abstract word offset ({!Cref.t}).  Each clause is a header word
    (size, learnt flag, dead bit), an activity slot and its literals
    inline, so propagation walks a contiguous cache stream instead of
    dereferencing a heap object per clause.  Deletion is lazy (a header
    bit); {!compact} slides live clauses down and hands back a cref
    remap.  See DESIGN.md §4e for the layout and lifetime rules. *)

module Cref : sig
  (** A clause reference: the clause's word offset in the arena.  Crefs
      are stable under {!alloc} and {!kill} but invalidated by
      {!compact} (use the returned remap) and {!restore}. *)
  type t = int

  (** Sentinel for "no clause" (reason slots, remap of a dead cref). *)
  val none : t
end

type t

val create : unit -> t

(** [alloc a ~learnt lits n] appends the clause of the first [n] packed
    literals of [lits] and returns its cref; [lits] may be a scratch
    buffer longer than [n].  @raise Invalid_argument on fewer than 2
    literals (units belong on the trail, not in the arena). *)
val alloc : t -> learnt:bool -> int array -> int -> Cref.t

val size : t -> Cref.t -> int

(** Words of the header before a clause's first literal. *)
val header_words : int

(** [data a] is the backing array, for loops that read many clauses:
    clause [c] has [data.(c) lsr 2] literals, the [i]-th at
    [data.(c + header_words + i)].  It stays valid until the next
    {!alloc} or {!compact}, either of which may replace it. *)
val data : t -> int array

val learnt : t -> Cref.t -> bool

(** [lit a c i] is the [i]-th literal (packed, {!Lit.t} encoding). *)
val lit : t -> Cref.t -> int -> int

val set_lit : t -> Cref.t -> int -> int -> unit
val swap_lits : t -> Cref.t -> int -> int -> unit

(** Learnt-clause activity, stored inline (1 ulp precision loss). *)
val activity : t -> Cref.t -> float

val set_activity : t -> Cref.t -> float -> unit

(** [kill a c] marks [c] dead; the words are reclaimed at the next
    {!compact}.  Killing twice is a no-op. *)
val kill : t -> Cref.t -> unit

val num_clauses : t -> int
val num_learnts : t -> int

(** Words held by dead clauses. *)
val wasted : t -> int

(** [iter a f] calls [f] on every live cref in address order. *)
val iter : t -> (Cref.t -> unit) -> unit

val iter_learnts : t -> (Cref.t -> unit) -> unit

(** The literals of a clause, as a fresh array. *)
val lits : t -> Cref.t -> int array

(** [compact a] drops dead clauses and returns the remap old cref ->
    new cref ([Cref.none] for dead ones).  Every cref held outside the
    arena must be remapped; the remap is valid until the next
    [compact]. *)
val compact : t -> Cref.t -> Cref.t

(** O(1) snapshot of an append-only arena. *)
type snapshot

val mark : t -> snapshot

(** [restore a s] drops every clause allocated since [mark].  Only valid
    when no pre-mark clause was killed and no compaction ran since.
    @raise Invalid_argument when the snapshot is stale (a compaction
    shrank the arena below the mark). *)
val restore : t -> snapshot -> unit
