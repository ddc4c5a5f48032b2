(** Shared per-circuit analysis view with a compiled evaluator.

    A view is a lazily-computed, cached bundle of everything the layers
    above repeatedly ask of one circuit: topological order, acyclicity,
    fanout lists, key cone, strongly connected components — plus a {e compiled evaluator}: a flat instruction array
    built once per circuit that evaluates three-valued scalar and 64-wide
    bitsliced word values with zero per-node allocation on the hot path.

    {!of_circuit} memoizes views per {!Circuit.t} {e physical identity}
    (circuits are immutable, so a view never goes stale); the table is
    ephemeron-keyed, so views die with their circuits, and {e domain-local}:
    each domain builds and caches its own view of a circuit, because the
    scratch arrays below are single-threaded state.  [Fl_par] sweep tasks
    therefore get an isolated view per worker domain for free.  This is the
    one circuit evaluator: every oracle query, key check and corruption
    estimate runs on it.  {!eval_reference} is the
    uncached baseline it is tested and benchmarked against.

    Views are not re-entrant: the scratch value arrays are reused by every
    evaluation, so do not evaluate the same view from within an evaluation
    of it (nothing in this codebase does), and never ship a view value
    across domains — re-call {!of_circuit} on the receiving domain. *)

type t

(** Three-valued logic value. *)
type tristate = V0 | V1 | VX

exception Unresolved of string
(** Raised by the strict evaluators when a combinational cycle leaves an
    output at X. *)

type word = { defined : int; value : int }
(** Per-wire lane bundle of the bitsliced evaluator; bit [i] of [value] is
    meaningful only when bit [i] of [defined] is set. *)

(** Number of parallel lanes of the word evaluator (= [Sys.int_size]). *)
val lanes : int

(** [of_circuit c] is the cached view of [c], building (and memoizing) it on
    first use. *)
val of_circuit : Circuit.t -> t

(** {1 Cached structural analyses}

    Hit/miss rates of the memoized analyses are reported on the
    [view.memo.fanouts.*], [view.memo.scc.*] and [view.memo.key_cone.*]
    {!Fl_obs} counters, and the evaluator's work on [view.builds],
    [view.cache.hit], [view.evals] (a key-cone run of
    {!eval_words_per_key} counts as one) and [view.fixpoint_sweeps]. *)

(** Cached {!Circuit.topological_order}.  Do not mutate the returned
    array — it is shared by every consumer of the view. *)
val topo_order : t -> int array option

val is_acyclic : t -> bool

(** Cached {!Circuit.fanouts}.  Shared — do not mutate. *)
val fanouts : t -> int array array

(** Cached {!Circuit.strongly_connected_components}.  Shared — do not
    mutate. *)
val scc : t -> int array

(** [key_cone v] is every node some key input reaches, in evaluation
    order (topological when acyclic, by id otherwise); the key inputs
    themselves are not in it.  A node outside it reads no key, so its
    value does not depend on the key.  Shared — do not mutate. *)
val key_cone : t -> int array

(** {1 Compiled evaluation}

    Acyclic circuits run the instruction array once in topological order;
    cyclic circuits run monotone fixpoint sweeps where lanes move from
    undefined to defined (so a key that functionally opens every cycle
    resolves all outputs). *)

(** [eval v ~inputs ~keys] — output vector in [outputs] order.
    @raise Invalid_argument on input/key width mismatch.
    @raise Unresolved when a combinational cycle does not settle. *)
val eval : t -> inputs:bool array -> keys:bool array -> bool array

(** [eval_tristate v ~inputs ~keys] never raises on unsettled cycles. *)
val eval_tristate : t -> inputs:bool array -> keys:bool array -> tristate array

(** [eval_under_inputs v ~inputs] — every node's value with the primary
    inputs fixed and every key input left at X, id-indexed (freshly
    allocated).  A node is [V0]/[V1] when the inputs alone determine it,
    whatever the key; on cyclic circuits the monotone sweeps give the least
    fixpoint.  Each such value is implied by the node's Tseytin clauses
    with the inputs pinned, which is what lets the Tseytin encoding of an
    oracle observation fold it away.
    @raise Invalid_argument on an input width mismatch. *)
val eval_under_inputs : t -> inputs:bool array -> tristate array

(** [eval_words v ~inputs ~keys] — bitsliced evaluation of {!lanes} input
    vectors at once; input/key words are treated as fully defined.  A lane
    left undefined carries value bit 0. *)
val eval_words : t -> inputs:int array -> keys:int array -> word array

(** [eval_words_per_key v ~inputs ~keys] is [List.map (fun k ->
    eval_words v ~inputs ~keys:k) keys], word for word, for the price of
    one whole evaluation and one {!key_cone} evaluation per further key
    set: the first key set runs the whole circuit, and each further one
    clears the cone, loads its keys and steps the cone alone (on a cyclic
    view, in sweeps to its fixpoint).
    @raise Invalid_argument on input/key width mismatch. *)
val eval_words_per_key :
  t -> inputs:int array -> keys:int array list -> word array list

(** [eval_packed v ~inputs ~keys] — packed outputs.
    @raise Unresolved when any lane of any output is undefined. *)
val eval_packed : t -> inputs:int array -> keys:int array -> int array

(** [broadcast bits] packs a scalar vector into fully-replicated words
    (every lane carries the same bit), for mixing scalar keys with packed
    inputs. *)
val broadcast : bool array -> int array

(** {1 Random stimuli} *)

(** [random_words rng ~width] draws [width] uniformly random packed words
    ({!lanes} random bits each). *)
val random_words : Random.State.t -> width:int -> int array

(** [random_vector rng width] draws a uniform bit vector. *)
val random_vector : Random.State.t -> int -> bool array

(** [pack vectors] turns up to {!lanes} scalar vectors (all of equal width)
    into packed input words; lane [i] is vector [i], unused lanes are 0.
    @raise Invalid_argument on an empty, oversized or ragged list. *)
val pack : bool array list -> int array

(** {1 Key-correctness probing}

    The shared "do two circuits agree" helper used by key verification
    ([Locked.key_matches]) and attack post-checks ([Removal]): exhaustive
    when the input space is small, word-batched random probes otherwise. *)

(** [agree_on_probes a ~keys_a b ~keys_b] is whether [a] under [keys_a] and
    [b] under [keys_b] produce identical outputs — on all [2^n] input
    vectors when [n <= exhaustive_limit] (default 10), else on [vectors]
    (default 256) random vectors drawn from [seed] (default 7).  Probes are
    batched {!lanes} per word-sim pass; an output that fails to settle
    counts as disagreement.
    @raise Invalid_argument when the two circuits' input counts differ. *)
val agree_on_probes :
  ?exhaustive_limit:int ->
  ?vectors:int ->
  ?seed:int ->
  t ->
  keys_a:bool array ->
  t ->
  keys_b:bool array ->
  bool

(** {1 Uncached reference evaluator}

    The interpretive walk (a fresh topological sort and one gate evaluation
    per node on every call) that the compiled evaluator replaced.  It is
    the uncached baseline for the differential tests and [bench sim]; no
    other code calls it. *)

(** [eval_reference c ~inputs ~keys] — as {!eval}, without a view.
    @raise Invalid_argument on input/key width mismatch.
    @raise Unresolved when a combinational cycle does not settle. *)
val eval_reference :
  Circuit.t -> inputs:bool array -> keys:bool array -> bool array

(** [eval_tristate_reference c ~inputs ~keys] — as {!eval_tristate},
    without a view. *)
val eval_tristate_reference :
  Circuit.t -> inputs:bool array -> keys:bool array -> tristate array
