(** Structured observability: counters, gauges, histograms, timed spans,
    span profiles and an event stream with pluggable sinks.

    The whole stack (solver, attacks, view layer, benches) reports through
    this module.  The design contract is {e zero overhead when no sink is
    installed}: {!emit} and {!with_span} reduce to an atomic load and a
    branch when no sink exists, and callers are expected to guard
    field-list construction with {!enabled}.  Counters, gauges and
    histograms are striped atomic cells — an increment is one uncontended
    atomic add whether or not anything is observing.

    The module is domain-safe (the [Fl_par] sweeps run attacks on worker
    domains): counter and histogram increments stripe by domain id and
    reads merge the stripes, so per-domain work always lands in the global
    snapshot; event delivery to sinks is serialized, so JSONL lines stay
    whole under parallel emission; span depth is domain-local.

    The module is deliberately dependency-free (only [Unix.gettimeofday]
    for timestamps) so every layer of the repository can depend on it
    without cycles. *)

(** {1 Values and events} *)

(** Field value of a structured event. *)
type value = Int of int | Float of float | String of string | Bool of bool

type event = {
  ts : float;  (** Unix time at emission *)
  name : string;  (** dotted event name, e.g. ["attack.iteration"] *)
  fields : (string * value) list;
}

(** {1 Sinks}

    A sink consumes every emitted event.  No sink is installed by default
    (the "null sink"): emission is then a single list-emptiness check.
    Delivery is serialized across domains; a sink body must not call
    {!emit} (the serialization lock is not re-entrant). *)

type sink = event -> unit

type sink_id

(** [add_sink s] installs [s]; events flow to every installed sink. *)
val add_sink : sink -> sink_id

val remove_sink : sink_id -> unit

(** [with_sink s f] installs [s] for the duration of [f] (exception-safe). *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** [enabled ()] is [true] iff at least one sink is installed.  Guard any
    non-trivial field construction with this. *)
val enabled : unit -> bool

(** [jsonl_sink oc] writes one JSON object per event per line to [oc]
    (see {!Json.to_string} for the schema).  The caller owns [oc]. *)
val jsonl_sink : out_channel -> sink

(** [emit ?fields name] sends an event to every sink; a no-op (single
    branch) when none is installed. *)
val emit : ?fields:(string * value) list -> string -> unit

(** {1 Deep profiling switch}

    Distribution telemetry in solver and pool hot paths (the [cdcl.*] and
    [par.*] histograms) guards on this flag instead of {!enabled}, so a
    bench run can populate histograms without installing any event sink.
    Off by default; with it off the instrumented conflict path costs one
    atomic load and branch. *)

val set_deep : bool -> unit
val deep_enabled : unit -> bool

(** {1 Spans}

    A span is a timed, nestable region.  When a sink is installed,
    [with_span name f] emits ["span.begin"] (fields [depth], [domain]) on
    entry and ["span.end"] (fields [depth], [domain], [dur_s]) on exit,
    exception-safely; with no sink it is a bare call to [f].  [depth] is 0
    for top-level spans and grows with nesting; [domain] is the emitting
    domain's id, which lets {!Profile} keep interleaved worker stacks
    separate.  When a top-level span closes, the [gc.minor_words],
    [gc.major_words] and [gc.top_heap_words] gauges are refreshed from
    [Gc.quick_stat]. *)

val with_span :
  ?fields:(string * value) list -> string -> (unit -> 'a) -> 'a

(** Current span nesting depth (0 outside any span). *)
val span_depth : unit -> int

(** {1 Counters, gauges and histograms}

    Metrics live in one table keyed by name.  [make] is idempotent per
    name: asking again returns the same cell, so modules can declare their
    counters at top level without coordination; asking for a name already
    taken by another kind of metric raises [Invalid_argument].

    Counters and histograms are domain-safe: increments go to a per-domain
    stripe of atomic cells and {!Counter.value} / {!snapshot} /
    {!hist_snapshot} sum the stripes, so work done on Fl_par worker domains
    is merged into the global totals (the merge happens on every read —
    nothing is deferred to a join). *)

module Counter : sig
  type t

  (** [make name] is the counter [name], created at 0 on first use. *)
  val make : string -> t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : string -> t
  val set : t -> float -> unit
  val value : t -> float
end

(** {1 JSONL encoding} *)

module Json : sig
  exception Parse_error of string

  (** Generic JSON tree, used by the offline tooling (fltrace, the bench
      regression gate) to read whole documents. *)
  type t =
    | Jnull
    | Jbool of bool
    | Jint of int
    | Jfloat of float
    | Jstring of string
    | Jarr of t list
    | Jobj of (string * t) list

  (** [parse s] parses one complete JSON document.
      @raise Parse_error on malformed input or trailing garbage. *)
  val parse : string -> t

  (** [member k j] is field [k] of object [j], if [j] is an object that
      has it. *)
  val member : string -> t -> t option

  (** [number j] is [j] as a float when it is a number. *)
  val number : t -> float option

  (** [to_string e] is a single-line JSON object:
      [{"ts":<float>,"event":<name>,<field>:<value>,...}].  Field order is
      preserved.  Strings are escaped per JSON; finite floats print with
      enough digits to round-trip, infinities as the out-of-range literal
      [1e999] (read back as infinity) and nan as [null]. *)
  val to_string : event -> string

  (** [of_string line] parses a line produced by {!to_string} (any flat
      JSON object with an ["event"] member and string/number/bool values;
      [null] fields parse as [String "null"]).
      @raise Parse_error on malformed input. *)
  val of_string : string -> event

  (** [encode j] is the compact single-line JSON encoding of an arbitrary
      tree — the inverse of {!parse} (numeric spellings follow
      {!to_string}'s float rules).  {!to_string} remains the dedicated
      fast path for flat event lines; [encode] is for whole documents. *)
  val encode : t -> string

  (** [value_to_string v] is the JSON encoding of one scalar (for builders
      of larger JSON documents, e.g. the bench reports). *)
  val value_to_string : value -> string

  (** [string_to_string s] is [s] as a quoted, escaped JSON string. *)
  val string_to_string : string -> string
end

(** {1 Histograms}

    Fixed-shape log₂ histograms: 64 buckets, bucket 0 holds values [<= 0]
    and bucket [i >= 1] holds [[2^(i-1), 2^i - 1]].  Like counters they
    stripe by domain — {!Hist.record} is one atomic add on the recording
    domain's stripe, with no lock and no allocation — and a read merges
    the stripes.  A histogram records raw integers; [scale] is a display
    multiplier applied on read (the stock time histograms record
    microseconds with [scale = 1e-6], so summaries read in seconds). *)

module Hist : sig
  type t

  (** Merged read-side snapshot: total counts per bucket. *)
  type snap = { hname : string; hscale : float; hbuckets : int array }

  (** [make ?scale name] is the histogram [name], created empty on first
      use.  [scale] defaults to [1.0] and is fixed at creation. *)
  val make : ?scale:float -> string -> t

  (** [record h v] adds one sample: a single atomic increment. *)
  val record : t -> int -> unit

  (** [record_time h seconds] records [seconds] converted to the
      histogram's scale units (microseconds for [scale = 1e-6]), rounded
      to nearest. *)
  val record_time : t -> float -> unit

  (** [read h] merges the stripes into a snapshot (named by the caller via
      {!Fl_obs.hist_snapshot}, which is the usual way to read). *)
  val read_cells : string -> t -> snap

  (** [bucket_of v] is the bucket index [record] files [v] under. *)
  val bucket_of : int -> int

  val count : snap -> int

  (** [sum s] estimates the sample sum from bucket midpoints, in display
      units. *)
  val sum : snap -> float

  (** [quantile s q] is the scaled upper bound of the bucket holding the
      [q]-th sample — an upper estimate, exact to within one bucket.  0 on
      an empty histogram. *)
  val quantile : snap -> float -> float

  (** [max_value s] is the scaled upper bound of the highest non-empty
      bucket (0 when empty). *)
  val max_value : snap -> float

  (** [json s] renders [{"count":..,"sum":..,"p50":..,"p90":..,"p99":..,
      "max":..,"scale":..,"buckets":{"<index>":<count>,..}}] — summary
      statistics plus the sparse bucket vector, so {!of_json} recovers the
      exact distribution. *)
  val json : snap -> string

  (** [of_json ~name j] reads back what {!json} wrote.
      @raise Json.Parse_error on missing or malformed members. *)
  val of_json : name:string -> Json.t -> snap
end

(** [snapshot ()] is every counter and gauge as (name, value) pairs,
    sorted by name.  Counters snapshot as [Int], gauges as [Float].  Histograms are excluded (see {!hist_snapshot}). *)
val snapshot : unit -> (string * value) list

(** [hist_snapshot ()] is every histogram as a merged snapshot, sorted by
    name. *)
val hist_snapshot : unit -> Hist.snap list

(** [reset_metrics ()] zeroes every counter, gauge and histogram
    (for benchmark isolation; existing handles stay valid). *)
val reset_metrics : unit -> unit

(** [pp_snapshot fmt ()] prints the snapshot — one
    [name = value] per line, histograms as count/p50/p99/max summaries. *)
val pp_snapshot : Format.formatter -> unit -> unit

(** {1 Span profiles}

    Aggregates ["span.begin:*"]/["span.end:*"] events into a
    calling-context tree: one node per path of span names, carrying call
    count, total time, and {e self} time (total minus the sum of the
    direct children's totals — the time spent in the span's own code).
    Per-domain open-span stacks (from the events' [domain] field) keep
    interleaved worker-domain traces attributed to the right parents.

    Feed a profile live with {!Profile.sink} (delivery is serialized by
    the sink lock) or offline by passing parsed trace lines to
    {!Profile.add_event}; then read it
    with {!Profile.roots} / {!Profile.flame}.  Reading while events are
    still being fed is a race — detach the sink first. *)

module Profile : sig
  type t

  val create : unit -> t

  (** [add_event p e] folds one event into the profile; non-span events
      are ignored.  An end without a matching begin (truncated trace) is
      dropped and counted in {!unmatched}. *)
  val add_event : t -> event -> unit

  (** [sink p] is [add_event p] as an installable sink. *)
  val sink : t -> sink

  (** Immutable aggregation tree, children sorted by total time
      descending. *)
  type tree = {
    tname : string;
    calls : int;
    total_s : float;
    self_s : float;  (** [total_s] minus the children's [total_s], >= 0 *)
    children : tree list;
  }

  (** Top-level spans, sorted by total time descending. *)
  val roots : t -> tree list

  (** Number of span.end events that could not be matched to an open
      span. *)
  val unmatched : t -> int

  (** [flame p] is the profile as folded stacks: one
      [("root;child;..;name", self_seconds)] line per node with positive
      self time — the input format of flamegraph.pl (scale the value to
      integer microseconds when writing).  The self values under each root
      sum to that root's total time. *)
  val flame : t -> (string * float) list
end
