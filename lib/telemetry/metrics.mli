(** Lightweight, domain-safe metrics: monotonic counters, bounded
    histograms and nested wall-clock spans, with a freeze-to-record API.

    Collection is globally gated: while {!enabled} is [false] (the default)
    every recording call is a load-and-branch no-op — no allocation, no
    locking, no clock read — so instrumented hot paths cost nothing in
    normal test runs.  Enable with {!set_enabled} (the bench harness and the
    CLI's [--stats] flag do).

    Counters and histograms are sharded over a small fixed set of atomic
    cells indexed by the calling domain, so the domain pool's workers
    never contend on one cache line; a total is the sum over
    shards, which is order-independent — sequential ([POWERCODE_SEQ=1]) and
    parallel runs of the same workload report identical totals for every
    {!Stable} metric (asserted by [test/test_differential.ml]).

    Every metric registers itself by name at creation; the single
    declaration site is {!Registry}, and [test/test_telemetry.ml] pins the
    full schema.  Creating two metrics with one name raises. *)

(** How a metric's total relates to the work performed.

    [Stable]: derived purely from the work content — the same inputs yield
    the same total regardless of parallelism, scheduling or cache state.
    [Runtime]: reflects how the run executed (cache hits, pool tasks, idle
    time); excluded from sequential-vs-parallel equality checks. *)
type stability = Stable | Runtime

type kind = Counter | Histogram | Gauge | Span

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Counters} *)

type counter

(** [counter ~doc name] registers a monotonic counter.  Default stability
    is [Stable]. *)
val counter : ?stability:stability -> doc:string -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** [counter_total c] sums the shards; exact only when no domain is
    concurrently recording. *)
val counter_total : counter -> int

val counter_name : counter -> string

(** {1 Histograms}

    A histogram is a fixed array of buckets; {!observe} increments one
    bucket, clamping out-of-range indices to the edges.  The bucket index
    is computed by the call site (e.g. a transformation's truth-table
    index, or {!log2_bucket} of a size). *)

type histogram

val histogram :
  ?stability:stability ->
  doc:string ->
  buckets:int ->
  label:(int -> string) ->
  string ->
  histogram

val observe : histogram -> int -> unit

(** [log2_bucket v] is [floor (log2 v)] for [v >= 1], [0] below — the
    conventional exponential bucketing for sizes. *)
val log2_bucket : int -> int

(** {1 Gauges}

    A gauge is a point-in-time level — queue depth, pool width, heap words
    — written with {!set_gauge} (last write wins) or nudged with
    {!add_gauge}, and read verbatim at {!freeze} time.  A scalar gauge has
    one slot; vector gauges carry a fixed slot count chosen at declaration
    (e.g. one slot per potential pool worker), so the frozen shape never
    depends on how wide the machine happened to run.  Out-of-range slot
    indices clamp to the edges, like histogram buckets.  Default stability
    is [Runtime]: levels describe how the run executed. *)

type gauge

val gauge :
  ?stability:stability ->
  ?slots:int ->
  ?slot_label:(int -> string) ->
  doc:string ->
  string ->
  gauge

val set_gauge : gauge -> int -> int -> unit
val add_gauge : gauge -> int -> int -> unit

(** [gauge_value g slot] reads one slot; exact only when no domain is
    concurrently writing. *)
val gauge_value : gauge -> int -> int

val gauge_name : gauge -> string
val gauge_slots : gauge -> int

(** {1 Spans}

    A span times a lexical extent with a monotonic-enough wall clock.
    Spans nest: each domain keeps a stack, and a span's recorded key is its
    full path ([parent/child]), so the report shows where time went inside
    what.  Stats (count, total, max) accumulate per path under a mutex —
    span exits are rare next to counter bumps, so the lock is not hot. *)

type span

val span : doc:string -> string -> span
val span_name : span -> string

(** [with_span sp f] runs [f] inside [sp].  When disabled it is exactly
    [f ()].  The span records even when [f] raises. *)
val with_span : span -> (unit -> 'a) -> 'a

(** [now_ns ()] is the clock spans use, exposed for instrumentation that
    must time non-lexical extents (e.g. pool idle waits). *)
val now_ns : unit -> float

(** [current_span_path ()] is the calling domain's innermost open span
    path ([parent/child/...]), or [None] outside any span.  The span stack
    is only maintained while collection is {!enabled}; the event log
    ({!Log}) stamps this onto lines emitted inside spans so logs and span
    stats cross-reference by path. *)
val current_span_path : unit -> string option

(** {1 Freeze-to-record}

    [freeze] snapshots every registered metric into an immutable record;
    reporters ({!Report}) format records, tests compare them.  [reset]
    zeroes all values (registration is untouched), so one process can
    measure several phases independently. *)

type span_record = { span_count : int; total_ns : float; max_ns : float }

type frozen = {
  counters : (string * stability * int) list;  (** sorted by name *)
  histograms : (string * stability * (string * int) list) list;
      (** per-bucket [(label, count)], buckets in index order *)
  gauges : (string * stability * (string * int) list) list;
      (** per-slot [(label, value)], slots in index order; sorted by name *)
  spans : (string * span_record) list;  (** sorted by path *)
}

val freeze : unit -> frozen
val reset : unit -> unit

(** [diff ~before ~after] is the per-metric delta between two snapshots of
    one process — what a bounded phase recorded, e.g. one workload of a
    multi-workload run (the CLI's per-benchmark [--stats] deltas).
    Counters and histogram buckets subtract; spans keep only paths whose
    count moved, with [max_ns] taken from [after] (the running maximum is
    not recoverable per window).  Gauges are levels, not flows, so the
    window keeps [after]'s readings verbatim. *)
val diff : before:frozen -> after:frozen -> frozen

(** {1 Span hook}

    [set_span_hook (Some f)] invokes [f ~path ~start_ns ~stop_ns] at every
    span exit (after the aggregate is recorded, from the recording domain,
    only while collection is enabled).  The trace collector uses this to
    turn aggregate-only spans into individual intervals for the Perfetto
    exporter.  [set_span_hook None] unhooks. *)
val set_span_hook :
  (path:string -> start_ns:float -> stop_ns:float -> unit) option -> unit

(** [registered ()] lists every registered metric as
    [(name, kind, stability, doc)], sorted by name — the schema surface the
    registry tests assert against. *)
val registered : unit -> (string * kind * stability * string) list
