(** Per-call domain fan-out for embarrassingly-parallel loops.

    The fault campaign's injections are independent experiments, so
    [Fault.Campaign.run] fans them out with {!parallel_init}.  Each call
    spawns its own worker domains and joins them before it returns; no
    domain outlives the call.  A campaign runs for seconds, so the spawn
    cost (tens of microseconds per domain) is noise.

    On-demand claiming: every domain of a call, the caller included, takes
    the next unclaimed index from one shared atomic counter until none is
    left.  An expensive index therefore delays only the domain that runs
    it; the others keep draining the range.

    Sequential fallback: when [POWERCODE_SEQ=1] is set in the environment,
    when the effective worker count is zero, or when the caller asks for
    fewer than two items, {!parallel_init} degrades to [Array.init].  Both
    environment variables are consulted on every call, so tests and the
    bench can toggle them at runtime.

    Width pinning: [POWERCODE_DOMAINS=<n>] requests a total of [n] domains
    (the calling domain plus [n - 1] workers), clamped to the cap.  Values
    above the physical core count oversubscribe on purpose — CI and
    differential tests must be able to exercise the multi-domain paths on
    single-core runners.  Without it the width follows
    [Domain.recommended_domain_count ()].

    Instrumentation: when telemetry is enabled each call reports per-slot
    busy/idle nanoseconds and item counts into the [parpool.worker_*]
    gauge vectors (slot 0 = the calling domain, slots 1..8 = the call's
    workers in spawn order) and its width into [parpool.width], alongside
    the pool-wide [parpool.busy_ns]/[parpool.idle_ns]/[parpool.chunks]
    counters the per-slot levels partition exactly.  A slot is idle from
    the call's start until its first claim; the caller's wait for its
    workers at the join is slot-0 idle too. *)

(** Hard cap on worker domains: requests (environment or recommended) for
    more than [max_workers + 1] total domains are clamped. *)
val max_workers : int

(** [sequential_mode ()] is [true] when [POWERCODE_SEQ=1] is set. *)
val sequential_mode : unit -> bool

(** [worker_count ()] is the number of worker domains a call may spawn
    (0 when parallelism is unavailable): [POWERCODE_DOMAINS - 1] when that
    variable holds a positive integer, otherwise one less than the
    recommended domain count; capped either way.  Spawns nothing. *)
val worker_count : unit -> int

(** [parallel_init n f] is [Array.init n f] evaluated by the calling
    domain and [min (worker_count ()) (n - 1)] domains spawned for this
    call, each claiming one index at a time.  [f] must be safe to call
    from any domain.  Evaluation order is unspecified; each index is
    evaluated at most once, and exactly once when no [f i] raises.  Once
    some [f i] raises, no domain claims a further index; the first
    exception recorded is re-raised in the caller after every domain of
    the call has been joined.  A call made from inside [f] (nested
    parallelism) runs sequentially, whichever domain makes it. *)
val parallel_init : int -> (int -> 'a) -> 'a array
