(** A small reusable domain pool for embarrassingly-parallel loops.

    The fault campaign's injections are independent experiments, so
    [Fault.Campaign.run] fans them out over a fixed set of worker domains.
    The pool is created lazily on first use, reused for every subsequent
    call (spawning domains per call would dwarf the work), and torn down
    at process exit.

    Sequential fallback: when [POWERCODE_SEQ=1] is set in the environment,
    when the effective worker count is zero, or when the caller asks for
    fewer than two items, {!parallel_init} degrades to [Array.init].  Both
    environment variables are consulted on every call, so tests and the
    bench can toggle them at runtime.

    Width pinning: [POWERCODE_DOMAINS=<n>] requests a total of [n] domains
    (the calling domain plus [n - 1] workers), clamped to the pool cap.
    Values above the physical core count oversubscribe on purpose — CI and
    differential tests must be able to exercise the multi-domain paths on
    single-core runners.  Without it the pool sizes itself from
    [Domain.recommended_domain_count ()].  The pool grows lazily when a
    later call requests more workers than have been spawned.

    Instrumentation: when telemetry is enabled the pool reports per-slot
    busy/idle nanoseconds and task counts into the
    [parpool.worker_*] gauge vectors (slot 0 = the calling domain,
    slots 1..8 = workers in spawn order), a [parpool.queue_depth] gauge,
    and a [parpool.width] gauge, alongside the pool-wide
    [parpool.busy_ns]/[parpool.idle_ns]/[parpool.chunks] counters the
    per-slot levels partition exactly. *)

(** Hard cap on worker domains: requests (environment or recommended) for
    more than [max_workers + 1] total domains are clamped. *)
val max_workers : int

(** [sequential_mode ()] is [true] when [POWERCODE_SEQ=1] is set. *)
val sequential_mode : unit -> bool

(** [worker_count ()] is the number of worker domains the pool will use
    (0 when parallelism is unavailable): [POWERCODE_DOMAINS - 1] when that
    variable holds a positive integer, otherwise one less than the
    recommended domain count; capped either way.  Does not spawn the
    pool. *)
val worker_count : unit -> int

(** [parallel_init n f] is [Array.init n f] with the index range chunked
    over the pool's domains plus the calling domain.  [f] must be safe to
    call from any domain.  The first exception raised by any [f i] is
    re-raised in the caller after all chunks settle.  Evaluation order
    across chunks is unspecified; each index is evaluated exactly once.
    Calls made {e from} a pool worker domain (nested parallelism: an [f]
    that itself calls [parallel_init]) run sequentially rather than
    re-entering the pool they are draining. *)
val parallel_init : int -> (int -> 'a) -> 'a array
