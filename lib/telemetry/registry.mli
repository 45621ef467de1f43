(** The metric registry: every counter, histogram and span the system
    emits, declared in one place so the schema is greppable and testable.

    Instrumented modules reference these values directly (e.g.
    [Telemetry.Metrics.incr Telemetry.Registry.encode_blocks]).  The full
    name/kind/stability schema is pinned by [test/test_telemetry.ml] via
    {!Metrics.registered}; stable counters are additionally asserted
    order-independent (sequential = parallel) by
    [test/test_differential.ml]. *)

(** {1 Encode pipeline — stable} *)

val encode_blocks : Metrics.counter
val encode_lines : Metrics.counter
val plan_blocks_considered : Metrics.counter
val plan_blocks_encoded : Metrics.counter
val plan_blocks_skipped : Metrics.counter
val plan_tt_entries : Metrics.counter
val plan_cache_hits : Metrics.counter
val plan_cache_misses : Metrics.counter
val chain_streams : Metrics.counter
val chain_code_blocks : Metrics.counter
val chain_decodes : Metrics.counter

(** Truth-table-order names of the 16 transformations, used as bucket
    labels of {!tau_selected}; must agree with [Boolfun.name]. *)
val tau_names : string array

val tau_selected : Metrics.histogram
val block_bits : Metrics.histogram

(** {1 Machine — stable} *)

val cpu_instructions : Metrics.counter
val icache_accesses : Metrics.counter
val icache_hits : Metrics.counter
val icache_misses : Metrics.counter
val icache_refill_words : Metrics.counter

(** {1 Hardened fetch path — stable}

    Stable: campaign injections replay a seeded plan and parity detections
    derive from the deterministic fetch stream, so sequential
    ([POWERCODE_SEQ=1]) and parallel runs of the same campaign report
    identical totals. *)

val fault_injections : Metrics.counter
val fault_tt_parity : Metrics.counter
val fault_bbit_parity : Metrics.counter
val fault_fallback_fetches : Metrics.counter
val fault_recoveries : Metrics.counter

(** {1 Pipeline — stable} *)

val pipeline_evaluations : Metrics.counter
val pipeline_fetches : Metrics.counter
val pipeline_images : Metrics.counter

(** {1 Energy ledger — stable}

    Stable: ledger counts derive from the fetch stream and the plan, both
    deterministic for a given workload, so sequential and parallel runs
    report identical totals. *)

val ledger_meters : Metrics.counter
val ledger_fetches : Metrics.counter
val ledger_entries : Metrics.counter
val ledger_reports : Metrics.counter

(** {1 Caches and search spaces — runtime} *)

val codetable_hits : Metrics.counter
val codetable_misses : Metrics.counter
val blockword_memo_hits : Metrics.counter
val blockword_memo_misses : Metrics.counter
val solver_words : Metrics.counter
val solver_codes_scanned : Metrics.counter
val subset_requirements : Metrics.counter
val subset_masks_tested : Metrics.counter

(** {1 Domain pool — runtime} *)

val parpool_jobs : Metrics.counter
val parpool_chunks : Metrics.counter
val parpool_seq_fallbacks : Metrics.counter
val parpool_idle_ns : Metrics.counter
val parpool_busy_ns : Metrics.counter

(** Per-slot pool gauges: slot 0 is the calling domain, slots 1..8 the
    workers each parallel call spawns ([1 + Parpool.max_workers] slots,
    fixed).  [parpool.chunks] counts the items parallel jobs ran; a slot's
    idle time runs from the call's start to its first claim, and the
    caller's wait at the join is slot-0 idle.  The per-slot levels sum to
    the pool-wide [parpool.busy_ns] / [parpool.idle_ns] / [parpool.chunks]
    counters (pinned by [test/test_parallel.ml]). *)

val pool_slots : int
val pool_slot_label : int -> string
val parpool_worker_busy_ns : Metrics.gauge
val parpool_worker_idle_ns : Metrics.gauge
val parpool_worker_tasks : Metrics.gauge
val parpool_width : Metrics.gauge

(** {1 GC, per evaluate phase — runtime}

    Sampled around every [Pipeline.Evaluate] phase ([profile], [plan],
    [count]) via [Gc.quick_stat] deltas, turning one-off allocation
    figures into standing per-phase metrics. *)

val gc_profile_minor_words : Metrics.counter
val gc_profile_major_words : Metrics.counter
val gc_profile_minor_collections : Metrics.counter
val gc_profile_major_collections : Metrics.counter
val gc_plan_minor_words : Metrics.counter
val gc_plan_major_words : Metrics.counter
val gc_plan_minor_collections : Metrics.counter
val gc_plan_major_collections : Metrics.counter
val gc_count_minor_words : Metrics.counter
val gc_count_major_words : Metrics.counter
val gc_count_minor_collections : Metrics.counter
val gc_count_major_collections : Metrics.counter
val gc_heap_words : Metrics.gauge
val gc_top_heap_words : Metrics.gauge

(** {1 Spans} *)

val span_evaluate : Metrics.span
val span_profile : Metrics.span
val span_plan : Metrics.span
val span_count : Metrics.span
val span_encode_plan : Metrics.span
val span_encode_block : Metrics.span
val span_codetable_build : Metrics.span
