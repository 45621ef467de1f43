(** End-to-end evaluation of the power encoding on a program — the engine
    behind the Figure 6 / Figure 7 reproduction.

    Flow, in four stages:
    - {e profile}: one CPU run records per-pc fetch counts, the count of
      every distinct consecutive fetch pair (the fetch edges), the
      bus-invert baseline and the program output ({!Cfg.Profile});
    - {e plan}: for each block size, encode the hottest basic blocks
      within the Transformation Table budget and build the stored image
      and decode system (profile and plans are served from {!Plan_cache});
    - {e count}: every static image's bus transitions are
      [Σ count(a→b) · popcount (img[a] xor img[b])] over the fetch edges,
      and so are the ledger, the attribution tables and an all-TT scheme
      selection — O(edges × images), no CPU run;
    - {e account}: reductions, scheme energies and the priced ledger.

    A second CPU run (the replay) happens only when a consumer needs the
    fetch stream itself: [verify], a recording {!Trace.Collector}, or a
    region committed to a non-TT backend (a stateful encoder, or aux lines
    held across fetches).  A cold TT evaluate thus runs the program once,
    and one served from {!Plan_cache} not at all.

    With [verify = true] the replay pushes every fetch through the
    {!Hardware.Fetch_decoder} model for each block size and compares the
    restored word against the true program — the full hardware
    equivalence check (slower; used by tests and small runs). *)

type encoded_run = {
  k : int;
  transitions : int;
  reduction_pct : float;  (** versus the baseline image *)
  tt_used : int;
  blocks_encoded : int;
  verified_fetches : int;  (** 0 when [verify] was off *)
}

(** Per-region encoding-scheme selection for the fetch path.

    [`Tt] (default): every encoded region uses the paper's TT scheme —
    byte-identical behaviour and reports to previous versions.  [`Auto]:
    each encoded region is scored against every registered word-at-a-time
    {!Buspower.Encoder} backend through the energy model (the [ledger]
    model when one is passed, {!Ledger.Model.on_chip} otherwise) and takes
    the cheapest, TT winning ties; the mixed bus (data plus the chosen
    backends' redundant lines) is then accounted {e exactly} — from the
    fetch edges when every region stays TT, over the replay otherwise —
    and a selection that measured worse than all-TT is
    discarded ([reverted]), so auto never reports higher energy than TT.
    [`Fixed name]: force every encoded region to backend [name] (["tt"]
    included), bypassing the scoring and the commit rule — the report
    carries honest numbers even when the override measures worse than TT;
    unknown or non-fetch-path names (a [latency_words > 0] backend such as
    the streaming TT, or one not covering 32 lines) raise
    [Invalid_argument].  Selection is deterministic: scores are pure
    functions of the plan and model, and backend registration order breaks
    ties. *)
type scheme = [ `Tt | `Auto | `Fixed of string ]

type region_choice = {
  rc_start : int;  (** instruction index of the encoded region head *)
  rc_len : int;  (** words actually stored encoded *)
  rc_weight : int;  (** dynamic execution count *)
  rc_scheme : string;  (** ["tt"] or a registered backend name *)
}

type scheme_run = {
  srun_k : int;
  choices : region_choice list;
  scheme_counts : (string * int) list;  (** scheme -> regions, ["tt"] first *)
  auto_transitions : int;
      (** exact bus transitions (data + redundant lines) under the
          committed selection *)
  auto_reduction_pct : float;  (** versus the baseline image *)
  auto_energy_j : float;
      (** bus energy + side-table reads + one-time table writes under the
          committed selection; never exceeds [tt_energy_j] under [`Auto]
          (a [`Fixed] override may report worse) *)
  tt_energy_j : float;  (** the same accounting with every region TT *)
  reverted : bool;  (** [`Auto] commit rule fell back to all-TT *)
}

type report = {
  name : string;
  instructions : int;  (** dynamic instruction count *)
  baseline_transitions : int;
  businvert_transitions : int;  (** bus-invert on the same fetch stream *)
  runs : encoded_run list;
  coverage_pct : float;  (** share of fetches inside encoded blocks *)
  output : string;  (** program output, for determinism checks *)
  attribution : Trace.Attribution.summary option;
      (** per-bitline / per-block transition breakdown; [Some] iff the
          [attribution] flag was set.  Its totals equal
          [baseline_transitions] and each run's [transitions] bit-exactly
          (its accumulators are fed the same fetch edges). *)
  ledger : Ledger.Sheet.t option;
      (** itemized energy account; [Some] iff a [ledger] model was passed.
          Its bus-transition counts are accumulated independently by
          {!Ledger.Meter} from the fetch edges and checked against the
          aggregate transition counts before the report is returned — a
          mismatch raises rather than returning an inconsistent ledger. *)
  schemes : scheme_run list;
      (** one per [k], empty under the default [`Tt] scheme *)
}

exception Verification_failed of { pc : int; expected : int; got : int }

(** Which basic blocks compete for the Transformation Table:
    [`Hot_blocks] (default) ranks every executed block by dynamic fetches;
    [`Hot_loops] implements the paper's stated policy — only blocks
    belonging to natural loops are candidates (ranked the same way). *)
type selection = [ `Hot_blocks | `Hot_loops ]

(** One planned block size with its built decode system.  [rebuild]
    assembles a {e fresh} system from the same plan — fault campaigns
    corrupt a rebuilt copy per injection so upsets never leak between
    experiments (the plan itself, the expensive part, is shared). *)
type prepared = {
  prep_k : int;
  prep_plan : Powercode.Program_encoder.plan;
  prep_system : Hardware.Reprogram.system;
  rebuild : unit -> Hardware.Reprogram.system;
  prep_profile : Cfg.Profile.t;
      (** the profiled run every [k] of one {!prepare} call shares: its
          output, exit code and instruction count are the fault-free
          baseline *)
}

(** Content-addressed cache of the profiling + planning front half shared
    by {!prepare} and {!evaluate}.

    Entries are keyed on the full content that determines a plan: the
    program image words, [ks], [tt_capacity], [subset_mask],
    [optimal_chain], [selection], and [scheme] — an FNV-1a fingerprint
    short-circuits comparisons, but a hit requires full structural key
    equality.  Cached plans and contexts are immutable; decode systems are
    always rebuilt fresh, so repeated evaluations of the same program
    (bench loops, fault campaigns, multi-benchmark CLI runs) skip the
    profile run and the encoding entirely without observable difference.
    Hits and misses are counted in the stable [plan.cache_hits] /
    [plan.cache_misses] telemetry; the CLI's [--no-plan-cache] flag maps
    to {!Plan_cache.set_enabled}[ false]. *)
module Plan_cache : sig
  (** [set_enabled b] turns the cache on or off ([true] initially).
      Turning it off affects lookups only; entries are kept until
      {!clear}. *)
  val set_enabled : bool -> unit

  val enabled : unit -> bool

  (** [clear ()] drops every entry and zeroes the {!stats} counters. *)
  val clear : unit -> unit

  (** [stats ()] is [(hits, misses)] since the last {!clear}. *)
  val stats : unit -> int * int
end

(** [prepare ?ks ?tt_capacity ?subset_mask ?optimal_chain ?selection
    program] runs the profiling and planning front half of {!evaluate}
    (same defaults, same block selection) and returns the per-[k] systems
    without counting.  The front half is served from
    {!Plan_cache} when enabled. *)
val prepare :
  ?ks:int list ->
  ?tt_capacity:int ->
  ?subset_mask:int ->
  ?optimal_chain:bool ->
  ?selection:selection ->
  Isa.Program.t ->
  prepared list

(** [evaluate ?ks ?tt_capacity ?subset_mask ?optimal_chain ?selection
    ?verify ?attribution ~name program] — defaults: [ks = [4;5;6;7]],
    [tt_capacity = 16], the paper's eight transformations, greedy chaining,
    [`Hot_blocks], no per-fetch verification, no attribution, no ledger.
    [attribution = true] additionally fills {!Trace.Attribution}
    accumulators from the fetch edges and returns their summary in the
    report.  [ledger = model] feeds a {!Ledger.Meter} the same edges (TT
    reads, BBIT probes, gate toggles, bus transitions), charges the
    reprogramming writes of each built decode system, and returns the
    priced {!Ledger.Sheet}.  Independently of these flags, whenever
    {!Trace.Collector} is recording, the replay emits [Bus] and
    [Block_entry] events into it. *)
val evaluate :
  ?ks:int list ->
  ?tt_capacity:int ->
  ?subset_mask:int ->
  ?optimal_chain:bool ->
  ?selection:selection ->
  ?scheme:scheme ->
  ?verify:bool ->
  ?attribution:bool ->
  ?ledger:Ledger.Model.t ->
  name:string ->
  Isa.Program.t ->
  report

(** [evaluate_workload ?ks ?scheme ?verify ?attribution ?ledger w]
    compiles and evaluates a benchmark. *)
val evaluate_workload :
  ?ks:int list ->
  ?scheme:scheme ->
  ?verify:bool ->
  ?attribution:bool ->
  ?ledger:Ledger.Model.t ->
  Workloads.t ->
  report

(** [pp_report] prints one Figure 6 style column group. *)
val pp_report : Format.formatter -> report -> unit
