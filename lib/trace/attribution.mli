(** Exact per-bitline and per-basic-block attribution of bus transitions.

    Fed one call per dynamic instruction fetch ({!record}), or one per
    weighted fetch edge ({!record_edge}), with the baseline bus word and
    the corresponding word of each encoded image, it maintains exact
    accumulators — unlike the trace ring buffer it never drops data, so the
    per-line counts sum {e bit-exactly} to the aggregate transition counts
    reported by [Pipeline.Evaluate] (the test suite asserts this for every
    benchmark and every k).

    Transition convention matches [Buspower]: the first fetch primes the
    previous-word registers and counts nothing; thereafter each fetch adds
    [popcount (prev lxor cur)], attributed per set bit to that bus line and
    in aggregate to the basic block of the {e destination} pc. *)

type t

(** [create ~labels ~block_starts ~block_of_pc] — [labels] name the encoded
    images (e.g. [[|"k4"; "k5"; "k6"; "k7"|]]); [block_starts.(b)] is the
    start pc of basic block [b]; [block_of_pc pc] maps a pc to its block
    index (return a negative value for out-of-range pcs — their transitions
    still count toward the line totals, just not to any block). *)
val create :
  labels:string array ->
  block_starts:int array ->
  block_of_pc:(int -> int) ->
  t

(** [record t ~pc ~baseline ~encoded] accounts one fetch, after the one
    recorded before it.  [encoded] must have one word per label (raises
    [Invalid_argument] otherwise). *)
val record : t -> pc:int -> baseline:int -> encoded:int array -> unit

(** [record_edge t ~count ~src ~pc ~baseline ~encoded] accounts [count]
    fetches of [pc], each right after a fetch that drove [src = Some
    (src_baseline, src_encoded)]; [src = None] is the first fetch of the
    run.  Summed over a run's fetch edges (plus its first fetch) this gives
    exactly the summary of {!record} over the same run.  It leaves the
    previous-fetch state of {!record} alone, so feed one accumulator
    through one entry point only. *)
val record_edge :
  t ->
  count:int ->
  src:(int * int array) option ->
  pc:int ->
  baseline:int ->
  encoded:int array ->
  unit

type summary = {
  labels : string array;
  fetches : int;
  line_baseline : int array;  (** 32 entries, index = bus line (bit 0 = LSB) *)
  line_encoded : int array array;  (** per label: 32 entries *)
  total_baseline : int;  (** = sum of [line_baseline] *)
  total_encoded : int array;  (** per label: sum of its line counts *)
  block_starts : int array;
  block_baseline : int array;
  block_encoded : int array array;  (** per label: per block *)
}

val summarize : t -> summary

(** Aligned text tables: the 32-row per-line baseline-vs-encoded table with
    a totals row, then the per-block breakdown (largest blocks first,
    truncated past [max_blocks], default 16). *)
val pp_text : ?max_blocks:int -> Format.formatter -> summary -> unit

(** One JSON object
    [{"name"?, "fetches", "labels", "totals": {"baseline", <label>...},
      "per_line": [{"line", "baseline", <label>...}, ...],
      "per_block": [{"block", "start_pc", "baseline", <label>...}, ...]}]
    — embeds into [BENCH_encoding.json] (schema /3). *)
val to_json : ?name:string -> summary -> string
