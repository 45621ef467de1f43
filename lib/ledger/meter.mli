(** Per-component energy accounting over one program run.

    Fed one call per dynamic instruction fetch ({!record}) or one call per
    weighted fetch edge ({!record_edge}) — exactly like
    {!Trace.Attribution}, and deliberately independent of it — a meter
    maintains integer event counters for every ledger component:

    - bus transitions, baseline and per encoded image
      (first fetch primes, then [popcount (prev lxor cur)] per fetch, the
      {!Buspower} convention — so the totals must agree bit-exactly with
      [Pipeline.Evaluate] and [Trace.Attribution], which the finalizing
      caller and [test/test_ledger.ml] both assert);
    - TT SRAM reads: one per fetch whose pc lies inside an encoded region
      of that image;
    - BBIT probes: one per non-sequential fetch (the first fetch and every
      fetch with [pc <> prev_pc + 1]) — the associative match only burns
      energy when the sequencer cannot simply continue;
    - decode-gate output toggles: the restored-word lines that flip while
      the decoder is active, i.e. [popcount (baseline lxor prev_baseline)]
      on fetches inside an encoded region (the decoder's output carries the
      original words).

    Reprogramming writes are not observable from the fetch stream; they are
    supplied to {!finalize} from the built {!Hardware.Reprogram} systems. *)

type t

(** [create ~name ~model ~ks ~encoded_region] — [ks.(i)] labels image [i];
    [encoded_region ~image ~pc] decides whether [pc] is stored encoded in
    image [image] (constant per run: the region map of the plan). *)
val create :
  name:string ->
  model:Model.t ->
  ks:int array ->
  encoded_region:(image:int -> pc:int -> bool) ->
  t

(** [record t ~pc ~baseline ~encoded] accounts one fetch, after the one
    recorded before it.  [encoded] must have one word per entry of [ks]
    (raises [Invalid_argument]). *)
val record : t -> pc:int -> baseline:int -> encoded:int array -> unit

(** [record_edge t ~count ~src ~pc ~baseline ~encoded] accounts [count]
    fetches of [pc], each right after a fetch of [src = Some (src_pc,
    src_baseline, src_encoded)]; [src = None] is the first fetch of the
    run, which has no predecessor.  Summed over a run's fetch edges (plus
    its first fetch) this gives exactly the counts of {!record} over the
    same run.  It neither reads nor moves the previous-fetch state that
    {!record} keeps, so feed one meter through one entry point only. *)
val record_edge :
  t ->
  count:int ->
  src:(int * int * int array) option ->
  pc:int ->
  baseline:int ->
  encoded:int array ->
  unit

(** [fetches t] — fetches recorded so far. *)
val fetches : t -> int

(** [baseline_transitions t] and [encoded_transitions t i] expose the raw
    integer counts for conservation checks. *)
val baseline_transitions : t -> int

val encoded_transitions : t -> int -> int

(** [finalize t ~reprogram_writes] — [reprogram_writes.(i)] is the number
    of TT + BBIT programming writes of image [i]'s decode system.  Prices
    every counter under the meter's model and returns the sheet. *)
val finalize : t -> reprogram_writes:int array -> Sheet.t
