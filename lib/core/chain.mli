(** Chained encoding of arbitrary-length bit streams (paper §6).

    A stream is split into blocks of [k] bits where consecutive blocks
    overlap by exactly one bit: block 0 covers positions [0..k-1], block [j]
    covers [j*(k-1) .. j*(k-1)+k-1], the final block being shorter when the
    stream runs out.  Block 0 is encoded standalone (first bit passes
    through); each later block's first bit is already fixed — it is the last
    {e encoded} bit of the previous block — and seeds that block's first
    decode link.

    Two encoders are provided: the paper's iterative greedy (each block
    locally minimal given the inherited overlap bit) and an exact dynamic
    program over the two possible boundary-bit values, used as an ablation
    to quantify how close greedy is to optimal. *)

type encoded = {
  code : Bitutil.Bitvec.t;  (** stored stream, same length as the input *)
  taus : Boolfun.t array;  (** one transformation per block, in order *)
  k : int;  (** block size the stream was encoded with *)
}

(** [block_count ~n ~k] is the number of blocks (and transformations) used
    for a stream of [n] bits: [0] for [n = 0], [1] for [n <= k], and
    [1 + ceil((n - k) / (k - 1))] otherwise. *)
val block_count : n:int -> k:int -> int

(** [block_spans ~n ~k] lists the [(start, len)] extent of every block:
    starts are [0, k-1, 2(k-1), ...] and each block spans up to [k] bits,
    its first bit shared with the previous block.  Exposed for the bench
    and tests. *)
val block_spans : n:int -> k:int -> (int * int) list

(** [encode_greedy ?subset_mask ~k stream] encodes with the paper's
    iterative approach.  [k] must be in [2..16].  The encoded stream never
    has more transitions than the original within any block chain, because
    the identity fallback is always admissible. *)
val encode_greedy : ?subset_mask:int -> k:int -> Bitutil.Bitvec.t -> encoded

(** [encode_greedy_into ?subset_mask ~k ~n ~swords ~soff ~cwords ~coff
    ~taus ~toff ()] is the zero-allocation core of {!encode_greedy}: it
    reads the [n]-bit input stream packed little-endian 32 bits per int at
    [swords.(soff) ..], writes the encoded stream in the same packing at
    [cwords.(coff) ..] (the slice is zeroed first; bits beyond [n] in the
    last word come back zero), and writes one truth-table index per block
    ([Boolfun.index] of the selected transformation) at [taus.(toff) ..].
    Returns the number of blocks written ([block_count ~n ~k]).

    Allocates nothing, so the block encoder can run thousands of streams
    through one reused scratch arena; distinct slices may be encoded
    concurrently from different domains.  Emits exactly the telemetry
    {!encode_greedy} does.  The caller guarantees each slice is large
    enough ([ceil(n/32)] words, [block_count] indices). *)
val encode_greedy_into :
  ?subset_mask:int ->
  k:int ->
  n:int ->
  swords:int array ->
  soff:int ->
  cwords:int array ->
  coff:int ->
  taus:int array ->
  toff:int ->
  unit ->
  int

(** [encode_optimal ?subset_mask ~k stream] minimises the total transitions
    of the stored stream exactly, by dynamic programming over the encoded
    value of each block boundary bit. *)
val encode_optimal : ?subset_mask:int -> k:int -> Bitutil.Bitvec.t -> encoded

(** [decode e] restores the original stream.  This is the reference model of
    the fetch-side hardware: it consumes stored bits in order, keeping one
    bit of history per the block equations. *)
val decode : encoded -> Bitutil.Bitvec.t

(** [transitions_saved ~original ~encoded] is
    [Bitvec.transitions original - Bitvec.transitions encoded.code]. *)
val transitions_saved : original:Bitutil.Bitvec.t -> encoded:encoded -> int
