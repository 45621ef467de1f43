(** Dynamic execution profiles.

    The paper's flow analyses the application offline, pinpoints the major
    loops and encodes only those; the profile supplies the block weights
    that drive that selection.  It also keeps the fetch-edge counts of the
    same run, from which any static image's bus transitions follow without
    running the program again: [Σ count(a→b) · popcount (img[a] xor
    img[b])] over the {!edges}. *)

type t

(** [collect ?max_instructions program] runs the program to completion on a
    fresh machine state, counting fetches per instruction and per
    consecutive fetch pair, and pricing the fetch stream under bus-invert
    coding.  A run that traps (the instruction budget included) raises, as
    {!Machine.Cpu.run} does. *)
val collect :
  ?max_instructions:int -> Isa.Program.t -> t * Machine.Cpu.result

(** [instruction_count t i] is the number of times instruction [i] was
    fetched. *)
val instruction_count : t -> int -> int

(** [block_weight t block] is the execution count of the block (the fetch
    count of its first instruction). *)
val block_weight : t -> Block.t -> int

(** [block_fetches t block] is the total fetches spent inside the block. *)
val block_fetches : t -> Block.t -> int

(** [total t] is the total dynamic instruction count. *)
val total : t -> int

(** One consecutive fetch pair: [dst] was fetched right after [src],
    [count > 0] times.  [dst = src + 1] is the sequential edge; any other
    [dst] is a taken control transfer (a branch to [src + 1] is
    indistinguishable from falling through, and counts as sequential). *)
type edge = { src : int; dst : int; count : int }

(** [edges t] lists every edge of the run once, sorted by [(src, dst)].
    Every fetch but the first (pc 0, where {!Machine.Cpu.run} starts) is
    the [dst] of exactly one edge, so the counts sum to [total t - 1]. *)
val edges : t -> edge array

(** [businvert_transitions t] is the bus-invert baseline of the run: the
    transitions {!Buspower.Businvert.count_stream} gives over the 32-bit
    words of the whole fetch stream, invert line included. *)
val businvert_transitions : t -> int

(** [output t] is everything the profiled run printed. *)
val output : t -> string

(** [exit_code t] is the exit code the profiled run ended with. *)
val exit_code : t -> int

(** [hot_blocks t blocks] sorts blocks by {!block_fetches}, hottest first;
    never-executed blocks are dropped. *)
val hot_blocks : t -> Block.t array -> Block.t list

(** [coverage t subset] is the fraction of all fetches spent in the blocks
    of [subset] — how much of the run the encoded region captures. *)
val coverage : t -> Block.t list -> float
