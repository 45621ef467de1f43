(** Applying power codes to program regions (paper §6–§7).

    A region is the instruction sequence of one basic block, viewed as a
    {!Bitutil.Bitmat.t} whose columns are the bus lines.  All columns share
    the same vertical blocking: instructions [0..k-1] form code block 0,
    instructions [j*(k-1) .. j*(k-1)+k-1] form block [j] (one-instruction
    overlap), the tail block being shorter.  Each code block maps to one
    Transformation Table entry carrying a transformation index per bus line,
    the end-of-block delimiter [E], and the tail counter [CT].

    Encoding never crosses basic-block boundaries (branch targets must enter
    at a block head with a fresh pass-through instruction), and cold or
    oversized blocks fall back to the identity and occupy no table space. *)

type config = {
  k : int;  (** code block size in instructions, paper favours 5..6 *)
  subset_mask : int;  (** admissible transformations, must include identity *)
  tt_capacity : int;  (** total Transformation Table entries, paper: 16 *)
  optimal_chain : bool;  (** exact DP per column instead of greedy *)
}

(** [default_config ()] is [k = 5], the paper's eight transformations,
    16 TT entries, greedy chaining. *)
val default_config : ?k:int -> unit -> config

type tt_entry = {
  taus : Boolfun.t array;  (** transformation per bus line, index = line *)
  is_end : bool;  (** the paper's [E] delimiter bit *)
  count : int;  (** instructions this entry decodes (the [CT] role) *)
}

type block_encoding = {
  encoded : Bitutil.Bitmat.t;  (** stored image of the basic block *)
  entries : tt_entry array;  (** TT entries in fetch order *)
}

(** [entries_needed ~k ~rows] is the number of TT entries required for a
    basic block of [rows] instructions. *)
val entries_needed : k:int -> rows:int -> int

(** [encode_block config m] encodes one basic block.  The first instruction
    is always stored verbatim (every column's chain starts pass-through).
    Decoding [encoded] with [entries] restores [m] exactly —
    see {!decode_block}.

    The bus lines encode one after another on the calling domain, in a
    per-domain scratch arena, so several domains may encode at once. *)
val encode_block : config -> Bitutil.Bitmat.t -> block_encoding

(** [decode_block ~k ~entries m] is the software reference decoder (the
    hardware model lives in the [hardware] library and must agree). *)
val decode_block :
  k:int -> entries:tt_entry array -> Bitutil.Bitmat.t -> Bitutil.Bitmat.t

type candidate = {
  start_index : int;  (** instruction index of the block head *)
  body : Bitutil.Bitmat.t;
  weight : int;  (** dynamic execution count of the block *)
}

type placement = {
  cand : candidate;
  encoding : block_encoding option;  (** [None]: left identity (cold/no fit) *)
  tt_base : int;  (** first TT entry index; [-1] when not encoded *)
}

type plan = { config : config; placements : placement list; tt_used : int }

(** [plan config candidates] allocates the TT to the hottest basic blocks
    first (stable on ties by [start_index]), skipping blocks of fewer than
    two instructions and blocks with zero weight.  A block longer than the
    remaining capacity is covered {e partially}: its first
    [k + (entries-1)*(k-1)] instructions are encoded and the E/CT
    delimiters stop the decoder there, leaving the tail verbatim — the
    hardware needs no extra support for this.  Placements are returned
    sorted by [start_index]. *)
val plan : config -> candidate list -> plan
