(** Bus-invert coding (Stan & Burleson, 1995) — the general-purpose
    low-power baseline the paper contrasts with.

    Before driving a word, the encoder compares its Hamming distance to the
    previous bus value; if more than half the lines would flip, it drives
    the complement and asserts a dedicated invert line.  The invert line's
    own transitions are charged to the total, as in the original paper. *)

type t

(** [create ?width ()] is an encoder for a [width]-line data bus (default
    32); the invert line is extra.  Raises {!Width.Out_of_range} when
    [width] falls outside {!Width.min_width}..{!Width.max_width}. *)
val create : ?width:int -> unit -> t

(** [encode t word] is [(bus_word, invert)] actually driven. *)
val encode : t -> int -> int * bool

(** [decode ~width (bus_word, invert)] restores the original word. *)
val decode : width:int -> int * bool -> int

(** [transitions t] is the running total including the invert line. *)
val transitions : t -> int

(** [history t] packs the bus history — the last driven word, the invert
    line, and whether any word was driven yet — into one int.  Encoders
    with equal histories drive every later word identically. *)
val history : t -> int

(** [resume t h] restores a history taken by {!history} from an encoder of
    the same width and zeroes the running total, so {!transitions} then
    counts from that point on. *)
val resume : t -> int -> unit

(** [reset t] clears bus history and the running total. *)
val reset : t -> unit

(** [count_stream ?width words] encodes a whole stream and returns its
    total transitions (data lines + invert line). *)
val count_stream : ?width:int -> int array -> int
