(** The repo's one JSON codec (it carries no JSON dependency).

    Writers stay hand-rolled, each with its own layout; they share only
    {!escape}.  Readers (the bench gate, the trend gate, the event log)
    share {!of_string}, which accepts the standard grammar and gives back
    a tree. *)

(** [escape s] is [s] ready to sit between double quotes: the double
    quote, the backslash and newline get their short escapes, other
    control bytes a [\\u00XX] escape.  Every other byte, including
    non-ASCII, passes through unchanged. *)
val escape : string -> string

(** A parsed document.  A number made only of digits and ['-'] is an
    [Int]; one with ['.'], an exponent or ['+'] is a [Float]. *)
type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

type error_kind =
  | Unexpected_end
  | Unterminated_string
  | Bad_escape
  | Bad_number of string
  | Int_out_of_range of string  (** an integer token beyond [min_int..max_int] *)
  | Expected of string  (** what the parser wanted at [pos] *)
  | Trailing_content  (** anything but whitespace after the value *)

(** [pos] is the byte offset where parsing stopped. *)
type error = { kind : error_kind; pos : int }

(** ["<what> at byte <pos>"]. *)
val error_to_string : error -> string

(** [of_string s] parses one JSON value filling all of [s] (surrounding
    whitespace allowed).  A [\\uXXXX] escape decodes to the UTF-8 bytes of
    that one code point; raw bytes in strings are kept as they are. *)
val of_string : string -> (t, error) result

(** {2 Accessors} *)

(** [member key v] is the first member named [key] when [v] is an
    object. *)
val member : string -> t -> t option

val to_int : t -> int option

(** The one numeric accessor: [Int] and [Float] both give a float, so a
    number written [3] and one written [3.0] read the same. *)
val to_float : t -> float option

val to_string_opt : t -> string option
