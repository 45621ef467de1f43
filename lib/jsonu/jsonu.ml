(* The repo's one JSON codec: the string escape every hand-rolled exporter
   shares, and a recursive-descent reader for the documents they write. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

type error_kind =
  | Unexpected_end
  | Unterminated_string
  | Bad_escape
  | Bad_number of string
  | Int_out_of_range of string
  | Expected of string
  | Trailing_content

type error = { kind : error_kind; pos : int }

let error_to_string { kind; pos } =
  let what =
    match kind with
    | Unexpected_end -> "unexpected end of input"
    | Unterminated_string -> "unterminated string"
    | Bad_escape -> "bad escape"
    | Bad_number tok -> Printf.sprintf "bad number %S" tok
    | Int_out_of_range tok -> Printf.sprintf "integer out of range %S" tok
    | Expected what -> "expected " ^ what
    | Trailing_content -> "trailing content"
  in
  Printf.sprintf "%s at byte %d" what pos

exception Fail of error

type state = { s : string; mutable pos : int }

let fail st kind = raise (Fail { kind; pos = st.pos })
let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st (Expected (Printf.sprintf "'%c'" c))

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Expected word)

(* a code point of the Basic Multilingual Plane, as UTF-8 *)
let add_utf8 b code =
  let byte x = Buffer.add_char b (Char.chr x) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xc0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3f))
  end
  else begin
    byte (0xe0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3f));
    byte (0x80 lor (code land 0x3f))
  end

(* the four hex digits after a "\u" *)
let hex4 st =
  if st.pos + 4 > String.length st.s then fail st Bad_escape;
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> fail st Bad_escape
  in
  let code = ref 0 in
  for i = 0 to 3 do
    code := (!code lsl 4) lor digit st.s.[st.pos + i]
  done;
  st.pos <- st.pos + 4;
  !code

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st Unterminated_string
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        (match peek st with
        | None -> fail st Unterminated_string
        | Some c -> (
            advance st;
            match c with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | '"' | '\\' | '/' -> Buffer.add_char b c
            | 'u' -> add_utf8 b (hex4 st)
            | _ -> fail st Bad_escape));
        go ()
    | Some c ->
        advance st;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

(* A token of digits and '-' alone is an integer and must fit an OCaml
   int; anything with '.', an exponent or '+' is a float. *)
let parse_number st =
  let start = st.pos in
  let numchar = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek st with Some c -> numchar c | None -> false do
    advance st
  done;
  let tok = String.sub st.s start (st.pos - start) in
  let integral = String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) tok in
  match (integral, int_of_string_opt tok, float_of_string_opt tok) with
  | true, Some i, _ -> Int i
  | true, None, Some _ -> raise (Fail { kind = Int_out_of_range tok; pos = start })
  | false, _, Some f -> Float f
  | _ -> raise (Fail { kind = Bad_number tok; pos = start })

(* The comma-separated [item]s of an object or array, up to [close]. *)
let sequence st close item =
  advance st;
  skip_ws st;
  if peek st = Some close then begin
    advance st;
    []
  end
  else
    let rec go acc =
      let acc = item () :: acc in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          go acc
      | Some c when c = close ->
          advance st;
          List.rev acc
      | None -> fail st Unexpected_end
      | Some _ -> fail st (Expected (Printf.sprintf "',' or '%c'" close))
    in
    go []

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st Unexpected_end
  | Some '{' ->
      Obj
        (sequence st '}' (fun () ->
             skip_ws st;
             let key = parse_string st in
             skip_ws st;
             expect st ':';
             (key, parse_value st)))
  | Some '[' -> Arr (sequence st ']' (fun () -> parse_value st))
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some _ -> fail st (Expected "a JSON value")

let of_string s =
  let st = { s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail st Trailing_content;
    v
  with
  | v -> Ok v
  | exception Fail e -> Error e

(* ---- accessors -------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
