(* The shared JSON codec: escape/parse round-trips over arbitrary bytes,
   the Int/Float split at the edges of the int range, \u decoding to
   UTF-8, and a typed error for each malformed input. *)

let parse s =
  match Jsonu.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%S: %s" s (Jsonu.error_to_string e)

let check_value what expected s =
  Alcotest.(check bool) what true (parse s = expected)

let error_kind s =
  match Jsonu.of_string s with
  | Ok _ -> Alcotest.failf "%S parsed, expected an error" s
  | Error e -> e.Jsonu.kind

let test_int_float_split () =
  check_value "max_int stays Int" (Jsonu.Int max_int) (string_of_int max_int);
  check_value "min_int stays Int" (Jsonu.Int min_int) (string_of_int min_int);
  check_value "1.0 is Float" (Jsonu.Float 1.0) "1.0";
  check_value "1e300 is Float" (Jsonu.Float 1e300) "1e300";
  check_value "3 is Int" (Jsonu.Int 3) "3";
  Alcotest.(check (option (float 0.)))
    "3 and 3.0 read alike" (Jsonu.to_float (parse "3.0"))
    (Jsonu.to_float (parse "3"))

let test_unicode_escapes () =
  check_value "\\u00e9 is UTF-8 e-acute" (Jsonu.Str "\xc3\xa9") {|"\u00e9"|};
  check_value "\\u20ac is three bytes" (Jsonu.Str "\xe2\x82\xac") {|"\u20AC"|};
  check_value "ASCII escape" (Jsonu.Str "A\n") {|"A\n"|}

let test_document () =
  check_value "nested document"
    (Jsonu.Obj
       [
         ("a", Jsonu.Arr [ Jsonu.Int 1; Jsonu.Float (-2.5); Jsonu.Null ]);
         ("b", Jsonu.Obj [ ("c", Jsonu.Bool true) ]);
         ("d", Jsonu.Arr []);
       ])
    {| { "a" : [1, -2.5, null], "b": {"c": true}, "d": [] } |}

let test_typed_errors () =
  let kind =
    Alcotest.testable (fun fmt _ -> Format.pp_print_string fmt "<kind>") ( = )
  in
  Alcotest.check kind "trailing content" Jsonu.Trailing_content
    (error_kind "{} x");
  Alcotest.check kind "unterminated string" Jsonu.Unterminated_string
    (error_kind {|"abc|});
  Alcotest.check kind "integer out of range"
    (Jsonu.Int_out_of_range "9223372036854775808")
    (error_kind "9223372036854775808");
  Alcotest.check kind "bad escape" Jsonu.Bad_escape (error_kind {|"\q"|});
  Alcotest.check kind "missing comma" (Jsonu.Expected "',' or ']'")
    (error_kind "[1 2]");
  Alcotest.check kind "empty input" Jsonu.Unexpected_end (error_kind "  ");
  Alcotest.(check string)
    "message names the byte" "trailing content at byte 3"
    (Jsonu.error_to_string { Jsonu.kind = Jsonu.Trailing_content; pos = 3 })

(* Any byte string survives escape-then-parse, control and non-ASCII
   bytes included. *)
let qcheck_escape_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"escape/parse round-trips any bytes"
    QCheck.string (fun s ->
      Jsonu.of_string ("\"" ^ Jsonu.escape s ^ "\"") = Ok (Jsonu.Str s))

let qcheck_int_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"every int parses back as Int" QCheck.int
    (fun i -> Jsonu.of_string (string_of_int i) = Ok (Jsonu.Int i))

let () =
  Alcotest.run "jsonu"
    [
      ( "codec",
        [
          Alcotest.test_case "Int/Float split" `Quick test_int_float_split;
          Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
          Alcotest.test_case "nested document" `Quick test_document;
          Alcotest.test_case "typed errors" `Quick test_typed_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_escape_roundtrip; qcheck_int_roundtrip ] );
    ]
