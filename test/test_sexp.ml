(* Tests for the s-expression reader/printer used by the on-disk
   application model. *)

open Mekong

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* Exactly one form, through the reader's one entry point. *)
let parse s =
  match Sexp.parse_many s with
  | [ x ] -> x
  | forms ->
    raise (Sexp.Parse_error (Printf.sprintf "%d forms, expected one" (List.length forms)))

let roundtrip x = Sexp.to_string (parse (Sexp.to_string x))

let test_print () =
  checks "atom" "foo" (Sexp.to_string (Sexp.atom "foo"));
  checks "int" "-42" (Sexp.to_string (Sexp.int (-42)));
  checks "list" "(a b (c 1))"
    (Sexp.to_string
       Sexp.(list [ atom "a"; atom "b"; list [ atom "c"; int 1 ] ]));
  checks "empty list" "()" (Sexp.to_string (Sexp.list []));
  checks "quoted" "\"a b\"" (Sexp.to_string (Sexp.atom "a b"));
  checks "escapes" "\"a\\\"b\"" (Sexp.to_string (Sexp.atom "a\"b"))

let test_parse () =
  (match parse "(hello (world 42))" with
   | Sexp.List [ Sexp.Atom "hello"; Sexp.List [ Sexp.Atom "world"; n ] ] ->
     Alcotest.(check int) "nested int" 42 (Sexp.as_int n)
   | _ -> Alcotest.fail "bad parse");
  (match parse "  atom  " with
   | Sexp.Atom "atom" -> ()
   | _ -> Alcotest.fail "atom with spaces");
  (match parse "(a ; comment\n b)" with
   | Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b" ] -> ()
   | _ -> Alcotest.fail "comment skipping");
  (match parse "\"with space\"" with
   | Sexp.Atom "with space" -> ()
   | _ -> Alcotest.fail "quoted atom")

let test_parse_errors () =
  let fails s =
    match parse s with
    | exception Sexp.Parse_error _ -> true
    | _ -> false
  in
  checkb "unterminated list" true (fails "(a b");
  checkb "stray paren" true (fails ")");
  checkb "trailing garbage" true (fails "(a) b");
  checkb "unterminated string" true (fails "\"abc");
  checkb "empty input" true (fails "")

let test_parse_many () =
  let forms = Sexp.parse_many "(a 1) (b 2)\n(c 3)" in
  Alcotest.(check int) "three forms" 3 (List.length forms)

let test_fields () =
  let x = parse "((name foo) (dims 1 2 3) (flag))" in
  checks "field name" "foo" (Sexp.as_atom (List.hd (Sexp.field "name" x)));
  Alcotest.(check int) "field dims" 3 (List.length (Sexp.field "dims" x));
  checkb "field_opt present" true (Sexp.field_opt "flag" x <> None);
  checkb "field_opt absent" true (Sexp.field_opt "nope" x = None);
  checkb "field missing raises" true
    (match Sexp.field "nope" x with
     | exception Sexp.Parse_error _ -> true
     | _ -> false)

let gen_sexp =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          map (fun s -> Sexp.Atom s)
            (oneof
               [ string_size ~gen:(char_range 'a' 'z') (int_range 1 8);
                 return "with space";
                 return "quote\"inside";
                 map string_of_int int ])
        else
          frequency
            [ (1, map (fun s -> Sexp.Atom s)
                 (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)));
              (2, map (fun l -> Sexp.List l)
                 (list_size (int_range 0 4) (self (n / 2)))) ]))

let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:300
    (QCheck.make ~print:Sexp.to_string gen_sexp)
    (fun x -> parse (Sexp.to_string x) = x)

let prop_roundtrip_stable =
  QCheck.Test.make ~name:"roundtrip is stable" ~count:100
    (QCheck.make ~print:Sexp.to_string gen_sexp)
    (fun x -> roundtrip x = Sexp.to_string x)

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "sexp"
    [
      ( "sexp",
        [
          Alcotest.test_case "printing" `Quick test_print;
          Alcotest.test_case "parsing" `Quick test_parse;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "parse_many" `Quick test_parse_many;
          Alcotest.test_case "fields" `Quick test_fields;
          qtest prop_roundtrip;
          qtest prop_roundtrip_stable;
        ] );
    ]
