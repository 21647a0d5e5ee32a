(* Self-contained JSON: a value type, a pretty emitter, and a minimal
   strict parser.

   The emitter is the single source of truth for every JSON artifact
   the tree produces (Chrome traces, profile and serve reports, causal
   DAG dumps); the parser exists so those artifacts can be
   *checked* — round-trip tests for the escaper and structural
   validation of exported traces — without dragging a JSON package
   into the build. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- Emission ---------------------------------------------------------- *)

(* Escape per RFC 8259: the two mandatory characters plus short forms
   for the common control characters, and \u00XX for every remaining
   code point below U+0020.  Bytes >= 0x20 pass through untouched
   (strings are assumed UTF-8). *)
let escape buf s =
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\b' -> Buffer.add_string buf "\\b"
       | '\012' -> Buffer.add_string buf "\\f"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s

(* Shortest decimal that round-trips; JSON has no NaN/infinity, so
   non-finite values serialize as null. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* "%g" can print "1" or "1e+06": both are valid JSON numbers. *)
    s

let rec emit buf indent j =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
         if i > 0 then Buffer.add_string buf ",\n";
         pad (indent + 2);
         emit buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_string buf ",\n";
         pad (indent + 2);
         Buffer.add_char buf '"';
         escape buf k;
         Buffer.add_string buf "\": ";
         emit buf (indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  emit buf 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write ~file j =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string j))

(* --- Parsing ----------------------------------------------------------- *)

exception Parse_error of string

(* Recursive-descent parser over the whole input string.  Strict where
   it matters for validation (escape sequences, literals, structure);
   numbers are handed to [int_of_string]/[float_of_string] after a
   permissive scan. *)
type cursor = { src : string; mutable pos : int }

let error cur fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "at byte %d: %s" cur.pos m)))
    fmt

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let continue_ = ref true in
  while !continue_ do
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') -> advance cur
    | _ -> continue_ := false
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | Some c' -> error cur "expected %C, found %C" c c'
  | None -> error cur "expected %C, found end of input" c

let expect_lit cur lit value =
  let n = String.length lit in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = lit
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else error cur "invalid literal (expected %s)" lit

(* UTF-8 encode one scalar value (escape decoding). *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 cur =
  let digit () =
    match peek cur with
    | Some c ->
      advance cur;
      (match c with
       | '0' .. '9' -> Char.code c - Char.code '0'
       | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
       | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
       | _ -> error cur "invalid \\u escape digit %C" c)
    | None -> error cur "truncated \\u escape"
  in
  let a = digit () in
  let b = digit () in
  let c = digit () in
  let d = digit () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
       | None -> error cur "truncated escape"
       | Some c ->
         advance cur;
         (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let u = hex4 cur in
            (* Combine a high surrogate with its following low
               surrogate; a lone surrogate is a validation failure. *)
            if u >= 0xD800 && u <= 0xDBFF then begin
              expect cur '\\';
              expect cur 'u';
              let lo = hex4 cur in
              if lo < 0xDC00 || lo > 0xDFFF then
                error cur "high surrogate not followed by a low surrogate";
              add_utf8 buf
                (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else if u >= 0xDC00 && u <= 0xDFFF then
              error cur "lone low surrogate"
            else add_utf8 buf u
          | c -> error cur "invalid escape \\%C" c));
      go ()
    | Some c when Char.code c < 0x20 ->
      error cur "raw control character 0x%02x in string" (Char.code c)
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  let continue_ = ref true in
  while !continue_ do
    match peek cur with
    | Some ('0' .. '9' | '-' | '+') -> advance cur
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance cur
    | _ -> continue_ := false
  done;
  let s = String.sub cur.src start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> error cur "invalid number %S" s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> error cur "invalid number %S" s)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some '"' -> Str (parse_string cur)
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance cur;
          Obj (List.rev ((k, v) :: acc))
        | _ -> error cur "expected ',' or '}' in object"
      in
      fields []
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List (List.rev (v :: acc))
        | _ -> error cur "expected ',' or ']' in array"
      in
      items []
    end
  | Some 't' -> expect_lit cur "true" (Bool true)
  | Some 'f' -> expect_lit cur "false" (Bool false)
  | Some 'n' -> expect_lit cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> error cur "unexpected character %C" c

let parse s =
  let cur = { src = s; pos = 0 } in
  try
    let v = parse_value cur in
    skip_ws cur;
    (match peek cur with
     | Some c -> error cur "trailing garbage starting with %C" c
     | None -> ());
    Ok v
  with Parse_error m -> Error m

(* --- Accessors (for validators and tests) ------------------------------ *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
