(* Parser for the toy CUDA surface syntax.

   {!Cusrc.render} prints kernels and host programs as a small CUDA
   subset; this module parses that subset back, so the toolchain can be
   driven from .cu text files (`mekongc compile-file`) and the
   renderer/parser pair is round-trip tested.

   The grammar covers exactly what the kernel IR can express:

   - kernels: [__global__ void name(params) { stmts }] where array
     parameters carry their extents in a trailing comment
     ([float *a /* [n][n] * /]);
   - statements: [auto x = e;], [x = e;], [a[e]...[e] = e;],
     [if (e) { ... } else { ... }], [for (int k = e; k < e; k++) { ... }],
     [__syncthreads();];
   - expressions with C precedence over the IR's operators, the grid
     specials ([threadIdx.x] etc.), [min/max/sqrtf/rsqrtf/fabsf] calls
     and float literals with an [f] suffix;
   - a [main()] made of cudaMalloc/cudaMemcpy/launch/for/std::swap/
     cudaFree/cudaDeviceSynchronize statements (host data referenced by
     memcpys becomes phantom arrays: text carries no element values). *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* --- Lexer ------------------------------------------------------------ *)

type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Punct of string (* operators and punctuation, longest match *)
  | Eof

(* [tok_start] is the offset of [tok]'s first character; [pos] is
   already past it. *)
type lexer = { src : string; mutable pos : int; mutable tok : token;
               mutable tok_start : int; mutable dims_note : string option }

(* Line and column (both from 1) of byte offset [pos]: computed only
   when a diagnostic is raised, so lexing keeps no line count. *)
let line_col src pos =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to min pos (String.length src) - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, pos - !bol + 1)

(* Raise {!Error} with the message followed by " at LINE:COL" of [pos]. *)
let fail_pos lx pos fmt =
  Printf.ksprintf
    (fun s ->
       let line, col = line_col lx.src pos in
       raise (Error (Printf.sprintf "%s at %d:%d" s line col)))
    fmt

(* The same at the current token. *)
let fail_at lx fmt = fail_pos lx lx.tok_start fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* Skip blanks, comments and preprocessor lines.  A comment of the
   shape [/* [a][b] * /] is remembered as a dims annotation for the
   most recent parameter. *)
let rec skip_ws lx n =
  if lx.pos < n then
    match lx.src.[lx.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
      lx.pos <- lx.pos + 1;
      skip_ws lx n
    | '/' when lx.pos + 1 < n && lx.src.[lx.pos + 1] = '/' ->
      while lx.pos < n && lx.src.[lx.pos] <> '\n' do
        lx.pos <- lx.pos + 1
      done;
      skip_ws lx n
    | '/' when lx.pos + 1 < n && lx.src.[lx.pos + 1] = '*' ->
      let start = lx.pos + 2 in
      let rec find i =
        if i + 1 >= n then fail_pos lx lx.pos "unterminated comment"
        else if lx.src.[i] = '*' && lx.src.[i + 1] = '/' then i
        else find (i + 1)
      in
      let stop = find start in
      lx.dims_note <- Some (String.trim (String.sub lx.src start (stop - start)));
      lx.pos <- stop + 2;
      skip_ws lx n
    | '#' ->
      (* preprocessor lines are ignored *)
      while lx.pos < n && lx.src.[lx.pos] <> '\n' do
        lx.pos <- lx.pos + 1
      done;
      skip_ws lx n
    | _ -> ()

(* The character [k] places past [pos], or NUL past the end. *)
let ahead lx n k = if lx.pos + k < n then lx.src.[lx.pos + k] else '\000'

let emit lx tok len =
  lx.pos <- lx.pos + len;
  lx.tok <- tok

(* Digits, '.', 'e' and an exponent's sign, scanned once; a '.' or an
   'e' makes the literal a float, as does an 'f' suffix. *)
let lex_number lx n =
  let start = lx.pos in
  let is_float = ref false and scanning = ref true in
  while !scanning && lx.pos < n do
    (match lx.src.[lx.pos] with
     | '0' .. '9' -> ()
     | '.' | 'e' -> is_float := true
     | ('+' | '-') when lx.src.[lx.pos - 1] = 'e' -> ()
     | _ -> scanning := false);
    if !scanning then lx.pos <- lx.pos + 1
  done;
  let text = String.sub lx.src start (lx.pos - start) in
  if lx.pos < n && lx.src.[lx.pos] = 'f' then begin
    is_float := true;
    lx.pos <- lx.pos + 1
  end;
  if !is_float then
    match float_of_string_opt text with
    | Some f -> lx.tok <- Float_lit f
    | None -> fail_at lx "malformed float literal %s" text
  else if String.length text > 1 && text.[0] = '0' then
    (* C reads a leading zero as octal; the toy syntax has no octal. *)
    fail_at lx "integer literal %s has a leading zero" text
  else
    match int_of_string_opt text with
    | Some i -> lx.tok <- Int_lit i
    | None -> fail_at lx "integer literal %s out of range" text

(* Punctuation: dispatch on the first character, then take the longest
   spelling the next one or two characters allow.  Every token is a
   constant, so none is allocated. *)
let lex_punct lx n c =
  match c with
  | '(' -> emit lx (Punct "(") 1
  | ')' -> emit lx (Punct ")") 1
  | '{' -> emit lx (Punct "{") 1
  | '}' -> emit lx (Punct "}") 1
  | '[' -> emit lx (Punct "[") 1
  | ']' -> emit lx (Punct "]") 1
  | ';' -> emit lx (Punct ";") 1
  | ',' -> emit lx (Punct ",") 1
  | '-' -> emit lx (Punct "-") 1
  | '*' -> emit lx (Punct "*") 1
  | '/' -> emit lx (Punct "/") 1
  | '%' -> emit lx (Punct "%") 1
  | '.' -> emit lx (Punct ".") 1
  | '<' ->
    if ahead lx n 1 = '<' && ahead lx n 2 = '<' then emit lx (Punct "<<<") 3
    else if ahead lx n 1 = '=' then emit lx (Punct "<=") 2
    else emit lx (Punct "<") 1
  | '>' ->
    if ahead lx n 1 = '>' && ahead lx n 2 = '>' then emit lx (Punct ">>>") 3
    else if ahead lx n 1 = '=' then emit lx (Punct ">=") 2
    else emit lx (Punct ">") 1
  | '=' -> if ahead lx n 1 = '=' then emit lx (Punct "==") 2 else emit lx (Punct "=") 1
  | '!' -> if ahead lx n 1 = '=' then emit lx (Punct "!=") 2 else emit lx (Punct "!") 1
  | '&' -> if ahead lx n 1 = '&' then emit lx (Punct "&&") 2 else emit lx (Punct "&") 1
  | '+' -> if ahead lx n 1 = '+' then emit lx (Punct "++") 2 else emit lx (Punct "+") 1
  | '|' when ahead lx n 1 = '|' -> emit lx (Punct "||") 2
  | ':' when ahead lx n 1 = ':' -> emit lx (Punct "::") 2
  | _ -> fail_at lx "unexpected character %c" c

(* Advance to the next token. *)
let next_token lx =
  let n = String.length lx.src in
  skip_ws lx n;
  lx.tok_start <- lx.pos;
  if lx.pos >= n then lx.tok <- Eof
  else begin
    let c = lx.src.[lx.pos] in
    if is_ident_start c then begin
      let start = lx.pos in
      while lx.pos < n && is_ident_char lx.src.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      lx.tok <- Ident (String.sub lx.src start (lx.pos - start))
    end
    else if is_digit c then lex_number lx n
    else lex_punct lx n c
  end

let make_lexer src =
  let lx = { src; pos = 0; tok = Eof; tok_start = 0; dims_note = None } in
  next_token lx;
  lx

let tokens src =
  let lx = make_lexer src in
  let rec go acc =
    match lx.tok with
    | Eof -> List.rev acc
    | t ->
      next_token lx;
      go (t :: acc)
  in
  go []

let peek lx = lx.tok

let advance lx = next_token lx

let expect_punct lx p =
  match lx.tok with
  | Punct q when q = p -> advance lx
  | t ->
    fail_at lx "expected '%s', got %s" p
      (match t with
       | Ident s -> s
       | Punct s -> "'" ^ s ^ "'"
       | Int_lit n -> string_of_int n
       | Float_lit f -> string_of_float f
       | Eof -> "<eof>")

let expect_ident lx name =
  match lx.tok with
  | Ident s when s = name -> advance lx
  | _ -> fail_at lx "expected '%s'" name

let take_ident lx =
  match lx.tok with
  | Ident s ->
    advance lx;
    s
  | _ -> fail_at lx "expected identifier"

let accept_punct lx p =
  match lx.tok with
  | Punct q when q = p ->
    advance lx;
    true
  | _ -> false

let accept_ident lx name =
  match lx.tok with
  | Ident s when s = name ->
    advance lx;
    true
  | _ -> false

(* --- Expressions ------------------------------------------------------ *)

let special_of lx base =
  (* base is threadIdx/blockIdx/blockDim/gridDim; expects ".axis" *)
  expect_punct lx ".";
  let axis =
    match take_ident lx with
    | "x" -> Dim3.X
    | "y" -> Dim3.Y
    | "z" -> Dim3.Z
    | a -> fail "bad axis %s" a
  in
  match base with
  | "threadIdx" -> Kir.Thread_idx axis
  | "blockIdx" -> Kir.Block_idx axis
  | "blockDim" -> Kir.Block_dim axis
  | "gridDim" -> Kir.Grid_dim axis
  | _ -> assert false

(* The set of names that are array parameters, passed down so [a[i]]
   parses as a load. *)
type ctx = { arrays : string list; scalars : string list }

let rec parse_expr lx ctx = parse_or lx ctx

and parse_or lx ctx =
  let lhs = ref (parse_and lx ctx) in
  while accept_punct lx "||" do
    !lhs |> fun l -> lhs := Kir.Binop (Kir.Or, l, parse_and lx ctx)
  done;
  !lhs

and parse_and lx ctx =
  let lhs = ref (parse_cmp lx ctx) in
  while accept_punct lx "&&" do
    !lhs |> fun l -> lhs := Kir.Binop (Kir.And, l, parse_cmp lx ctx)
  done;
  !lhs

and parse_cmp lx ctx =
  let lhs = parse_add lx ctx in
  let op =
    if accept_punct lx "<=" then Some Kir.Le
    else if accept_punct lx ">=" then Some Kir.Ge
    else if accept_punct lx "==" then Some Kir.Eq
    else if accept_punct lx "!=" then Some Kir.Ne
    else if accept_punct lx "<" then Some Kir.Lt
    else if accept_punct lx ">" then Some Kir.Gt
    else None
  in
  match op with
  | Some op -> Kir.Binop (op, lhs, parse_add lx ctx)
  | None -> lhs

and parse_add lx ctx =
  let lhs = ref (parse_mul lx ctx) in
  let rec go () =
    if accept_punct lx "+" then begin
      !lhs |> fun l -> lhs := Kir.Binop (Kir.Add, l, parse_mul lx ctx);
      go ()
    end
    else if accept_punct lx "-" then begin
      !lhs |> fun l -> lhs := Kir.Binop (Kir.Sub, l, parse_mul lx ctx);
      go ()
    end
  in
  go ();
  !lhs

and parse_mul lx ctx =
  let lhs = ref (parse_unary lx ctx) in
  let rec go () =
    if accept_punct lx "*" then begin
      !lhs |> fun l -> lhs := Kir.Binop (Kir.Mul, l, parse_unary lx ctx);
      go ()
    end
    else if accept_punct lx "/" then begin
      !lhs |> fun l -> lhs := Kir.Binop (Kir.Div, l, parse_unary lx ctx);
      go ()
    end
    else if accept_punct lx "%" then begin
      !lhs |> fun l -> lhs := Kir.Binop (Kir.Imod, l, parse_unary lx ctx);
      go ()
    end
  in
  go ();
  !lhs

and parse_unary lx ctx =
  if accept_punct lx "-" then Kir.Unop (Kir.Neg, parse_unary lx ctx)
  else if accept_punct lx "!" then Kir.Unop (Kir.Not, parse_unary lx ctx)
  else parse_primary lx ctx

and parse_primary lx ctx =
  match peek lx with
  | Int_lit n ->
    advance lx;
    Kir.Iconst n
  | Float_lit f ->
    advance lx;
    Kir.Fconst f
  | Punct "(" ->
    advance lx;
    let e = parse_expr lx ctx in
    expect_punct lx ")";
    e
  | Ident ("threadIdx" | "blockIdx" | "blockDim" | "gridDim") ->
    let base = take_ident lx in
    Kir.Special (special_of lx base)
  | Ident ("min" | "max" | "sqrtf" | "rsqrtf" | "fabsf") -> (
      let f = take_ident lx in
      expect_punct lx "(";
      let a = parse_expr lx ctx in
      match f with
      | "min" | "max" ->
        expect_punct lx ",";
        let b = parse_expr lx ctx in
        expect_punct lx ")";
        Kir.Binop ((if f = "min" then Kir.Minb else Kir.Maxb), a, b)
      | "sqrtf" ->
        expect_punct lx ")";
        Kir.Unop (Kir.Sqrt, a)
      | "rsqrtf" ->
        expect_punct lx ")";
        Kir.Unop (Kir.Rsqrt, a)
      | _ ->
        expect_punct lx ")";
        Kir.Unop (Kir.Abs, a))
  | Ident name ->
    advance lx;
    (* Names resolve in [Kir.check], which the kernel passes next. *)
    if peek lx = Punct "[" then Kir.Load (name, parse_subscripts lx ctx)
    else if List.mem name ctx.arrays then fail_at lx "array %s used without subscript" name
    else if List.mem name ctx.scalars then Kir.Param name
    else Kir.Var name
  | Punct p -> fail_at lx "unexpected '%s' in expression" p
  | Eof -> fail_at lx "unexpected end of input in expression"

(* [e]...[e], one or more. *)
and parse_subscripts lx ctx =
  let idx = ref [] in
  while accept_punct lx "[" do
    idx := parse_expr lx ctx :: !idx;
    expect_punct lx "]"
  done;
  if !idx = [] then fail_at lx "expected '['";
  List.rev !idx

(* --- Kernel statements -------------------------------------------------- *)

let rec parse_stmts lx ctx =
  let stmts = ref [] in
  while not (accept_punct lx "}") do
    if peek lx = Eof then fail_at lx "unterminated block";
    stmts := parse_stmt lx ctx :: !stmts
  done;
  List.rev !stmts

and parse_stmt lx ctx : Kir.stmt =
  match peek lx with
  | Ident "auto" ->
    advance lx;
    let name = take_ident lx in
    expect_punct lx "=";
    let e = parse_expr lx ctx in
    expect_punct lx ";";
    Kir.Local (name, e)
  | Ident "if" ->
    advance lx;
    expect_punct lx "(";
    let c = parse_expr lx ctx in
    expect_punct lx ")";
    expect_punct lx "{";
    let t = parse_stmts lx ctx in
    let f =
      if accept_ident lx "else" then begin
        expect_punct lx "{";
        parse_stmts lx ctx
      end
      else []
    in
    Kir.If (c, t, f)
  | Ident "for" ->
    advance lx;
    expect_punct lx "(";
    expect_ident lx "int";
    let var = take_ident lx in
    expect_punct lx "=";
    let from_ = parse_expr lx ctx in
    expect_punct lx ";";
    let v2 = take_ident lx in
    if v2 <> var then fail "for condition variable %s <> %s" v2 var;
    expect_punct lx "<";
    let to_ = parse_expr lx ctx in
    expect_punct lx ";";
    let v3 = take_ident lx in
    if v3 <> var then fail "for increment variable %s <> %s" v3 var;
    expect_punct lx "++";
    expect_punct lx ")";
    expect_punct lx "{";
    let body = parse_stmts lx ctx in
    Kir.For { var; from_; to_; body }
  | Ident "__syncthreads" ->
    advance lx;
    expect_punct lx "(";
    expect_punct lx ")";
    expect_punct lx ";";
    Kir.Syncthreads
  | Ident ("atomicAdd" | "atomicMin" | "atomicMax") ->
    (* atomicAdd(&a[e]..., e); *)
    let fn = take_ident lx in
    let op =
      match fn with
      | "atomicAdd" -> Kir.AAdd
      | "atomicMin" -> Kir.AMin
      | _ -> Kir.AMax
    in
    expect_punct lx "(";
    expect_punct lx "&";
    let name = take_ident lx in
    let idx = parse_subscripts lx ctx in
    expect_punct lx ",";
    let e = parse_expr lx ctx in
    expect_punct lx ")";
    expect_punct lx ";";
    Kir.Atomic (op, name, idx, e)
  | Ident name ->
    advance lx;
    if peek lx = Punct "[" then begin
      (* store: name[e]... = e; *)
      let idx = parse_subscripts lx ctx in
      expect_punct lx "=";
      let e = parse_expr lx ctx in
      expect_punct lx ";";
      Kir.Store (name, idx, e)
    end
    else begin
      expect_punct lx "=";
      let e = parse_expr lx ctx in
      expect_punct lx ";";
      Kir.Assign (name, e)
    end
  | _ -> fail_at lx "unexpected token in statement"

(* --- Kernel signatures --------------------------------------------------- *)

(* [n] or a constant inside one [..] of a dims annotation. *)
let parse_dims_note note =
  (* e.g. "[n][4]" *)
  let dims = ref [] in
  let i = ref 0 in
  let n = String.length note in
  while !i < n do
    if note.[!i] = '[' then begin
      let j = String.index_from note !i ']' in
      let inner = String.trim (String.sub note (!i + 1) (j - !i - 1)) in
      let d =
        match int_of_string_opt inner with
        | Some c -> Kir.Dim_const c
        | None -> Kir.Dim_param inner
      in
      dims := d :: !dims;
      i := j + 1
    end
    else incr i
  done;
  Array.of_list (List.rev !dims)

let parse_params lx =
  let params = ref [] in
  expect_punct lx "(";
  if not (accept_punct lx ")") then begin
    let rec one () =
      (match peek lx with
       | Ident "int" ->
         advance lx;
         let name = take_ident lx in
         params := Kir.Scalar name :: !params
       | Ident "float" ->
         advance lx;
         if accept_punct lx "*" then begin
           (* the dims annotation trails the name as a comment; the
              lexer records it while advancing past the name *)
           lx.dims_note <- None;
           let name = take_ident lx in
           let dims =
             match lx.dims_note with
             | Some note ->
               let d = parse_dims_note note in
               lx.dims_note <- None;
               d
             | None -> [||]
           in
           params := Kir.Array { name; dims } :: !params
         end
         else begin
           let name = take_ident lx in
           params := Kir.Fscalar name :: !params
         end
       | _ -> fail_at lx "bad parameter");
      if accept_punct lx "," then one () else expect_punct lx ")"
    in
    one ()
  end;
  List.rev !params

let ctx_of_params params =
  {
    arrays =
      List.filter_map
        (function Kir.Array { name; _ } -> Some name | _ -> None)
        params;
    scalars =
      List.filter_map
        (function Kir.Scalar n | Kir.Fscalar n -> Some n | _ -> None)
        params;
  }

let parse_kernel lx =
  expect_ident lx "__global__";
  expect_ident lx "void";
  let name = take_ident lx in
  let params = parse_params lx in
  expect_punct lx "{";
  let ctx = ctx_of_params params in
  let body = parse_stmts lx ctx in
  Kir.kernel ~name ~params body

(* --- Host main ------------------------------------------------------------ *)

let parse_launch_dim lx =
  match peek lx with
  | Int_lit n ->
    advance lx;
    Dim3.make n
  | Ident "dim3" ->
    advance lx;
    expect_punct lx "(";
    let x = match peek lx with Int_lit n -> advance lx; n | _ -> fail_at lx "dim3 x" in
    expect_punct lx ",";
    let y = match peek lx with Int_lit n -> advance lx; n | _ -> fail_at lx "dim3 y" in
    expect_punct lx ",";
    let z = match peek lx with Int_lit n -> advance lx; n | _ -> fail_at lx "dim3 z" in
    expect_punct lx ")";
    Dim3.make x ~y ~z
  | _ -> fail_at lx "expected launch dimension"

(* Parse "LEN * sizeof(float)" and return LEN. *)
let parse_size lx =
  let len = match peek lx with Int_lit n -> advance lx; n | _ -> fail_at lx "size" in
  expect_punct lx "*";
  expect_ident lx "sizeof";
  expect_punct lx "(";
  expect_ident lx "float";
  expect_punct lx ")";
  len

let rec parse_host_stmts lx ~kernels ~buffers acc =
  match peek lx with
  | Punct "}" ->
    advance lx;
    List.rev acc
  | Ident "float" ->
    (* float *name; cudaMalloc(&name, LEN * sizeof(float)); *)
    advance lx;
    expect_punct lx "*";
    let name = take_ident lx in
    expect_punct lx ";";
    expect_ident lx "cudaMalloc";
    expect_punct lx "(";
    expect_punct lx "&";
    let name2 = take_ident lx in
    if name2 <> name then fail "cudaMalloc of %s after declaring %s" name2 name;
    expect_punct lx ",";
    let len = parse_size lx in
    expect_punct lx ")";
    expect_punct lx ";";
    Hashtbl.replace buffers name len;
    parse_host_stmts lx ~kernels ~buffers (Host_ir.Malloc (name, len) :: acc)
  | Ident "cudaMemcpy" ->
    advance lx;
    expect_punct lx "(";
    let dst = take_ident lx in
    expect_punct lx ",";
    let src = take_ident lx in
    expect_punct lx ",";
    let len = parse_size lx in
    expect_punct lx ",";
    let dir = take_ident lx in
    expect_punct lx ")";
    expect_punct lx ";";
    let stmt =
      match dir with
      | "cudaMemcpyHostToDevice" ->
        Host_ir.Memcpy_h2d { dst; src = Host_ir.host_phantom len }
      | "cudaMemcpyDeviceToHost" ->
        Host_ir.Memcpy_d2h { dst = Host_ir.host_phantom len; src }
      | d -> fail "unsupported memcpy direction %s" d
    in
    parse_host_stmts lx ~kernels ~buffers (stmt :: acc)
  | Ident "cudaFree" ->
    advance lx;
    expect_punct lx "(";
    let name = take_ident lx in
    expect_punct lx ")";
    expect_punct lx ";";
    parse_host_stmts lx ~kernels ~buffers (Host_ir.Free name :: acc)
  | Ident "cudaDeviceSynchronize" ->
    advance lx;
    expect_punct lx "(";
    expect_punct lx ")";
    expect_punct lx ";";
    parse_host_stmts lx ~kernels ~buffers (Host_ir.Sync :: acc)
  | Ident "std" ->
    advance lx;
    expect_punct lx "::";
    expect_ident lx "swap";
    expect_punct lx "(";
    let a = take_ident lx in
    expect_punct lx ",";
    let b = take_ident lx in
    expect_punct lx ")";
    expect_punct lx ";";
    parse_host_stmts lx ~kernels ~buffers (Host_ir.Swap (a, b) :: acc)
  | Ident "for" ->
    advance lx;
    expect_punct lx "(";
    expect_ident lx "int";
    let _it = take_ident lx in
    expect_punct lx "=";
    (match peek lx with Int_lit 0 -> advance lx | _ -> fail_at lx "loop must start at 0");
    expect_punct lx ";";
    let _it2 = take_ident lx in
    expect_punct lx "<";
    let count = match peek lx with Int_lit n -> advance lx; n | _ -> fail_at lx "loop bound" in
    expect_punct lx ";";
    let _it3 = take_ident lx in
    expect_punct lx "++";
    expect_punct lx ")";
    expect_punct lx "{";
    let body = parse_host_stmts lx ~kernels ~buffers [] in
    parse_host_stmts lx ~kernels ~buffers (Host_ir.Repeat (count, body) :: acc)
  | Ident "return" ->
    advance lx;
    (match peek lx with Int_lit _ -> advance lx | _ -> ());
    expect_punct lx ";";
    parse_host_stmts lx ~kernels ~buffers acc
  | Ident name -> (
      (* kernel launch: name<<<G, B>>>(args); *)
      advance lx;
      match List.find_opt (fun k -> k.Kir.name = name) kernels with
      | None -> fail "unknown statement or kernel %s" name
      | Some kernel ->
        expect_punct lx "<<<";
        let grid = parse_launch_dim lx in
        expect_punct lx ",";
        let block = parse_launch_dim lx in
        expect_punct lx ">>>";
        expect_punct lx "(";
        let args = ref [] and params = ref kernel.Kir.params in
        let rec one () =
          (match (peek lx, !params) with
           | Int_lit n, _ ->
             advance lx;
             args := Host_ir.HInt n :: !args
           | Float_lit f, Kir.Scalar p :: _ ->
             fail_at lx "float argument %g bound to int parameter %s" f p
           | Float_lit f, _ ->
             advance lx;
             args := Host_ir.HFloat f :: !args
           | Ident b, _ ->
             advance lx;
             args := Host_ir.HBuf b :: !args
           | _ -> fail_at lx "bad launch argument");
          params := (match !params with _ :: rest -> rest | [] -> []);
          if accept_punct lx "," then one () else expect_punct lx ")"
        in
        if not (accept_punct lx ")") then one ();
        expect_punct lx ";";
        parse_host_stmts lx ~kernels ~buffers
          (Host_ir.Launch { kernel; grid; block; args = List.rev !args } :: acc))
  | _ -> fail_at lx "unexpected token in host code"

(* --- Translation unit ------------------------------------------------------ *)

(* Parse a full toy .cu translation unit into kernels plus a host
   program named after [name]. *)
let parse_cu ~name src =
  let lx = make_lexer src in
  let kernels = ref [] in
  let rec toplevel () =
    match peek lx with
    | Eof -> fail "no main() found"
    | Ident "__global__" ->
      let start = lx.tok_start in
      let k = parse_kernel lx in
      if List.exists (fun k' -> String.equal k'.Kir.name k.Kir.name) !kernels then
        fail "kernel %s is defined twice" k.Kir.name;
      (match Kir.check k with
       | Ok () -> ()
       | Error m -> fail_pos lx start "kernel %s: %s" k.Kir.name m);
      kernels := k :: !kernels;
      toplevel ()
    | Ident "int" ->
      advance lx;
      expect_ident lx "main";
      expect_punct lx "(";
      expect_punct lx ")";
      expect_punct lx "{";
      let buffers = Hashtbl.create 8 in
      let body =
        parse_host_stmts lx ~kernels:(List.rev !kernels) ~buffers []
      in
      Host_ir.program ~name body
    | Ident other -> fail_at lx "unexpected top-level identifier %s" other
    | _ -> fail_at lx "unexpected top-level token"
  in
  let prog = toplevel () in
  (List.rev !kernels, prog)
