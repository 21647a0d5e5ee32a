(* isl-style code generation: turn polyhedra into loop-nest ASTs.

   The generator follows the classic "project and bound" scheme: for
   each dimension, the polyhedron is projected onto the outer
   dimensions, and the dimension's loop bounds are the max of its lower
   bounds and the min of its upper bounds, each a closed-form expression
   over parameters and outer loop variables (paper §6.1).  ASTs can be
   pretty-printed as C-like text or "compiled" into OCaml closures. *)

type expr =
  | Int of int
  | Var of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Fdiv of expr * expr (* floor division *)
  | Cdiv of expr * expr (* ceiling division *)
  | Min of expr * expr
  | Max of expr * expr

type stmt =
  | Seq of stmt list
  | For of { var : string; lb : expr; ub : expr; body : stmt } (* ub inclusive *)
  | Guard of expr list * stmt (* all exprs >= 0 *)
  | Emit of expr array (* one point of the set *)
  | Emit_range of expr array * expr * expr
    (* row coordinates, then inclusive bounds of the innermost dim *)

(* --- Expression simplification ---------------------------------------- *)

let rec simp e =
  match e with
  | Int _ | Var _ -> e
  | Add (a, b) -> (
      match (simp a, simp b) with
      | Int x, Int y -> Int (x + y)
      | Int 0, b -> b
      | a, Int 0 -> a
      (* Canonical form keeps the constant on the right. *)
      | Int c, b -> simp (Add (b, Int c))
      | Add (x, Int c1), Int c2 -> simp (Add (x, Int (c1 + c2)))
      | a, Add (x, Int c) -> simp (Add (Add (a, x), Int c))
      | a, b -> Add (a, b))
  | Sub (a, b) -> (
      match (simp a, simp b) with
      | Int x, Int y -> Int (x - y)
      | a, Int 0 -> a
      | a, b when a = b -> Int 0
      | a, Int c -> simp (Add (a, Int (-c)))
      | a, b -> Sub (a, b))
  | Mul (a, b) -> (
      match (simp a, simp b) with
      | Int x, Int y -> Int (x * y)
      | Int 0, _ | _, Int 0 -> Int 0
      | Int 1, b -> b
      | a, Int 1 -> a
      | a, b -> Mul (a, b))
  | Fdiv (a, b) -> (
      match (simp a, simp b) with
      | Int x, Int y when y <> 0 -> Int (Ints.fdiv x y)
      | a, Int 1 -> a
      | a, b -> Fdiv (a, b))
  | Cdiv (a, b) -> (
      match (simp a, simp b) with
      | Int x, Int y when y <> 0 -> Int (Ints.cdiv x y)
      | a, Int 1 -> a
      | a, b -> Cdiv (a, b))
  | Min (a, b) -> (
      match (simp a, simp b) with
      | Int x, Int y -> Int (min x y)
      | a, b when a = b -> a
      | a, b -> Min (a, b))
  | Max (a, b) -> (
      match (simp a, simp b) with
      | Int x, Int y -> Int (max x y)
      | a, b when a = b -> a
      | a, b -> Max (a, b))

(* Expression for an affine form, naming variables through the space. *)
let expr_of_aff aff =
  let space = Aff.space aff in
  let acc = ref (Int (Aff.constant aff)) in
  for i = 0 to Space.n_total space - 1 do
    let c = Aff.coeff aff i in
    if c <> 0 then
      acc := Add (!acc, Mul (Int c, Var (Space.var_name space i)))
  done;
  simp !acc

(* --- Bound expressions ------------------------------------------------ *)

(* Lower-bound expression for a variable from (a, rest) pairs meaning
   x >= ceil(rest / a): the max over all pairs, or None if unbounded. *)
let lower_bound_expr pairs =
  List.fold_left
    (fun acc (a, rest) ->
       let e = simp (Cdiv (expr_of_aff rest, Int a)) in
       match acc with None -> Some e | Some m -> Some (simp (Max (m, e))))
    None pairs

let upper_bound_expr pairs =
  List.fold_left
    (fun acc (a, rest) ->
       let e = simp (Fdiv (expr_of_aff rest, Int a)) in
       match acc with None -> Some e | Some m -> Some (simp (Min (m, e))))
    None pairs

exception Unbounded of string

(* --- Loop-nest generation --------------------------------------------- *)

(* Generate a loop nest scanning all integer points of a convex
   polyhedron, dims in declaration order (outermost first).
   [emit_ranges] replaces the innermost loop with an [Emit_range].
   Raises [Unbounded] if a dimension has no lower or upper bound. *)
let scan_poly ?(emit_ranges = false) p =
  let space = Poly.space p in
  let np = Space.n_params space in
  let nd = Space.n_dims space in
  if Poly.is_trivially_empty p then Seq []
  else begin
    (* proj.(i): the polyhedron with dims > i eliminated. *)
    let proj = Array.make nd p in
    for i = nd - 2 downto 0 do
      proj.(i) <- Poly.eliminate_var proj.(i + 1) (np + i + 1)
    done;
    let dim_name i = Space.var_name space (np + i) in
    let bound i =
      let lows, ups = Poly.bounds_of_var proj.(i) (np + i) in
      let lb =
        match lower_bound_expr lows with
        | Some e -> e
        | None -> raise (Unbounded (dim_name i))
      and ub =
        match upper_bound_expr ups with
        | Some e -> e
        | None -> raise (Unbounded (dim_name i))
      in
      (lb, ub)
    in
    let rec build i =
      if i = nd - 1 && emit_ranges then
        let lb, ub = bound i in
        Emit_range (Array.init (nd - 1) (fun j -> Var (dim_name j)), lb, ub)
      else if i = nd then Emit (Array.init nd (fun j -> Var (dim_name j)))
      else
        let lb, ub = bound i in
        For { var = dim_name i; lb; ub; body = build (i + 1) }
    in
    if Array.exists Poly.is_trivially_empty proj then
      (* Elimination exposed a false row the input did not show: the
         set is empty, and its projections have no bounds. *)
      Seq []
    else if nd = 0 then
      (* Zero-dimensional: the set is a single point if the (parameter)
         constraints hold.  Equalities contribute both sides. *)
      let conds =
        List.concat_map
          (fun c ->
             let e = expr_of_aff (Constr.aff c) in
             match Constr.kind c with
             | Constr.Ge -> [ e ]
             | Constr.Eq -> [ e; simp (Sub (Int 0, e)) ])
          (Poly.constraints p)
      in
      Guard (conds, Emit [||])
    else build 0
  end

(* Scan a union: one loop nest per piece, in sequence (paper §6.1 notes
   that applying the scheme per convex piece avoids the union
   over-approximation). *)
let scan_set ?emit_ranges s =
  Seq (List.map (fun p -> scan_poly ?emit_ranges p) (Pset.pieces s))

(* --- Evaluation -------------------------------------------------------- *)

type env = (string, int) Hashtbl.t

let rec eval_expr env e =
  match e with
  | Int n -> n
  | Var v -> (
      match Hashtbl.find_opt env v with
      | Some n -> n
      | None -> invalid_arg ("Ast.eval_expr: unbound variable " ^ v))
  | Add (a, b) -> eval_expr env a + eval_expr env b
  | Sub (a, b) -> eval_expr env a - eval_expr env b
  | Mul (a, b) -> eval_expr env a * eval_expr env b
  | Fdiv (a, b) -> Ints.fdiv (eval_expr env a) (eval_expr env b)
  | Cdiv (a, b) -> Ints.cdiv (eval_expr env a) (eval_expr env b)
  | Min (a, b) -> min (eval_expr env a) (eval_expr env b)
  | Max (a, b) -> max (eval_expr env a) (eval_expr env b)

(* --- Compiled closures -------------------------------------------------- *)

(* Compile an expression into a closure over a slot-indexed environment.
   [slot] maps a variable name to its index in the int-array environment
   (allocating a fresh slot on first sight); the compiled closure never
   touches the name again, so repeated evaluation pays no hashing. *)
let rec compile_expr ~slot e =
  match e with
  | Int n -> fun (_ : int array) -> n
  | Var v ->
    let i = slot v in
    fun env -> Array.unsafe_get env i
  | Add (a, b) ->
    let ca = compile_expr ~slot a and cb = compile_expr ~slot b in
    fun env -> ca env + cb env
  | Sub (a, b) ->
    let ca = compile_expr ~slot a and cb = compile_expr ~slot b in
    fun env -> ca env - cb env
  | Mul (a, b) ->
    let ca = compile_expr ~slot a and cb = compile_expr ~slot b in
    fun env -> ca env * cb env
  | Fdiv (a, b) ->
    let ca = compile_expr ~slot a and cb = compile_expr ~slot b in
    fun env -> Ints.fdiv (ca env) (cb env)
  | Cdiv (a, b) ->
    let ca = compile_expr ~slot a and cb = compile_expr ~slot b in
    fun env -> Ints.cdiv (ca env) (cb env)
  | Min (a, b) ->
    let ca = compile_expr ~slot a and cb = compile_expr ~slot b in
    fun env -> min (ca env) (cb env)
  | Max (a, b) ->
    let ca = compile_expr ~slot a and cb = compile_expr ~slot b in
    fun env -> max (ca env) (cb env)

(* Execute a statement.  [on_point] receives every emitted point;
   [on_range] receives (row coordinates, inclusive lo, inclusive hi) for
   every emitted range. *)
let rec exec env ~on_point ~on_range stmt =
  match stmt with
  | Seq l -> List.iter (exec env ~on_point ~on_range) l
  | Guard (conds, body) ->
    if List.for_all (fun e -> eval_expr env e >= 0) conds then
      exec env ~on_point ~on_range body
  | For { var; lb; ub; body } ->
    let lo = eval_expr env lb and hi = eval_expr env ub in
    let saved = Hashtbl.find_opt env var in
    for v = lo to hi do
      Hashtbl.replace env var v;
      exec env ~on_point ~on_range body
    done;
    (match saved with
     | Some v -> Hashtbl.replace env var v
     | None -> Hashtbl.remove env var)
  | Emit exprs -> on_point (Array.map (eval_expr env) exprs)
  | Emit_range (rows, lb, ub) ->
    let lo = eval_expr env lb and hi = eval_expr env ub in
    if lo <= hi then on_range (Array.map (eval_expr env) rows) lo hi

(* --- Pretty printing ---------------------------------------------------- *)

let rec pp_expr fmt e =
  let open Format in
  match e with
  | Int n -> fprintf fmt "%d" n
  | Var v -> fprintf fmt "%s" v
  | Add (a, b) -> fprintf fmt "(%a + %a)" pp_expr a pp_expr b
  | Sub (a, b) -> fprintf fmt "(%a - %a)" pp_expr a pp_expr b
  | Mul (a, b) -> fprintf fmt "(%a * %a)" pp_expr a pp_expr b
  | Fdiv (a, b) -> fprintf fmt "floord(%a, %a)" pp_expr a pp_expr b
  | Cdiv (a, b) -> fprintf fmt "ceild(%a, %a)" pp_expr a pp_expr b
  | Min (a, b) -> fprintf fmt "min(%a, %a)" pp_expr a pp_expr b
  | Max (a, b) -> fprintf fmt "max(%a, %a)" pp_expr a pp_expr b
