(* Enumerator generation (paper §6).

   An access map constrained to a grid partition yields a set of array
   elements.  Rather than enumerating every element, the generated code
   walks the rows of the (row-major) array and emits the first and last
   linear offset of each row — and, when a whole contiguous band of
   full-width rows is accessed, a single range for the band (the
   "row-block collapse", which makes stencil read sets O(1) to
   enumerate instead of O(rows)).

   The runtime-facing interface is a compiled closure from parameter
   values (scalar kernel arguments, block dimensions, partition box
   corners) to a canonical list of half-open linear ranges. *)

type plan =
  | P_seq of plan list
  | P_for of string * Ast.expr * Ast.expr * plan
  | P_guard of Ast.expr list * plan
  | P_point of Ast.expr array
  | P_ranges of Ast.expr array * Ast.expr * Ast.expr
    (* row coordinates, inclusive bounds of the last dim *)
  | P_row_block of Ast.expr array * Ast.expr * Ast.expr
    (* outer row coordinates (all but the last row dim), then inclusive
       bounds of the last row dim; the innermost dim spans a full row *)

(* A convex piece whose scan is a 2-D rectangle with loop-invariant
   column bounds.  Rectangles are evaluated to their four corners and
   merged with each other before emission, so that stencil halos,
   per-column accesses and full-array reads all collapse to O(1)
   ranges per partition instead of O(rows). *)
type rect = {
  row_var : string; (* the scan's row loop variable (printing only) *)
  row_lb : Ast.expr;
  row_ub : Ast.expr;
  col_lb : Ast.expr;
  col_ub : Ast.expr;
}

type piece = Rect of rect | General of plan

(* Compiled form: every expression is a closure over a slot-indexed
   int-array environment (see Ast.compile_expr), so repeated evaluation
   of the same enumerator pays no AST walking or name hashing. *)
type cpiece =
  | C_rect of
      (int array -> int)
      * (int array -> int)
      * (int array -> int)
      * (int array -> int)
  | C_gen of (int array -> int array -> (int -> int -> unit) -> unit)
    (* slot env, evaluated sizes, raw-range sink *)

type compiled = {
  c_params : (string * int * bool) list;
      (* variable name, slot index, and whether the name is bound by an
         enclosing loop (loop-bound slots need no external binding) *)
  c_n_slots : int;
  c_sizes : (int array -> int) array;
  c_pieces : cpiece list;
}

type t = {
  pieces : piece list;
  sizes : Ast.expr array; (* array dimension sizes, outermost first *)
  rank : int;
  mutable compiled : compiled option; (* memoized by the first evaluation *)
}

(* Does the expression mention variable [v]? *)
let rec mentions v = function
  | Ast.Int _ -> false
  | Ast.Var x -> x = v
  | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b)
  | Ast.Fdiv (a, b) | Ast.Cdiv (a, b) | Ast.Min (a, b) | Ast.Max (a, b) ->
    mentions v a || mentions v b

(* Structural equality after simplification. *)
let expr_eq a b = Ast.simp a = Ast.simp b

(* Try to recognize a full-width innermost range: lb == 0 and
   ub + 1 == width. *)
let full_width ~width lb ub =
  expr_eq lb (Ast.Int 0) && expr_eq (Ast.Add (ub, Ast.Int 1)) width

let rec plan_of_stmt ~sizes stmt =
  let rank = Array.length sizes in
  match stmt with
  | Ast.Seq l -> P_seq (List.map (plan_of_stmt ~sizes) l)
  | Ast.Guard (conds, body) -> P_guard (conds, plan_of_stmt ~sizes body)
  | Ast.Emit exprs -> P_point exprs
  | Ast.Emit_range (rows, lb, ub) -> P_ranges (rows, lb, ub)
  | Ast.For { var; lb; ub; body } -> (
      match body with
      | Ast.Emit_range (rows, rlb, rub)
        when rank >= 2
          && Array.length rows = rank - 1
          && rows.(rank - 2) = Ast.Var var
          && Array.for_all (fun e -> not (mentions var e))
               (Array.sub rows 0 (rank - 2))
          && full_width ~width:sizes.(rank - 1) rlb rub ->
        (* The loop enumerates full rows indexed by [var]; collapse the
           whole band into one linear range. *)
        P_row_block (Array.sub rows 0 (rank - 2), lb, ub)
      | _ -> P_for (var, lb, ub, plan_of_stmt ~sizes body))

(* Classify one piece's scan: a rank-2 loop whose body is a range with
   loop-invariant bounds is a rectangle. *)
let piece_of_stmt ~sizes ~rank stmt =
  match stmt with
  | Ast.For { var; lb; ub; body = Ast.Emit_range (rows, clb, cub) }
    when rank = 2
      && Array.length rows = 1
      && rows.(0) = Ast.Var var
      && (not (mentions var clb))
      && not (mentions var cub) ->
    Rect { row_var = var; row_lb = lb; row_ub = ub; col_lb = clb; col_ub = cub }
  | _ -> General (plan_of_stmt ~sizes stmt)

(* Build an enumerator for a set over array index dims.  [sizes] are
   the array dimension sizes as expressions over the parameters.
   [rectangles:false] disables the rectangle-union optimization (used
   by the ablation benchmark; evaluation then walks the per-row scan
   plans). *)
let of_set ?(rectangles = true) ~sizes set =
  let rank = Array.length sizes in
  if rank = 0 then invalid_arg "Enumerate.of_set: rank-0 array";
  if Space.n_dims (Pset.space set) <> rank then
    invalid_arg "Enumerate.of_set: set dimensionality does not match rank";
  let ast = Ast.scan_set ~emit_ranges:true set in
  let piece_stmts = match ast with Ast.Seq l -> l | s -> [ s ] in
  {
    pieces =
      (if rectangles then List.map (piece_of_stmt ~sizes ~rank) piece_stmts
       else List.map (fun s -> General (plan_of_stmt ~sizes s)) piece_stmts);
    sizes;
    rank;
    compiled = None;
  }

(* --- Evaluation -------------------------------------------------------- *)

(* Merge a list of evaluated rectangles (r0, r1, c0, c1), all bounds
   inclusive: drop subsumed rectangles and coalesce along rows and
   columns until a fixpoint.  Quadratic in the (small) piece count. *)
let merge_rects rects =
  let subsumed (r0, r1, c0, c1) (s0, s1, d0, d1) =
    s0 >= r0 && s1 <= r1 && d0 >= c0 && d1 <= c1
  in
  let try_merge (r0, r1, c0, c1) (s0, s1, d0, d1) =
    if r0 = s0 && r1 = s1 && s0 <= s1 && max c0 d0 <= min c1 d1 + 1 then
      Some (r0, r1, min c0 d0, max c1 d1)
    else if c0 = d0 && c1 = d1 && max r0 s0 <= min r1 s1 + 1 then
      Some (min r0 s0, max r1 s1, c0, c1)
    else None
  in
  let rec fix rects =
    let rec step acc = function
      | [] -> (List.rev acc, false)
      | r :: rest ->
        if List.exists (fun q -> q <> r && subsumed q r) (acc @ rest) then
          (List.rev_append acc rest, true)
        else begin
          let merged = ref None in
          let rest' =
            List.filter
              (fun q ->
                 match !merged with
                 | Some _ -> true
                 | None -> (
                     match try_merge r q with
                     | Some m ->
                       merged := Some m;
                       false
                     | None -> true))
              rest
          in
          match !merged with
          | Some m -> (List.rev_append acc (m :: rest'), true)
          | None -> step (r :: acc) rest
        end
    in
    let rects', changed = step [] rects in
    if changed then fix rects' else rects'
  in
  fix rects

(* Compile every expression of the enumerator into slot-indexed
   closures.  The compiled pieces replicate the interpreter exactly —
   same emission order, same emission count — so swapping the backends
   is invisible to callers (including the raw count of eval_counted). *)
let compile t =
  let slots = Hashtbl.create 16 in
  let n_slots = ref 0 in
  let slot v =
    match Hashtbl.find_opt slots v with
    | Some i -> i
    | None ->
      let i = !n_slots in
      incr n_slots;
      Hashtbl.replace slots v i;
      i
  in
  let loop_bound = Hashtbl.create 8 in
  let rank = t.rank in
  let flatten_c sizes_len cexprs =
    (* Linear offset of a row prefix: evaluate the row coordinates and
       multiply through the remaining dims (row-major layout). *)
    fun env sizes_v ->
      let acc = ref 0 in
      Array.iteri (fun i c -> acc := (!acc * sizes_v.(i)) + c env) cexprs;
      for i = Array.length cexprs to sizes_len - 1 do
        acc := !acc * sizes_v.(i)
      done;
      !acc
  in
  let rec comp plan =
    match plan with
    | P_seq l ->
      let cs = List.map comp l in
      fun env sizes_v f -> List.iter (fun c -> c env sizes_v f) cs
    | P_guard (conds, body) ->
      let cc = List.map (Ast.compile_expr ~slot) conds in
      let cb = comp body in
      fun env sizes_v f ->
        if List.for_all (fun c -> c env >= 0) cc then cb env sizes_v f
    | P_for (var, lb, ub, body) ->
      let i = slot var in
      Hashtbl.replace loop_bound var ();
      let clb = Ast.compile_expr ~slot lb
      and cub = Ast.compile_expr ~slot ub in
      let cb = comp body in
      fun env sizes_v f ->
        let lo = clb env and hi = cub env in
        let saved = env.(i) in
        for v = lo to hi do
          env.(i) <- v;
          cb env sizes_v f
        done;
        env.(i) <- saved
    | P_point exprs ->
      let ce = Array.map (Ast.compile_expr ~slot) exprs in
      let flat = flatten_c rank ce in
      fun env sizes_v f ->
        let off = flat env sizes_v in
        f off (off + 1)
    | P_ranges (rows, lb, ub) ->
      let crows = Array.map (Ast.compile_expr ~slot) rows in
      let flat = flatten_c rank crows in
      let clb = Ast.compile_expr ~slot lb
      and cub = Ast.compile_expr ~slot ub in
      fun env sizes_v f ->
        let lo = clb env and hi = cub env in
        if lo <= hi then begin
          let base = flat env sizes_v in
          f (base + lo) (base + hi + 1)
        end
    | P_row_block (outer, rlb, rub) ->
      let couter = Array.map (Ast.compile_expr ~slot) outer in
      let clb = Ast.compile_expr ~slot rlb
      and cub = Ast.compile_expr ~slot rub in
      fun env sizes_v f ->
        let lo = clb env and hi = cub env in
        if lo <= hi then begin
          let prefix = ref 0 in
          Array.iteri
            (fun i c -> prefix := (!prefix * sizes_v.(i)) + c env)
            couter;
          let slab = !prefix * sizes_v.(rank - 2) in
          let last = sizes_v.(rank - 1) in
          f ((slab + lo) * last) ((slab + hi + 1) * last)
        end
  in
  let c_pieces =
    List.map
      (function
        | General p -> C_gen (comp p)
        | Rect { row_lb; row_ub; col_lb; col_ub; _ } ->
          C_rect
            ( Ast.compile_expr ~slot row_lb,
              Ast.compile_expr ~slot row_ub,
              Ast.compile_expr ~slot col_lb,
              Ast.compile_expr ~slot col_ub ))
      t.pieces
  in
  let c_sizes = Array.map (Ast.compile_expr ~slot) t.sizes in
  let c_params =
    Hashtbl.fold
      (fun v i acc -> (v, i, Hashtbl.mem loop_bound v) :: acc)
      slots []
  in
  { c_params; c_n_slots = !n_slots; c_sizes; c_pieces }

let compiled t =
  match t.compiled with
  | Some c -> c
  | None ->
    let c = compile t in
    t.compiled <- Some c;
    c

(* Emit raw (start, stop) half-open linear ranges through [f]. *)
let eval_raw t env ~f =
  let c = compiled t in
  let slots_v = Array.make (max 1 c.c_n_slots) 0 in
  List.iter
    (fun (v, i, loop) ->
       match Hashtbl.find_opt env v with
       | Some x -> slots_v.(i) <- x
       | None ->
         if not loop then
           invalid_arg ("Enumerate.eval: unbound variable " ^ v))
    c.c_params;
  let sizes_v = Array.map (fun g -> g slots_v) c.c_sizes in
  let last = sizes_v.(t.rank - 1) in
  (* Rectangle pieces are evaluated to corners and merged before
     emission; full-width rectangles become single block ranges. *)
  let rects = ref [] in
  List.iter
    (fun piece ->
       match piece with
       | C_gen go -> go slots_v sizes_v f
       | C_rect (row_lb, row_ub, col_lb, col_ub) ->
         let r0 = row_lb slots_v and r1 = row_ub slots_v in
         let c0 = max 0 (col_lb slots_v) in
         let c1 = min (last - 1) (col_ub slots_v) in
         if r0 <= r1 && c0 <= c1 then rects := (r0, r1, c0, c1) :: !rects)
    c.c_pieces;
  List.iter
    (fun (r0, r1, c0, c1) ->
       if c0 = 0 && c1 = last - 1 then f (r0 * last) ((r1 + 1) * last)
       else
         for r = r0 to r1 do
           f ((r * last) + c0) ((r * last) + c1 + 1)
         done)
    (merge_rects !rects)

(* Canonicalize a range list: sort, merge overlapping and adjacent. *)
let canonicalize ranges =
  let sorted = List.sort compare ranges in
  let rec merge acc = function
    | [] -> List.rev acc
    | (s, e) :: rest when s >= e -> merge acc rest
    | (s, e) :: rest -> (
        match acc with
        | (ps, pe) :: acc' when s <= pe -> merge ((ps, max pe e) :: acc') rest
        | _ -> merge ((s, e) :: acc) rest)
  in
  merge [] sorted

(* Evaluate to a canonical list of half-open linear ranges. *)
let eval t env =
  let out = ref [] in
  eval_raw t env ~f:(fun s e -> out := (s, e) :: !out);
  canonicalize !out

(* Like {!eval}, but also report how many raw ranges were emitted before
   canonicalization (the runtime's enumeration cost is proportional to
   this count, not to the merged result). *)
let eval_counted t env =
  let out = ref [] in
  let raw = ref 0 in
  eval_raw t env ~f:(fun s e ->
      incr raw;
      out := (s, e) :: !out);
  (canonicalize !out, !raw)

let env_of_bindings bindings =
  let env = Hashtbl.create 32 in
  List.iter (fun (k, v) -> Hashtbl.replace env k v) bindings;
  env

(* Print each piece as the scan it was built from: a rectangle as its
   row block or row loop. *)
let pp fmt t =
  let rec pp_plan indent fmt = function
    | P_seq l -> List.iter (pp_plan indent fmt) l
    | P_guard (conds, body) ->
      Format.fprintf fmt "%sguard(%d conds)\n" (String.make indent ' ')
        (List.length conds);
      pp_plan (indent + 2) fmt body
    | P_for (v, lb, ub, body) ->
      Format.fprintf fmt "%sfor %s = %a .. %a\n" (String.make indent ' ') v
        Ast.pp_expr lb Ast.pp_expr ub;
      pp_plan (indent + 2) fmt body
    | P_point e ->
      Format.fprintf fmt "%spoint(%d dims)\n" (String.make indent ' ')
        (Array.length e)
    | P_ranges (_, lb, ub) ->
      Format.fprintf fmt "%srange %a .. %a\n" (String.make indent ' ')
        Ast.pp_expr lb Ast.pp_expr ub
    | P_row_block (_, lb, ub) ->
      Format.fprintf fmt "%srow-block %a .. %a\n" (String.make indent ' ')
        Ast.pp_expr lb Ast.pp_expr ub
  in
  let plan_of_piece = function
    | General plan -> plan
    | Rect { row_var = v; row_lb = lb; row_ub = ub; col_lb; col_ub } ->
      if full_width ~width:t.sizes.(t.rank - 1) col_lb col_ub then P_row_block ([||], lb, ub)
      else P_for (v, lb, ub, P_ranges ([| Ast.Var v |], col_lb, col_ub))
  in
  List.iter (fun piece -> pp_plan 0 fmt (plan_of_piece piece)) t.pieces
