(* Kernel IR optimization passes.

   These mirror the middle-end work a real compiler performs on device
   code: constant folding, algebraic simplification, and dead-local
   elimination, iterated to a fixpoint.  The toolchain's front-end pass
   runs them in both compiler invocations; the partitioning transform
   benefits too (the Eq. 8 substitution introduces [x + 0] offsets for
   the first partition, which fold away). *)

(* --- Constant folding and algebraic simplification ----------------------- *)

(* The zero that [x + z] and [x - z] may drop for every [x]: integer
   [0], or the float zero whose sum is exact for a signed-zero [x]:
   [x + -0.0] and [x - +0.0] are [x], while [-0.0 + +0.0] is [+0.0]. *)
let is_zero ~negative = function
  | Kir.Iconst 0 -> true
  | Kir.Fconst f -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (if negative then -0.0 else 0.0))
  | _ -> false

let is_one = function
  | Kir.Iconst 1 -> true
  | Kir.Fconst f -> f = 1.0
  | _ -> false

(* Float whatever the types of the locals and parameters in it. *)
let rec is_float (e : Kir.exp) =
  match e with
  | Kir.Fconst _ | Kir.Load _ | Kir.Binop (Kir.Div, _, _) | Kir.Unop ((Kir.Sqrt | Kir.Rsqrt), _) -> true
  | Kir.Unop ((Kir.Neg | Kir.Abs), x) -> is_float x
  | Kir.Binop ((Kir.Add | Kir.Sub | Kir.Mul | Kir.Minb | Kir.Maxb), x, y) -> is_float x || is_float y
  | _ -> false

(* [x + 0], [x - 0] and [x * 1] have [x]'s type; with a float [0.0] or
   [1.0] only when [x] is float itself. *)
let neutral x n = match n with Kir.Iconst _ -> true | _ -> is_float x

(* Fold one node whose children are already folded.  Floating-point
   arithmetic is NOT reassociated and [x * 0.0] is not folded (NaN
   semantics); only exact identities are applied.  A fold keeps the
   node's type under {!Kir.check}, except that a comparison of two
   constants and [!!x] may become an int, which reads the same in a
   condition ([fold_bound] keeps a local's type). *)
let fold_node (e : Kir.exp) : Kir.exp =
  match e with
  | Kir.Unop (Kir.Neg, Kir.Iconst n) -> Kir.Iconst (-n)
  | Kir.Unop (Kir.Neg, Kir.Fconst f) -> Kir.Fconst (-.f)
  | Kir.Unop (Kir.Not, Kir.Unop (Kir.Not, x)) -> x
  | Kir.Binop (op, Kir.Iconst a, Kir.Iconst b) -> (
      match op with
      | Kir.Add -> Kir.Iconst (a + b)
      | Kir.Sub -> Kir.Iconst (a - b)
      | Kir.Mul -> Kir.Iconst (a * b)
      | Kir.Idiv when b <> 0 -> Kir.Iconst (a / b)
      | Kir.Imod when b <> 0 -> Kir.Iconst (a mod b)
      | Kir.Minb -> Kir.Iconst (min a b)
      | Kir.Maxb -> Kir.Iconst (max a b)
      | Kir.Lt -> Kir.Iconst (if a < b then 1 else 0)
      | Kir.Le -> Kir.Iconst (if a <= b then 1 else 0)
      | Kir.Gt -> Kir.Iconst (if a > b then 1 else 0)
      | Kir.Ge -> Kir.Iconst (if a >= b then 1 else 0)
      | Kir.Eq -> Kir.Iconst (if a = b then 1 else 0)
      | Kir.Ne -> Kir.Iconst (if a <> b then 1 else 0)
      | _ -> e)
  | Kir.Binop (Kir.Add, x, z) when is_zero ~negative:true z && neutral x z -> x
  | Kir.Binop (Kir.Add, z, x) when is_zero ~negative:true z && neutral x z -> x
  | Kir.Binop (Kir.Sub, x, z) when is_zero ~negative:false z && neutral x z -> x
  | Kir.Binop (Kir.Mul, x, o) when is_one o && neutral x o -> x
  | Kir.Binop (Kir.Mul, o, x) when is_one o && neutral x o -> x
  (* Integer-only zero annihilation: safe because integer arithmetic
     has no NaN/Inf.  (Iconst*Iconst was already folded above; a
     parameter may be a float.) *)
  | Kir.Binop (Kir.Mul, Kir.Iconst 0, Kir.Special _)
  | Kir.Binop (Kir.Mul, Kir.Special _, Kir.Iconst 0) ->
    Kir.Iconst 0
  | other -> other

let fold_exp e = Kir.map_exp fold_node e

let is_bool (e : Kir.exp) =
  match e with
  | Kir.Binop ((Kir.Lt | Kir.Le | Kir.Gt | Kir.Ge | Kir.Eq | Kir.Ne | Kir.And | Kir.Or), _, _)
  | Kir.Unop (Kir.Not, _) -> true
  | _ -> false

(* A local keeps one type: a bool value that folds to an int stays a
   bool. *)
let fold_bound e =
  let e' = fold_exp e in
  if (not (is_bool e)) || is_bool e' then e'
  else
    match e' with
    | Kir.Iconst _ -> Kir.Binop (Kir.Ne, e', Kir.Iconst 0)
    | x -> Kir.Unop (Kir.Not, Kir.Unop (Kir.Not, x))

(* The loads of an expression, subscripts' loads included. *)
let rec loads acc (e : Kir.exp) =
  match e with
  | Kir.Load (a, idx) -> List.fold_left loads ((a, idx) :: acc) idx
  | Kir.Iconst _ | Kir.Fconst _ | Kir.Special _ | Kir.Param _ | Kir.Var _ -> acc
  | Kir.Unop (_, x) -> loads acc x
  | Kir.Binop (_, x, y) -> loads (loads acc x) y

(* The loads in an [If] condition or [For] bounds.  A statement whose
   body became empty keeps them here: {!eliminate_dead} decides whether
   they may fault. *)
let header_loads (s : Kir.stmt) =
  match s with
  | Kir.If (c, _, _) -> loads [] c
  | Kir.For { from_; to_; _ } -> loads (loads [] from_) to_
  | Kir.Store _ | Kir.Atomic _ | Kir.Local _ | Kir.Assign _ | Kir.Syncthreads -> []

let drop_empty s = if header_loads s = [] then [] else [ s ]

let rec fold_stmt (s : Kir.stmt) : Kir.stmt list =
  match s with
  | Kir.Store (a, idx, e) -> [ Kir.Store (a, List.map fold_exp idx, fold_exp e) ]
  | Kir.Atomic (op, a, idx, e) ->
    [ Kir.Atomic (op, a, List.map fold_exp idx, fold_exp e) ]
  | Kir.Local (n, e) -> [ Kir.Local (n, fold_bound e) ]
  | Kir.Assign (n, e) -> [ Kir.Assign (n, fold_bound e) ]
  | Kir.If (c, t, f) -> (
      let c = fold_exp c in
      let t = List.concat_map fold_stmt t in
      let f = List.concat_map fold_stmt f in
      match c with
      | Kir.Iconst 0 -> f
      | Kir.Iconst _ -> t
      | _ ->
        let s = Kir.If (c, t, f) in
        if t = [] && f = [] then drop_empty s else [ s ])
  | Kir.For { var; from_; to_; body } -> (
      let from_ = fold_exp from_ and to_ = fold_exp to_ in
      let body = List.concat_map fold_stmt body in
      match (from_, to_) with
      | Kir.Iconst a, Kir.Iconst b when a >= b -> []
      | _ ->
        let s = Kir.For { var; from_; to_; body } in
        if body = [] then drop_empty s else [ s ])
  | Kir.Syncthreads -> [ Kir.Syncthreads ]

(* --- Dead-local elimination ------------------------------------------------ *)

(* Names referenced by an expression. *)
let rec exp_uses acc (e : Kir.exp) =
  match e with
  | Kir.Var n -> n :: acc
  | Kir.Iconst _ | Kir.Fconst _ | Kir.Special _ | Kir.Param _ -> acc
  | Kir.Load (_, idx) -> List.fold_left exp_uses acc idx
  | Kir.Unop (_, x) -> exp_uses acc x
  | Kir.Binop (_, x, y) -> exp_uses (exp_uses acc x) y

(* Locals bound by one [Local], never assigned nor a loop counter. *)
let fixed_locals body =
  let count = Hashtbl.create 16 in
  let bump n k = Hashtbl.replace count n (k + Option.value ~default:0 (Hashtbl.find_opt count n)) in
  let rec go (s : Kir.stmt) =
    match s with
    | Kir.Local (n, _) -> bump n 1
    | Kir.Assign (n, _) -> bump n 2
    | Kir.For { var; body; _ } -> bump var 2; List.iter go body
    | Kir.If (_, t, f) -> List.iter go t; List.iter go f
    | Kir.Store _ | Kir.Atomic _ | Kir.Syncthreads -> ()
  in
  List.iter go body;
  fun n -> Hashtbl.find_opt count n = Some 1

(* A subscript that reads the same value wherever one thread reads it. *)
let rec stable fixed (e : Kir.exp) =
  match e with
  | Kir.Iconst _ | Kir.Fconst _ | Kir.Special _ | Kir.Param _ -> true
  | Kir.Var n -> fixed n
  | Kir.Load _ -> false
  | Kir.Unop (_, x) -> stable fixed x
  | Kir.Binop (_, x, y) -> stable fixed x && stable fixed y

(* The bindings of names not [stays] whose value reads an array that
   may be out of bounds, and the [If]s and [For]s whose header does.
   A load is in bounds when each subscript is a
   constant inside a constant extent, or is a stable subscript that an
   access of the same array in the same dimension checked on every path
   before it, in a statement that [stays]: had that check failed, the
   thread would have stopped there. *)
let unproved_loads ~extent ~stays body =
  let fixed = fixed_locals body and out = ref [] in
  let proved facts (a, idx) =
    List.for_all Fun.id
      (List.mapi
         (fun d i ->
            List.mem (a, d, i) facts
            ||
            match (i, extent a) with
            | Kir.Iconst c, Some dims when d < Array.length dims -> (
                match dims.(d) with Kir.Dim_const x -> 0 <= c && c < x | Kir.Dim_param _ -> false)
            | _ -> false)
         idx)
  in
  let learn facts (a, idx) =
    List.fold_left (fun (facts, d) i -> ((if stable fixed i then (a, d, i) :: facts else facts), d + 1))
      (facts, 0) idx
    |> fst
  in
  let learn_exp facts e = List.fold_left learn facts (loads [] e) in
  let check facts s l = if not (List.for_all (proved facts) l) then out := s :: !out in
  let rec stmt facts (s : Kir.stmt) =
    match s with
    | Kir.Local (n, e) | Kir.Assign (n, e) ->
      if stays n then learn_exp facts e
      else begin
        check facts s (loads [] e);
        facts
      end
    | Kir.Store (a, idx, e) | Kir.Atomic (_, a, idx, e) ->
      learn (learn_exp (List.fold_left learn_exp facts idx) e) (a, idx)
    | Kir.If (_, t, f) -> check facts s (header_loads s); ignore (seq facts t); ignore (seq facts f); facts
    | Kir.For { body; _ } -> check facts s (header_loads s); ignore (seq facts body); facts
    | Kir.Syncthreads -> facts
  and seq facts l = List.fold_left stmt facts l in
  ignore (seq [] body);
  !out

(* Remove Local/Assign bindings whose variable does not (transitively)
   feed a store, a branch condition or a loop bound.  Liveness is a
   whole-body fixpoint, so self-referencing accumulators whose value is
   never consumed ([acc = acc + ...] feeding nothing) die too — the
   property the instrumentation shadow kernels rely on.  Given the
   arrays' [extent]s, a binding whose value reads an array that may be
   out of bounds stays, and so do the bindings it reads, and so does an
   [If] or [For] whose header reads one, with its body empty: deleting
   the load would let a launch complete where [Keval] raises. *)
let eliminate_dead ?extent (body : Kir.stmt list) : Kir.stmt list =
  (* Roots: variables used outside Local/Assign right-hand sides. *)
  let rec root_uses acc (s : Kir.stmt) =
    match s with
    | Kir.Store (_, idx, e) | Kir.Atomic (_, _, idx, e) ->
      exp_uses (List.fold_left exp_uses acc idx) e
    | Kir.Local _ | Kir.Assign _ -> acc
    | Kir.If (c, t, f) ->
      let acc = exp_uses acc c in
      let acc = List.fold_left root_uses acc t in
      List.fold_left root_uses acc f
    | Kir.For { from_; to_; body; _ } ->
      let acc = exp_uses (exp_uses acc from_) to_ in
      List.fold_left root_uses acc body
    | Kir.Syncthreads -> acc
  in
  (* Defs: (name, rhs) of every Local/Assign in the body. *)
  let rec defs acc (s : Kir.stmt) =
    match s with
    | Kir.Local (n, e) | Kir.Assign (n, e) -> (n, e) :: acc
    | Kir.If (_, t, f) ->
      let acc = List.fold_left defs acc t in
      List.fold_left defs acc f
    | Kir.For { body; _ } -> List.fold_left defs acc body
    | Kir.Store _ | Kir.Atomic _ | Kir.Syncthreads -> acc
  in
  let all_defs = List.fold_left defs [] body in
  let closure roots =
    let live = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace live n ()) roots;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (n, e) ->
           if Hashtbl.mem live n then
             List.iter
               (fun u ->
                  if not (Hashtbl.mem live u) then begin
                    Hashtbl.replace live u ();
                    changed := true
                  end)
               (exp_uses [] e))
        all_defs
    done;
    live
  in
  let roots = List.fold_left root_uses [] body in
  let live = closure roots in
  (* The proof runs only when a dead binding or an emptied header loads. *)
  let unproved =
    lazy (match extent with Some extent -> unproved_loads ~extent ~stays:(Hashtbl.mem live) body | None -> [])
  in
  let faults s loads = loads <> [] && List.memq s (Lazy.force unproved) in
  let live =
    if not (List.exists (fun (n, e) -> (not (Hashtbl.mem live n)) && loads [] e <> []) all_defs) then live
    else
      match Lazy.force unproved with
      | [] -> live
      | l ->
        closure
          (List.fold_left
             (fun acc s -> match s with Kir.Local (_, e) | Kir.Assign (_, e) -> exp_uses acc e | _ -> acc)
             roots l)
  in
  let rec clean s =
    match s with
    | Kir.Local (n, e) | Kir.Assign (n, e) ->
      if Hashtbl.mem live n || faults s (loads [] e) then [ s ] else []
    | Kir.If (c, t, f) ->
      let t = List.concat_map clean t and f = List.concat_map clean f in
      if t = [] && f = [] && not (faults s (header_loads s)) then [] else [ Kir.If (c, t, f) ]
    | Kir.For { var; from_; to_; body } ->
      let body = List.concat_map clean body in
      if body = [] && not (faults s (header_loads s)) then [] else [ Kir.For { var; from_; to_; body } ]
    | Kir.Store _ | Kir.Atomic _ | Kir.Syncthreads -> [ s ]
  in
  List.concat_map clean body

(* --- Pass driver ----------------------------------------------------------- *)

let fixpoint ?extent body =
  let pass b = eliminate_dead ?extent (List.concat_map fold_stmt b) in
  let rec fix b n =
    if n = 0 then b
    else
      let b' = pass b in
      if b' = b then b else fix b' (n - 1)
  in
  fix body 8

let optimize (k : Kir.t) : Kir.t =
  let dims = Kir.array_params k in
  { k with Kir.body = fixpoint ~extent:(fun a -> List.assoc_opt a dims) k.Kir.body }

let optimize_shadow (k : Kir.t) : Kir.t = { k with Kir.body = fixpoint k.Kir.body }
(* Simple code metrics, as a compiler would report. *)
let rec stmt_count (s : Kir.stmt) =
  match s with
  | Kir.Store _ | Kir.Atomic _ | Kir.Local _ | Kir.Assign _ | Kir.Syncthreads ->
    1
  | Kir.If (_, t, f) ->
    1
    + List.fold_left (fun a s -> a + stmt_count s) 0 t
    + List.fold_left (fun a s -> a + stmt_count s) 0 f
  | Kir.For { body; _ } -> 1 + List.fold_left (fun a s -> a + stmt_count s) 0 body

let size (k : Kir.t) = List.fold_left (fun a s -> a + stmt_count s) 0 k.Kir.body
