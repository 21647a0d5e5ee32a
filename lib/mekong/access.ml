(* Polyhedral access analysis of kernel IR (paper §4).

   For every global-memory array a kernel touches, the analysis builds
   read and write maps from the 6-dimensional grid space
   (blockOff.{z,y,x}, blockIdx.{z,y,x}) to the array's index space:

   - the global thread position threadIdx.w + blockIdx.w * blockDim.w
     contains a non-affine product; the "block offset" dimension
     blockOff.w = blockIdx.w * blockDim.w encapsulates it (Eq. 5-7);
   - thread ids are constrained by 0 <= threadIdx.w < blockDim.w and
     projected out, leaving maps over Z^6 (§4.1);
   - affine guards become domain constraints; non-affine guards and
     subscripts over-approximate reads to the whole array and make
     writes unanalyzable;
   - write maps must be exact and injective across thread blocks;
     kernels violating this are rejected (write-after-write hazards
     prohibit multi-GPU execution, §4.1). *)

open Ppoly

type error =
  | Unsupported of string
  | Non_injective_write of string (* array name *)
  | Inexact_write of string

let error_message = function
  | Unsupported m -> "unsupported kernel construct: " ^ m
  | Non_injective_write a ->
    "write map of array " ^ a ^ " is not provably injective across blocks"
  | Inexact_write a -> "write accesses to array " ^ a ^ " cannot be modeled exactly"

exception Reject of error

(* --- Names of the analysis space ---------------------------------------- *)

let axis_name = Dim3.axis_name

let bo_name a = "bo." ^ axis_name a (* blockOff *)
let b_name a = "b." ^ axis_name a (* blockIdx *)
let t_name a = "t." ^ axis_name a (* threadIdx *)
let bdim_name a = "bdim." ^ axis_name a
let gdim_name a = "gdim." ^ axis_name a

(* Partition-box parameters (paper §6: the partition is a 6-dimensional
   box spanned between two tuples of blockOff and blockIdx values).
   They are unconstrained during analysis; the enumerator generator
   intersects the domain with the box. *)
let box_min_bo a = "pminbo." ^ axis_name a
let box_max_bo a = "pmaxbo." ^ axis_name a
let box_min_b a = "pminb." ^ axis_name a
let box_max_b a = "pmaxb." ^ axis_name a

let axes = Dim3.axes (* z, y, x *)

let grid_dim_names = Array.of_list (List.map bo_name axes @ List.map b_name axes)

let out_name arr i = arr ^ "#" ^ string_of_int i

(* --- Result types -------------------------------------------------------- *)

type array_access = {
  arr : string;
  dims : Kir.dim array;
  read : Pmap.t option; (* None when the array is never read *)
  write : Pmap.t option;
  atomic : Pmap.t option;
      (* atomic read-modify-write accesses, when exactly modeled; [None]
         both when there are none and when they are unanalyzable
         (distinguish via [atomic_ops] / [atomic_exact]) *)
  atomic_ops : Kir.atomic_op list;
      (* distinct atomic operators applied to this array; [] = none *)
  atomic_exact : bool; (* false when atomic accesses were unanalyzable *)
  read_exact : bool; (* false when reads were over-approximated *)
  write_instrumented : bool;
      (* writes exist but are unanalyzable; collected at run time by the
         instrumentation fallback (paper §11) *)
  write_proved : bool;
      (* [analyze] proved [write] injective across blocks (vacuously
         when there is none) under the default assumptions alone *)
}

type t = {
  kernel : Kir.t;
  params : string array; (* parameter names of all spaces below *)
  grid_space : Space.t; (* the Z^6 domain of all access maps *)
  accesses : array_access list;
  strategy : Dim3.axis; (* suggested partitioning axis (paper §4.1) *)
}

(* --- Space construction ---------------------------------------------------- *)

let rec collect_loop_vars acc (s : Kir.stmt) =
  match s with
  | Kir.For { var; body; _ } ->
    if List.mem var acc then
      raise (Reject (Unsupported ("duplicate loop variable " ^ var)));
    List.fold_left collect_loop_vars (var :: acc) body
  | Kir.If (_, a, b) ->
    let acc = List.fold_left collect_loop_vars acc a in
    List.fold_left collect_loop_vars acc b
  | Kir.Store _ | Kir.Atomic _ | Kir.Local _ | Kir.Assign _
  | Kir.Syncthreads -> acc

let analysis_params kernel =
  Array.of_list
    (Kir.scalar_params kernel
     @ List.map bdim_name axes
     @ List.map gdim_name axes
     @ List.map box_min_bo axes
     @ List.map box_max_bo axes
     @ List.map box_min_b axes
     @ List.map box_max_b axes)

(* The full analysis space: params; dims = bo3, b3, t3, loop vars. *)
let full_space params kernel =
  let loops =
    List.rev (List.fold_left collect_loop_vars [] kernel.Kir.body)
  in
  let dims =
    Array.of_list
      (List.map bo_name axes @ List.map b_name axes @ List.map t_name axes
       @ loops)
  in
  Space.make ~params ~dims

let grid_space params = Space.make ~params ~dims:grid_dim_names

let array_space params arr rank = Space.make ~params ~dims:(Array.init rank (out_name arr))

(* Indices of the grid, thread and launch-size variables in a space,
   one slot per axis in [axes] order, looked up by name once. *)
type indices = {
  bo : int array;
  b : int array;
  t : int array;
  bdim : int array;
  gdim : int array;
}

let axis_slot = function Dim3.Z -> 0 | Dim3.Y -> 1 | Dim3.X -> 2

let indices sp =
  let look name = Array.of_list (List.map (fun a -> Space.var_index_exn sp (name a)) axes) in
  { bo = look bo_name; b = look b_name; t = look t_name; bdim = look bdim_name; gdim = look gdim_name }

(* --- Affine extraction ------------------------------------------------------ *)

(* Translate an integer-valued IR expression to an affine form over the
   analysis space [sp], whose special variables sit at [ix].  [locals]
   maps let-bound names to affine values.  Returns [None] for
   non-affine expressions. *)
let rec to_aff sp ix locals (e : Kir.exp) : Aff.t option =
  let to_aff = to_aff sp ix locals in
  match e with
  | Kir.Iconst n -> Some (Aff.const sp n)
  | Kir.Fconst f ->
    let n = int_of_float f in
    if float_of_int n = f then Some (Aff.const sp n) else None
  | Kir.Param n ->
    (* only integer scalar params are in the space *)
    Option.map (Aff.var_i sp) (Space.param_index sp n)
  | Kir.Var v -> (
      match Hashtbl.find_opt locals v with
      | Some (Some a) -> Some a
      | Some None -> None
      | None ->
        (* loop variable *)
        Option.map (Aff.var_i sp) (Space.dim_index sp v))
  | Kir.Special (Kir.Thread_idx a) -> Some (Aff.var_i sp ix.t.(axis_slot a))
  | Kir.Special (Kir.Block_idx a) -> Some (Aff.var_i sp ix.b.(axis_slot a))
  | Kir.Special (Kir.Block_dim a) -> Some (Aff.var_i sp ix.bdim.(axis_slot a))
  | Kir.Special (Kir.Grid_dim a) -> Some (Aff.var_i sp ix.gdim.(axis_slot a))
  | Kir.Load _ -> None (* data-dependent *)
  | Kir.Unop (Kir.Neg, x) -> Option.map Aff.neg (to_aff x)
  | Kir.Unop _ -> None
  (* The blockOff rewrite (paper Eq. 6): blockIdx.w * blockDim.w is
     non-affine but equals the dedicated blockOff.w dimension. *)
  | Kir.Binop (Kir.Mul, Kir.Special (Kir.Block_idx a), Kir.Special (Kir.Block_dim a'))
  | Kir.Binop (Kir.Mul, Kir.Special (Kir.Block_dim a'), Kir.Special (Kir.Block_idx a))
    when a = a' ->
    Some (Aff.var_i sp ix.bo.(axis_slot a))
  | Kir.Binop (op, x, y) -> (
      match (op, to_aff x, to_aff y) with
      | Kir.Add, Some a, Some b -> Some (Aff.add a b)
      | Kir.Sub, Some a, Some b -> Some (Aff.sub a b)
      | Kir.Mul, Some a, Some b ->
        if Aff.is_constant a then Some (Aff.scale (Aff.constant a) b)
        else if Aff.is_constant b then Some (Aff.scale (Aff.constant b) a)
        else None
      | Kir.Minb, Some a, Some b when Aff.equal a b -> Some a
      | Kir.Maxb, Some a, Some b when Aff.equal a b -> Some a
      | _ -> None)

(* Conditions in disjunctive normal form: a list (OR) of constraint
   conjunctions (AND).  [None] marks a non-affine condition. *)
type dnf = Constr.t list list

let dnf_true : dnf = [ [] ]

let dnf_and (a : dnf) (b : dnf) : dnf =
  List.concat_map (fun ca -> List.map (fun cb -> ca @ cb) b) a

let dnf_or (a : dnf) (b : dnf) : dnf = a @ b

(* Translate a boolean IR expression; [negated] selects the polarity
   (negation is pushed down to the comparisons, De Morgan style). *)
let rec cond_to_dnf sp ix locals ~negated (e : Kir.exp) : dnf option =
  let aff x = to_aff sp ix locals x in
  let cmp mk mk_neg x y =
    match (aff x, aff y) with
    | Some a, Some b -> Some [ [ (if negated then mk_neg a b else mk a b) ] ]
    | _ -> None
  in
  match e with
  | Kir.Binop (Kir.Lt, x, y) -> cmp Constr.lt2 Constr.ge2 x y
  | Kir.Binop (Kir.Le, x, y) -> cmp Constr.le2 Constr.gt2 x y
  | Kir.Binop (Kir.Gt, x, y) -> cmp Constr.gt2 Constr.le2 x y
  | Kir.Binop (Kir.Ge, x, y) -> cmp Constr.ge2 Constr.lt2 x y
  | Kir.Binop (Kir.Eq, x, y) -> (
      match (aff x, aff y) with
      | Some a, Some b ->
        if negated then Some [ [ Constr.lt2 a b ]; [ Constr.gt2 a b ] ]
        else Some [ [ Constr.eq2 a b ] ]
      | _ -> None)
  | Kir.Binop (Kir.Ne, x, y) -> (
      match (aff x, aff y) with
      | Some a, Some b ->
        if negated then Some [ [ Constr.eq2 a b ] ]
        else Some [ [ Constr.lt2 a b ]; [ Constr.gt2 a b ] ]
      | _ -> None)
  | Kir.Binop (Kir.And, x, y) ->
    let cx = cond_to_dnf sp ix locals ~negated x in
    let cy = cond_to_dnf sp ix locals ~negated y in
    (match (cx, cy) with
     | Some a, Some b -> Some (if negated then dnf_or a b else dnf_and a b)
     | _ -> None)
  | Kir.Binop (Kir.Or, x, y) ->
    let cx = cond_to_dnf sp ix locals ~negated x in
    let cy = cond_to_dnf sp ix locals ~negated y in
    (match (cx, cy) with
     | Some a, Some b -> Some (if negated then dnf_and a b else dnf_or a b)
     | _ -> None)
  | Kir.Unop (Kir.Not, x) -> cond_to_dnf sp ix locals ~negated:(not negated) x
  | _ -> None

(* --- Access collection ------------------------------------------------------- *)

type raw_access = {
  ra_arr : string;
  ra_kind : [ `Read | `Write | `Atomic of Kir.atomic_op ];
  (* One entry per DNF disjunct: the affine subscripts plus the guard
     conjunction.  [None] marks an unanalyzable (over-approximated)
     access. *)
  ra_pieces : (Aff.t array * Constr.t list) list option;
}

type ctx = {
  sp : Space.t;
  ix : indices; (* of [sp] *)
  locals : (string, Aff.t option) Hashtbl.t;
  mutable guards : dnf option; (* None after a non-affine guard *)
  mutable raw : raw_access list;
}

let record ctx arr kind pieces =
  ctx.raw <- { ra_arr = arr; ra_kind = kind; ra_pieces = pieces } :: ctx.raw

(* Register one access with the current guard context. *)
let access ctx arr kind idx =
  let affs = List.map (to_aff ctx.sp ctx.ix ctx.locals) idx in
  match (ctx.guards, List.for_all Option.is_some affs) with
  | Some dnf, true ->
    let affs = Array.of_list (List.map Option.get affs) in
    record ctx arr kind (Some (List.map (fun conj -> (affs, conj)) dnf))
  | _ -> record ctx arr kind None

(* Register every Load inside an expression as a read access. *)
let rec reads_of_exp ctx (e : Kir.exp) =
  match e with
  | Kir.Iconst _ | Kir.Fconst _ | Kir.Special _ | Kir.Param _ | Kir.Var _ -> ()
  | Kir.Load (arr, idx) ->
    List.iter (reads_of_exp ctx) idx;
    access ctx arr `Read idx
  | Kir.Unop (_, x) -> reads_of_exp ctx x
  | Kir.Binop (_, x, y) ->
    reads_of_exp ctx x;
    reads_of_exp ctx y

let rec walk_stmt ctx (s : Kir.stmt) =
  match s with
  | Kir.Store (arr, idx, e) ->
    List.iter (reads_of_exp ctx) idx;
    reads_of_exp ctx e;
    access ctx arr `Write idx
  | Kir.Atomic (op, arr, idx, e) ->
    (* The element read by the RMW is tracked through the atomic map
       itself, not as a plain read: conflicting same-op atomics are
       reducible, which a read entry would mask. *)
    List.iter (reads_of_exp ctx) idx;
    reads_of_exp ctx e;
    access ctx arr (`Atomic op) idx
  | Kir.Local (n, e) ->
    reads_of_exp ctx e;
    Hashtbl.replace ctx.locals n (to_aff ctx.sp ctx.ix ctx.locals e)
  | Kir.Assign (n, e) ->
    reads_of_exp ctx e;
    (* Reassignment (accumulators etc.) is not tracked affinely. *)
    Hashtbl.replace ctx.locals n None
  | Kir.If (c, then_b, else_b) ->
    reads_of_exp ctx c;
    let saved = ctx.guards in
    let pos = cond_to_dnf ctx.sp ctx.ix ctx.locals ~negated:false c in
    let neg = cond_to_dnf ctx.sp ctx.ix ctx.locals ~negated:true c in
    (ctx.guards <-
       (match (saved, pos) with
        | Some g, Some p -> Some (dnf_and g p)
        | _ -> None));
    List.iter (walk_stmt ctx) then_b;
    (ctx.guards <-
       (match (saved, neg) with
        | Some g, Some n -> Some (dnf_and g n)
        | _ -> None));
    List.iter (walk_stmt ctx) else_b;
    ctx.guards <- saved
  | Kir.For { var; from_; to_; body } ->
    reads_of_exp ctx from_;
    reads_of_exp ctx to_;
    let saved = ctx.guards in
    let lo = to_aff ctx.sp ctx.ix ctx.locals from_ in
    let hi = to_aff ctx.sp ctx.ix ctx.locals to_ in
    let v = Aff.var ctx.sp var in
    (ctx.guards <-
       (match (saved, lo, hi) with
        | Some g, Some l, Some h ->
          Some (dnf_and g [ [ Constr.ge2 v l; Constr.lt2 v h ] ])
        | _ -> None));
    List.iter (walk_stmt ctx) body;
    ctx.guards <- saved
  | Kir.Syncthreads -> ()

(* --- Building maps from raw accesses ------------------------------------------ *)

(* Constraints bounding the array subscripts to the array extents:
   0 <= a_i < size_i. *)
let extent_constrs space arr dims =
  List.concat
    (List.mapi
       (fun i d ->
          let v = Aff.var space (out_name arr i) in
          let size =
            match d with
            | Kir.Dim_const n -> Aff.const space n
            | Kir.Dim_param p -> Aff.var space p
          in
          [ Constr.ge2 v (Aff.zero space); Constr.lt2 v size ])
       (Array.to_list dims))

(* The spaces one array's maps are built in, made once per array.
   [comb] has the params and dims grid6 ++ outs ++ t3 ++ loop vars;
   [remap] moves the full analysis space (grid6 ++ t3 ++ loop vars)
   into it, the outs going in after the grid.  [thread_bounds] are the
   normalized rows [t.w >= 0] and [bdim.w - t.w - 1 >= 0] over [comb];
   [ran] is the array's index space. *)
type array_spaces = {
  comb : Space.t;
  remap : int array;
  thread_bounds : Row.t list;
  ran : Space.t;
}

let array_spaces ~full ~ix arr rank =
  let params = Space.params full and dims = Space.dims full in
  let np = Array.length params in
  let comb =
    Space.make ~params
      ~dims:
        (Array.concat
           [ Array.sub dims 0 6; Array.init rank (out_name arr);
             Array.sub dims 6 (Array.length dims - 6) ])
  in
  let remap = Array.init (Space.n_total full) (fun i -> if i < np + 6 then i else i + rank) in
  let row = Row.inequality (Space.n_total comb) in
  let thread_bounds =
    List.concat_map
      (fun a ->
         let t = remap.(ix.t.(axis_slot a)) and bd = ix.bdim.(axis_slot a) in
         [ row [ (1, t) ] 0; row [ (1, bd); (-1, t) ] (-1) ])
      axes
  in
  { comb; remap; thread_bounds; ran = array_space params arr rank }

(* Turn the pieces of one raw access into a Pmap over grid6 -> outs,
   eliminating thread and loop dimensions. *)
let map_of_pieces ~dom sp pieces =
  let comb = sp.comb in
  let out i = Aff.var_i comb (Space.n_params comb + 6 + i) in
  let polys =
    List.map
      (fun (affs, conj) ->
         let eqs =
           Array.to_list
             (Array.mapi (fun i aff -> Constr.eq2 (out i) (Aff.rebase aff comb sp.remap)) affs)
         in
         let guards = List.map (fun c -> Constr.rebase c comb sp.remap) conj in
         Poly.add_normalized_rows (Poly.make comb (eqs @ guards)) sp.thread_bounds)
      pieces
  in
  (* Project out t dims and loop dims: keep grid6 + outs. *)
  let keep = List.init (6 + Space.n_dims sp.ran) Fun.id in
  Pmap.make ~dom ~ran:sp.ran (Pset.project_onto (Pset.of_polys comb polys) keep)

(* The whole-array map used when a read is unanalyzable: every grid
   point may read every element. *)
let whole_array_map ~dom sp arr dims =
  let comb = Pmap.combined_space dom sp.ran in
  Pmap.make ~dom ~ran:sp.ran
    (Pset.of_poly (Poly.make comb (extent_constrs comb arr dims)))

(* --- Write-map injectivity across thread blocks (paper §4.1) --------------------

   Two *distinct blocks* must never write the same array element.  The
   block-offset and block-index coordinates of the two blocks are
   related by blockOff = blockIdx * blockDim, which is not affine; we
   use the sound relaxation: along every axis,

     b1 > b2   implies  bo1 >= bo2 + bdim,
     b1 = b2   implies  bo1 = bo2,
     b1 < b2   symmetric,

   and enumerate the 3^3 - 1 sign patterns with "distinct" meaning at
   least one axis differs.  If no pattern admits a common write target,
   the map is injective across blocks; any real write-after-write
   hazard satisfies one of the patterns, so acceptance is sound.

   The same doubled-space construction generalizes to *two* maps over
   the same kernel and array: [cross_block_disjoint m1 m2] asks
   whether distinct blocks b1, b2 can have m1(b1) ∩ m2(b2) ≠ ∅.  With
   m1 = m2 = write map this is exactly injectivity; with m1 = write
   and m2 = read it is the cross-block read-after-write hazard check
   that gates domain-parallel execution (DESIGN.md §13). *)

(* Axes the first (write) map actually constrains.  Along an unused
   axis the kernel writes the same cells from every block, so a grid
   extending there would be a write-after-write hazard already on a
   single GPU; the convention (as in the paper's analysis) is that
   such grids are degenerate (extent 1) and blocks cannot differ
   there.  A write map using no grid axis at all writes from every
   block and is never injective. *)
let used_grid_axes (m1 : Pmap.t) =
  let comb = Pmap.combined m1 in
  List.filter
    (fun a ->
       let bo = Space.var_index_exn comb (bo_name a) in
       let bi = Space.var_index_exn comb (b_name a) in
       List.exists
         (fun p -> Poly.mentions p bo || Poly.mentions p bi)
         (Pset.pieces (Pmap.rel m1)))
    axes

(* A satisfiable cross-block conflict: a polyhedron over the doubled
   space [params; dims(dom)$1 ++ dims(dom)$2 ++ dims(ran)] whose
   integer points assign two grid positions and a common array element
   they both touch.  The verifier samples it for concrete witnesses. *)
type violation = { vi_space : Space.t; vi_poly : Poly.t }

(* Core of the cross-block hazard check: find one satisfiable sign
   pattern under which distinct blocks of m1 and m2 reach a common
   element.  When [m1] constrains no grid axis the degenerate-grid
   convention does not apply here — sign patterns range over all axes,
   so any two distinct blocks conflict whenever the maps overlap at
   all. *)
let violation_candidates ?(assume = []) (m1 : Pmap.t) (m2 : Pmap.t) :
  violation Seq.t =
  let dom = Pmap.dom_space m1 in
  let nd = Space.n_dims dom in
  assert (nd = 6);
  let ran = Pmap.ran_space m1 in
  let nr = Space.n_dims ran in
  let params = Space.params dom in
  let dims2 =
    Array.concat
      [ Array.map (fun n -> n ^ "$1") (Space.dims dom);
        Array.map (fun n -> n ^ "$2") (Space.dims dom);
        Space.dims ran ]
  in
  let sp2 = Space.make ~params ~dims:dims2 in
  let np = Array.length params in
  let remap1 =
    Array.init (np + nd + nr) (fun i -> if i < np + nd then i else i + nd)
  in
  let remap2 = Array.init (np + nd + nr) (fun i -> if i < np then i else i + nd) in
  let copies1 = List.map (fun p -> Poly.rebase p sp2 remap1) (Pset.pieces (Pmap.rel m1)) in
  let copies2 = List.map (fun p -> Poly.rebase p sp2 remap2) (Pset.pieces (Pmap.rel m2)) in
  let v name = Aff.var sp2 name in
  let context =
    List.map (fun (terms, const) -> Constr.ge (Aff.of_terms sp2 terms ~const)) assume
    @ List.map
        (fun a -> Constr.ge2 (v (bdim_name a)) (Aff.const sp2 1))
        axes
  in
  let normalized c =
    let r = Constr.to_row c in
    match Row.normalize r with
    | Row.Nontrivial -> r
    | Row.Trivially_true | Row.Trivially_false -> assert false (* each relates two variables *)
  in
  (* The three relations of one axis between the two copies, as
     normalized rows. *)
  let axis_rels a =
    let b1 = v (b_name a ^ "$1") and b2 = v (b_name a ^ "$2") in
    let bo1 = v (bo_name a ^ "$1") and bo2 = v (bo_name a ^ "$2") in
    let bd = v (bdim_name a) in
    List.map
      (fun (rel, cs) -> (rel, List.map normalized cs))
      [ (`Gt, [ Constr.gt2 b1 b2; Constr.ge2 bo1 (Aff.add bo2 bd) ]);
        (`Eq, [ Constr.eq2 b1 b2; Constr.eq2 bo1 bo2 ]);
        (`Lt, [ Constr.lt2 b1 b2; Constr.le2 bo1 (Aff.sub bo2 bd) ]) ]
  in
  let used_axes = used_grid_axes m1 in
  let pattern_axes = if used_axes = [] then axes else used_axes in
  let rec patterns_over = function
    | [] -> [ [] ]
    | a :: rest ->
      let tails = patterns_over rest in
      List.concat_map (fun r -> List.map (fun t -> r :: t) tails) (axis_rels a)
  in
  (* Each pattern's rows, built once, not once per pair of pieces. *)
  let patterns =
    List.filter_map
      (fun pat ->
         if List.exists (fun (r, _) -> r <> `Eq) pat then Some (List.concat_map snd pat)
         else None)
      (patterns_over pattern_axes)
  in
  (* Candidates, lazily: emptiness checks stop at the first hit in
     [find_violation] but run to completion in [find_violations]. *)
  List.to_seq copies1
  |> Seq.concat_map (fun p1 ->
      List.to_seq copies2
      |> Seq.concat_map (fun p2 ->
          let base = Poly.add_constrs (Poly.intersect p1 p2) context in
          List.to_seq patterns
          |> Seq.filter_map (fun rows ->
              let cand = Poly.add_normalized_rows base rows in
              if Poly.is_empty cand then None
              else Some { vi_space = sp2; vi_poly = cand })))

let find_violation ?assume m1 m2 =
  match (violation_candidates ?assume m1 m2) () with
  | Seq.Nil -> None
  | Seq.Cons (v, _) -> Some v

let find_violations ?assume m1 m2 =
  List.of_seq (violation_candidates ?assume m1 m2)

let cross_block_disjoint ?(assume = []) (m1 : Pmap.t) (m2 : Pmap.t) =
  (* Degenerate-grid convention (see [used_grid_axes]): a write map
     using no grid axis writes from every block and is never injective
     unless it is empty. *)
  if used_grid_axes m1 = [] then Pset.is_empty (Pmap.rel m1)
  else Option.is_none (find_violation ~assume m1 m2)

let write_injective kernel (m : Pmap.t) ~assume =
  ignore kernel;
  cross_block_disjoint ~assume m m

(* --- Partitioning strategy (paper §4.1: "suggested partitioning
   strategy") ---------------------------------------------------------------

   Prefer splitting the grid along the axis whose blockOff coordinate
   drives the *outermost* array dimension of the write maps: contiguous
   block ranges then write contiguous row bands, minimizing tracker
   fragmentation (§8.1). *)

let choose_strategy accesses =
  (* Atomic maps count like write maps: a disjoint-atomic kernel
     partitions exactly as a plain-store one does.  Each map's pieces
     are listed once, with the indices of its output dims. *)
  let maps =
    List.concat_map
      (fun a ->
         List.map
           (fun m ->
              let comb = Pmap.combined m in
              let rank = Space.n_dims (Pmap.ran_space m) in
              ( comb,
                Array.init rank (fun i -> Space.var_index_exn comb (out_name a.arr i)),
                List.map Poly.constraints (Pset.pieces (Pmap.rel m)) ))
           (List.filter_map Fun.id [ a.write; a.atomic ]))
      accesses
  in
  let score axis =
    List.fold_left
      (fun acc (comb, outs, pieces) ->
         let bo = Space.var_index_exn comb (bo_name axis) in
         (* Outermost output dim co-constrained with blockOff.axis.
            (Projection of threadIdx turns the defining equalities into
            inequality pairs, so all constraint kinds count.) *)
         let piece_score cs =
           let best = ref None in
           List.iter
             (fun c ->
                let aff = Constr.aff c in
                if Aff.coeff aff bo <> 0 then
                  Array.iteri
                    (fun i oi ->
                       if Aff.coeff aff oi <> 0 then
                         best := (match !best with None -> Some i | Some b -> Some (min b i)))
                    outs)
             cs;
           !best
         in
         List.fold_left
           (fun acc cs -> match piece_score cs with Some i -> min acc i | None -> acc)
           acc pieces)
      max_int maps
  in
  let candidates =
    List.filter_map
      (fun axis ->
         let s = score axis in
         if s = max_int then None else Some (axis, s))
      axes
  in
  match candidates with
  | [] -> Dim3.X (* no analyzable writes: fall back to x *)
  | _ ->
    (* best (smallest) score wins; ties go to the earlier axis in
       (z, y, x) order, matching row-major layouts. *)
    let best =
      List.fold_left
        (fun (ba, bs) (a, s) -> if s < bs then (a, s) else (ba, bs))
        (List.hd candidates) (List.tl candidates)
    in
    fst best

(* --- Entry point ------------------------------------------------------------ *)

let default_assume kernel =
  (* Problem sizes that appear as array extents are at least 1. *)
  List.filter_map
    (function
      | Kir.Array { dims; _ } ->
        Some
          (Array.to_list dims
           |> List.filter_map (function
             | Kir.Dim_param p -> Some ([ (1, p) ], -1) (* p - 1 >= 0 *)
             | Kir.Dim_const _ -> None))
      | _ -> None)
    kernel.Kir.params
  |> List.concat
  |> List.sort_uniq compare

let analyze ?(assume = []) ?(check_writes = true)
    ?(on_inexact_write = `Reject) (kernel : Kir.t) : (t, error) result =
  (* A proof that used the caller's extra rows holds only under them. *)
  let proves_writes = check_writes && assume = [] in
  try
    let params = analysis_params kernel in
    let full = full_space params kernel in
    let ix = indices full in
    let grid = grid_space params in
    let ctx =
      {
        sp = full;
        ix;
        locals = Hashtbl.create 8;
        guards = Some dnf_true;
        raw = [];
      }
    in
    List.iter (walk_stmt ctx) kernel.Kir.body;
    let assume = assume @ default_assume kernel in
    (* Group raw accesses per array. *)
    let arrays = Kir.array_params kernel in
    let accesses =
      List.map
        (fun (arr, dims) ->
           let spaces = lazy (array_spaces ~full ~ix arr (Array.length dims)) in
           let mine k =
             List.filter
               (fun ra -> ra.ra_arr = arr && ra.ra_kind = k)
               ctx.raw
           in
           let build kind =
             let raws = mine kind in
             if raws = [] then (None, true)
             else begin
               let exact = List.for_all (fun ra -> ra.ra_pieces <> None) raws in
               if not exact then
                 if kind = `Write then
                   match on_inexact_write with
                   | `Reject -> raise (Reject (Inexact_write arr))
                   | `Instrument -> (None, false)
                 else (Some (whole_array_map ~dom:grid (Lazy.force spaces) arr dims), false)
               else begin
                 let pieces =
                   List.concat_map
                     (fun ra -> Option.get ra.ra_pieces)
                     raws
                 in
                 (Some (map_of_pieces ~dom:grid (Lazy.force spaces) pieces), true)
               end
             end
           in
           let read, read_exact = build `Read in
           let write, write_exact = build `Write in
           let has_writes = mine `Write <> [] in
           (* Atomic read-modify-writes: never rejected — conflicting
              same-op atomics commute, so neither injectivity nor
              exactness is required for correctness (the verifier
              classifies them, and the engine runs reducible kernels
              with partition-local accumulation).  Build the map when
              every atomic access is affine; leave [None] (inexact)
              otherwise, as for irregular histograms. *)
           let atomic_raws =
             List.filter
               (fun ra ->
                  ra.ra_arr = arr
                  && match ra.ra_kind with `Atomic _ -> true | _ -> false)
               ctx.raw
           in
           let atomic_ops =
             List.sort_uniq compare
               (List.filter_map
                  (fun ra ->
                     match ra.ra_kind with
                     | `Atomic op -> Some op
                     | _ -> None)
                  atomic_raws)
           in
           let atomic, atomic_exact =
             if atomic_raws = [] then (None, true)
             else if List.for_all (fun ra -> ra.ra_pieces <> None) atomic_raws
             then
               ( Some
                   (map_of_pieces ~dom:grid (Lazy.force spaces)
                      (List.concat_map
                         (fun ra -> Option.get ra.ra_pieces)
                         atomic_raws)),
                 true )
             else (None, false)
           in
           (match write with
            | Some w ->
              if check_writes && not (write_injective kernel w ~assume) then
                raise (Reject (Non_injective_write arr))
            | None -> ());
           { arr; dims; read; write; atomic; atomic_ops; atomic_exact;
             read_exact;
             write_instrumented = has_writes && not write_exact;
             write_proved = proves_writes })
        arrays
    in
    let strategy = choose_strategy accesses in
    Ok
      {
        kernel;
        params;
        grid_space = grid;
        accesses;
        strategy;
      }
  with Reject e -> Error e

