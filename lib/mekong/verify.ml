(* Polyhedral data-race verifier (DESIGN.md §20).

   The engine's gate on how one launch's blocks may execute: the
   conflict polyhedra of every cross-block access pair decide a typed
   verdict:

   - [Safe]: every cross-block access pair is provably disjoint;
   - [Reducible]: the only conflicts are same-operator atomics, which
     the engine runs legally with partition-local accumulators and a
     deterministic merge;
   - [Racy]: a conflict admits a *concrete witness* — two (block,
     thread) pairs and an array element, validated by replaying both
     blocks through the interpreter and watching the access trace;
   - [Unknown]: the analysis is too coarse to decide (instrumented or
     over-approximated accesses, or a relaxed-analysis conflict no
     sample validates).

   Witness extraction samples the violation polyhedra of
   {!Access.find_violations}.  The blockOff/blockIdx relaxation used
   there admits spurious points, so sampling first fixes the block
   dimensions to concrete values, restores the exact affine glue
   blockOff = blockIdx * blockDim, bounds the element by the array
   extents, and only then searches for an integer point.  Every
   candidate is validated dynamically; a witness that does not replay
   is discarded, so reported witnesses collide by construction. *)

open Ppoly

type access_kind = Read | Write | Atomic of Kir.atomic_op

let kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Atomic op -> Kir.atomic_name op

type witness = {
  w_arr : string;
  w_elem : int array;  (* multi-dimensional array index *)
  w_block1 : Dim3.t;
  w_thread1 : Dim3.t;
  w_kind1 : access_kind;
  w_block2 : Dim3.t;
  w_thread2 : Dim3.t;
  w_kind2 : access_kind;
  w_grid : Dim3.t;
  w_block : Dim3.t;
  w_scalars : (string * int) list;  (* integer scalar arguments *)
}

type verdict =
  | Safe
  | Reducible of (string * Kir.atomic_op) list
  | Racy of witness list
  | Unknown of string

let verdict_name = function
  | Safe -> "safe"
  | Reducible _ -> "reducible"
  | Racy _ -> "racy"
  | Unknown _ -> "unknown"

let pp_dim3 ppf (d : Dim3.t) =
  Format.fprintf ppf "(%d,%d,%d)" d.Dim3.x d.Dim3.y d.Dim3.z

let pp_witness ppf w =
  let elem =
    String.concat ","
      (Array.to_list (Array.map string_of_int w.w_elem))
  in
  Format.fprintf ppf
    "%s[%s]: block %a thread %a %ss vs block %a thread %a %ss under grid %a \
     block %a%s"
    w.w_arr elem pp_dim3 w.w_block1 pp_dim3 w.w_thread1
    (kind_name w.w_kind1) pp_dim3 w.w_block2 pp_dim3 w.w_thread2
    (kind_name w.w_kind2) pp_dim3 w.w_grid pp_dim3 w.w_block
    (match w.w_scalars with
     | [] -> ""
     | l ->
       ", "
       ^ String.concat ", "
           (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) l))

let witness_to_string w = Format.asprintf "%a" pp_witness w

let pp_verdict ppf = function
  | Safe -> Format.pp_print_string ppf "safe"
  | Reducible l ->
    Format.fprintf ppf "reducible (%s)"
      (String.concat ", "
         (List.map
            (fun (arr, op) -> Printf.sprintf "%s via %s" arr (Kir.atomic_name op))
            l))
  | Racy ws ->
    Format.fprintf ppf "racy: %s"
      (String.concat "; " (List.map witness_to_string ws))
  | Unknown reason -> Format.fprintf ppf "unknown: %s" reason

let verdict_to_string v = Format.asprintf "%a" pp_verdict v

(* --- Static classification --------------------------------------------------- *)

(* A potential cross-block race between two access maps of one array:
   [cross_block_disjoint] failed on the pair.  Kept with enough context
   to attempt witness extraction. *)
type conflict = {
  c_am : Model.array_model;
  c_kind1 : access_kind;
  c_m1 : Pmap.t;
  c_kind2 : access_kind;
  c_m2 : Pmap.t;
}

type classification = {
  cl_races : conflict list;  (* potential races, witness extraction pending *)
  cl_reducible : (string * Kir.atomic_op) list;
  cl_unknowns : string list;
}

let classify_array ~assume (am : Model.array_model) : classification =
  let none = { cl_races = []; cl_reducible = []; cl_unknowns = [] } in
  if am.Model.write_instrumented then
    { none with
      cl_unknowns =
        [ Printf.sprintf
            "writes of %s are collected by run-time instrumentation; \
             cross-block ordering is unknown"
            am.Model.arr ] }
  else if
    am.Model.atomic_ops <> []
    && ((not am.Model.atomic_exact) || am.Model.atomic = None)
  then
    (* Unanalyzable atomics (e.g. data-dependent histogram bins).  If
       every access to the array is the same atomic operator, the array
       is still reducible: partition-local accumulation is correct no
       matter which elements each block touches.  Any plain read or
       write alongside makes the interleaving undecidable. *)
    match (am.Model.write, am.Model.read, am.Model.atomic_ops) with
    | None, None, [ op ] ->
      { none with cl_reducible = [ (am.Model.arr, op) ] }
    | _, _, [ _ ] ->
      { none with
        cl_unknowns =
          [ Printf.sprintf
              "unanalyzable atomic accesses of %s mixed with plain \
               reads/writes"
              am.Model.arr ] }
    | _ ->
      { none with
        cl_unknowns =
          [ Printf.sprintf
              "unanalyzable atomic accesses of %s with mixed operators"
              am.Model.arr ] }
  else
    let atomic_kind =
      match am.Model.atomic_ops with
      | [ op ] -> Atomic op
      | op :: _ -> Atomic op
      | [] -> Atomic Kir.AAdd (* unused: atomic map implies ops *)
    in
    let conflict k1 m1 k2 m2 =
      if Access.cross_block_disjoint ~assume m1 m2 then None
      else Some { c_am = am; c_kind1 = k1; c_m1 = m1; c_kind2 = k2; c_m2 = m2 }
    in
    let w = am.Model.write and r = am.Model.read and a = am.Model.atomic in
    let races =
      List.filter_map Fun.id
        [
          (* Pass 1 already proved this one, when the model says so. *)
          (match w with
           | Some w when not am.Model.write_proved -> conflict Write w Write w
           | _ -> None);
          (match (w, r) with
           | Some w, Some r -> conflict Write w Read r
           | _ -> None);
          (match (w, a) with
           | Some w, Some a -> conflict Write w atomic_kind a
           | _ -> None);
          (match (a, r) with
           | Some a, Some r -> conflict atomic_kind a Read r
           | _ -> None);
        ]
    in
    (* Atomic self-conflicts reduce when a single operator is involved;
       mixed operators do not commute with each other. *)
    let reducible, unknowns =
      match a with
      | None -> ([], [])
      | Some a ->
        if Access.cross_block_disjoint ~assume a a then ([], [])
        else (
          match am.Model.atomic_ops with
          | [ op ] -> ([ (am.Model.arr, op) ], [])
          | ops ->
            ( [],
              [ Printf.sprintf
                  "conflicting atomics with mixed operators (%s) on %s"
                  (String.concat ", " (List.map Kir.atomic_name ops))
                  am.Model.arr ] ))
    in
    { cl_races = races; cl_reducible = reducible; cl_unknowns = unknowns }

let classify_arrays ~kernel ?(assume = []) (km : Model.kernel_model) =
  let assume = Access.default_assume kernel @ assume in
  List.fold_left
    (fun acc am ->
       let c = classify_array ~assume am in
       {
         cl_races = acc.cl_races @ c.cl_races;
         cl_reducible = acc.cl_reducible @ c.cl_reducible;
         cl_unknowns = acc.cl_unknowns @ c.cl_unknowns;
       })
    { cl_races = []; cl_reducible = []; cl_unknowns = [] }
    km.Model.arrays

let describe_conflict c =
  Printf.sprintf "possible cross-block %s/%s race on %s"
    (kind_name c.c_kind1) (kind_name c.c_kind2) c.c_am.Model.arr

(* Verdict assembly of [verify]: racy dominates unknown dominates
   reducible dominates safe. *)
let assemble cl =
  match cl.cl_unknowns with
  | reason :: _ -> Unknown reason
  | [] ->
    if cl.cl_reducible <> [] then Reducible cl.cl_reducible else Safe

(* --- Witness extraction ------------------------------------------------------- *)

(* Replay one block through the interpreter over zero-initialized
   arrays, collecting accesses of [kind] to element [off] of [arr].
   Exact access maps have data-independent subscripts and guards, so
   zero-filled storage reproduces the modeled accesses. *)
let replay_hits kernel ~grid ~block ~args ~blk ~arr ~off ~kind =
  let hits = ref [] in
  let tbl = Hashtbl.create 64 in
  let load a o =
    match Hashtbl.find_opt tbl (a, o) with Some v -> v | None -> 0.0
  in
  let store a o v = Hashtbl.replace tbl (a, o) v in
  let matches (k : [ `Load | `Store | `Atomic of Kir.atomic_op ]) =
    match (kind, k) with
    | Read, `Load -> true
    | Write, `Store -> true
    | Atomic _, `Atomic _ -> true
    | _ -> false
  in
  let trace (te : Keval.trace_event) =
    if te.Keval.te_arr = arr && te.Keval.te_off = off && matches te.Keval.te_kind
    then hits := te :: !hits
  in
  (try
     Keval.run ~block_range:(blk, blk) ~trace kernel ~grid ~block ~args ~load
       ~store
   with Invalid_argument _ ->
     (* Out-of-bounds or unbound parameter under the sampled valuation:
        the candidate does not replay. *)
     hits := []);
  List.rev !hits

let kind_of_event = function
  | `Load -> Read
  | `Store -> Write
  | `Atomic op -> Atomic op

(* Pin variables no constraint mentions (the partition-box parameters,
   unused scalars) to 0: the backtracking sampler would otherwise sweep
   its whole default radius over each of them when later variables
   force a backtrack. *)
let pin_unconstrained p =
  let sp = Poly.space p in
  let n = Space.n_total sp in
  let used = Array.make n false in
  List.iter
    (fun c ->
       let a = Constr.aff c in
       for i = 0 to n - 1 do
         if Aff.coeff a i <> 0 then used.(i) <- true
       done)
    (Poly.constraints p);
  let pins = ref [] in
  Array.iteri
    (fun i u -> if not u then pins := Constr.eq (Aff.var_i sp i) :: !pins)
    used;
  Poly.add_constrs p !pins

(* Witness values are small by construction (the sampler searches from
   the lower bounds upward), so a modest radius keeps the backtracking
   cheap; rationally-empty candidates are rejected without a search. *)
let sample p =
  let p = pin_unconstrained p in
  if Poly.is_empty p then None else Poly.sample ~default_radius:16 p

(* Candidate block dimensions tried when restoring the affine glue
   blockOff = blockIdx * blockDim: the violation's own sampled bdim
   first, then a ladder of common shapes. *)
let bdim_ladder =
  [
    Dim3.one;
    Dim3.make 2;
    Dim3.make 4;
    Dim3.make 32;
    Dim3.make 256;
    Dim3.make ~y:4 4;
    Dim3.make ~y:2 ~z:2 2;
  ]

(* The relaxation can make one sign pattern satisfiable while only a
   different pattern admits an exact witness, so every violation
   candidate is tried in turn. *)
let witness_of_conflict ~kernel ~assume (c : conflict) : witness option =
  List.find_map
    (fun (vi : Access.violation) ->
    let sp = vi.Access.vi_space in
    let am = c.c_am in
    let arr = am.Model.arr in
    let rank = Array.length am.Model.dims in
    let v name = Aff.var sp name in
    let index name = Space.var_index_exn sp name in
    (* Bound the conflicting element by the array extents. *)
    let extents =
      List.concat
        (List.mapi
           (fun i d ->
              let o = v (Access.out_name arr i) in
              let size =
                match d with
                | Kir.Dim_const n -> Aff.const sp n
                | Kir.Dim_param p -> v p
              in
              [ Constr.ge2 o (Aff.zero sp); Constr.lt2 o size ])
           (Array.to_list am.Model.dims))
    in
    let base = Poly.add_constrs vi.Access.vi_poly extents in
    (* Axes the conflict actually mentions.  Pinning the others to the
       degenerate grid (one block, offset 0) is essential: the
       backtracking sampler would otherwise re-explore identical
       failing subtrees for every combination of their values. *)
    let used_axis a =
      List.exists
        (fun c ->
           let aff = Constr.aff c in
           List.exists
             (fun nm ->
                match Space.var_index sp nm with
                | Some i -> Aff.coeff aff i <> 0
                | None -> false)
             [
               Access.bo_name a ^ "$1";
               Access.bo_name a ^ "$2";
               Access.b_name a ^ "$1";
               Access.b_name a ^ "$2";
             ])
        (Poly.constraints base)
    in
    (* Grid extent along used axes: fixed just beyond the sample
       radius, so it never becomes a search dimension itself. *)
    let gdim_cap = 17 in
    (* Exact glue for a concrete block shape [bd]: bdim and gdim
       fixed, blockOff = blockIdx * blockDim for both copies,
       non-negative block ids inside the grid. *)
    let glue (bd : Dim3.t) =
      List.concat_map
        (fun a ->
           if not (used_axis a) then
             Constr.eq2 (v (Access.bdim_name a)) (Aff.const sp 1)
             :: Constr.eq2 (v (Access.gdim_name a)) (Aff.const sp 1)
             :: List.concat_map
                  (fun suffix ->
                     [
                       Constr.eq (v (Access.bo_name a ^ suffix));
                       Constr.eq (v (Access.b_name a ^ suffix));
                     ])
                  [ "$1"; "$2" ]
           else
             let bdv = Dim3.get bd a in
             Constr.eq2 (v (Access.bdim_name a)) (Aff.const sp bdv)
             :: Constr.eq2 (v (Access.gdim_name a)) (Aff.const sp gdim_cap)
             :: List.concat_map
                  (fun suffix ->
                     let bo = v (Access.bo_name a ^ suffix) in
                     let b = v (Access.b_name a ^ suffix) in
                     [
                       Constr.eq2 bo (Aff.scale bdv b);
                       Constr.ge2 b (Aff.zero sp);
                       Constr.lt2 b (Aff.const sp gdim_cap);
                     ])
                  [ "$1"; "$2" ])
        Dim3.axes
    in
    let candidates = bdim_ladder in
    let try_candidate bd =
      match sample (Poly.add_constrs base (glue bd)) with
      | None -> None
      | Some pt ->
        let value name = pt.(index name) in
        let block_of suffix =
          {
            Dim3.x = value (Access.b_name Dim3.X ^ suffix);
            y = value (Access.b_name Dim3.Y ^ suffix);
            z = value (Access.b_name Dim3.Z ^ suffix);
          }
        in
        let b1 = block_of "$1" and b2 = block_of "$2" in
        (* Launch shape exactly as sampled, so guards involving
           blockDim/gridDim hold during the replay. *)
        let dim3_of name =
          Dim3.make
            ~y:(value (name Dim3.Y))
            ~z:(value (name Dim3.Z))
            (value (name Dim3.X))
        in
        let block = dim3_of Access.bdim_name in
        let grid = dim3_of Access.gdim_name in
        let elem = Array.init rank (fun i -> value (Access.out_name arr i)) in
        let scalars =
          List.filter_map
            (fun n ->
               match Space.param_index sp n with
               | Some i -> Some (n, pt.(i))
               | None -> None)
            (Kir.scalar_params kernel)
        in
        let scalar_value n = try List.assoc n scalars with Not_found -> 1 in
        let args =
          List.filter_map
            (function
              | Kir.Scalar n -> Some (Keval.AInt (scalar_value n))
              | Kir.Fscalar _ -> Some (Keval.AFloat 1.0)
              | Kir.Array _ -> None)
            kernel.Kir.params
        in
        (* Linear offset of the element under the sampled extents. *)
        let dims =
          Array.map
            (function
              | Kir.Dim_const n -> n
              | Kir.Dim_param p -> scalar_value p)
            am.Model.dims
        in
        let off = ref 0 in
        Array.iteri (fun i e -> off := (!off * dims.(i)) + e) elem;
        (* Validate: both blocks must actually reach the element with
           the conflicting access kinds. *)
        let hits blk kind =
          replay_hits kernel ~grid ~block ~args ~blk ~arr ~off:!off ~kind
        in
        (match (hits b1 c.c_kind1, hits b2 c.c_kind2) with
         | e1 :: _, e2 :: _ ->
           Some
             {
               w_arr = arr;
               w_elem = elem;
               w_block1 = e1.Keval.te_block;
               w_thread1 = e1.Keval.te_thread;
               w_kind1 = kind_of_event e1.Keval.te_kind;
               w_block2 = e2.Keval.te_block;
               w_thread2 = e2.Keval.te_thread;
               w_kind2 = kind_of_event e2.Keval.te_kind;
               w_grid = grid;
               w_block = block;
               w_scalars = scalars;
             }
         | _ -> None)
    in
    let rec first = function
      | [] -> None
      | bd :: rest -> (
          match try_candidate bd with Some w -> Some w | None -> first rest)
    in
    first candidates)
    (Access.find_violations ~assume c.c_m1 c.c_m2)

let verify ?(assume = []) ~kernel (km : Model.kernel_model) : verdict =
  let cl = classify_arrays ~kernel ~assume km in
  let full_assume = Access.default_assume kernel @ assume in
  let witnesses =
    List.filter_map (witness_of_conflict ~kernel ~assume:full_assume)
      cl.cl_races
  in
  if witnesses <> [] then Racy witnesses
  else
    match cl.cl_races with
    | c :: _ ->
      Unknown
        (describe_conflict c ^ " (relaxed analysis); no concrete witness")
    | [] -> assemble cl

(* --- Dynamic race sanitizer ---------------------------------------------------- *)

(* Instrumented interpretation of a whole launch: per touched element,
   remember which blocks accessed it and how; flag the first pair of
   accesses from distinct blocks that is neither read/read nor
   same-operator atomic/atomic.  This is the differential oracle for
   the static verdict — a kernel the sanitizer catches must never be
   called [Safe]. *)

type dynamic_conflict = {
  dc_arr : string;
  dc_off : int;  (* linear element offset *)
  dc_kind1 : access_kind;
  dc_block1 : Dim3.t;
  dc_thread1 : Dim3.t;
  dc_kind2 : access_kind;
  dc_block2 : Dim3.t;
  dc_thread2 : Dim3.t;
}

let conflicting k1 k2 =
  match (k1, k2) with
  | `Load, `Load -> false
  | `Atomic o1, `Atomic o2 -> o1 <> o2
  | _ -> true

let sanitize kernel ~grid ~block ~args : dynamic_conflict list =
  (* (arr, off) -> accesses seen so far, at most two distinct blocks
     per access kind (enough to offer a differing block to any later
     conflicting access). *)
  let seen :
    (string * int, (Keval.trace_event list) ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  let conflicts = Hashtbl.create 16 in
  let order = ref [] in
  let record (prev : Keval.trace_event) (te : Keval.trace_event) =
    let key = (te.Keval.te_arr, te.Keval.te_off) in
    if not (Hashtbl.mem conflicts key) then begin
      Hashtbl.replace conflicts key
        {
          dc_arr = te.Keval.te_arr;
          dc_off = te.Keval.te_off;
          dc_kind1 = kind_of_event prev.Keval.te_kind;
          dc_block1 = prev.Keval.te_block;
          dc_thread1 = prev.Keval.te_thread;
          dc_kind2 = kind_of_event te.Keval.te_kind;
          dc_block2 = te.Keval.te_block;
          dc_thread2 = te.Keval.te_thread;
        };
      order := key :: !order
    end
  in
  let trace (te : Keval.trace_event) =
    let key = (te.Keval.te_arr, te.Keval.te_off) in
    let entries =
      match Hashtbl.find_opt seen key with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.replace seen key r;
        r
    in
    (match
       List.find_opt
         (fun (p : Keval.trace_event) ->
            (not (Dim3.equal p.Keval.te_block te.Keval.te_block))
            && conflicting p.Keval.te_kind te.Keval.te_kind)
         !entries
     with
     | Some prev -> record prev te
     | None -> ());
    let same_kind_blocks =
      List.filter_map
        (fun (p : Keval.trace_event) ->
           if p.Keval.te_kind = te.Keval.te_kind then Some p.Keval.te_block
           else None)
        !entries
    in
    let distinct =
      List.sort_uniq compare
        (List.map
           (fun (b : Dim3.t) -> (b.Dim3.x, b.Dim3.y, b.Dim3.z))
           same_kind_blocks)
    in
    if
      List.length distinct < 2
      && not
           (List.exists
              (fun (p : Keval.trace_event) ->
                 p.Keval.te_kind = te.Keval.te_kind
                 && Dim3.equal p.Keval.te_block te.Keval.te_block)
              !entries)
    then entries := te :: !entries
  in
  let tbl = Hashtbl.create 256 in
  let load a o =
    match Hashtbl.find_opt tbl (a, o) with Some v -> v | None -> 0.0
  in
  let store a o v = Hashtbl.replace tbl (a, o) v in
  Keval.run ~trace kernel ~grid ~block ~args ~load ~store;
  List.rev_map (Hashtbl.find conflicts) !order
