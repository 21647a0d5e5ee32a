(* Tests for the polyhedral library: exact integer helpers, affine
   expressions, convex polyhedra (Fourier-Motzkin), unions, maps,
   code generation and enumerators. *)

open Ppoly

(* Set operations the tests use and the pipeline does not, composed
   from the library's polyhedron operations. *)
module Pset = struct
  include Pset

  let intersect a b =
    of_polys (space a)
      (List.concat_map (fun p -> List.map (Poly.intersect p) (pieces b)) (pieces a))

  let add_constrs s cs = of_polys (space s) (List.map (fun p -> Poly.add_constrs p cs) (pieces s))

  (* Drop pieces subsumed by another piece. *)
  let coalesce s =
    let rec go kept = function
      | [] -> List.rev kept
      | p :: rest ->
        if Poly.is_empty p then go kept rest
        else if
          List.exists (fun q -> Poly.subsumes q p) kept
          || List.exists (fun q -> Poly.subsumes q p) rest
        then go kept rest
        else go (p :: kept) rest
    in
    of_polys (space s) (go [] (pieces s))

  let to_string s =
    let poly p =
      match Poly.constraints p with
      | [] -> if Poly.is_trivially_empty p then "{ false }" else "{ true }"
      | cs -> "{ " ^ String.concat " and " (List.map (Format.asprintf "%a" Constr.pp) cs) ^ " }"
    in
    match pieces s with [] -> "{}" | ps -> String.concat " u " (List.map poly ps)
end

(* The map algebra these tests build on, composed from the library's
   relation, set and polyhedron operations.  The pipeline needs none
   of it: it only intersects access relations with partition boxes
   and takes their range ({!Mekong.Codegen.partition_image}). *)
module Pmap = struct
  include Pmap

  (* out_i = affs.(i) of the domain dims, the domain restricted by
     [guards] over the combined space. *)
  let of_affs ~dom ~ran ~affs ~guards =
    let comb = combined_space dom ran in
    let np = Space.n_params dom and nd = Space.n_dims dom in
    let embed = Array.init (Space.n_total dom) Fun.id in
    let eqs =
      List.mapi
        (fun i aff -> Constr.eq (Aff.sub (Aff.var_i comb (np + nd + i)) (Aff.rebase aff comb embed)))
        (Array.to_list affs)
    in
    make ~dom ~ran (Pset.of_poly (Poly.make comb (eqs @ guards)))

  let constrain m cs = make ~dom:(dom_space m) ~ran:(ran_space m) (Pset.add_constrs (rel m) cs)
  let domain m = Pset.project_onto (rel m) (List.init (Space.n_dims (dom_space m)) Fun.id)

  let image m set =
    let comb = combined m in
    let embed = Array.init (Space.n_total (dom_space m)) Fun.id in
    let set = Pset.of_polys comb (List.map (fun p -> Poly.rebase p comb embed) (Pset.pieces set)) in
    range (make ~dom:(dom_space m) ~ran:(ran_space m) (Pset.intersect (rel m) set))

  (* The relation with domain and range swapped. *)
  let inverse m =
    let dom = dom_space m and ran = ran_space m in
    let comb' = combined_space ran dom in
    let np = Space.n_params dom and nd = Space.n_dims dom and nr = Space.n_dims ran in
    let remap = Array.init (np + nd + nr) (fun i -> if i < np then i else if i < np + nd then i + nr else i - nd) in
    make ~dom:ran ~ran:dom (Pset.of_polys comb' (List.map (fun p -> Poly.rebase p comb' remap) (Pset.pieces (rel m))))

  let preimage m set = image (inverse m) set
end

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let coeff_of a name = Aff.coeff a (Space.var_index_exn (Aff.space a) name)

(* ---------------- Ints ---------------- *)

let test_fdiv_cdiv () =
  checki "fdiv 7 2" 3 (Ints.fdiv 7 2);
  checki "fdiv -7 2" (-4) (Ints.fdiv (-7) 2);
  checki "fdiv 7 -2" (-4) (Ints.fdiv 7 (-2));
  checki "fdiv -7 -2" 3 (Ints.fdiv (-7) (-2));
  checki "cdiv 7 2" 4 (Ints.cdiv 7 2);
  checki "cdiv -7 2" (-3) (Ints.cdiv (-7) 2);
  checki "cdiv 7 -2" (-3) (Ints.cdiv 7 (-2));
  checki "cdiv -7 -2" 4 (Ints.cdiv (-7) (-2))

let test_gcd () =
  checki "gcd 12 18" 6 (Ints.gcd 12 18);
  checki "gcd 0 5" 5 (Ints.gcd 0 5);
  checki "gcd -12 18" 6 (Ints.gcd (-12) 18)

let test_overflow () =
  Alcotest.check_raises "mul overflow" Ints.Overflow (fun () ->
      ignore (Ints.mul max_int 2));
  Alcotest.check_raises "add overflow" Ints.Overflow (fun () ->
      ignore (Ints.add max_int 1));
  checki "mul ok" 6 (Ints.mul 2 3);
  checki "mul neg" (-6) (Ints.mul 2 (-3))

let prop_fdiv_cdiv =
  QCheck.Test.make ~name:"fdiv/cdiv consistency" ~count:500
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 50))
    (fun (a, b) ->
      let q = Ints.fdiv a b in
      (q * b <= a && a < (q + 1) * b)
      && Ints.cdiv a b = -Ints.fdiv (-a) b)

let prop_gcd_extremes =
  (* gcd must never return a negative value: [abs min_int] is min_int
     again, so those inputs must raise Overflow instead. *)
  let edgy =
    QCheck.Gen.(
      oneof
        [
          oneofl [ min_int; min_int + 1; max_int; 0; 1; -1; 2; -2 ];
          int;
        ])
  in
  QCheck.Test.make ~name:"gcd never negative, Overflow on min_int"
    ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
       QCheck.Gen.(pair edgy edgy))
    (fun (a, b) ->
      match Ints.gcd a b with
      | g ->
        a <> min_int && b <> min_int && g >= 0
        && (if g = 0 then a = 0 && b = 0 else a mod g = 0 && b mod g = 0)
      | exception Ints.Overflow -> a = min_int || b = min_int)

(* ---------------- Spaces and affine expressions ---------------- *)

let sp2 = Space.make ~params:[| "n" |] ~dims:[| "x"; "y" |]

let test_space () =
  checki "n_total" 3 (Space.n_total sp2);
  checki "param idx" 0 (Space.var_index_exn sp2 "n");
  checki "dim idx x" 1 (Space.var_index_exn sp2 "x");
  checki "dim idx y" 2 (Space.var_index_exn sp2 "y");
  check Alcotest.string "var_name" "y" (Space.var_name sp2 2);
  let dropped = Space.drop_dim sp2 1 in
  checki "after drop" 1 (Space.n_dims dropped);
  check Alcotest.string "remaining dim" "y" (Space.dims dropped).(0)

let test_aff () =
  let a = Aff.of_terms sp2 [ (2, "x"); (-1, "y"); (3, "n") ] ~const:5 in
  checki "eval" (2 * 7 - 4 + 3 * 10 + 5) (Aff.eval a [| 10; 7; 4 |]);
  let b = Aff.add a (Aff.var sp2 "y") in
  checki "coeff y after add" 0 (coeff_of b "y");
  let c =
    Constr.aff
      (Poly_oracle.substitute_constr (Constr.ge a) (Space.var_index_exn sp2 "x") (Aff.var sp2 "y"))
  in
  checki "subst coeff x" 0 (coeff_of c "x");
  checki "subst coeff y" 1 (coeff_of c "y")

(* ---------------- Convex polyhedra ---------------- *)

(* Helper: the box lo <= x <= hi (inclusive) for each listed dim. *)
let box space bounds =
  Poly.make space
    (List.concat_map
       (fun (name, lo, hi) ->
         let v = Aff.var space name in
         [ Constr.ge2 v (Aff.const space lo); Constr.le2 v (Aff.const space hi) ])
       bounds)

let spxy = Space.make ~params:[||] ~dims:[| "x"; "y" |]

let test_poly_membership () =
  let p = box spxy [ ("x", 0, 4); ("y", 1, 3) ] in
  checkb "inside" true (Poly.mem p [| 2; 2 |]);
  checkb "boundary" true (Poly.mem p [| 4; 1 |]);
  checkb "outside" false (Poly.mem p [| 5; 2 |]);
  checkb "outside y" false (Poly.mem p [| 0; 0 |])

let test_poly_empty () =
  let p = box spxy [ ("x", 3, 2) ] in
  checkb "empty interval" true (Poly.is_empty p);
  let q = box spxy [ ("x", 0, 10); ("y", 0, 10) ] in
  checkb "box nonempty" false (Poly.is_empty q);
  (* x = y, x >= 5, y <= 3 is infeasible *)
  let vx = Aff.var spxy "x" and vy = Aff.var spxy "y" in
  let r =
    Poly.make spxy
      [ Constr.eq2 vx vy;
        Constr.ge2 vx (Aff.const spxy 5);
        Constr.le2 vy (Aff.const spxy 3) ]
  in
  checkb "eq chain infeasible" true (Poly.is_empty r);
  (* unbounded but satisfiable *)
  let s = Poly.make spxy [ Constr.ge2 vx vy ] in
  checkb "halfplane nonempty" false (Poly.is_empty s)

let test_poly_param_empty () =
  (* 0 <= x < n and n <= 0: no valuation admits a point. *)
  let v n = Aff.var sp2 n in
  let p =
    Poly.make sp2
      [ Constr.ge2 (v "x") (Aff.const sp2 0);
        Constr.lt2 (v "x") (v "n");
        Constr.le2 (v "n") (Aff.const sp2 0) ]
  in
  checkb "param-infeasible" true (Poly.is_empty p);
  let q =
    Poly.make sp2
      [ Constr.ge2 (v "x") (Aff.const sp2 0); Constr.lt2 (v "x") (v "n") ]
  in
  checkb "param-feasible" false (Poly.is_empty q)

let test_poly_project () =
  (* Project the triangle 0 <= y <= x <= 4 onto x: 0 <= x <= 4. *)
  let vx = Aff.var spxy "x" and vy = Aff.var spxy "y" in
  let tri =
    Poly.make spxy
      [ Constr.ge2 vy (Aff.const spxy 0);
        Constr.le2 vy vx;
        Constr.le2 vx (Aff.const spxy 4) ]
  in
  let px = Poly.project_onto tri [ 0 ] in
  checki "1 dim left" 1 (Space.n_dims (Poly.space px));
  checkb "x=0 in" true (Poly.mem px [| 0 |]);
  checkb "x=4 in" true (Poly.mem px [| 4 |]);
  checkb "x=5 out" false (Poly.mem px [| 5 |]);
  checkb "x=-1 out" false (Poly.mem px [| -1 |])

let test_poly_sample () =
  let p = box spxy [ ("x", 10, 12); ("y", -3, -3) ] in
  (match Poly.sample p with
  | Some pt ->
      checkb "sample mem" true (Poly.mem p pt);
      checki "y forced" (-3) pt.(1)
  | None -> Alcotest.fail "expected a sample");
  let e = box spxy [ ("x", 1, 0) ] in
  checkb "no sample in empty" true (Poly.sample e = None)

let test_poly_subsumes () =
  let big = box spxy [ ("x", 0, 10); ("y", 0, 10) ] in
  let small = box spxy [ ("x", 2, 5); ("y", 3, 4) ] in
  checkb "big >= small" true (Poly.subsumes big small);
  checkb "small !>= big" false (Poly.subsumes small big);
  checkb "self" true (Poly.subsumes big big)

(* Random conjunctions of constraints inside a bounded box: check that
   FM-based emptiness agrees with brute force. *)
let gen_constr =
  QCheck.Gen.(
    int_range (-3) 3 >>= fun cx ->
    int_range (-3) 3 >>= fun cy ->
    int_range (-8) 8 >>= fun c ->
    frequency [ (4, return Constr.Ge); (1, return Constr.Eq) ] >>= fun kind ->
    return (cx, cy, c, kind))

let poly_of_spec specs =
  let base = box spxy [ ("x", -4, 4); ("y", -4, 4) ] in
  Poly.add_constrs base
    (List.map
       (fun (cx, cy, c, kind) ->
         Constr.make kind (Aff.of_terms spxy [ (cx, "x"); (cy, "y") ] ~const:c))
       specs)

let brute_empty specs =
  let p = poly_of_spec specs in
  let found = ref false in
  for x = -4 to 4 do
    for y = -4 to 4 do
      if Poly.mem p [| x; y |] then found := true
    done
  done;
  not !found

let prop_emptiness =
  QCheck.Test.make ~name:"FM emptiness is sound (never claims empty wrongly)"
    ~count:300
    QCheck.(make Gen.(list_size (int_range 0 4) gen_constr))
    (fun specs ->
      let fm = Poly.is_empty (poly_of_spec specs) in
      let bf = brute_empty specs in
      (* FM emptiness over Q: if FM says empty, brute force must agree.
         (The converse can fail only for Z-empty but Q-nonempty sets.) *)
      if fm then bf else true)

let prop_projection_sound =
  QCheck.Test.make ~name:"projection contains the shadow of every point"
    ~count:200
    QCheck.(make Gen.(list_size (int_range 0 3) gen_constr))
    (fun specs ->
      let p = poly_of_spec specs in
      let px = Poly.project_onto p [ 0 ] in
      let ok = ref true in
      for x = -4 to 4 do
        for y = -4 to 4 do
          if Poly.mem p [| x; y |] && not (Poly.mem px [| x |]) then ok := false
        done
      done;
      !ok)

(* ---------------- Pset ---------------- *)

let pset_of_boxes boxes =
  Pset.of_polys spxy (List.map (fun b -> box spxy b) boxes)

let points s = Pset.enumerate ~default_radius:10 s

let test_pset_union_intersect () =
  let a = pset_of_boxes [ [ ("x", 0, 2); ("y", 0, 2) ] ] in
  let b = pset_of_boxes [ [ ("x", 2, 4); ("y", 0, 2) ] ] in
  let u = Pset.union a b in
  checki "union size" (9 + 9 - 3) (List.length (points u));
  checki "intersection size" 3 (List.length (points (Pset.intersect a b)));
  checkb "a inside the union" true (points (Pset.intersect u a) = points a)

let test_pset_equal_coalesce () =
  let a = pset_of_boxes [ [ ("x", 0, 4) ]; [ ("x", 2, 4) ] ] in
  let b = pset_of_boxes [ [ ("x", 0, 4) ] ] in
  checkb "redundant piece equal" true (points a = points b);
  let c = Pset.coalesce a in
  checki "coalesced to 1 piece" 1 (List.length (Pset.pieces c))

let gen_boxes =
  QCheck.Gen.(
    list_size (int_range 1 3)
      ( int_range (-4) 3 >>= fun x0 ->
        int_range x0 4 >>= fun x1 ->
        int_range (-4) 3 >>= fun y0 ->
        int_range y0 4 >>= fun y1 ->
        return [ ("x", x0, x1); ("y", y0, y1) ] ))

let prop_set_algebra =
  QCheck.Test.make ~name:"pset algebra matches brute force" ~count:100
    QCheck.(make Gen.(pair gen_boxes gen_boxes))
    (fun (ba, bb) ->
      let a = pset_of_boxes ba and b = pset_of_boxes bb in
      let inside s (x, y) = Pset.mem s [| x; y |] in
      let all =
        List.concat_map
          (fun x -> List.map (fun y -> (x, y)) (List.init 11 (fun i -> i - 5)))
          (List.init 11 (fun i -> i - 5))
      in
      List.for_all
        (fun pt ->
          let u = inside (Pset.union a b) pt = (inside a pt || inside b pt) in
          let i =
            inside (Pset.intersect a b) pt = (inside a pt && inside b pt)
          in
          u && i)
        all)

(* ---------------- Pmap ---------------- *)

let test_pmap_image () =
  (* The paper's Figure 1: S1 = { [y,x] | 0<=y<=x<=4 },
     M = { [y,x] -> [y+1, x+3] }. *)
  let dom = Space.make ~params:[||] ~dims:[| "y"; "x" |] in
  let ran = Space.make ~params:[||] ~dims:[| "y'"; "x'" |] in
  let vy = Aff.var dom "y" and vx = Aff.var dom "x" in
  let s1 =
    Pset.of_poly
      (Poly.make dom
         [ Constr.ge2 vy (Aff.const dom 0);
           Constr.le2 vy vx;
           Constr.le2 vx (Aff.const dom 4) ])
  in
  let m =
    Pmap.of_affs ~dom ~ran
      ~affs:[| Aff.add_const vy 1; Aff.add_const vx 3 |]
      ~guards:[]
  in
  let s2 = Pmap.image m s1 in
  (* Equation 3: S2 = { [y,x] | 1 <= y <= x-2 and 3 <= x <= 7 } *)
  let expected =
    List.concat_map
      (fun x ->
        List.filter_map
          (fun y ->
            if 1 <= y && y <= x - 2 && 3 <= x && x <= 7 then Some [ y; x ]
            else None)
          (List.init 20 (fun i -> i - 5)))
      (List.init 20 (fun i -> i - 5))
  in
  check
    Alcotest.(list (list int))
    "figure 1 image" (List.sort compare expected)
    (Pset.enumerate ~default_radius:10 s2)

let test_pmap_domain_range () =
  let dom = Space.make ~params:[||] ~dims:[| "x" |] in
  let ran = Space.make ~params:[||] ~dims:[| "o" |] in
  let comb = Pmap.combined_space dom ran in
  let m =
    Pmap.of_affs ~dom ~ran
      ~affs:[| Aff.add_const (Aff.var dom "x") 10 |]
      ~guards:
        [ Constr.ge (Aff.var comb "x");
          Constr.le2 (Aff.var comb "x") (Aff.const comb 3) ]
  in
  check
    Alcotest.(list (list int))
    "domain" [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]
    (Pset.enumerate ~default_radius:10 (Pmap.domain m));
  check
    Alcotest.(list (list int))
    "range"
    [ [ 10 ]; [ 11 ]; [ 12 ]; [ 13 ] ]
    (Pset.enumerate ~default_radius:20 (Pmap.range m));
  (* preimage of {12} is {2} *)
  let target =
    Pset.of_poly
      (Poly.make ran [ Constr.eq2 (Aff.var ran "o") (Aff.const ran 12) ])
  in
  check
    Alcotest.(list (list int))
    "preimage" [ [ 2 ] ]
    (Pset.enumerate ~default_radius:20 (Pmap.preimage m target))

(* ---------------- Ast / codegen ---------------- *)

let collect_points stmt env =
  let pts = ref [] in
  Ast.exec env stmt
    ~on_point:(fun p -> pts := Array.to_list p :: !pts)
    ~on_range:(fun rows lo hi ->
      for v = lo to hi do
        pts := (Array.to_list rows @ [ v ]) :: !pts
      done);
  List.sort compare !pts

let test_scan_triangle () =
  let vx = Aff.var spxy "x" and vy = Aff.var spxy "y" in
  let tri =
    Poly.make spxy
      [ Constr.ge2 vy (Aff.const spxy 0);
        Constr.le2 vy vx;
        Constr.le2 vx (Aff.const spxy 3) ]
  in
  let expected = points (Pset.of_poly tri) in
  let got = collect_points (Ast.scan_set (Pset.of_poly tri)) (Hashtbl.create 8) in
  check Alcotest.(list (list int)) "scan = enumerate" expected got;
  let got_ranges =
    collect_points (Ast.scan_set ~emit_ranges:true (Pset.of_poly tri)) (Hashtbl.create 8)
  in
  check Alcotest.(list (list int)) "range scan = enumerate" expected got_ranges

let test_scan_parametric () =
  (* 0 <= x < n scanned with n bound at execution time. *)
  let sp = Space.make ~params:[| "n" |] ~dims:[| "x" |] in
  let p =
    Poly.make sp
      [ Constr.ge (Aff.var sp "x"); Constr.lt2 (Aff.var sp "x") (Aff.var sp "n") ]
  in
  let env = Hashtbl.create 8 in
  Hashtbl.replace env "n" 5;
  let got = collect_points (Ast.scan_set (Pset.of_poly p)) env in
  check Alcotest.(list (list int)) "parametric scan"
    [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ]
    got

let prop_scan_matches_enumerate =
  QCheck.Test.make ~name:"scan_set enumerates exactly the set" ~count:100
    QCheck.(make gen_boxes)
    (fun boxes ->
      let s = pset_of_boxes boxes in
      let expected = points s in
      let got =
        collect_points (Ast.scan_set s) (Hashtbl.create 8)
        |> List.sort_uniq compare
      in
      got = expected)

let test_unbounded_scan () =
  let p = Poly.make spxy [ Constr.ge (Aff.var spxy "x") ] in
  Alcotest.check_raises "unbounded raises" (Ast.Unbounded "x") (fun () ->
      ignore (Ast.scan_set (Pset.of_poly p)))

(* ---------------- Enumerate ---------------- *)

let test_enumerate_full_rows () =
  (* rows 2..5 of an n x n array, full width: must collapse to a single
     linear range [2n, 6n). *)
  let sp = Space.make ~params:[| "n" |] ~dims:[| "y"; "x" |] in
  let v nm = Aff.var sp nm in
  let s =
    Pset.of_poly
      (Poly.make sp
         [ Constr.ge2 (v "y") (Aff.const sp 2);
           Constr.le2 (v "y") (Aff.const sp 5);
           Constr.ge (v "x");
           Constr.lt2 (v "x") (v "n") ])
  in
  let e = Enumerate.of_set ~sizes:[| Ast.Var "n"; Ast.Var "n" |] s in
  let env = Enumerate.env_of_bindings [ ("n", 8) ] in
  check
    Alcotest.(list (pair int int))
    "collapsed band"
    [ (16, 48) ]
    (Enumerate.eval e env);
  (* The plan should contain a row-block node (collapse happened). *)
  let rec has_block = function
    | Enumerate.P_row_block _ -> true
    | Enumerate.P_seq l -> List.exists has_block l
    | Enumerate.P_for (_, _, _, b) | Enumerate.P_guard (_, b) -> has_block b
    | Enumerate.P_point _ | Enumerate.P_ranges _ -> false
  in
  checkb "row-block collapse applied" true (has_block e.Enumerate.plan)

let test_enumerate_partial_rows () =
  (* columns 1..2 of rows 0..1 in a 4x4 array: two ranges. *)
  let sp = Space.make ~params:[||] ~dims:[| "y"; "x" |] in
  let s = Pset.of_poly (box sp [ ("y", 0, 1); ("x", 1, 2) ]) in
  let e = Enumerate.of_set ~sizes:[| Ast.Int 4; Ast.Int 4 |] s in
  check
    Alcotest.(list (pair int int))
    "two row fragments"
    [ (1, 3); (5, 7) ]
    (Enumerate.eval e (Hashtbl.create 4))

let test_enumerate_merge () =
  check
    Alcotest.(list (pair int int))
    "canonicalize merges"
    [ (0, 10); (12, 15) ]
    (Enumerate.canonicalize
       [ (5, 10); (0, 5); (3, 7); (12, 14); (14, 15); (9, 9) ])

let prop_enumerate_covers =
  QCheck.Test.make ~name:"enumerator covers exactly the set points" ~count:100
    QCheck.(make gen_boxes)
    (fun boxes ->
      (* Interpret the boxes as sets over a 12x12 array at offset +5. *)
      let sp = Space.make ~params:[||] ~dims:[| "x"; "y" |] in
      let shift (nm, a, b) = (nm, a + 5, b + 5) in
      let s =
        Pset.of_polys sp (List.map (fun b -> box sp (List.map shift b)) boxes)
      in
      let e = Enumerate.of_set ~sizes:[| Ast.Int 12; Ast.Int 12 |] s in
      let ranges = Enumerate.eval e (Hashtbl.create 4) in
      let in_ranges off =
        List.exists (fun (a, b) -> a <= off && off < b) ranges
      in
      let ok = ref true in
      for x = 0 to 11 do
        for y = 0 to 11 do
          let off = (x * 12) + y in
          if Pset.mem s [| x; y |] <> in_ranges off then ok := false
        done
      done;
      (* Canonical ranges are sorted, disjoint and nonempty. *)
      let rec canon = function
        | [] | [ _ ] -> true
        | (a1, b1) :: ((a2, _) :: _ as rest) -> a1 < b1 && b1 < a2 && canon rest
      in
      !ok
      && canon ranges
      && match ranges with [] -> true | (a, b) :: _ -> a < b)

let qtest t = QCheck_alcotest.to_alcotest t

let base_suites =
    [
      ( "ints",
        [
          Alcotest.test_case "fdiv/cdiv" `Quick test_fdiv_cdiv;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "overflow" `Quick test_overflow;
          qtest prop_fdiv_cdiv;
          qtest prop_gcd_extremes;
        ] );
      ( "space-aff",
        [
          Alcotest.test_case "space" `Quick test_space;
          Alcotest.test_case "aff" `Quick test_aff;
        ] );
      ( "poly",
        [
          Alcotest.test_case "membership" `Quick test_poly_membership;
          Alcotest.test_case "emptiness" `Quick test_poly_empty;
          Alcotest.test_case "parametric emptiness" `Quick test_poly_param_empty;
          Alcotest.test_case "projection" `Quick test_poly_project;
          Alcotest.test_case "sampling" `Quick test_poly_sample;
          Alcotest.test_case "subsumption" `Quick test_poly_subsumes;
          qtest prop_emptiness;
          qtest prop_projection_sound;
        ] );
      ( "pset",
        [
          Alcotest.test_case "union/intersect" `Quick test_pset_union_intersect;
          Alcotest.test_case "equal/coalesce" `Quick test_pset_equal_coalesce;
          qtest prop_set_algebra;
        ] );
      ( "pmap",
        [
          Alcotest.test_case "figure-1 image" `Quick test_pmap_image;
          Alcotest.test_case "domain/range/preimage" `Quick test_pmap_domain_range;
        ] );
      ( "ast",
        [
          Alcotest.test_case "scan triangle" `Quick test_scan_triangle;
          Alcotest.test_case "scan parametric" `Quick test_scan_parametric;
          Alcotest.test_case "unbounded" `Quick test_unbounded_scan;
          qtest prop_scan_matches_enumerate;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "full-row collapse" `Quick test_enumerate_full_rows;
          Alcotest.test_case "partial rows" `Quick test_enumerate_partial_rows;
          Alcotest.test_case "merge" `Quick test_enumerate_merge;
          qtest prop_enumerate_covers;
        ] );
    ]

(* ---------------- Constraint normalization ---------------- *)

(* A constraint through the row normalization {!Poly} applies. *)
let normalize c =
  let r = Constr.to_row c in
  ignore (Row.normalize r);
  Constr.of_row (Constr.space c) r

let test_constr_normalize () =
  (* 2x + 2y + 3 >= 0 tightens to x + y + 1 >= 0 over Z *)
  let aff = Aff.of_terms spxy [ (2, "x"); (2, "y") ] ~const:3 in
  let c = normalize (Constr.ge aff) in
  checki "tightened coeff" 1 (coeff_of (Constr.aff c) "x");
  checki "floored constant" 1 (Aff.constant (Constr.aff c));
  (* equality with non-dividing constant is infeasible *)
  let e = normalize (Constr.eq (Aff.of_terms spxy [ (2, "x") ] ~const:1)) in
  checkb "infeasible eq detected" true
    (Poly_oracle.triviality e = Row.Trivially_false);
  (* equality sign canonicalization *)
  let e2 = normalize (Constr.eq (Aff.of_terms spxy [ (-1, "x") ] ~const:5)) in
  checki "sign flipped" 1 (coeff_of (Constr.aff e2) "x")

let prop_normalize_preserves_integers =
  QCheck.Test.make ~name:"normalization preserves integer solutions" ~count:300
    QCheck.(quad (int_range (-4) 4) (int_range (-4) 4) (int_range (-10) 10) bool)
    (fun (cx, cy, c, is_eq) ->
      let aff = Aff.of_terms spxy [ (cx, "x"); (cy, "y") ] ~const:c in
      let k = if is_eq then Constr.eq aff else Constr.ge aff in
      let k' = normalize k in
      let ok = ref true in
      for x = -6 to 6 do
        for y = -6 to 6 do
          let env = [| x; y |] in
          let before = Constr.eval k env in
          let after =
            match Poly_oracle.triviality k' with
            | Row.Trivially_true -> true
            | Row.Trivially_false -> false
            | Row.Nontrivial -> Constr.eval k' env
          in
          if before <> after then ok := false
        done
      done;
      !ok)

(* ---------------- Map algebra ---------------- *)

let prop_image_soundness =
  (* Every point of a set maps into the image under a random affine
     translation/scaling map. *)
  QCheck.Test.make ~name:"image contains all mapped points" ~count:100
    QCheck.(pair (make gen_boxes) (pair (int_range (-3) 3) (int_range (-3) 3)))
    (fun (boxes, (dx, dy)) ->
      let dom = Space.make ~params:[||] ~dims:[| "x"; "y" |] in
      let ran = Space.make ~params:[||] ~dims:[| "u"; "v" |] in
      let set =
        Pset.of_polys dom (List.map (fun b -> box dom b) boxes)
      in
      let m =
        Pmap.of_affs ~dom ~ran
          ~affs:
            [| Aff.add_const (Aff.var dom "x") dx;
               Aff.add_const (Aff.scale 2 (Aff.var dom "y")) dy |]
          ~guards:[]
      in
      let img = Pmap.image m set in
      List.for_all
        (fun pt ->
           match pt with
           | [ x; y ] -> Pset.mem img [| x + dx; (2 * y) + dy |]
           | _ -> false)
        (points set))

let test_map_inverse_roundtrip () =
  let dom = Space.make ~params:[||] ~dims:[| "x" |] in
  let ran = Space.make ~params:[||] ~dims:[| "u" |] in
  let m =
    Pmap.of_affs ~dom ~ran
      ~affs:[| Aff.add_const (Aff.var dom "x") 7 |]
      ~guards:[]
  in
  let s =
    Pset.of_poly
      (Poly.make dom
         [ Constr.ge (Aff.var dom "x");
           Constr.le2 (Aff.var dom "x") (Aff.const dom 5) ])
  in
  let back = Pmap.preimage m (Pmap.image m s) in
  (* for a bijective map, preimage(image(S)) = S *)
  check Alcotest.(list (list int)) "roundtrip"
    (Pset.enumerate ~default_radius:20 s)
    (Pset.enumerate ~default_radius:20 back)

(* ---------------- Parametric codegen ---------------- *)

let prop_parametric_scan =
  (* Scan a parametric trapezoid 0 <= y < h, 0 <= x < w - y for random
     (w, h) and compare against direct enumeration. *)
  QCheck.Test.make ~name:"parametric scan matches direct enumeration" ~count:60
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (w, h) ->
      let sp = Space.make ~params:[| "w"; "h" |] ~dims:[| "y"; "x" |] in
      let vy = Aff.var sp "y" and vx = Aff.var sp "x" in
      let poly =
        Poly.make sp
          [ Constr.ge2 vy (Aff.zero sp);
            Constr.lt2 vy (Aff.var sp "h");
            Constr.ge2 vx (Aff.zero sp);
            Constr.lt2 vx (Aff.sub (Aff.var sp "w") vy) ]
      in
      let env = Hashtbl.create 4 in
      Hashtbl.replace env "w" w;
      Hashtbl.replace env "h" h;
      let got = collect_points (Ast.scan_set (Pset.of_poly poly)) env in
      let expected =
        List.concat_map
          (fun y ->
             List.filter_map
               (fun x -> if x < w - y then Some [ y; x ] else None)
               (List.init (max 0 (w - y)) (fun i -> i)))
          (List.init h (fun i -> i))
        |> List.sort compare
      in
      got = expected)

(* ---------------- Rectangle merging ---------------- *)

let prop_merge_rects =
  QCheck.Test.make ~name:"merge_rects preserves coverage and shrinks" ~count:200
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 6)
            ( int_range 0 7 >>= fun r0 ->
              int_range r0 7 >>= fun r1 ->
              int_range 0 7 >>= fun c0 ->
              int_range c0 7 >>= fun c1 -> return (r0, r1, c0, c1) )))
    (fun rects ->
      let merged = Enumerate.merge_rects rects in
      let covered rs (r, c) =
        List.exists (fun (r0, r1, c0, c1) -> r0 <= r && r <= r1 && c0 <= c && c <= c1) rs
      in
      let ok = ref (List.length merged <= List.length rects) in
      for r = 0 to 7 do
        for c = 0 to 7 do
          if covered rects (r, c) <> covered merged (r, c) then ok := false
        done
      done;
      !ok)

let test_merge_rects_cases () =
  let eq_rects msg expected got = checkb msg true (expected = got) in
  (* column-adjacent same-rows rects merge *)
  eq_rects "columns merge" [ (0, 3, 0, 3) ]
    (Enumerate.merge_rects [ (0, 3, 0, 1); (0, 3, 2, 3) ]);
  (* row-adjacent same-cols rects merge *)
  eq_rects "rows merge" [ (0, 5, 1, 2) ]
    (Enumerate.merge_rects [ (0, 2, 1, 2); (3, 5, 1, 2) ]);
  (* subsumed rect dropped *)
  eq_rects "subsumption" [ (0, 5, 0, 5) ]
    (Enumerate.merge_rects [ (1, 2, 1, 2); (0, 5, 0, 5) ]);
  (* disjoint rects stay *)
  checki "disjoint stay" 2
    (List.length (Enumerate.merge_rects [ (0, 1, 0, 1); (4, 5, 4, 5) ]))

(* ---------------- Aff rebasing ---------------- *)

let prop_coalesce_preserves =
  QCheck.Test.make ~name:"coalesce preserves set membership" ~count:100
    (QCheck.make gen_boxes)
    (fun boxes ->
      let s = pset_of_boxes boxes in
      let c = Pset.coalesce s in
      let ok = ref true in
      for x = -5 to 5 do
        for y = -5 to 5 do
          if Pset.mem s [| x; y |] <> Pset.mem c [| x; y |] then ok := false
        done
      done;
      !ok && List.length (Pset.pieces c) <= List.length (Pset.pieces s))

let prop_inverse_involution =
  QCheck.Test.make ~name:"map inverse is an involution (semantically)"
    ~count:60
    QCheck.(pair (int_range (-3) 3) (int_range (-3) 3))
    (fun (dx, dy) ->
      let dom = Space.make ~params:[||] ~dims:[| "x"; "y" |] in
      let ran = Space.make ~params:[||] ~dims:[| "u"; "v" |] in
      let m =
        Pmap.of_affs ~dom ~ran
          ~affs:
            [| Aff.add_const (Aff.var dom "x") dx;
               Aff.add_const (Aff.var dom "y") dy |]
          ~guards:[]
      in
      let mm = Pmap.inverse (Pmap.inverse m) in
      let s = pset_of_boxes [ [ ("x", -2, 2); ("y", -1, 1) ] ] in
      Pset.enumerate ~default_radius:10 (Pmap.image m s)
      = Pset.enumerate ~default_radius:10 (Pmap.image mm s))

(* Variable [i] of [p] replaced by [e]: the substituted constraints,
   renormalized. *)
let poly_substitute p i e =
  if Poly.is_trivially_empty p then p
  else
    Poly.make (Poly.space p)
      (List.map (fun c -> Poly_oracle.substitute_constr c i e) (Poly.constraints p))

let prop_substitute_semantics =
  QCheck.Test.make ~name:"substitution preserves semantics" ~count:100
    QCheck.(pair (int_range (-3) 3) (int_range (-5) 5))
    (fun (k, c) ->
      (* P: 0 <= x <= 8, x <= y; substitute x := k*y + c and compare
         membership against manual evaluation. *)
      let vx = Aff.var spxy "x" and vy = Aff.var spxy "y" in
      let p =
        Poly.make spxy
          [ Constr.ge2 vx (Aff.const spxy 0);
            Constr.le2 vx (Aff.const spxy 8);
            Constr.le2 vx vy ]
      in
      let e = Aff.add_const (Aff.scale k vy) c in
      let q = poly_substitute p (Space.var_index_exn spxy "x") e in
      let ok = ref true in
      for y = -6 to 6 do
        let x = (k * y) + c in
        let expect = 0 <= x && x <= 8 && x <= y in
        (* q no longer constrains x *)
        if Poly.mem q [| 0; y |] <> expect then ok := false
      done;
      !ok)

let test_aff_rebase () =
  let small = Space.make ~params:[| "n" |] ~dims:[| "a" |] in
  let big = Space.make ~params:[| "n" |] ~dims:[| "z"; "a"; "b" |] in
  let aff = Aff.of_terms small [ (2, "a"); (3, "n") ] ~const:1 in
  let remap =
    Array.init (Space.n_total small) (fun i ->
        Space.var_index_exn big (Space.var_name small i))
  in
  let aff' = Aff.rebase aff big remap in
  checki "coeff a" 2 (coeff_of aff' "a");
  checki "coeff n" 3 (coeff_of aff' "n");
  checki "coeff z" 0 (coeff_of aff' "z");
  checki "const" 1 (Aff.constant aff')

(* ---------------- Flat-row core vs the list oracle ---------------- *)

(* The flat-row core must return the list oracle's constraint list in
   the same order, the same answers, and raise [Ints.Overflow] (or
   [Invalid_argument]) in exactly the same cases.  Coefficients include
   values near [max_int] and [min_int]; constraint lists include
   non-unit equalities, duplicates, opposing pairs and scaled copies;
   [rebase] remaps include permutations and merged variables. *)

let osp = Space.make ~params:[| "n" |] ~dims:[| "x"; "y"; "z" |]

let gen_coeff =
  QCheck.Gen.(
    frequency
      [ (12, int_range (-3) 3);
        ( 1,
          oneofl
            [ max_int; max_int - 1; max_int / 2; (max_int / 2) + 1; min_int; min_int + 1;
              1 lsl 61; -(1 lsl 61); (1 lsl 31) + 1; -(1 lsl 40) ] ) ])

(* A constraint spec: kind, four coefficients (truncated to the current
   space), constant. *)
let gen_cspec =
  QCheck.Gen.(
    map3
      (fun eq cs k -> (eq, cs, k))
      (frequency [ (1, return true); (3, return false) ])
      (array_repeat 4 gen_coeff)
      (frequency [ (6, int_range (-8) 8); (1, gen_coeff) ]))

(* A list of specs plus duplicates, opposing rows, scaled copies and
   contradictions of some of them. *)
let gen_cspecs =
  QCheck.Gen.(
    list_size (int_range 0 5) gen_cspec >>= fun base ->
    list_size (int_range 0 3)
      (int_range 0 3 >>= fun how ->
       int_range 0 9 >>= fun which -> return (how, which))
    >>= fun extras ->
    let derived =
      List.filter_map
        (fun (how, which) ->
           match List.nth_opt base which with
           | None -> None
           | Some (eq, cs, k) ->
             Some
               (match how with
                | 0 -> (eq, cs, k)
                | 1 -> (eq, Array.map (fun c -> -c) cs, -k)
                | 2 -> (eq, Array.map (fun c -> 2 * c) cs, (2 * k) + 1)
                | _ -> (false, Array.map (fun c -> -c) cs, -k - 1)))
        extras
    in
    shuffle_l (base @ derived))

let constr_of_spec space (eq, cs, k) =
  let n = Space.n_total space in
  let aff =
    Aff.of_terms space
      (List.init n (fun i -> (cs.(i), Space.var_name space i)))
      ~const:k
  in
  if eq then Constr.eq aff else Constr.ge aff

type oracle_op =
  | O_add of (bool * int array * int) list
  | O_intersect of (bool * int array * int) list
  | O_elim of int
  | O_project_out of int list
  | O_substitute of int * (bool * int array * int)
  | O_rebase of int array

let gen_oracle_op =
  QCheck.Gen.(
    frequency
      [ (3, map (fun l -> O_add l) gen_cspecs);
        (2, map (fun l -> O_intersect l) gen_cspecs);
        (4, map (fun i -> O_elim i) (int_range 0 3));
        (2, map (fun l -> O_project_out l) (list_size (int_range 0 2) (int_range 1 3)));
        (1, map2 (fun i s -> O_substitute (i, s)) (int_range 0 3) gen_cspec);
        ( 2,
          oneof
            [ map Array.of_list (shuffle_l [ 0; 1; 2; 3 ]);
              array_repeat 4 (int_range 0 3) ]
          >|= fun r -> O_rebase r ) ])

let pp_spec (eq, cs, k) =
  Printf.sprintf "%s[%s]%d" (if eq then "=" else ">=")
    (String.concat "," (Array.to_list (Array.map string_of_int cs))) k

let pp_oracle_op = function
  | O_add l -> "add " ^ String.concat " " (List.map pp_spec l)
  | O_intersect l -> "intersect " ^ String.concat " " (List.map pp_spec l)
  | O_elim i -> Printf.sprintf "elim %d" i
  | O_project_out l -> "project_out " ^ String.concat "," (List.map string_of_int l)
  | O_substitute (i, s) -> Printf.sprintf "subst %d %s" i (pp_spec s)
  | O_rebase r -> "rebase " ^ String.concat "," (Array.to_list (Array.map string_of_int r))

let arb_oracle_case =
  QCheck.make
    ~print:(fun (specs, ops, probe, point) ->
        Printf.sprintf "make %s; %s; probe %s; point %s"
          (String.concat " " (List.map pp_spec specs))
          (String.concat "; " (List.map pp_oracle_op ops))
          (String.concat " " (List.map pp_spec probe))
          (String.concat "," (Array.to_list (Array.map string_of_int point))))
    QCheck.Gen.(
      quad gen_cspecs (list_size (int_range 1 4) gen_oracle_op) gen_cspecs
        (array_repeat 4 (int_range (-3) 3)))

type 'a outcome = Value of 'a | Raised of string

let outcome f =
  match f () with
  | v -> Value v
  | exception Ints.Overflow -> Raised "Overflow"
  | exception Invalid_argument m -> Raised ("Invalid_argument " ^ m)

(* What a caller can see of a polyhedron. *)
let view space trivially_empty constrs =
  ( Printf.sprintf "[%s] -> {%s}"
      (String.concat ", " (Array.to_list (Space.params space)))
      (String.concat ", " (Array.to_list (Space.dims space))),
    trivially_empty,
    List.map (Format.asprintf "%a" Constr.pp) constrs )

let view_poly p = view (Poly.space p) (Poly.is_trivially_empty p) (Poly.constraints p)

let view_oracle (o : Poly_oracle.t) =
  view o.Poly_oracle.space o.Poly_oracle.trivially_empty (Poly_oracle.constraints o)

(* A fresh space with [space]'s names, for [rebase]. *)
let respace space = Space.make ~params:(Space.params space) ~dims:(Space.dims space)

let prop_core_matches_oracle =
  QCheck.Test.make ~name:"flat-row core matches the list oracle" ~count:2000 arb_oracle_case
    (fun (specs, ops, probe, point) ->
       let start () = List.map (constr_of_spec osp) specs in
       match (outcome (fun () -> Poly.make osp (start ())), outcome (fun () -> Poly_oracle.make osp (start ()))) with
       | Raised a, Raised b -> a = b
       | Value _, Raised _ | Raised _, Value _ -> false
       | Value p, Value o ->
         let step (p, o) op =
           let sp = Poly.space p in
           let cs l = List.map (constr_of_spec sp) l in
           match op with
           | O_add l ->
             (outcome (fun () -> Poly.add_constrs p (cs l)),
              outcome (fun () -> Poly_oracle.add_constrs o (cs l)))
           | O_intersect l ->
             (outcome (fun () -> Poly.intersect p (Poly.make sp (cs l))),
              outcome (fun () -> Poly_oracle.intersect o (Poly_oracle.make sp (cs l))))
           | O_elim i ->
             let i = i mod Space.n_total sp in
             (outcome (fun () -> Poly.eliminate_var p i), outcome (fun () -> Poly_oracle.eliminate_var o i))
           | O_project_out l ->
             let l = List.filter (fun i -> i < Space.n_total sp) l in
             (outcome (fun () -> Poly.project_out p l), outcome (fun () -> Poly_oracle.project_out o l))
           | O_substitute (i, s) ->
             let i = i mod Space.n_total sp in
             let e = Constr.aff (constr_of_spec sp s) in
             (outcome (fun () -> poly_substitute p i e), outcome (fun () -> Poly_oracle.substitute o i e))
           | O_rebase r ->
             let n = Space.n_total sp in
             let remap = Array.init n (fun i -> r.(i) mod n) in
             let sp' = respace sp in
             (* The flat-row [rebase] renormalizes, as [make] does. *)
             let rebase_make o =
               let o = Poly_oracle.rebase o sp' remap in
               if o.Poly_oracle.trivially_empty then o else Poly_oracle.make sp' o.Poly_oracle.constrs
             in
             (outcome (fun () -> Poly.rebase p sp' remap), outcome (fun () -> rebase_make o))
         in
         let rec run (p, o) = function
           | [] ->
             (* Final observations on the surviving pair. *)
             let sp = Poly.space p in
             let q = List.map (constr_of_spec sp) probe in
             let point = Array.sub point 0 (Space.n_total sp) in
             let nd = Space.n_dims sp in
             let agree f g = outcome f = outcome g in
             agree (fun () -> Poly.is_empty p) (fun () -> Poly_oracle.is_empty o)
             && agree
                  (fun () -> view_poly (Poly.project_onto p [ 0 ]))
                  (fun () -> view_oracle (Poly_oracle.project_onto o [ 0 ]))
             && agree
                  (fun () -> view_poly (Poly.project_onto p [ nd - 1 ]))
                  (fun () -> view_oracle (Poly_oracle.project_onto o [ nd - 1 ]))
             && agree
                  (fun () -> Poly.subsumes p (Poly.make sp q))
                  (fun () -> Poly_oracle.subsumes o (Poly_oracle.make sp q))
             && agree
                  (fun () -> Poly.subsumes (Poly.make sp q) p)
                  (fun () -> Poly_oracle.subsumes (Poly_oracle.make sp q) o)
             && agree
                  (fun () -> Poly.mem p point)
                  (fun () ->
                     (not o.Poly_oracle.trivially_empty)
                     && List.for_all (fun c -> Constr.eval c point) o.Poly_oracle.constrs)
           | op :: rest -> (
               match step (p, o) op with
               | Raised a, Raised b -> a = b
               | Value p, Value o -> view_poly p = view_oracle o && run (p, o) rest
               | _ -> false)
         in
         view_poly p = view_oracle o && run (p, o) ops)

(* ---------------- Brute-force oracle over small boxes ---------------- *)

let bsp = Space.make ~params:[||] ~dims:[| "x"; "y" |]

let gen_small_constr ~coeff =
  QCheck.Gen.(
    map3
      (fun eq (cx, cy) k -> (eq, [| cx; cy |], k))
      (frequency [ (1, return true); (5, return false) ])
      (pair coeff coeff) (int_range (-4) 4))

let small_poly space ~lo ~hi specs =
  let n = Space.n_dims space in
  let names = Space.dims space in
  Poly.make space
    (List.concat
       (List.init n (fun d ->
            let v = Aff.var space names.(d) in
            [ Constr.ge2 v (Aff.const space lo); Constr.le2 v (Aff.const space hi) ]))
     @ List.map (constr_of_spec space) specs)

let gen_small_set ~coeff =
  QCheck.Gen.(list_size (int_range 1 2) (list_size (int_range 0 3) (gen_small_constr ~coeff)))

let small_set space ~lo ~hi pieces =
  Pset.of_polys space (List.map (small_poly space ~lo ~hi) pieces)

let grid lo hi =
  List.concat_map (fun x -> List.map (fun y -> [ x; y ]) (List.init (hi - lo + 1) (( + ) lo)))
    (List.init (hi - lo + 1) (( + ) lo))

let print_pieces pieces =
  String.concat " | "
    (List.map (fun specs -> String.concat " " (List.map pp_spec specs)) pieces)

(* Unimodular 2x2 matrices: products of swaps, sign flips and shears. *)
let gen_unimodular =
  QCheck.Gen.(
    list_size (int_range 1 3)
      (oneof
         [ return [| [| 0; 1 |]; [| 1; 0 |] |];
           return [| [| -1; 0 |]; [| 0; 1 |] |];
           map (fun k -> [| [| 1; k |]; [| 0; 1 |] |]) (int_range (-2) 2);
           map (fun k -> [| [| 1; 0 |]; [| k; 1 |] |]) (int_range (-2) 2) ])
    >|= List.fold_left
      (fun m e ->
         Array.init 2 (fun i ->
             Array.init 2 (fun j -> (e.(i).(0) * m.(0).(j)) + (e.(i).(1) * m.(1).(j)))))
      [| [| 1; 0 |]; [| 0; 1 |] |])

let map_of ~m ~shift =
  let dom = bsp and ran = Space.make ~params:[||] ~dims:[| "u"; "v" |] in
  let row i =
    Aff.of_terms dom [ (m.(i).(0), "x"); (m.(i).(1), "y") ] ~const:shift.(i)
  in
  Pmap.of_affs ~dom ~ran ~affs:[| row 0; row 1 |] ~guards:[]

let apply ~m ~shift = function
  | [ x; y ] ->
    [ (m.(0).(0) * x) + (m.(0).(1) * y) + shift.(0); (m.(1).(0) * x) + (m.(1).(1) * y) + shift.(1) ]
  | _ -> assert false

let gen_shift = QCheck.Gen.(array_repeat 2 (int_range (-3) 3))

let coeff2 = QCheck.Gen.int_range (-2) 2

(* Image under a unimodular map is exact over Z. *)
let prop_brute_image =
  QCheck.Test.make ~name:"image matches brute force" ~count:2500
    (QCheck.make
       ~print:(fun (pieces, _, _) -> print_pieces pieces)
       QCheck.Gen.(triple (gen_small_set ~coeff:coeff2) gen_unimodular gen_shift))
    (fun (pieces, m, shift) ->
       let s = small_set bsp ~lo:(-4) ~hi:4 pieces in
       let want =
         List.filter (fun pt -> Pset.mem s (Array.of_list pt)) (grid (-4) 4)
         |> List.map (apply ~m ~shift) |> List.sort_uniq compare
       in
       let img = Pmap.image (map_of ~m ~shift) s in
       Pset.enumerate ~default_radius:100 img = want
       || QCheck.Test.fail_reportf "m = [%d %d; %d %d], shift = (%d, %d): image %s"
         m.(0).(0) m.(0).(1) m.(1).(0) m.(1).(1) shift.(0) shift.(1) (Pset.to_string img))

(* Preimage under any integer map is exact over Z: the eliminated range
   dims have unit coefficients. *)
let prop_brute_preimage =
  QCheck.Test.make ~name:"preimage matches brute force" ~count:2000
    (QCheck.make
       ~print:(fun (pieces, _, _) -> print_pieces pieces)
       QCheck.Gen.(triple (gen_small_set ~coeff:coeff2) (array_repeat 2 (array_repeat 2 coeff2)) gen_shift))
    (fun (pieces, m, shift) ->
       let ran = Space.make ~params:[||] ~dims:[| "u"; "v" |] in
       let t = small_set ran ~lo:(-6) ~hi:6 pieces in
       let pre = Pmap.preimage (map_of ~m ~shift) t in
       List.for_all
         (fun pt ->
            Pset.mem pre (Array.of_list pt) = Pset.mem t (Array.of_list (apply ~m ~shift pt)))
         (grid (-5) 5))

(* Projecting out a variable whose coefficients are all units is exact
   over Z. *)
let prop_brute_project =
  let sp3 = Space.make ~params:[||] ~dims:[| "x"; "y"; "z" |] in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 2)
        (list_size (int_range 0 4)
           (map3
              (fun eq (cx, cy, cz) k -> (eq, [| cx; cy; cz |], k))
              (frequency [ (1, return true); (5, return false) ])
              (triple coeff2 (int_range (-1) 1) coeff2)
              (int_range (-4) 4))))
  in
  QCheck.Test.make ~name:"projection matches brute force" ~count:2000
    (QCheck.make ~print:print_pieces gen)
    (fun pieces ->
       let s = small_set sp3 ~lo:(-3) ~hi:3 pieces in
       let want =
         List.concat_map (fun x -> List.map (fun z -> [ x; z ]) (List.init 7 (( + ) (-3)))) (List.init 7 (( + ) (-3)))
         |> List.filter (fun [@warning "-8"] [ x; z ] ->
             List.exists (fun y -> Pset.mem s [| x; y; z |]) (List.init 7 (( + ) (-3))))
       in
       Pset.enumerate (Pset.project_onto s [ 0; 2 ]) = want)

(* Enumerators emit each row's lexmin..lexmax; the ranges must cover
   exactly the set's points of an 8x8 (or 4x4x4) array. *)
let prop_brute_enumerate =
  QCheck.Test.make ~name:"enumerator rows match brute force" ~count:2000
    (QCheck.make
       ~print:(fun (rank3, pieces) -> Printf.sprintf "rank3=%b %s" rank3 (print_pieces pieces))
       QCheck.Gen.(pair bool (gen_small_set ~coeff:coeff2)))
    (fun (rank3, pieces) ->
       let dims, side = if rank3 then ([| "x"; "y"; "z" |], 4) else ([| "x"; "y" |], 8) in
       let sp = Space.make ~params:[||] ~dims in
       let pieces =
         if rank3 then
           List.map (List.map (fun (eq, cs, k) -> (eq, [| cs.(0); cs.(1); cs.(0) - cs.(1) |], k))) pieces
         else pieces
       in
       let s = small_set sp ~lo:0 ~hi:(side - 1) pieces in
       let e = Enumerate.of_set ~sizes:(Array.map (fun _ -> Ast.Int side) dims) s in
       let rec points d prefix =
         if d = Array.length dims then
           if Pset.mem s (Array.of_list (List.rev prefix)) then
             [ List.fold_left (fun acc c -> (acc * side) + c) 0 (List.rev prefix) ]
           else []
         else List.concat_map (fun c -> points (d + 1) (c :: prefix)) (List.init side Fun.id)
       in
       Enumerate.eval e (Hashtbl.create 1)
       = Enumerate.canonicalize (List.map (fun o -> (o, o + 1)) (points 0 []))
       || QCheck.Test.fail_reportf "set %s, enumerator\n%a" (Pset.to_string s) Enumerate.pp e)

(* ---------------- Documented inexactness and checked bounds ---------------- *)

(* [Poly.project_onto] does not check the unimodularity precondition:
   projecting { (i, x) : x = 2i, 0 <= i <= 3 } onto x gives the
   rational shadow 0 <= x <= 6, which holds odd x. *)
let test_non_unimodular_shadow () =
  let sp = Space.make ~params:[||] ~dims:[| "i"; "x" |] in
  let vi = Aff.var sp "i" and vx = Aff.var sp "x" in
  let p =
    Poly.make sp
      [ Constr.eq2 vx (Aff.scale 2 vi); Constr.ge vi; Constr.le2 vi (Aff.const sp 3) ]
  in
  let px = Poly.project_onto p [ 1 ] in
  check
    Alcotest.(list (list int))
    "shadow points" [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ]; [ 6 ] ]
    (Pset.enumerate (Pset.of_poly px));
  checkb "odd x is in the shadow" true (Poly.mem px [| 1 |]);
  checkb "but has no integer preimage" true
    (Poly.is_empty (Poly.add_constrs p [ Constr.eq2 vx (Aff.const sp 1) ]))

let test_numeric_bounds_checked () =
  (* x <= 2^61 * y: at y = 4 the bound 2^63 does not fit. *)
  let sp = Space.make ~params:[||] ~dims:[| "y"; "x" |] in
  let p =
    Poly.make sp
      [ Constr.le2 (Aff.var sp "x") (Aff.scale (1 lsl 61) (Aff.var sp "y")); Constr.ge (Aff.var sp "y") ]
  in
  check
    Alcotest.(pair (option int) (option int))
    "in range" (None, Some (1 lsl 61))
    (Poly.numeric_bounds p 1 [| Some 1; None |]);
  Alcotest.check_raises "overflowing bound raises" Ints.Overflow (fun () ->
      ignore (Poly.numeric_bounds p 1 [| Some 4; None |]))

(* ---------------- Absent variables and the partition box ---------------- *)

(* Eliminating a variable no row mentions returns the same rows and is
   not counted as an elimination. *)
let prop_eliminate_absent =
  QCheck.Test.make ~name:"eliminating an absent variable returns the same rows" ~count:500
    QCheck.(pair (make gen_cspecs) (int_range 0 3))
    (fun (specs, i) ->
       let absent =
         List.map (fun (eq, cs, k) -> (eq, Array.mapi (fun j c -> if j = i then 0 else c) cs, k)) specs
       in
       match Poly.make osp (List.map (constr_of_spec osp) absent) with
       | exception Ints.Overflow -> QCheck.assume_fail ()
       | p ->
         let before = Work.counters.eliminations in
         let q = Poly.eliminate_var p i in
         (not (Poly.mentions p i))
         && view_poly q = view_poly p
         && Work.counters.eliminations = before)

(* The partition box built by name: twelve [Constr] inequalities whose
   variables are looked up in the map's combined space, an oracle for
   [Codegen]'s rows built at indices. *)
let name_box comb =
  List.concat_map
    (fun a ->
       let v n = Aff.var comb n in
       [
         Constr.ge2 (v (Mekong.Access.bo_name a)) (v (Mekong.Access.box_min_bo a));
         Constr.lt2 (v (Mekong.Access.bo_name a)) (v (Mekong.Access.box_max_bo a));
         Constr.ge2 (v (Mekong.Access.b_name a)) (v (Mekong.Access.box_min_b a));
         Constr.lt2 (v (Mekong.Access.b_name a)) (v (Mekong.Access.box_max_b a));
       ])
    Dim3.axes

(* A random access map over a kernel's analysis spaces: [scalars]
   scalar parameters, an array of [rank] dims, subscripts and guards
   over the grid dims of the [used] axes only, in one or two pieces. *)
type box_case = {
  scalars : int;
  rank : int;
  used : Dim3.axis list;
  pieces : ((int array * int) array * (int array * int) list) list;
      (* per piece: per out dim, grid and scalar coefficients and a
         constant; then guards [coeffs . (grid, scalars) + k >= 0] *)
}

let gen_box_case =
  QCheck.Gen.(
    int_range 0 3 >>= fun scalars ->
    int_range 1 3 >>= fun rank ->
    oneofl
      [ [ Dim3.X ]; [ Dim3.Y ]; [ Dim3.Z ]; [ Dim3.Y; Dim3.X ]; [ Dim3.Z; Dim3.X ];
        [ Dim3.Z; Dim3.Y; Dim3.X ] ]
    >>= fun used ->
    let coeffs = array_repeat (6 + scalars) (frequency [ (3, return 0); (2, int_range (-2) 2) ]) in
    let term = pair coeffs (int_range (-3) 3) in
    list_size (int_range 1 2) (pair (array_repeat rank term) (list_size (int_range 0 2) term))
    >>= fun pieces -> return { scalars; rank; used; pieces })

let print_box_case c =
  let term (cs, k) =
    Printf.sprintf "[%s]%+d" (String.concat "," (Array.to_list (Array.map string_of_int cs))) k
  in
  Printf.sprintf "scalars=%d rank=%d used=%s pieces=%s" c.scalars c.rank
    (String.concat "" (List.map Dim3.axis_name c.used))
    (String.concat " | "
       (List.map
          (fun (outs, guards) ->
             String.concat " " (Array.to_list (Array.map term outs))
             ^ " if " ^ String.concat " " (List.map term guards))
          c.pieces))

let map_of_box_case c =
  let kernel =
    Kir.kernel ~name:"k"
      ~params:
        (List.init c.scalars (fun j -> Kir.Scalar (Printf.sprintf "s%d" j))
         @ [ Kir.Array { name = "a"; dims = Array.make c.rank (Kir.Dim_const 8) } ])
      []
  in
  let params = (Result.get_ok (Mekong.Access.analyze kernel)).Mekong.Access.params in
  let grid_names =
    Array.of_list (List.map Mekong.Access.bo_name Dim3.axes @ List.map Mekong.Access.b_name Dim3.axes)
  in
  let dom = Space.make ~params ~dims:grid_names in
  let ran = Space.make ~params ~dims:(Array.init c.rank (Mekong.Access.out_name "a")) in
  let comb = Pmap.combined_space dom ran in
  (* Grid coefficients of unused axes are dropped. *)
  let aff space (cs, k) =
    let grid =
      List.concat
        (List.mapi
           (fun i name ->
              let axis = List.nth Dim3.axes (i mod 3) in
              if List.mem axis c.used then [ (cs.(i), name) ] else [])
           (Array.to_list grid_names))
    in
    Aff.of_terms space
      (grid @ List.init c.scalars (fun j -> (cs.(6 + j), Printf.sprintf "s%d" j)))
      ~const:k
  in
  let piece (outs, guards) =
    Pmap.of_affs ~dom ~ran ~affs:(Array.map (aff dom) outs)
      ~guards:(List.map (fun g -> Constr.ge (aff comb g)) guards)
  in
  match List.map piece c.pieces with
  | m :: rest -> List.fold_left Pmap.union m rest
  | [] -> assert false

let view_set s = List.map view_poly (Pset.pieces s)

(* The index-built box gives the name-built image, with strictly
   fewer eliminations when some feasible piece leaves a grid dim
   unmentioned.  An empty image is the exception: a piece found
   infeasible stops after one elimination on both paths, so there the
   index-built box may only tie. *)
let box_rows_match_names c =
  let m = map_of_box_case c in
  let comb = Pmap.combined m in
  let e0 = Work.counters.eliminations in
  let by_names = Pmap.range (Pmap.constrain m (name_box comb)) in
  let e1 = Work.counters.eliminations in
  let by_index = Mekong.Codegen.partition_image m in
  let e2 = Work.counters.eliminations in
  (* A grid dim some piece does not mention costs no elimination. *)
  let np = Space.n_params comb in
  let absent =
    List.exists
      (fun p ->
         (not (Poly.is_trivially_empty p))
         && List.exists (fun d -> not (Poly.mentions p (np + d))) [ 0; 1; 2; 3; 4; 5 ])
      (Pset.pieces (Pmap.rel m))
  in
  let by_index_n = e2 - e1 and by_names_n = e1 - e0 in
  view_set by_index = view_set by_names
  &&
  if not absent then by_index_n = by_names_n
  else if Pset.is_empty by_names then by_index_n <= by_names_n
  else by_index_n < by_names_n

let prop_box_rows_match_names =
  QCheck.Test.make ~name:"index-built box == name-built box, then range" ~count:300
    (QCheck.make ~print:print_box_case gen_box_case)
    box_rows_match_names

(* Two generated cases whose image is empty, where both boxes stop
   after the same elimination count. *)
let test_box_rows_empty_image () =
  let cases =
    [
      {
        scalars = 1;
        rank = 3;
        used = [ Dim3.Z ];
        pieces =
          [
            ( [| ([| 0; 0; -1; 0; 0; 0; 0 |], 0); ([| 0; 0; -2; 0; 1; 0; 0 |], 1);
                 ([| 0; 0; 0; 0; 0; 1; -1 |], -2) |],
              [ ([| 2; 0; 0; 0; 0; 0; 0 |], 3); ([| -2; 1; 0; 0; 0; -1; 0 |], -3) ] );
            ( [| ([| 0; 1; 0; 1; 0; 0; 0 |], -2); ([| 0; 0; 0; 0; -2; 0; 0 |], 2);
                 ([| 0; -2; 0; 1; 0; -1; 0 |], 2) |],
              [ ([| -2; 0; 1; 0; 1; 0; 0 |], 0); ([| 0; 0; 1; 0; 0; -2; 0 |], -3) ] );
          ];
      };
      {
        scalars = 0;
        rank = 2;
        used = [ Dim3.Z ];
        pieces =
          [
            ( [| ([| 0; 2; 0; 0; 0; 0 |], -1); ([| 0; 2; 0; 0; 0; 0 |], -2) |],
              [ ([| -1; 0; 1; 0; 0; 0 |], -2); ([| 1; -1; 2; 0; 0; 0 |], 0) ] );
          ];
      };
    ]
  in
  List.iter
    (fun c ->
       Alcotest.(check bool) (print_box_case c) true (box_rows_match_names c))
    cases

let () =
  Alcotest.run "poly"
    (base_suites
     @ [
         ( "constr",
           [
             Alcotest.test_case "normalization" `Quick test_constr_normalize;
             qtest prop_normalize_preserves_integers;
           ] );
         ( "map-algebra",
           [
             qtest prop_image_soundness;
             Alcotest.test_case "inverse roundtrip" `Quick test_map_inverse_roundtrip;
           ] );
         ( "codegen-parametric", [ qtest prop_parametric_scan ] );
         ( "rects",
           [
             qtest prop_merge_rects;
             Alcotest.test_case "merge cases" `Quick test_merge_rects_cases;
           ] );
         ("aff-rebase", [ Alcotest.test_case "rebase" `Quick test_aff_rebase ]);
         ( "poly-oracle",
           [
             qtest prop_core_matches_oracle;
             Alcotest.test_case "non-unimodular shadow" `Quick test_non_unimodular_shadow;
             Alcotest.test_case "checked numeric bounds" `Quick test_numeric_bounds_checked;
           ] );
         ( "brute-force",
           [
             qtest prop_brute_image;
             qtest prop_brute_preimage;
             qtest prop_brute_project;
             qtest prop_brute_enumerate;
           ] );
         ( "partition-box",
           [
             qtest prop_eliminate_absent;
             qtest prop_box_rows_match_names;
             Alcotest.test_case "empty images" `Quick test_box_rows_empty_image;
           ] );
         ( "more-properties",
           [
             qtest prop_coalesce_preserves;
             qtest prop_inverse_involution;
             qtest prop_substitute_semantics;
           ] );
       ])
