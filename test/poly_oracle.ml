(* The list-of-[Constr.t] Fourier-Motzkin that {!Ppoly.Poly} replaced,
   kept as the differential oracle for the flat-row core.

   Every polyhedron is a [Constr.t] list; normalization goes through
   [Aff] arithmetic, deduplication through a polymorphic-compare [Map]
   over freshly built coefficient arrays, and every elimination
   renormalizes and re-sorts the whole list.  The one departure from
   the replaced code is that elimination's negations and absolute
   values of coefficients are checked ([Ints.neg]), as they are in the
   new core. *)

open Ppoly

type t = { space : Space.t; constrs : Constr.t list; trivially_empty : bool }

let coeffs aff = Array.init (Space.n_total (Aff.space aff)) (Aff.coeff aff)

(* Gcd of the variable coefficients. *)
let gcd_coeffs aff = Array.fold_left Ints.gcd 0 (coeffs aff)

(* Divide coefficients and constant by a [g] that divides them. *)
let divide_exact aff g =
  Aff.of_terms (Aff.space aff)
    (List.mapi (fun i c -> (c / g, Space.var_name (Aff.space aff) i)) (Array.to_list (coeffs aff)))
    ~const:(Aff.constant aff / g)

(* Classification of a constraint with no variable coefficients. *)
let triviality c : Row.triviality =
  let aff = Constr.aff c in
  if Aff.is_constant aff then
    let k = Aff.constant aff in
    match Constr.kind c with
    | Constr.Eq -> if k = 0 then Row.Trivially_true else Row.Trivially_false
    | Constr.Ge -> if k >= 0 then Row.Trivially_true else Row.Trivially_false
  else Row.Nontrivial

(* [c] with variable [i] replaced by the expression [e] over its space. *)
let substitute_constr c i e =
  let aff = Constr.aff c in
  let k = Aff.coeff aff i in
  if k = 0 then c
  else Constr.make (Constr.kind c) (Aff.add (Aff.set_coeff aff i 0) (Aff.scale k e))

(* Divide by the gcd of the variable coefficients; tighten inequality
   constants; make an equality's first nonzero coefficient positive;
   an equality whose gcd does not divide its constant becomes [1 = 0]. *)
let normalize c =
  let aff = Constr.aff c in
  let g = gcd_coeffs aff in
  if g = 0 then c
  else
    match Constr.kind c with
    | Constr.Ge ->
      if g = 1 then c
      else
        let aff' = divide_exact (Aff.add_const aff (- Aff.constant aff)) g in
        Constr.ge (Aff.add_const aff' (Ints.fdiv (Aff.constant aff) g))
    | Constr.Eq ->
      let aff =
        if g = 1 then aff
        else if Aff.constant aff mod g <> 0 then Aff.const (Aff.space aff) 1
        else divide_exact aff g
      in
      let n = Space.n_total (Aff.space aff) in
      let rec first_nonzero i =
        if i >= n then 0
        else if Aff.coeff aff i <> 0 then Aff.coeff aff i
        else first_nonzero (i + 1)
      in
      if first_nonzero 0 < 0 then Constr.eq (Aff.neg aff) else Constr.eq aff

(* Deduplicate and keep, for each coefficient vector, only the tightest
   inequality; the list comes out descending in the map's key. *)
let simplify_list constrs =
  let module M = Map.Make (struct
    type t = Constr.kind * int array * int option
    let compare = compare
  end) in
  let add acc c =
    let coeffs =
      Array.init (Space.n_total (Constr.space c)) (fun i -> Aff.coeff (Constr.aff c) i)
    in
    let key =
      match Constr.kind c with
      | Constr.Ge -> (Constr.Ge, coeffs, None)
      | Constr.Eq -> (Constr.Eq, coeffs, Some (Aff.constant (Constr.aff c)))
    in
    match M.find_opt key acc with
    | None -> M.add key c acc
    | Some c' ->
      let k = Aff.constant (Constr.aff c) and k' = Aff.constant (Constr.aff c') in
      if Constr.kind c = Constr.Ge && k < k' then M.add key c acc else acc
  in
  let m = List.fold_left add M.empty constrs in
  M.fold (fun _ c l -> c :: l) m []

let make space constrs =
  let rec go acc = function
    | [] -> { space; constrs = simplify_list acc; trivially_empty = false }
    | c :: rest ->
      if not (Space.equal (Constr.space c) space) then invalid_arg "Poly.make: space mismatch";
      let c = normalize c in
      (match triviality c with
       | Row.Trivially_true -> go acc rest
       | Row.Trivially_false -> { space; constrs = []; trivially_empty = true }
       | Row.Nontrivial -> go (c :: acc) rest)
  in
  go [] constrs

let empty space = { space; constrs = []; trivially_empty = true }
let constraints p = if p.trivially_empty then [] else p.constrs

let add_constrs p cs = if p.trivially_empty then p else make p.space (cs @ p.constrs)

let intersect a b =
  if not (Space.equal a.space b.space) then invalid_arg "Poly.intersect: space mismatch";
  if a.trivially_empty || b.trivially_empty then empty a.space
  else make a.space (a.constrs @ b.constrs)

let split_on constrs i =
  List.fold_left
    (fun (eqs, lows, ups, rest) c ->
       let a = Aff.coeff (Constr.aff c) i in
       if a = 0 then (eqs, lows, ups, c :: rest)
       else
         match Constr.kind c with
         | Constr.Eq -> (c :: eqs, lows, ups, rest)
         | Constr.Ge -> if a > 0 then (eqs, c :: lows, ups, rest) else (eqs, lows, c :: ups, rest))
    ([], [], [], []) constrs

let rest_of c i = Aff.set_coeff (Constr.aff c) i 0

let eliminate_from_list constrs i =
  let eqs, lows, ups, rest = split_on constrs i in
  match eqs with
  | e :: other_eqs ->
    let a = Aff.coeff (Constr.aff e) i in
    let r = rest_of e i in
    let subst c =
      let b = Aff.coeff (Constr.aff c) i in
      if b = 0 then c
      else
        let abs_a = if a < 0 then Ints.neg a else a in
        let k = if a > 0 then Ints.neg b else b in
        Constr.make (Constr.kind c) (Aff.add (Aff.scale abs_a (rest_of c i)) (Aff.scale k r))
    in
    List.map subst (other_eqs @ lows @ ups) @ rest
  | [] ->
    let combos =
      List.concat_map
        (fun l ->
           let al = Aff.coeff (Constr.aff l) i in
           List.map
             (fun u ->
                let au = Aff.coeff (Constr.aff u) i in
                Constr.ge
                  (Aff.add (Aff.scale al (rest_of u i)) (Aff.scale (Ints.neg au) (rest_of l i))))
             ups)
        lows
    in
    combos @ rest

let elimination_cost constrs i =
  let eqs, lows, ups, _ = split_on constrs i in
  if eqs <> [] then List.length lows + List.length ups
  else List.length lows * List.length ups

exception Found_empty

let renormalize constrs =
  let step acc c =
    let c = normalize c in
    match triviality c with
    | Row.Trivially_true -> acc
    | Row.Trivially_false -> raise Found_empty
    | Row.Nontrivial -> c :: acc
  in
  simplify_list (List.fold_left step [] constrs)

let eliminate_var p i =
  if p.trivially_empty then p
  else
    try { p with constrs = renormalize (eliminate_from_list p.constrs i) }
    with Found_empty -> empty p.space

let is_empty p =
  if p.trivially_empty then true
  else
    let n = Space.n_total p.space in
    let rec go constrs remaining =
      match (constrs, remaining) with
      | [], _ | _, [] -> false
      | _ ->
        let occurring =
          List.filter
            (fun i -> List.exists (fun c -> Aff.coeff (Constr.aff c) i <> 0) constrs)
            remaining
        in
        (match occurring with
         | [] -> false
         | first :: others ->
           let i =
             List.fold_left
               (fun best j ->
                  if elimination_cost constrs j < elimination_cost constrs best then j else best)
               first others
           in
           go (renormalize (eliminate_from_list constrs i)) (List.filter (fun j -> j <> i) occurring))
    in
    (try go p.constrs (List.init n (fun i -> i)) with Found_empty -> true)

let project_out p idxs =
  let idxs = List.sort_uniq compare idxs in
  List.iter
    (fun i -> if i < Space.n_params p.space then invalid_arg "Poly.project_out: parameter")
    idxs;
  if p.trivially_empty then
    empty (List.fold_left (fun sp i -> Space.drop_dim sp i) p.space (List.rev idxs))
  else begin
    let constrs =
      try Some (List.fold_left (fun cs i -> renormalize (eliminate_from_list cs i)) p.constrs idxs)
      with Found_empty -> None
    in
    let n = Space.n_total p.space in
    let keep = Array.make n true in
    List.iter (fun i -> keep.(i) <- false) idxs;
    let space =
      Space.filter_dims p.space (fun dim_local -> keep.(Space.n_params p.space + dim_local))
    in
    let remap = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if keep.(i) then begin
        remap.(i) <- !next;
        incr next
      end
    done;
    match constrs with
    | None -> empty space
    | Some cs ->
      { space; constrs = List.map (fun c -> Constr.rebase c space remap) cs; trivially_empty = false }
  end

let project_onto p keep_local =
  let np = Space.n_params p.space in
  let drop = ref [] in
  for d = Space.n_dims p.space - 1 downto 0 do
    if not (List.mem d keep_local) then drop := (np + d) :: !drop
  done;
  project_out p !drop

let substitute p i e =
  if p.trivially_empty then p
  else
    try { p with constrs = renormalize (List.map (fun c -> substitute_constr c i e) p.constrs) }
    with Found_empty -> empty p.space

let rebase p space remap =
  { space;
    constrs =
      (if p.trivially_empty then [] else List.map (fun c -> Constr.rebase c space remap) p.constrs);
    trivially_empty = p.trivially_empty }

let subsumes a b =
  if b.trivially_empty then true
  else if a.trivially_empty then is_empty b
  else
    List.for_all
      (fun c ->
         match Constr.kind c with
         | Constr.Ge ->
           (* not (aff >= 0) is -aff - 1 >= 0 over Z *)
           is_empty (add_constrs b [ Constr.ge (Aff.add_const (Aff.neg (Constr.aff c)) (-1)) ])
         | Constr.Eq ->
           let aff = Constr.aff c in
           is_empty (add_constrs b [ Constr.ge (Aff.add_const aff (-1)) ])
           && is_empty (add_constrs b [ Constr.ge (Aff.add_const (Aff.neg aff) (-1)) ]))
      a.constrs
