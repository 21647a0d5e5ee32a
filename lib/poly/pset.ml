(* Unions of convex polyhedra ("Presburger sets", without existentials
   or divs).  All pieces share one space.  Operations keep the piece
   list small with cheap pairwise subsumption. *)

type t = { space : Space.t; pieces : Poly.t list }

let of_polys space pieces =
  List.iter
    (fun p -> if not (Space.equal (Poly.space p) space) then invalid_arg "Pset: space mismatch")
    pieces;
  { space; pieces = List.filter (fun p -> not (Poly.is_trivially_empty p)) pieces }

let of_poly p = of_polys (Poly.space p) [ p ]

let space s = s.space
let pieces s = s.pieces
let n_pieces s = List.length s.pieces

let is_empty s = List.for_all Poly.is_empty s.pieces

let mem s env = List.exists (fun p -> Poly.mem p env) s.pieces

(* Drop pieces subsumed by another piece (quadratic; piece counts are
   small in this code base). *)
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
  { s with pieces = go [] s.pieces }

let union a b =
  if not (Space.equal a.space b.space) then invalid_arg "Pset.union: space mismatch";
  { space = a.space; pieces = a.pieces @ b.pieces }

let intersect a b =
  if not (Space.equal a.space b.space) then invalid_arg "Pset.intersect: space mismatch";
  let pieces =
    List.concat_map
      (fun p -> List.map (fun q -> Poly.intersect p q) b.pieces)
      a.pieces
  in
  of_polys a.space pieces

let add_constrs s cs =
  { s with pieces = List.map (fun p -> Poly.add_constrs p cs) s.pieces }

let add_normalized_rows s rows_of =
  { s with pieces = List.map (fun p -> Poly.add_normalized_rows p (rows_of p)) s.pieces }

(* Set difference.  piece \ Q is the union over constraints c of Q of
   piece ∩ ¬c (with earlier constraints asserted, to keep the result
   disjoint).  Equalities split into the two strict sides. *)
let subtract_poly piece q =
  let space = Poly.space piece in
  let negations_of c =
    match Constr.kind c with
    | Constr.Ge -> [ Constr.negate_ge c ]
    | Constr.Eq ->
      let aff = Constr.aff c in
      [ Constr.ge (Aff.add_const aff (-1));
        Constr.ge (Aff.add_const (Aff.neg aff) (-1)) ]
  in
  let rec go asserted acc = function
    | [] -> acc
    | c :: rest ->
      let here =
        List.map
          (fun neg -> Poly.add_constrs piece (neg :: asserted))
          (negations_of c)
      in
      go (c :: asserted) (here @ acc) rest
  in
  of_polys space (go [] [] (Poly.constraints q))

let subtract a b =
  if not (Space.equal a.space b.space) then invalid_arg "Pset.subtract: space mismatch";
  let sub_piece piece =
    List.fold_left
      (fun remaining q ->
         List.concat_map (fun p -> (subtract_poly p q).pieces) remaining)
      [ piece ] b.pieces
  in
  of_polys a.space (List.concat_map sub_piece a.pieces)

let subsumes a b = is_empty (subtract b a)

let equal a b = subsumes a b && subsumes b a

let project_onto s keep_local =
  let space = Space.filter_dims s.space (fun d -> List.mem d keep_local) in
  of_polys space (List.map (fun p -> Poly.project_onto p keep_local) s.pieces)

(* Enumerate all integer points of a bounded set (test helper; the
   search radius caps unbounded directions). *)
let enumerate ?(default_radius = 32) s =
  let points = Hashtbl.create 64 in
  let each_piece p =
    if not (Poly.is_trivially_empty p) then begin
      let n = Space.n_total s.space in
      let env = Array.make n None in
      let rec go i =
        if i >= n then begin
          let pt = Array.map (function Some v -> v | None -> 0) env in
          if Poly.mem p pt then Hashtbl.replace points (Array.to_list pt) ()
        end
        else begin
          let lo, hi = Poly.numeric_bounds p i env in
          let lo = match lo with Some v -> v | None -> -default_radius in
          let hi = match hi with Some v -> v | None -> default_radius in
          for v = lo to hi do
            env.(i) <- Some v;
            go (i + 1)
          done;
          env.(i) <- None
        end
      in
      go 0
    end
  in
  List.iter each_piece s.pieces;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) points [])

let pp fmt s =
  match s.pieces with
  | [] -> Format.fprintf fmt "{}"
  | _ ->
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.fprintf fmt " u ")
      Poly.pp fmt s.pieces

let to_string s = Format.asprintf "%a" pp s
