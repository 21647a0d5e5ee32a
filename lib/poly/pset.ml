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

let is_empty s = List.for_all Poly.is_empty s.pieces

let mem s env = List.exists (fun p -> Poly.mem p env) s.pieces

let union a b =
  if not (Space.equal a.space b.space) then invalid_arg "Pset.union: space mismatch";
  { space = a.space; pieces = a.pieces @ b.pieces }

let add_normalized_rows s rows_of =
  { s with pieces = List.map (fun p -> Poly.add_normalized_rows p (rows_of p)) s.pieces }

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
