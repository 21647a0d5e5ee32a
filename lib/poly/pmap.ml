(* Polyhedral relations (maps) between two spaces sharing parameters.

   A map from a domain space D to a range space R is stored as a set
   over the combined space [params; dims(D) ++ dims(R)].  Memory access
   maps in the partitioning compiler are maps from the 6-dimensional
   grid space (blockOff.{z,y,x}, blockIdx.{z,y,x}) to array index
   spaces. *)

type t = {
  dom_space : Space.t;
  ran_space : Space.t;
  rel : Pset.t; (* over the combined space *)
}

let check_params dom ran =
  if not (Space.same_params dom ran) then
    invalid_arg "Pmap: domain and range must share parameters"

let combined_space dom ran =
  check_params dom ran;
  Space.make ~params:(Space.params dom)
    ~dims:(Array.append (Space.dims dom) (Space.dims ran))

(* Remap array embedding a set over [dom] into the combined space. *)
let embed_dom_remap dom _ran =
  Array.init (Space.n_total dom) (fun i -> i)

let make ~dom ~ran rel =
  check_params dom ran;
  if not (Space.is_product (Pset.space rel) dom ran) then
    invalid_arg "Pmap.make: relation space mismatch";
  { dom_space = dom; ran_space = ran; rel }

(* Build a map given by affine output functions of the input dims:
   out_i = affs.(i), with the domain restricted by [guards] (constraints
   over the combined space; typically they only mention input dims). *)
let of_affs ~dom ~ran ~affs ~guards =
  let comb = combined_space dom ran in
  if Array.length affs <> Space.n_dims ran then invalid_arg "Pmap.of_affs: arity";
  let dom_remap = embed_dom_remap dom ran in
  let np = Space.n_params dom in
  let eqs =
    Array.to_list
      (Array.mapi
         (fun i aff_in ->
            (* out_i - aff = 0 in the combined space *)
            let aff = Aff.rebase aff_in comb dom_remap in
            let out_idx = np + Space.n_dims dom + i in
            Constr.eq (Aff.sub (Aff.var_i comb out_idx) aff))
         affs)
  in
  { dom_space = dom; ran_space = ran;
    rel = Pset.of_poly (Poly.make comb (eqs @ guards)) }

let dom_space m = m.dom_space
let ran_space m = m.ran_space
let rel m = m.rel
let combined m = Pset.space m.rel

let union a b =
  if not (Space.equal a.dom_space b.dom_space && Space.equal a.ran_space b.ran_space)
  then invalid_arg "Pmap.union: space mismatch";
  { a with rel = Pset.union a.rel b.rel }

(* Local dim indices (in the combined space) of the domain dims. *)
let dom_local_dims m = List.init (Space.n_dims m.dom_space) (fun i -> i)

let ran_local_dims m =
  let nd = Space.n_dims m.dom_space in
  List.init (Space.n_dims m.ran_space) (fun i -> nd + i)

let domain m = Pset.project_onto m.rel (dom_local_dims m)
let range m = Pset.project_onto m.rel (ran_local_dims m)

(* Intersect the domain with a set over the domain space. *)
let constrain_domain m set =
  if not (Space.equal (Pset.space set) m.dom_space) then
    invalid_arg "Pmap.constrain_domain: space mismatch";
  let comb = combined m in
  let remap = embed_dom_remap m.dom_space m.ran_space in
  let embedded =
    Pset.of_polys comb
      (List.map (fun p -> Poly.rebase p comb remap) (Pset.pieces set))
  in
  { m with rel = Pset.intersect m.rel embedded }

(* Image of a set under the map. *)
let image m set = range (constrain_domain m set)

(* Restrict the domain with raw constraints over the combined space. *)
let constrain m constrs = { m with rel = Pset.add_constrs m.rel constrs }

let constrain_normalized m rows_of = { m with rel = Pset.add_normalized_rows m.rel rows_of }

(* The relation with domain and range swapped. *)
let inverse m =
  let comb = combined m in
  let comb' = combined_space m.ran_space m.dom_space in
  let np = Space.n_params m.dom_space in
  let nd = Space.n_dims m.dom_space and nr = Space.n_dims m.ran_space in
  let remap =
    Array.init (Space.n_total comb) (fun i ->
        if i < np then i
        else if i < np + nd then i + nr (* dom dim -> after ran dims *)
        else i - nd)
  in
  { dom_space = m.ran_space; ran_space = m.dom_space;
    rel = Pset.of_polys comb'
        (List.map (fun p -> Poly.rebase p comb' remap) (Pset.pieces m.rel)) }

let preimage m set = image (inverse m) set

(* --- Injectivity ------------------------------------------------------

   A write map must be injective: no two distinct grid points may write
   the same array element (paper §4.1).  M is non-injective iff the
   system  (i1,o) ∈ M, (i2,o) ∈ M, i1 ≠ i2  is satisfiable for some
   parameter valuation.  i1 ≠ i2 is checked dimension-wise as the union
   of strict inequalities. *)

(* [param_ge] gives additional context constraints of the form
   [sum terms + const >= 0] over parameter names (e.g. [n >= 1]); they
   are instantiated in the doubled space by name. *)
let is_injective ?(param_ge = []) m =
  let np = Space.n_params m.dom_space in
  let nd = Space.n_dims m.dom_space and nr = Space.n_dims m.ran_space in
  let dnames = Space.dims m.dom_space in
  let rnames = Space.dims m.ran_space in
  let dims2 =
    Array.concat
      [ Array.map (fun n -> n ^ "$1") dnames;
        Array.map (fun n -> n ^ "$2") dnames;
        rnames ]
  in
  let sp2 = Space.make ~params:(Space.params m.dom_space) ~dims:dims2 in
  (* Remaps from the combined (in ++ out) space to sp2. *)
  let remap1 =
    Array.init (np + nd + nr) (fun i ->
        if i < np then i else if i < np + nd then i else i + nd)
  in
  let remap2 =
    Array.init (np + nd + nr) (fun i ->
        if i < np then i else if i < np + nd then i + nd else i + nd)
  in
  let copy remap =
    List.map (fun p -> Poly.rebase p sp2 remap) (Pset.pieces m.rel)
  in
  let c1 = copy remap1 and c2 = copy remap2 in
  let context2 =
    List.map
      (fun (terms, const) -> Constr.ge (Aff.of_terms sp2 terms ~const))
      param_ge
  in
  let differs d strict_gt =
    (* i1_d > i2_d  or  i1_d < i2_d *)
    let v1 = Aff.var_i sp2 (np + d) and v2 = Aff.var_i sp2 (np + nd + d) in
    if strict_gt then Constr.gt2 v1 v2 else Constr.lt2 v1 v2
  in
  let violation_exists =
    List.exists
      (fun p1 ->
         List.exists
           (fun p2 ->
              let base = Poly.add_constrs (Poly.intersect p1 p2) context2 in
              List.exists
                (fun d ->
                   (not (Poly.is_empty (Poly.add_constrs base [ differs d true ])))
                   || not (Poly.is_empty (Poly.add_constrs base [ differs d false ])))
                (List.init nd (fun d -> d)))
           c2)
      c1
  in
  not violation_exists
