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

let make ~dom ~ran rel =
  check_params dom ran;
  if not (Space.is_product (Pset.space rel) dom ran) then
    invalid_arg "Pmap.make: relation space mismatch";
  { dom_space = dom; ran_space = ran; rel }

let dom_space m = m.dom_space
let ran_space m = m.ran_space
let rel m = m.rel
let combined m = Pset.space m.rel

let union a b =
  if not (Space.equal a.dom_space b.dom_space && Space.equal a.ran_space b.ran_space)
  then invalid_arg "Pmap.union: space mismatch";
  { a with rel = Pset.union a.rel b.rel }

let range m =
  let nd = Space.n_dims m.dom_space in
  Pset.project_onto m.rel (List.init (Space.n_dims m.ran_space) (fun i -> nd + i))

let constrain_normalized m rows_of = { m with rel = Pset.add_normalized_rows m.rel rows_of }
