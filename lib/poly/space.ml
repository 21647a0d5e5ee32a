(* Dimension spaces.

   A space names the variables an affine expression or polyhedron ranges
   over.  The variable vector is ordered [params ++ dims]: parameters are
   symbolic constants (problem sizes, block dimensions, scalar kernel
   arguments); dims are the set dimensions proper (grid coordinates,
   array subscripts, loop counters).  Coefficient arrays in {!Aff} are
   indexed by this combined vector. *)

type t = { params : string array; dims : string array }

let make ~params ~dims =
  let seen = Hashtbl.create 16 in
  let check n =
    if Hashtbl.mem seen n then invalid_arg ("Space.make: duplicate name " ^ n);
    Hashtbl.add seen n ()
  in
  Array.iter check params;
  Array.iter check dims;
  { params = Array.copy params; dims = Array.copy dims }

let n_params t = Array.length t.params
let n_dims t = Array.length t.dims
let n_total t = n_params t + n_dims t

let params t = t.params
let dims t = t.dims

let find_index arr name =
  let n = Array.length arr in
  let rec go i =
    if i >= n then None
    else if String.equal (Array.unsafe_get arr i) name then Some i
    else go (i + 1)
  in
  go 0

let param_index t name = find_index t.params name

let dim_index t name =
  match find_index t.dims name with
  | Some i -> Some (n_params t + i)
  | None -> None

(* Index of [name] in the combined vector, searching params then dims. *)
let var_index t name =
  match param_index t name with Some i -> Some i | None -> dim_index t name

let var_index_exn t name =
  match var_index t name with
  | Some i -> i
  | None -> invalid_arg ("Space.var_index_exn: unknown variable " ^ name)

let var_name t i =
  let np = n_params t in
  if i < np then t.params.(i) else t.dims.(i - np)

(* Same names in the same order: lengths first, then the names from
   the last one (spaces of one kernel differ in their trailing dims). *)
let names_equal a b =
  a == b
  || Array.length a = Array.length b
     &&
     let rec go i = i < 0 || (String.equal a.(i) b.(i) && go (i - 1)) in
     go (Array.length a - 1)

let equal a b = a == b || (names_equal a.dims b.dims && names_equal a.params b.params)

let same_params a b = names_equal a.params b.params

(* Is [t] the space [params; dims a ++ dims b] (with [a]'s params)?
   Checked name by name, without building it. *)
let is_product t a b =
  let na = Array.length a.dims in
  names_equal t.params a.params && Array.length t.dims = na + Array.length b.dims
  &&
  let rec go i =
    i < 0
    || String.equal t.dims.(i) (if i < na then a.dims.(i) else b.dims.(i - na)) && go (i - 1)
  in
  go (Array.length t.dims - 1)

(* Remove the dim at combined-vector index [i] (must denote a dim, not a
   param). *)
let drop_dim t i =
  let np = n_params t in
  if i < np then invalid_arg "Space.drop_dim: cannot drop a parameter";
  let j = i - np in
  let dims =
    Array.init (n_dims t - 1) (fun k -> if k < j then t.dims.(k) else t.dims.(k + 1))
  in
  { t with dims }

(* Keep only the dims whose (dim-local) index satisfies [f]; params kept. *)
let filter_dims t f =
  let dims = Array.of_list (List.filteri (fun i _ -> f i) (Array.to_list t.dims)) in
  { t with dims }

let pp fmt t =
  Format.fprintf fmt "[%s] -> {%s}"
    (String.concat ", " (Array.to_list t.params))
    (String.concat ", " (Array.to_list t.dims))
