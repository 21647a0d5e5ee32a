(* Enumerator generation for access maps (paper §6).

   For every (kernel, array argument, read|write) the second compiler
   pass generates a function that, given a partition box and the scalar
   kernel arguments, enumerates the linear element ranges the partition
   accesses.  Here the generated artifact is an {!Ppoly.Enumerate.t}
   compiled from the access map intersected with the symbolic partition
   box; evaluation binds the box corners and scalars at run time. *)

open Ppoly

(* Array dimension sizes as codegen expressions. *)
let size_exprs dims =
  Array.map
    (function
      | Kir.Dim_const n -> Ast.Int n
      | Kir.Dim_param p -> Ast.Var p)
    dims

(* The symbolic partition box (paper §6): the domain is constrained to
   the 6-dimensional box spanned between two tuples of blockOff and
   blockIdx corners.  For each grid dim [v] with corner parameters
   [pmin] and [pmax], the rows [v - pmin >= 0] and [pmax - v - 1 >= 0]
   are built as normalized int rows at the map's combined-space
   indices, together with [pmax - pmin - 1 >= 0]: the one row
   Fourier-Motzkin makes of the two when it eliminates [v]. *)
type box_dim = { v : int; lower : Row.t; upper : Row.t; eliminated : Row.t }

let box_of_space comb =
  let row = Row.inequality (Space.n_total comb) in
  let index = Space.var_index_exn comb in
  let dim (v, pmin, pmax) =
    let v = index v and lo = index pmin and hi = index pmax in
    { v;
      lower = row [ (1, v); (-1, lo) ] 0;
      upper = row [ (1, hi); (-1, v) ] (-1);
      eliminated = row [ (1, hi); (-1, lo) ] (-1) }
  in
  List.concat_map
    (fun a ->
       [ dim (Access.bo_name a, Access.box_min_bo a, Access.box_max_bo a);
         dim (Access.b_name a, Access.box_min_b a, Access.box_max_b a) ])
    Dim3.axes

(* The box rows for one piece.  A grid dim no row of the piece mentions
   gets its eliminated row instead of its two bounds: projecting the
   grid away would turn the two into exactly that row. *)
let box_rows box p =
  List.concat_map
    (fun d -> if Poly.mentions p d.v then [ d.lower; d.upper ] else [ d.eliminated ])
    box

let partition_image m =
  Pmap.range (Pmap.constrain_normalized m (box_rows (box_of_space (Pmap.combined m))))

(* Build the enumerator for one access map.  [rectangles:false]
   disables the rectangle-union optimization (ablation). *)
let enumerator_of_map ?rectangles ~dims (m : Pmap.t) =
  Enumerate.of_set ?rectangles ~sizes:(size_exprs dims) (partition_image m)

(* The generated-function name of paper §6.2: kernel name, argument
   position, access kind. *)
let enumerator_name ~kernel ~arg_index ~kind =
  Printf.sprintf "%s__arg%d__%s" kernel arg_index
    (match kind with `Read -> "read" | `Write -> "write")

type entry = {
  arr : string;
  dims : Kir.dim array;
  read : Enumerate.t option;
  read_name : string;
  write : Enumerate.t option;
  write_name : string;
}

type t = { kernel : string; entries : entry list }

let build ?rectangles (km : Model.kernel_model) : t =
  let precompile e =
    (* Compile the enumerator expressions to closures at link time, so
       the first launch does not pay the one-time cost. *)
    Option.iter Enumerate.precompile e.read;
    Option.iter Enumerate.precompile e.write;
    e
  in
  {
    kernel = km.Model.kname;
    entries =
      List.mapi
        (fun i (a : Model.array_model) ->
           (* An exactly-modeled atomic access contributes to both
              enumerators: the RMW reads the element's old value (it
              must be synchronized before the launch) and writes it
              (the trackers must learn the new owner). *)
           let with_atomic m =
             match (m, a.Model.atomic) with
             | Some m, Some at -> Some (Pmap.union m at)
             | (Some _ as m), None | None, (Some _ as m) -> m
             | None, None -> None
           in
           precompile
           {
             arr = a.Model.arr;
             dims = a.Model.dims;
             read =
               Option.map
                 (enumerator_of_map ?rectangles ~dims:a.Model.dims)
                 (with_atomic a.Model.read);
             read_name =
               enumerator_name ~kernel:km.Model.kname ~arg_index:i ~kind:`Read;
             write =
               Option.map
                 (enumerator_of_map ?rectangles ~dims:a.Model.dims)
                 (with_atomic a.Model.write);
             write_name =
               enumerator_name ~kernel:km.Model.kname ~arg_index:i ~kind:`Write;
           })
        km.Model.arrays;
  }

let entry t arr = List.find_opt (fun e -> e.arr = arr) t.entries

(* Evaluate an enumerator under parameter bindings, returning canonical
   half-open linear ranges. *)
let ranges enum ~bindings =
  Enumerate.eval enum (Enumerate.env_of_bindings bindings)

(* Like {!ranges}, plus the raw emission count (what the host pays for). *)
let ranges_counted enum ~bindings =
  Enumerate.eval_counted enum (Enumerate.env_of_bindings bindings)

(* Render the generated scan loops as C-like text (demonstration of the
   isl-style AST code generation; the executable path interprets the
   same plan). *)
let render_entry e =
  let b = Buffer.create 256 in
  let render name = function
    | None -> ()
    | Some enum ->
      Buffer.add_string b (Printf.sprintf "// %s\n" name);
      Buffer.add_string b (Format.asprintf "%a" Enumerate.pp enum)
  in
  render e.read_name e.read;
  render e.write_name e.write;
  Buffer.contents b
