(* The on-disk application model (paper §4.1: "for each kernel, a record
   is created that contains the kernel's name, suggested partitioning
   strategy, and a list of its arguments.  The read and write maps of
   arrays are stored per-argument").

   The model is what the first gpucc pass writes and the second pass
   reads; here the toolchain driver does the same, and the multi-GPU
   execution engine works purely from a loaded model plus the kernel
   bodies it pairs by name. *)

open Ppoly

(* The per-array record is the analysis's own (see Access for the
   fields); the model stores it as is. *)
type array_model = Access.array_access = {
  arr : string;
  dims : Kir.dim array;
  read : Pmap.t option;
  write : Pmap.t option;
  atomic : Pmap.t option;
  atomic_ops : Kir.atomic_op list;
  atomic_exact : bool;
  read_exact : bool;
  write_instrumented : bool;
  write_proved : bool;
}

type kernel_model = {
  kname : string;
  strategy : Dim3.axis;
  params : string array; (* parameter names of the polyhedral spaces *)
  arrays : array_model list;
}

type t = { kernels : kernel_model list }

let find t name = List.find_opt (fun k -> k.kname = name) t.kernels

let find_exn t name =
  match find t name with
  | Some k -> k
  | None -> invalid_arg ("Model: no model for kernel " ^ name)

let of_analysis (a : Access.t) : kernel_model =
  {
    kname = a.Access.kernel.Kir.name;
    strategy = a.Access.strategy;
    params = a.Access.params;
    arrays = a.Access.accesses;
  }

let of_analyses l = { kernels = List.map of_analysis l }

(* --- Serialization ----------------------------------------------------------- *)

let axis_to_sexp a = Sexp.atom (Dim3.axis_name a)

let axis_of_sexp x =
  match Sexp.as_atom x with
  | "x" -> Dim3.X
  | "y" -> Dim3.Y
  | "z" -> Dim3.Z
  | s -> raise (Sexp.Parse_error ("bad axis " ^ s))

let dim_to_sexp = function
  | Kir.Dim_const n -> Sexp.(list [ atom "const"; int n ])
  | Kir.Dim_param p -> Sexp.(list [ atom "param"; atom p ])

let dim_of_sexp x =
  match Sexp.as_list x with
  | [ Sexp.Atom "const"; n ] -> Kir.Dim_const (Sexp.as_int n)
  | [ Sexp.Atom "param"; p ] -> Kir.Dim_param (Sexp.as_atom p)
  | _ -> raise (Sexp.Parse_error "bad dim")

let constr_to_sexp c =
  let aff = Constr.aff c in
  let sp = Constr.space c in
  let coeffs =
    List.init (Space.n_total sp) (fun i -> Sexp.int (Aff.coeff aff i))
  in
  Sexp.(
    list
      (atom (match Constr.kind c with Constr.Eq -> "eq" | Constr.Ge -> "ge")
       :: int (Aff.constant aff) :: coeffs))

let constr_of_sexp sp x =
  match Sexp.as_list x with
  | Sexp.Atom kind :: const :: coeffs ->
    let n = Space.n_total sp in
    if List.length coeffs <> n then
      raise (Sexp.Parse_error "coefficient count mismatch");
    let aff = ref (Aff.const sp (Sexp.as_int const)) in
    List.iteri
      (fun i c -> aff := Aff.set_coeff !aff i (Sexp.as_int c))
      coeffs;
    let kind =
      match kind with
      | "eq" -> Constr.Eq
      | "ge" -> Constr.Ge
      | s -> raise (Sexp.Parse_error ("bad constraint kind " ^ s))
    in
    Constr.make kind !aff
  | _ -> raise (Sexp.Parse_error "bad constraint")

let names_to_sexp names =
  Sexp.list (Array.to_list (Array.map Sexp.atom names))

let names_of_sexp x =
  Array.of_list (List.map Sexp.as_atom (Sexp.as_list x))

let map_to_sexp (m : Pmap.t) =
  let comb = Pmap.combined m in
  Sexp.(
    list
      [
        list (atom "params" :: [ names_to_sexp (Space.params comb) ]);
        list (atom "dom" :: [ names_to_sexp (Space.dims (Pmap.dom_space m)) ]);
        list (atom "ran" :: [ names_to_sexp (Space.dims (Pmap.ran_space m)) ]);
        list
          (atom "pieces"
           :: List.map
                (fun p ->
                   list (List.map constr_to_sexp (Poly.constraints p)))
                (Pset.pieces (Pmap.rel m)));
      ])

let map_of_sexp x =
  let params = names_of_sexp (List.hd (Sexp.field "params" x)) in
  let dom_dims = names_of_sexp (List.hd (Sexp.field "dom" x)) in
  let ran_dims = names_of_sexp (List.hd (Sexp.field "ran" x)) in
  let dom = Space.make ~params ~dims:dom_dims in
  let ran = Space.make ~params ~dims:ran_dims in
  let comb = Pmap.combined_space dom ran in
  let pieces =
    List.map
      (fun piece ->
         Poly.make comb (List.map (constr_of_sexp comb) (Sexp.as_list piece)))
      (Sexp.field "pieces" x)
  in
  Pmap.make ~dom ~ran (Pset.of_polys comb pieces)

let atomic_op_to_sexp op =
  Sexp.atom
    (match op with Kir.AAdd -> "add" | Kir.AMin -> "min" | Kir.AMax -> "max")

let atomic_op_of_sexp x =
  match Sexp.as_atom x with
  | "add" -> Kir.AAdd
  | "min" -> Kir.AMin
  | "max" -> Kir.AMax
  | s -> raise (Sexp.Parse_error ("bad atomic op " ^ s))

let array_to_sexp (a : array_model) =
  let open Sexp in
  list
    ([
      list [ atom "arr"; atom a.arr ];
      list (atom "dims" :: List.map dim_to_sexp (Array.to_list a.dims));
      list [ atom "read-exact"; atom (string_of_bool a.read_exact) ];
      list
        [ atom "write-instrumented";
          atom (string_of_bool a.write_instrumented) ];
    ]
     (* Atomic fields are emitted only when atomics exist, so models of
        atomic-free kernels stay byte-identical to older writers. *)
     @ (if a.atomic_ops = [] then []
        else
          [ list (atom "atomic-ops" :: List.map atomic_op_to_sexp a.atomic_ops);
            list [ atom "atomic-exact"; atom (string_of_bool a.atomic_exact) ] ])
     (* Only a record without pass 1's proof is marked: pass 1 refuses
        every kernel whose write map it cannot prove, so the models it
        writes read as they did before the field existed. *)
     @ (if a.write_proved then [] else [ list [ atom "write-proved"; atom "false" ] ])
     @ (match a.atomic with
        | Some m -> [ list [ atom "atomic"; map_to_sexp m ] ]
        | None -> [])
     @ (match a.read with
        | Some m -> [ list [ atom "read"; map_to_sexp m ] ]
        | None -> [])
     @
     match a.write with
     | Some m -> [ list [ atom "write"; map_to_sexp m ] ]
     | None -> [])

let array_of_sexp x =
  {
    arr = Sexp.as_atom (List.hd (Sexp.field "arr" x));
    dims = Array.of_list (List.map dim_of_sexp (Sexp.field "dims" x));
    read_exact = bool_of_string (Sexp.as_atom (List.hd (Sexp.field "read-exact" x)));
    write_instrumented =
      (match Sexp.field_opt "write-instrumented" x with
       | Some [ b ] -> bool_of_string (Sexp.as_atom b)
       | _ -> false);
    write_proved =
      (match Sexp.field_opt "write-proved" x with
       | Some [ b ] -> bool_of_string (Sexp.as_atom b)
       | _ -> true);
    (* Absent in models written before atomics existed: no atomics. *)
    atomic_ops =
      (match Sexp.field_opt "atomic-ops" x with
       | Some ops -> List.map atomic_op_of_sexp ops
       | None -> []);
    atomic_exact =
      (match Sexp.field_opt "atomic-exact" x with
       | Some [ b ] -> bool_of_string (Sexp.as_atom b)
       | _ -> true);
    atomic =
      Option.map (fun l -> map_of_sexp (List.hd l)) (Sexp.field_opt "atomic" x);
    read = Option.map (fun l -> map_of_sexp (List.hd l)) (Sexp.field_opt "read" x);
    write = Option.map (fun l -> map_of_sexp (List.hd l)) (Sexp.field_opt "write" x);
  }

let kernel_to_sexp (k : kernel_model) =
  let open Sexp in
  list
    [
      atom "kernel";
      list [ atom "name"; atom k.kname ];
      list [ atom "strategy"; axis_to_sexp k.strategy ];
      list [ atom "params"; names_to_sexp k.params ];
      list (atom "arrays" :: List.map array_to_sexp k.arrays);
    ]

let kernel_of_sexp x =
  match Sexp.as_list x with
  | Sexp.Atom "kernel" :: _ ->
    {
      kname = Sexp.as_atom (List.hd (Sexp.field "name" x));
      strategy = axis_of_sexp (List.hd (Sexp.field "strategy" x));
      params = names_of_sexp (List.hd (Sexp.field "params" x));
      arrays = List.map array_of_sexp (Sexp.field "arrays" x);
    }
  | _ -> raise (Sexp.Parse_error "expected (kernel ...)")

let to_string (t : t) =
  String.concat "\n" (List.map (fun k -> Sexp.to_string (kernel_to_sexp k)) t.kernels)

let of_string s =
  { kernels = List.map kernel_of_sexp (Sexp.parse_many s) }

let save t ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load ~file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       let n = in_channel_length ic in
       let s = really_input_string ic n in
       of_string s)
