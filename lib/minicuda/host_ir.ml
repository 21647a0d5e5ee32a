(* Host programs.

   A host program is the abstract counterpart of a single-GPU CUDA host
   source file: allocations, host<->device copies, kernel launches, an
   iteration loop with buffer swapping, and synchronization.  The same
   program is executed by the single-GPU reference engine
   ({!Single_gpu}) and by the partitioning runtime (lib/mekong), which
   is exactly the situation of the paper: one source, two binaries. *)

type harg = HInt of int | HFloat of float | HBuf of string

(* A host-side array: real data for functional runs, or a phantom of
   the right extent for performance runs at paper scale (tens of GiB
   that must never be allocated). *)
type host_array = { len : int; data : float array option }

let host_data a = { len = Array.length a; data = Some a }
let host_phantom len = { len; data = None }

let host_data_exn ha =
  match ha.data with
  | Some a -> a
  | None -> invalid_arg "Host_ir: phantom host array used in a functional run"

type stmt =
  | Malloc of string * int (* buffer name, element count *)
  | Memcpy_h2d of { dst : string; src : host_array }
  | Memcpy_d2h of { dst : host_array; src : string }
  | Launch of { kernel : Kir.t; grid : Dim3.t; block : Dim3.t; args : harg list }
  | Repeat of int * stmt list
  | Swap of string * string (* exchange two buffer bindings (ping-pong) *)
  | Free of string
  | Sync

type t = { name : string; body : stmt list }

let program ~name body = { name; body }

(* Scalar argument values in kernel-parameter order (arrays omitted),
   as consumed by {!Keval.run}. *)
let scalar_args args =
  List.filter_map
    (function
      | HInt n -> Some (Keval.AInt n)
      | HFloat f -> Some (Keval.AFloat f)
      | HBuf _ -> None)
    args

(* Pair each array parameter of the kernel with the buffer name bound
   to it at this launch. *)
let array_bindings kernel args =
  let rec go params args acc =
    match (params, args) with
    | [], [] -> List.rev acc
    | Kir.Array { name; _ } :: ps, HBuf b :: as_ -> go ps as_ ((name, b) :: acc)
    | Kir.Array _ :: _, _ ->
      invalid_arg "Host_ir: array parameter not bound to a buffer"
    | (Kir.Scalar _ | Kir.Fscalar _) :: ps, (HInt _ | HFloat _) :: as_ ->
      go ps as_ acc
    | (Kir.Scalar _ | Kir.Fscalar _) :: _, _ ->
      invalid_arg "Host_ir: scalar parameter not bound to a scalar"
    | [], _ :: _ -> invalid_arg "Host_ir: argument count mismatch"
  in
  go kernel.Kir.params args []

(* Scalar bindings (name, value) for the launch, used by the analysis
   and the cost model. *)
let scalar_bindings kernel args =
  let rec go params args acc =
    match (params, args) with
    | [], [] -> List.rev acc
    | Kir.Scalar n :: ps, HInt v :: as_ -> go ps as_ ((n, v) :: acc)
    | Kir.Scalar n :: ps, HFloat v :: as_ -> go ps as_ ((n, int_of_float v) :: acc)
    | Kir.Fscalar _ :: ps, (HInt _ | HFloat _) :: as_ -> go ps as_ acc
    | Kir.Array _ :: ps, HBuf _ :: as_ -> go ps as_ acc
    | _ -> invalid_arg "Host_ir: argument count mismatch"
  in
  go kernel.Kir.params args []

(* Static checks: buffers are allocated before use, freed at most once,
   never allocated twice (across iterations of a Repeat too), launch
   arguments match kernel signatures.  Raises
   [Invalid_argument] describing the first problem found. *)
let validate t =
  let live = Hashtbl.create 16 in
  let need b what =
    if not (Hashtbl.mem live b) then
      invalid_arg (Printf.sprintf "Host_ir.validate(%s): %s uses unallocated buffer %s" t.name what b)
  in
  let rec go s =
    match s with
    | Malloc (b, len) ->
      if len <= 0 then
        invalid_arg (Printf.sprintf "Host_ir.validate(%s): malloc %s of %d elements" t.name b len);
      if Hashtbl.mem live b then
        invalid_arg (Printf.sprintf "Host_ir.validate(%s): double malloc of %s" t.name b);
      Hashtbl.replace live b len
    | Memcpy_h2d { dst; src } ->
      need dst "h2d";
      if src.len <> Hashtbl.find live dst then
        invalid_arg (Printf.sprintf "Host_ir.validate(%s): h2d size mismatch for %s" t.name dst)
    | Memcpy_d2h { dst; src } ->
      need src "d2h";
      if dst.len <> Hashtbl.find live src then
        invalid_arg (Printf.sprintf "Host_ir.validate(%s): d2h size mismatch for %s" t.name src)
    | Launch { kernel; args; _ } ->
      (* arity/type check *)
      ignore (array_bindings kernel args);
      List.iter (fun (_, b) -> need b "launch") (array_bindings kernel args)
    | Repeat (n, body) ->
      if n < 0 then invalid_arg "Host_ir.validate: negative repeat count";
      (* After one pass each buffer's liveness is fixed by its last
         Malloc or Free in the body, so a second pass starts where every
         later iteration does. *)
      for _ = 1 to if n >= 2 then 2 else 1 do
        List.iter go body
      done
    | Swap (a, b) ->
      need a "swap";
      need b "swap"
    | Free b ->
      need b "free";
      Hashtbl.remove live b
    | Sync -> ()
  in
  List.iter go t.body

(* All kernels launched by the program (used by the toolchain's
   analysis pass), deduplicated by name. *)
let kernels t =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let rec go = function
    | Launch { kernel; _ } ->
      if not (Hashtbl.mem seen kernel.Kir.name) then begin
        Hashtbl.replace seen kernel.Kir.name ();
        out := kernel :: !out
      end
    | Repeat (_, body) -> List.iter go body
    | Malloc _ | Memcpy_h2d _ | Memcpy_d2h _ | Swap _ | Free _ | Sync -> ()
  in
  List.iter go t.body;
  List.rev !out
