(* The seeded compile corpus: generated CUDA-ish programs with a verdict
   known from how they were built, not from the compiler.

   Program [i]'s structure — 1-D or 2-D grid, stencil radius 0-3, 1-4
   input arrays, no loop / a host for-std::swap loop / a kernel for
   loop, and the label — is a fixed function of [i], so every seed
   compiles the same mix of shapes and the per-pass cost hardly moves
   with the seed.  The seed draws everything else: problem and block
   sizes, iteration counts, coefficients, the atomic operator, the
   element blocks collide on and how a conflict is built.

   Labels:
   - [Safe]: affine, injective stores (one output element per thread);
   - [Reducible]: every store is the same atomic operator, and blocks
     collide on their targets;
   - [Conflicting]: blocks collide on plain stores, on atomics of two
     different operators, or on a mix of plain and atomic stores. *)

type label = Safe | Reducible | Conflicting

let label_name = function
  | Safe -> "safe"
  | Reducible -> "reducible"
  | Conflicting -> "conflicting"

type program = { p_name : string; p_source : string; p_label : label }

let count = 200

(* The collision target of reducible and conflicting kernels. *)
type target = Elem0 | Thread_x | Row | Column

let label_of i =
  match i mod 10 with 0 | 1 | 2 | 3 | 4 -> Safe | 5 | 6 | 7 -> Reducible | _ -> Conflicting

(* IR builders, kept apart because [Kir]'s operators shadow the
   integer ones. *)
let ( +: ) = Kir.( + )
let ( -: ) = Kir.( - )
let ( *: ) = Kir.( * )
let inside n e = Kir.(e >= i 0 && e < n)

let kernel_of ~rng ~i ~dims ~radius ~inputs ~kloop ~label ~bs =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let n = Kir.p "n" in
  let coeff () = Kir.f (float_of_int (1 + Random.State.int rng 8) *. 0.125) in
  let ins = List.init inputs (fun j -> Printf.sprintf "in%d" j) in
  let shape =
    if dims = 1 then [| Kir.Dim_param "n" |]
    else [| Kir.Dim_param "n"; Kir.Dim_param "n" |]
  in
  let gi = Kir.v "gi" and gx = Kir.v "gx" and gy = Kir.v "gy" in
  let acc = Kir.v "acc" in
  (* One guarded tap: acc += c * arr[x] (1-D) or arr[y][x] (2-D). *)
  let tap arr ~x ~y =
    let c = coeff () in
    if dims = 1 then
      Kir.If (inside n x, [ Kir.Assign ("acc", acc +: (c *: Kir.load arr [ x ])) ], [])
    else
      Kir.If
        ( Kir.(inside n x && inside n y),
          [ Kir.Assign ("acc", acc +: (c *: Kir.load arr [ y; x ])) ],
          [] )
  in
  let offs = List.init radius (fun d -> Kir.i (d + 1)) in
  let taps j arr =
    if kloop then
      (* A kernel for loop over one row of taps, one loop per input. *)
      let var = Printf.sprintf "t%d" j in
      let sh = Kir.v var -: Kir.i radius in
      [
        Kir.For
          {
            var;
            from_ = Kir.i 0;
            to_ = Kir.i ((2 * radius) + 1);
            body = [ (if dims = 1 then tap arr ~x:(gi +: sh) ~y:gi else tap arr ~x:(gx +: sh) ~y:gy) ];
          };
      ]
    else if dims = 1 then
      tap arr ~x:gi ~y:gi
      :: List.concat_map (fun d -> [ tap arr ~x:(gi -: d) ~y:gi; tap arr ~x:(gi +: d) ~y:gi ]) offs
    else
      tap arr ~x:gx ~y:gy
      :: List.concat_map
        (fun d ->
           [ tap arr ~x:(gx -: d) ~y:gy; tap arr ~x:(gx +: d) ~y:gy;
             tap arr ~x:gx ~y:(gy -: d); tap arr ~x:gx ~y:(gy +: d) ])
        offs
  in
  let target = if dims = 1 then pick [| Elem0; Thread_x |] else pick [| Row; Column |] in
  let out_dims, out_idx =
    match target with
    | Elem0 -> ([| Kir.Dim_const 1 |], [ Kir.i 0 ])
    | Thread_x -> ([| Kir.Dim_const bs |], [ Kir.tid Dim3.X ])
    | Row -> ([| Kir.Dim_param "n" |], [ gy ])
    | Column -> ([| Kir.Dim_param "n" |], [ gx ])
  in
  let op = pick [| Kir.AAdd; Kir.AMin; Kir.AMax |] in
  let other = match op with Kir.AAdd -> Kir.AMax | Kir.AMin -> Kir.AAdd | Kir.AMax -> Kir.AMin in
  let out_shape, stores =
    match label with
    | Safe -> (shape, [ Kir.store "out" (if dims = 1 then [ gi ] else [ gy; gx ]) acc ])
    | Reducible -> (out_dims, [ Kir.Atomic (op, "out", out_idx, acc) ])
    | Conflicting ->
      ( out_dims,
        match Random.State.int rng 3 with
        | 0 -> [ Kir.store "out" out_idx acc ]
        | 1 -> [ Kir.Atomic (op, "out", out_idx, acc); Kir.Atomic (other, "out", out_idx, Kir.f 1.0) ]
        | _ -> [ Kir.Atomic (op, "out", out_idx, acc); Kir.store "out" out_idx (Kir.f 0.0) ] )
  in
  let guard = if dims = 1 then Kir.(gi < n) else Kir.(gx < n && gy < n) in
  let ids =
    if dims = 1 then [ Kir.Local ("gi", Kir.global_id Dim3.X) ]
    else [ Kir.Local ("gx", Kir.global_id Dim3.X); Kir.Local ("gy", Kir.global_id Dim3.Y) ]
  in
  let body =
    ids @ [ Kir.If (guard, (Kir.Local ("acc", Kir.f 0.0) :: List.concat (List.mapi taps ins)) @ stores, []) ]
  in
  let params =
    (Kir.Scalar "n" :: List.map (fun name -> Kir.Array { name; dims = shape }) ins)
    @ [ Kir.Array { name = "out"; dims = out_shape } ]
  in
  (Kir.kernel ~name:(Printf.sprintf "k%03d" i) ~params body, out_shape)

let program ~seed i =
  let rng = Random.State.make [| seed; i |] in
  let label = label_of i in
  let dims = 1 + (i / 10 mod 2) in
  let radius = i / 20 mod 4 in
  let inputs = 1 + (i / 3 mod 4) in
  let loop = i / 7 mod 3 in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let bs = if dims = 1 then pick [| 64; 128; 256 |] else pick [| 8; 16 |] in
  let n = if dims = 1 then bs * pick [| 16; 32; 64; 128 |] else bs * pick [| 8; 16; 32 |] in
  let k, out_shape =
    kernel_of ~rng ~i ~dims ~radius ~inputs ~kloop:(loop = 2) ~label ~bs
  in
  let len = if dims = 1 then n else n * n in
  let out_len =
    Array.fold_left
      (fun acc d -> acc * (match d with Kir.Dim_const c -> c | Kir.Dim_param _ -> n))
      1 out_shape
  in
  let ins = List.init inputs (fun j -> Printf.sprintf "in%d" j) in
  let grid = if dims = 1 then Dim3.make (n / bs) else Dim3.make (n / bs) ~y:(n / bs) in
  let block = if dims = 1 then Dim3.make bs else Dim3.make bs ~y:bs in
  let launch =
    Host_ir.Launch
      {
        kernel = k;
        grid;
        block;
        args = (Host_ir.HInt n :: List.map (fun b -> Host_ir.HBuf b) ins) @ [ Host_ir.HBuf "out" ];
      }
  in
  let iters = 2 + Random.State.int rng 14 in
  let run =
    match loop with
    | 1 when out_len = len ->
      [ Host_ir.Repeat (iters, [ launch; Host_ir.Swap ("in0", "out") ]) ]
    | 1 -> [ Host_ir.Repeat (iters, [ launch ]) ]
    | _ -> [ launch ]
  in
  let body =
    List.map (fun b -> Host_ir.Malloc (b, len)) ins
    @ [ Host_ir.Malloc ("out", out_len) ]
    @ List.map
      (fun b -> Host_ir.Memcpy_h2d { dst = b; src = Host_ir.host_phantom len })
      ins
    @ [ Host_ir.Memcpy_h2d { dst = "out"; src = Host_ir.host_phantom out_len } ]
    @ run
    @ [ Host_ir.Memcpy_d2h { dst = Host_ir.host_phantom out_len; src = "out" } ]
    @ List.map (fun b -> Host_ir.Free b) (ins @ [ "out" ])
  in
  let name = Printf.sprintf "g%03d-%s" i (label_name label) in
  { p_name = name; p_source = Cusrc.render (Host_ir.program ~name body); p_label = label }

let generate ~seed = List.init count (program ~seed)
