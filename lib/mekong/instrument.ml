(* Instrumented write-set collection — the fallback the paper's
   conclusion proposes for kernels whose write accesses cannot be
   modeled polyhedrally ("this limitation can be remedied by using
   instrumentation to collect write patterns", §11; the mechanism
   follows VAST's minimal kernel clones [20]).

   For an array with an indirect (data-dependent) write pattern, the
   compiler builds a *shadow kernel*: the original kernel with every
   stored value replaced by a constant, then optimized — dead value
   computation disappears and only the address computation (including
   the loads feeding indirect subscripts) remains.  At run time the
   shadow executes once per partition, recording the linear offsets
   each partition writes; the recorded ranges replace the static write
   map for tracker updates, and a dynamic write-after-write check
   rejects executions where two partitions write the same element.

   Instrumentation needs the actual input data, so it is available in
   functional machines only. *)

exception Write_conflict of { arr : string; offset : int; dev_a : int; dev_b : int }

(* The minimal clone: stores keep their subscripts but write a
   constant; the optimizer then removes the dead value computation. *)
let shadow_kernel (k : Kir.t) : Kir.t =
  let rec strip (s : Kir.stmt) : Kir.stmt =
    match s with
    | Kir.Store (arr, idx, _) -> Kir.Store (arr, idx, Kir.Fconst 0.0)
    (* Atomics write the addressed element too; the shadow only needs
       the address, so a constant store records the same offset. *)
    | Kir.Atomic (_, arr, idx, _) -> Kir.Store (arr, idx, Kir.Fconst 0.0)
    | Kir.Local _ | Kir.Assign _ | Kir.Syncthreads -> s
    | Kir.If (c, t, f) -> Kir.If (c, List.map strip t, List.map strip f)
    | Kir.For { var; from_; to_; body } ->
      Kir.For { var; from_; to_; body = List.map strip body }
  in
  Kopt.optimize
    { k with Kir.name = k.Kir.name ^ "__shadow";
             Kir.body = List.map strip k.Kir.body }

(* Estimated cost of the instrumentation launch (charged to the
   simulated device like any other kernel). *)
let shadow_cost shadow ~scalar_env ~block =
  Costmodel.ops_per_block shadow ~scalar_env ~block

(* Collect, per instrumented array, the canonical list of ranges one
   partition's shadow launch writes.  [run] launches the (already
   partition-transformed) shadow with the given access records: they
   load from the device-local instances [data] names (the read sets
   were synchronized before instrumentation) but store into per-array
   scratch, so the device is never written, and each instrumented
   array's touched mask records the offsets written.  Writes to other
   arrays are ignored. *)
let collect_writes ~arrays ~data run =
  let masks = List.map (fun a -> (a, Array.make (Array.length (data a)) false)) arrays in
  run (fun a ->
      let d = data a in
      {
        Kcompile.loads = d;
        stores = Array.make (Array.length d) 0.0;
        touched = List.assoc_opt a masks;
      });
  (* Maximal runs of written offsets, ascending: already canonical. *)
  let ranges mask =
    let n = Array.length mask in
    let rec scan i acc =
      if i >= n then List.rev acc
      else if not mask.(i) then scan (i + 1) acc
      else
        let j = ref i in
        while !j < n && mask.(!j) do incr j done;
        scan !j ((i, !j) :: acc)
    in
    scan 0 []
  in
  List.map (fun (arr, mask) -> (arr, ranges mask)) masks

(* Dynamic write-after-write check across partitions: the per-device
   range lists of one array must be pairwise disjoint (the static
   injectivity requirement of §4.1, enforced at run time).  Raises
   {!Write_conflict} naming the first overlap found. *)
let check_disjoint ~arr (per_dev : (int * (int * int) list) list) =
  let rec overlap a b =
    match (a, b) with
    | [], _ | _, [] -> None
    | (s1, e1) :: ra, (s2, e2) :: rb ->
      if e1 <= s2 then overlap ra b
      else if e2 <= s1 then overlap a rb
      else Some (max s1 s2)
  in
  let rec pairs = function
    | [] -> ()
    | (da, ra) :: rest ->
      List.iter
        (fun (db, rb) ->
           match overlap ra rb with
           | Some off -> raise (Write_conflict { arr; offset = off; dev_a = da; dev_b = db })
           | None -> ())
        rest;
      pairs rest
  in
  pairs per_dev
