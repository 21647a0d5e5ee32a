(* Benchmark workload configurations (paper Table 1).

   | Benchmark | Small  | Medium  | Large   | Iterations |
   | Hotspot   | 8,192  | 16,384  | 36,864  | 1,500      |
   | N-Body    | 65,536 | 131,072 | 327,680 | 96         |
   | Matmul    | 8,192  | 16,384  | 30,656  | N/A        |

   Performance runs build the host programs at these sizes without
   touching element data (the machine runs in performance mode, so the
   huge host arrays are never filled). *)

type size = Small | Medium | Large

let size_name = function Small -> "Small" | Medium -> "Medium" | Large -> "Large"
let sizes = [ Small; Medium; Large ]

type benchmark = Hotspot_b | Nbody_b | Matmul_b

let benchmarks = [ Hotspot_b; Nbody_b; Matmul_b ]

let benchmark_name = function
  | Hotspot_b -> "Hotspot"
  | Nbody_b -> "N-Body"
  | Matmul_b -> "Matmul"

let problem_size bench size =
  match (bench, size) with
  | Hotspot_b, Small -> 8_192
  | Hotspot_b, Medium -> 16_384
  | Hotspot_b, Large -> 36_864
  | Nbody_b, Small -> 65_536
  | Nbody_b, Medium -> 131_072
  | Nbody_b, Large -> 327_680
  | Matmul_b, Small -> 8_192
  | Matmul_b, Medium -> 16_384
  | Matmul_b, Large -> 30_656

let iterations = function Hotspot_b -> 1_500 | Nbody_b -> 96 | Matmul_b -> 1

let nbody_dt = 1.0e-3

(* Build the paper-scale host program for a benchmark.  Host arrays are
   phantoms: performance mode never materializes them (the Large
   problems would need tens of GiB).  [iterations_override] shrinks
   iterative benchmarks for quick runs. *)
let program ?iterations:iterations_override bench size =
  let n = problem_size bench size in
  let iters =
    match iterations_override with Some i -> i | None -> iterations bench
  in
  let ph len = Host_ir.host_phantom len in
  match bench with
  | Hotspot_b ->
    Hotspot.program_h ~n ~iterations:iters ~init:(ph (n * n))
      ~result:(ph (n * n))
  | Nbody_b ->
    Nbody.program_h ~n ~iterations:iters ~dt:nbody_dt ~pos:(ph (n * 4))
      ~vel:(ph (n * 4)) ~pos_result:(ph (n * 4))
  | Matmul_b ->
    Matmul.program_h ~n ~a:(ph (n * n)) ~b:(ph (n * n)) ~result:(ph (n * n))

(* Small functional instances (real data, bit-exact checks) used by the
   test suite and the examples. *)
let functional_hotspot ~n ~iterations =
  let init = Hotspot.initial ~n in
  let result = Array.make (n * n) nan in
  let prog = Hotspot.program ~n ~iterations ~init ~result in
  (prog, result, fun () -> Hotspot.reference ~n ~iterations init)

let functional_nbody ~n ~iterations =
  let pos, vel = Nbody.initial ~n in
  let pos_result = Array.make (n * 4) nan in
  let prog =
    Nbody.program ~n ~iterations ~dt:nbody_dt ~pos ~vel ~pos_result
  in
  (prog, pos_result, fun () -> fst (Nbody.reference ~n ~iterations ~dt:nbody_dt pos vel))

let functional_matmul ~n =
  let a, b = Matmul.initial ~n in
  let result = Array.make (n * n) nan in
  let prog = Matmul.program ~n ~a ~b ~result in
  (prog, result, fun () -> Matmul.reference ~n a b)

let functional_vecadd ~n =
  let a = Array.init n (fun idx -> float_of_int idx *. 0.25) in
  let b = Array.init n (fun idx -> 100.0 -. float_of_int idx) in
  let result = Array.make n nan in
  let prog = Vecadd.program ~n ~a ~b ~result in
  (prog, result, fun () -> Vecadd.reference a b)

(* The irregular (atomic/reducible) instances use exact-arithmetic
   data on purpose: accumulation grouping differs across partition
   counts, and integer-valued floats make every grouping produce the
   same bits (see DESIGN.md §20). *)
let functional_dot ~n =
  let a, b = Dot.initial ~n in
  let result = Array.make 1 nan in
  let prog = Dot.program ~n ~a ~b ~result in
  (prog, result, fun () -> Dot.reference a b)

let functional_histogram ~n ~nbins =
  let data = Histogram.initial ~n ~nbins in
  let result = Array.make nbins nan in
  let prog = Histogram.program ~n ~nbins ~data ~result in
  (prog, result, fun () -> Histogram.reference ~nbins data)
