(* Device memory buffers.

   In functional mode a buffer carries real float data and copies move
   bytes; in performance mode only the extents exist, so that
   paper-sized problems (tens of GiB across 16 devices) can be
   simulated without allocating them. *)

type t = {
  id : int;
  device : int; (* owning device, or -1 for host-pinned staging *)
  len : int; (* elements *)
  charged_bytes : int;
      (* bytes charged against the device's capacity at creation; 0
         for virtual buffers whose residency is accounted segment-wise
         by the runtime *)
  data : float array option; (* Some in functional mode *)
}

(* The free arrays of one length, and the most arrays of that length
   one machine has given back: the arena keeps no more than that. *)
type pool = { arrays : float array Stack.t; mutable cap : int }

(* Free functional arrays by length, shared by the machines of one
   owner in turn. *)
type arena = {
  pools : (int, pool) Hashtbl.t;
  mutable reused : int;
  mutable fresh : int;
}

let arena () = { pools = Hashtbl.create 16; reused = 0; fresh = 0 }
let arena_reused a = a.reused
let arena_fresh a = a.fresh

let arena_retained a =
  Hashtbl.fold (fun len p acc -> (len, Stack.length p.arrays) :: acc) a.pools []
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort compare

let pool a len =
  match Hashtbl.find_opt a.pools len with
  | Some p -> p
  | None ->
    let p = { arrays = Stack.create (); cap = 0 } in
    Hashtbl.add a.pools len p;
    p

(* A zero-filled array of [len] elements: a free one refilled with
   [0.0], bit for bit what [Array.make len 0.0] returns, or a fresh
   one. *)
let draw a len =
  let p = pool a len in
  if Stack.is_empty p.arrays then begin
    a.fresh <- a.fresh + 1;
    Array.make len 0.0
  end
  else begin
    a.reused <- a.reused + 1;
    let d = Stack.pop p.arrays in
    Array.fill d 0 len 0.0;
    d
  end

let give_back a arrays =
  let count = Hashtbl.create 8 in
  List.iter
    (fun d ->
       let len = Array.length d in
       Hashtbl.replace count len
         (1 + Option.value ~default:0 (Hashtbl.find_opt count len)))
    arrays;
  Hashtbl.iter (fun len n -> let p = pool a len in p.cap <- max p.cap n) count;
  List.iter
    (fun d ->
       let p = pool a (Array.length d) in
       if Stack.length p.arrays < p.cap then Stack.push d p.arrays)
    arrays

let create ~id ~device ~len ~charged_bytes ~functional =
  if len < 0 then invalid_arg "Buffer.create: negative length";
  {
    id;
    device;
    len;
    charged_bytes;
    data = (if functional then Some (Array.make len 0.0) else None);
  }

let create_in a ~id ~device ~len ~charged_bytes =
  if len < 0 then invalid_arg "Buffer.create_in: negative length";
  { id; device; len; charged_bytes; data = Some (draw a len) }

let id b = b.id
let device b = b.device
let charged_bytes b = b.charged_bytes

let data_exn b =
  match b.data with
  | Some d -> d
  | None -> invalid_arg "Buffer.data_exn: performance-mode buffer has no data"

(* Copy [len] elements between a host array and a device buffer or
   between two device buffers; no-ops in performance mode. *)
let blit_from_host ~src ~src_off b ~dst_off ~len =
  match b.data with
  | Some d -> Array.blit src src_off d dst_off len
  | None -> ()

let blit_to_host b ~src_off ~dst ~dst_off ~len =
  match b.data with
  | Some d -> Array.blit d src_off dst dst_off len
  | None -> ()

let blit ~src ~src_off ~dst ~dst_off ~len =
  match (src.data, dst.data) with
  | Some s, Some d -> Array.blit s src_off d dst_off len
  | None, None -> ()
  | _ -> invalid_arg "Buffer.blit: mixed functional/performance buffers"

let check_range b ~off ~len ~what =
  if off < 0 || len < 0 || off + len > b.len then
    invalid_arg
      (Printf.sprintf
         "%s: range [%d,%d) outside buffer %d of length %d on device %d" what
         off (off + len) b.id b.len b.device)
