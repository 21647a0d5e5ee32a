(* Seeded, deterministic fault injection for the machine simulator.

   The fault model covers what K80-class production boards actually do
   at scale:

   - transient kernel faults (ECC events, sticky SM errors): the launch
     consumes its simulated time, produces nothing, and the machine
     raises a typed exception the engine can retry;
   - transient transfer faults (PCIe replay storms, DMA aborts) on
     h2d / d2h / p2p alike;
   - permanent device loss ("fell off the bus"), either scheduled at a
     simulated time or drawn per operation with a fixed probability.
     Once lost, a device stays lost and every operation touching it
     raises.

   All randomness flows from one splitmix64 stream seeded by the spec,
   so a fault schedule is a pure function of (seed, operation sequence):
   two runs over the same program see the identical schedule, which is
   what makes fault campaigns and the bit-identity property testable.

   A global cap on *consecutive* transient faults bounds the retries of
   one operation retried alone: at most [max_consecutive] faults in a
   row, then a forced success.  It does not bound the retries of a
   sequence of operations.  An engine that retries a whole statement of
   k fault-drawing operations needs all k to succeed in one attempt,
   which at rate r happens with probability about (1 - r){^k}; the cap
   rarely fires between successes, so at high rates a long statement
   can outlast any retry budget. *)

type spec = {
  seed : int;
  kernel_fault_rate : float; (* per launch *)
  transfer_fault_rate : float; (* per transfer *)
  loss_rate : float; (* permanent loss per operation on the device *)
  scheduled_losses : (int * float) list; (* (device, simulated seconds) *)
  max_consecutive : int; (* forced success after this many in a row *)
}

let null_spec =
  {
    seed = 0;
    kernel_fault_rate = 0.0;
    transfer_fault_rate = 0.0;
    loss_rate = 0.0;
    scheduled_losses = [];
    max_consecutive = 8;
  }

let is_null s =
  s.kernel_fault_rate = 0.0 && s.transfer_fault_rate = 0.0
  && s.loss_rate = 0.0 && s.scheduled_losses = []

(* "seed,rate" with optional ",DEV@TIME" scheduled losses, e.g.
   "42,0.01,2@0.5": seed 42, 1% transient rate on kernels and
   transfers, device 2 lost at 0.5 simulated seconds. *)
let spec_of_string s =
  try
    match String.split_on_char ',' (String.trim s) with
    | seed :: rate :: rest ->
      let seed = int_of_string (String.trim seed) in
      let rate = float_of_string (String.trim rate) in
      if not (rate >= 0.0 && rate < 1.0) then failwith "rate must be in [0,1)";
      let losses =
        List.map
          (fun part ->
             match String.split_on_char '@' (String.trim part) with
             | [ d; t ] ->
               let time = float_of_string t in
               (* A NaN or negative death time would never compare as
                  reached: the loss would be silently dropped. *)
               if not (Float.is_finite time && time >= 0.0) then
                 failwith
                   (Printf.sprintf "loss time must be finite and >= 0 (got %s)"
                      (String.trim t));
               (int_of_string d, time)
             | _ -> failwith "expected DEV@TIME")
          rest
      in
      Ok
        {
          null_spec with
          seed;
          kernel_fault_rate = rate;
          transfer_fault_rate = rate;
          scheduled_losses = losses;
        }
    | _ -> Error "expected SEED,RATE[,DEV@TIME...]"
  with Failure m -> Error ("bad fault spec: " ^ m)

(* Scheduled losses must name a device of the machine they are injected
   into; an out-of-range one could never fire. *)
let check_devices s ~n_devices =
  match List.find_opt (fun (d, _) -> d < 0 || d >= n_devices) s.scheduled_losses with
  | Some (d, _) ->
    Error
      (Printf.sprintf "device %d is out of range for %d GPU%s" d n_devices
         (if n_devices = 1 then "" else "s"))
  | None -> Ok ()

type counters = {
  mutable kernel_faults : int;
  mutable transfer_faults : int;
  mutable losses : int;
}

type t = {
  spec : spec;
  mutable state : int64; (* splitmix64 stream state *)
  lost : (int, unit) Hashtbl.t;
  mutable consecutive : int;
  stats : counters;
}

let create spec =
  {
    spec;
    state = Int64.of_int (spec.seed lxor 0x5DEECE66D);
    lost = Hashtbl.create 4;
    consecutive = 0;
    stats = { kernel_faults = 0; transfer_faults = 0; losses = 0 };
  }

let spec t = t.spec
let counters t = t.stats

(* splitmix64: the standard finalizer over a Weyl sequence. *)
let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform float in [0, 1) from the top 53 bits. *)
let uniform t =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  /. 9007199254740992.0

let device_lost t d = Hashtbl.mem t.lost d

let mark_lost t d =
  if not (device_lost t d) then begin
    Hashtbl.replace t.lost d ();
    t.stats.losses <- t.stats.losses + 1
  end

type outcome = [ `Ok | `Transient | `Lost ]

(* A scheduled loss fires the first time an operation touches the
   device at or after its loss time. *)
let scheduled_loss_due t ~device ~now =
  List.exists
    (fun (d, when_) -> d = device && now >= when_ && not (device_lost t d))
    t.spec.scheduled_losses

let transient t rate =
  (* Draw even when the rate is 0 so enabling a fault class does not
     shift the stream consumed by the others?  No: a zero rate must
     leave the schedule of the *other* classes untouched relative to a
     run where this class never existed, so skip the draw entirely. *)
  if rate > 0.0 && uniform t < rate then
    if t.consecutive >= t.spec.max_consecutive then begin
      t.consecutive <- 0;
      false
    end
    else begin
      t.consecutive <- t.consecutive + 1;
      true
    end
  else begin
    t.consecutive <- 0;
    false
  end

let op_outcome t ~kind ~device ~now : outcome =
  if device < 0 then `Ok (* the host never faults *)
  else if device_lost t device then `Lost
  else if scheduled_loss_due t ~device ~now then begin
    mark_lost t device;
    `Lost
  end
  else if t.spec.loss_rate > 0.0 && uniform t < t.spec.loss_rate then begin
    mark_lost t device;
    `Lost
  end
  else begin
    let rate =
      match kind with
      | `Kernel -> t.spec.kernel_fault_rate
      | `Transfer -> t.spec.transfer_fault_rate
    in
    if transient t rate then begin
      (match kind with
       | `Kernel -> t.stats.kernel_faults <- t.stats.kernel_faults + 1
       | `Transfer -> t.stats.transfer_faults <- t.stats.transfer_faults + 1);
      `Transient
    end
    else `Ok
  end

let kernel_outcome t ~device ~now = op_outcome t ~kind:`Kernel ~device ~now

(* A transfer touches up to two devices; the first one due for a loss
   wins (deterministically: lower-numbered checks first). *)
let transfer_outcome t ~devices ~now =
  let devices = List.sort_uniq compare (List.filter (fun d -> d >= 0) devices) in
  let lost = List.find_opt (fun d -> device_lost t d) devices in
  match lost with
  | Some d -> `Lost d
  | None ->
    let due = List.find_opt (fun d -> scheduled_loss_due t ~device:d ~now) devices in
    (match due with
     | Some d ->
       mark_lost t d;
       `Lost d
     | None ->
       let prob_lost =
         if t.spec.loss_rate > 0.0 then
           List.find_opt (fun _ -> uniform t < t.spec.loss_rate) devices
         else None
       in
       (match prob_lost with
        | Some d ->
          mark_lost t d;
          `Lost d
        | None ->
          if transient t t.spec.transfer_fault_rate then begin
            t.stats.transfer_faults <- t.stats.transfer_faults + 1;
            `Transient
          end
          else `Ok))
