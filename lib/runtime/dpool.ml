(* A persistent pool of worker domains with chunked self-scheduling.

   Spawning a domain costs far more than a typical kernel launch, so
   the pool is created once and reused: workers block on a condition
   variable between jobs.  A job is a half-open index range [0, n)
   split into chunks that workers (and the submitting domain, which
   participates) claim from a shared atomic counter — cheap dynamic
   load balancing without per-chunk task allocation.

   Jobs are strictly serial: [parallel_for] returns only after every
   participant has retired, and only then can a new job be installed,
   so workers can never observe two jobs racing.  Nested
   [parallel_for] from inside a job callback would deadlock; the
   executor never nests. *)

type job = {
  f : int -> int -> unit;  (* process the half-open range [lo, hi) *)
  n : int;
  chunk : int;
  next : int Atomic.t;  (* next unclaimed index *)
  claims : int Atomic.t;  (* participants that took up the job *)
  max_claims : int;  (* participants: the pool size, at most [n] *)
  mutable pending : int;  (* participants not yet retired *)
  mutable error : exn option;  (* first exception raised by a chunk *)
}

type t = {
  size : int;  (* worker domains + the submitting domain *)
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable job : job option;
  mutable epoch : int;  (* bumped once per installed job *)
  mutable stop : bool;
}

let size t = t.size

(* Claim and run chunks until the range is exhausted.  The first
   exception is recorded (and re-raised by the submitter); remaining
   chunks still run so [pending] reliably reaches zero. *)
let drain job =
  if Atomic.fetch_and_add job.claims 1 < job.max_claims then
    try
      let continue_ = ref true in
      while !continue_ do
        let lo = Atomic.fetch_and_add job.next job.chunk in
        if lo >= job.n then continue_ := false
        else job.f lo (min job.n (lo + job.chunk))
      done
    with e -> if job.error = None then job.error <- Some e

let retire t job =
  Mutex.lock t.m;
  job.pending <- job.pending - 1;
  if job.pending = 0 then Condition.broadcast t.done_cv;
  Mutex.unlock t.m

let rec worker_loop t last_epoch =
  Mutex.lock t.m;
  while (not t.stop) && t.epoch = last_epoch do
    Condition.wait t.work_cv t.m
  done;
  if t.stop then Mutex.unlock t.m
  else begin
    let epoch = t.epoch in
    let job = Option.get t.job in
    Mutex.unlock t.m;
    drain job;
    retire t job;
    worker_loop t epoch
  end

(* The OCaml 5.1 runtime's fixed domain limit (its [Max_domains]),
   the main domain included.  A pool asking for more would spawn until
   the runtime refuses and die half-built, so sizes are checked first. *)
let max_domains = 128

let check_domains ~what d =
  if d < 1 then
    invalid_arg
      (Printf.sprintf "Dpool: %s must be a positive integer, got %d" what d);
  if d > max_domains then
    invalid_arg
      (Printf.sprintf
         "Dpool: %s must be at most %d (the OCaml runtime's domain limit), got %d"
         what max_domains d)

let create ?domains () =
  let n =
    match domains with
    | Some d ->
      check_domains ~what:"domains" d;
      d
    | None -> max 1 (min max_domains (Domain.recommended_domain_count ()))
  in
  let t =
    {
      size = n;
      workers = [||];
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      job = None;
      epoch = 0;
      stop = false;
    }
  in
  t.workers <- Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let parallel_for t ~n f =
  (* The span lives on the submitting domain only; worker-domain code
     must not touch the (domain-unsafe) span stack. *)
  Obs.Span.with_span ~cat:"dpool" "parallel_for" @@ fun () ->
  if n <= 0 then 0
  else begin
    let participants = min t.size n in
    if participants <= 1 || Array.length t.workers = 0 then begin
      f 0 n;
      1
    end
    else begin
      (* ~4 chunks per participant: coarse enough to amortize the
         atomic claim, fine enough to balance uneven chunk costs. *)
      let chunk = max 1 (n / (participants * 4)) in
      let job =
        {
          f;
          n;
          chunk;
          next = Atomic.make 0;
          claims = Atomic.make 0;
          max_claims = participants;
          (* every pool member retires, even those over the claim cap *)
          pending = t.size;
          error = None;
        }
      in
      Mutex.lock t.m;
      t.job <- Some job;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.m;
      drain job;
      retire t job;
      Mutex.lock t.m;
      while job.pending > 0 do
        Condition.wait t.done_cv t.m
      done;
      t.job <- None;
      Mutex.unlock t.m;
      (match job.error with Some e -> raise e | None -> ());
      participants
    end
  end

(* --- The shared global pool ------------------------------------------- *)

let default_override = ref None

let set_default_domains n =
  check_domains ~what:"domains" n;
  default_override := Some n

let default_domains () =
  match !default_override with
  | Some n -> n
  | None -> (
      match Sys.getenv_opt "MEKONG_DOMAINS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 1 ->
            check_domains ~what:"MEKONG_DOMAINS" n;
            n
          | _ ->
            invalid_arg
              ("Dpool: MEKONG_DOMAINS must be a positive integer, got " ^ s))
      | None -> min max_domains (Domain.recommended_domain_count ()))

let global = ref None

let get () =
  match !global with
  | Some t -> t
  | None ->
    let t = create ~domains:(default_domains ()) () in
    global := Some t;
    (* Leaving worker domains blocked on a condition variable at
       process exit is harmless but noisy under some runtimes; join
       them deterministically. *)
    at_exit (fun () ->
        match !global with
        | Some p ->
          global := None;
          shutdown p
        | None -> ());
    t
