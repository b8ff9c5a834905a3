(* A fixed-size domain pool with adaptive scheduling.  Workers block on
   a condition variable guarding a FIFO of jobs; a parallel loop
   enqueues one chunk-grabbing job per participating worker (not one
   closure per chunk) and the submitting domain grabs chunks alongside
   them, so a pool of size [s] really applies [s]-way parallelism with
   only [s - 1] spawned domains — and a loop that stays serial touches
   neither the queue nor the workers.

   Three mechanisms keep the pool from losing to a serial loop:
   - a parallelism cap at [Domain.recommended_domain_count ()] (workers
     beyond the hardware would only add contention; override with
     [RRMS_POOL_CAP] / [Pool.set_parallel_cap]),
   - a measured cost model: the first chunk runs on the caller under a
     timer, and loops whose estimated remaining work cannot pay for a
     wake-up finish serially,
   - chunk sizes derived from the measured per-item cost (targeting a
     fixed time grain, bounded for balance), claimed from an atomic
     cursor so no per-chunk closures are allocated.
   An armed [Fault] bypasses the cap and the small-work exit but not the
   chunk formula.  None of this affects results: [parallel_for] bodies
   write disjoint indices, so the chunk layout is free to adapt. *)

module Obs = Rrms_obs.Obs

(* Pool shape metrics are declared non-deterministic: the chunk layout
   (and hence every count below) legitimately depends on the pool size,
   unlike the algorithmic counters in lib/core. *)
module Metrics = struct
  let batches =
    Obs.Counter.make ~deterministic:false
      ~help:"parallel batches submitted to the domain pool"
      "rrms_pool_batches_total"

  let chunks =
    Obs.Counter.make ~deterministic:false
      ~help:"chunks executed across all batches" "rrms_pool_chunks_total"

  let serial =
    Obs.Counter.make ~deterministic:false
      ~help:"parallel_for calls taking the serial fallback"
      "rrms_pool_serial_loops_total"

  let small_work =
    Obs.Counter.make ~deterministic:false
      ~help:"parallel_for calls kept serial by the measured work threshold"
      "rrms_pool_small_work_serial_total"

  let adaptive_batches =
    Obs.Counter.make ~deterministic:false
      ~help:"batches scheduled through the measured cost model"
      "rrms_pool_adaptive_batches_total"

  let last_chunk_items =
    Obs.Gauge.make ~deterministic:false
      ~help:"adapted chunk size (items) of the most recent batch"
      "rrms_pool_last_chunk_items"

  (* Per-worker busy time, indexed by the pool-local worker id (0 is
     the submitting/main domain); ids past the table fold into the last
     slot so a huge pool cannot overflow it. *)
  let max_workers = 16

  let busy =
    Array.init max_workers (fun w ->
        Obs.Floatc.make
          ~help:"wall-clock seconds spent executing chunks, per worker"
          (Printf.sprintf "rrms_pool_busy_seconds_total{worker=\"%d\"}" w))
end

module Fault = struct
  type mode = Raise | Stall of float

  exception Injected of int

  (* Worker identity: 0 is the submitting/main domain (it grabs chunks
     alongside the workers and runs the serial fallback), spawned
     workers are 1 .. size-1 within their pool.  Stored domain-locally
     so the hook knows who is executing a chunk regardless of which
     pool queue it came from. *)
  let worker_id : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
  let self () = Domain.DLS.get worker_id

  type spec = { worker : int; mode : mode }

  let current : spec option Atomic.t = Atomic.make None
  let set ~worker mode = Atomic.set current (Some { worker; mode })
  let clear () = Atomic.set current None
  let active () = Atomic.get current <> None

  (* "raise@W" or "stall@W:SECONDS", e.g. RRMS_FAULT=stall@1:0.001. *)
  let parse s =
    match String.split_on_char '@' (String.trim s) with
    | [ "raise"; w ] ->
        Option.map (fun w -> { worker = w; mode = Raise }) (int_of_string_opt w)
    | [ "stall"; rest ] -> (
        match String.split_on_char ':' rest with
        | [ w; secs ] -> (
            match (int_of_string_opt w, float_of_string_opt secs) with
            | Some w, Some t when t >= 0. -> Some { worker = w; mode = Stall t }
            | _ -> None)
        | _ -> None)
    | _ -> None

  let configure_from_env () =
    match Sys.getenv_opt "RRMS_FAULT" with
    | None -> ()
    | Some s -> (
        match parse s with
        | Some { worker; mode } -> set ~worker mode
        | None -> ())

  (* Called on the executing domain at every chunk boundary. *)
  let hook () =
    match Atomic.get current with
    | None -> ()
    | Some { worker; mode } ->
        if self () = worker then begin
          match mode with
          | Raise -> raise (Injected worker)
          | Stall t -> if t > 0. then Unix.sleepf t
        end

  let () =
    Printexc.register_printer (function
      | Injected w -> Some (Printf.sprintf "Rrms_parallel.Fault.Injected(worker %d)" w)
      | _ -> None)
end

module Pool = struct
  type t = {
    size : int;
    jobs : (unit -> unit) Queue.t;
    mutex : Mutex.t;
    nonempty : Condition.t;
    mutable workers : unit Domain.t list;
  }

  let rec worker pool =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.jobs do
      Condition.wait pool.nonempty pool.mutex
    done;
    let job = Queue.pop pool.jobs in
    Mutex.unlock pool.mutex;
    job ();
    worker pool

  let create size =
    if size < 1 then invalid_arg "Pool.create: size must be >= 1";
    {
      size;
      jobs = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      workers = [];
    }

  (* Workers are spawned on the first batch that needs them, not at
     pool creation: a pool whose every loop stays serial (capped width
     1, or all-small work) costs nothing but its record.  The unlocked
     peek may read a stale [[]]; the locked re-check decides. *)
  let ensure_workers pool =
    if pool.size > 1 && pool.workers = [] then begin
      Mutex.lock pool.mutex;
      if pool.workers = [] then
        pool.workers <-
          List.init (pool.size - 1) (fun i ->
              Domain.spawn (fun () ->
                  Domain.DLS.set Fault.worker_id (i + 1);
                  worker pool));
      Mutex.unlock pool.mutex
    end

  let size t = t.size

  (* Pools are cached per size and never torn down: idle workers cost
     one blocked thread each, and the MRST binary search re-enters the
     pool on every probe. *)
  let table : (int, t) Hashtbl.t = Hashtbl.create 4
  let table_mutex = Mutex.create ()

  let get size =
    if size < 1 then invalid_arg "Pool.get: size must be >= 1";
    Mutex.lock table_mutex;
    let pool =
      match Hashtbl.find_opt table size with
      | Some p -> p
      | None ->
          let p = create size in
          Hashtbl.add table size p;
          p
    in
    Mutex.unlock table_mutex;
    pool

  let default = Atomic.make 1
  let default_size () = Atomic.get default
  let set_default_size n = Atomic.set default (max 1 n)

  (* Effective parallelism is capped at the hardware's recommended
     domain count: extra workers on an oversubscribed box only add
     wake-up and contention cost.  0 = automatic. *)
  let recommended = lazy (max 1 (Domain.recommended_domain_count ()))
  let cap_override = Atomic.make 0
  let set_parallel_cap n = Atomic.set cap_override (max 0 n)

  let parallel_cap () =
    match Atomic.get cap_override with
    | 0 -> Lazy.force recommended
    | c -> c

  let configure_from_env () =
    (match Sys.getenv_opt "RRMS_DOMAINS" with
    | None -> ()
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> set_default_size n
        | Some _ | None -> ()));
    match Sys.getenv_opt "RRMS_POOL_CAP" with
    | None -> ()
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 0 -> set_parallel_cap n
        | Some _ | None -> ())

  (* Fault injection must reach the spawned workers even when the cap
     would keep a loop serial — the resilience tests aim faults at
     worker 1 and expect it to execute chunks. *)
  let effective_width pool =
    if Fault.active () then pool.size
    else min pool.size (parallel_cap ())

  (* Countdown latch for one batch: counts outstanding grab-loop jobs. *)
  type batch = {
    b_mutex : Mutex.t;
    finished : Condition.t;
    mutable pending : int;
    mutable failure : exn option;
  }

  (* Execute one chunk, attributing its wall-clock time to the worker
     actually running it (the submitting domain grabs chunks too, so
     worker 0 accrues busy time as well). *)
  let timed_exec task =
    if Obs.enabled () then begin
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          let w = min (Fault.self ()) (Metrics.max_workers - 1) in
          Obs.Floatc.add Metrics.busy.(w) (Unix.gettimeofday () -. t0))
        task
    end
    else task ()

  (* Run [body i] for i in [lo, hi) with [width] participants (the
     caller plus [width - 1] pool workers).  Chunks of [chunk] items are
     claimed from an atomic cursor.  A chunk that raises records the
     first failure (rethrown after the batch) and the remaining chunks
     still run — same isolation as queueing every chunk separately. *)
  let run_chunked pool ~width ~lo ~hi ~chunk body =
    Obs.Counter.incr Metrics.batches;
    Obs.Gauge.set_int Metrics.last_chunk_items chunk;
    let next = Atomic.make lo in
    let b =
      {
        b_mutex = Mutex.create ();
        finished = Condition.create ();
        pending = width - 1;
        failure = None;
      }
    in
    (* Chunks may execute on worker domains, which have no ambient
       request scope of their own: capture the submitter's context here
       and install it around every chunk, so per-request attribution
       survives the pool boundary. *)
    let ctx = Obs.Ctx.current () in
    let grab_loop () =
      let continue = ref true in
      while !continue do
        let start = Atomic.fetch_and_add next chunk in
        if start >= hi then continue := false
        else begin
          Obs.Counter.incr Metrics.chunks;
          try
            Obs.Ctx.scoped ctx (fun () ->
                Fault.hook ();
                timed_exec (fun () ->
                    let stop = min hi (start + chunk) in
                    for i = start to stop - 1 do
                      body i
                    done))
          with e ->
            Mutex.lock b.b_mutex;
            if b.failure = None then b.failure <- Some e;
            Mutex.unlock b.b_mutex
        end
      done
    in
    if width <= 1 then grab_loop ()
    else begin
      ensure_workers pool;
      let job () =
        grab_loop ();
        Mutex.lock b.b_mutex;
        b.pending <- b.pending - 1;
        if b.pending = 0 then Condition.broadcast b.finished;
        Mutex.unlock b.b_mutex
      in
      Mutex.lock pool.mutex;
      for _ = 1 to width - 1 do
        Queue.push job pool.jobs
      done;
      Condition.broadcast pool.nonempty;
      Mutex.unlock pool.mutex;
      grab_loop ();
      Mutex.lock b.b_mutex;
      while b.pending > 0 do
        Condition.wait b.finished b.b_mutex
      done;
      Mutex.unlock b.b_mutex
    end;
    match b.failure with Some e -> raise e | None -> ()
end

let resolve = function Some d -> Pool.get d | None -> Pool.get (Pool.default_size ())

(* Cost-model constants.  A wake-up through the queue costs tens of
   microseconds; a loop whose measured remaining work is below
   [serial_threshold] cannot win it back.  Chunks target
   [target_grain] seconds of work each — coarse enough to amortise the
   cursor claim, fine enough to balance across [chunks_per_worker]
   claims per participant. *)
let serial_threshold = 200e-6
let target_grain = 1e-3
let chunks_per_worker = 4

let parallel_for ?domains ?(min_chunk = 64) n body =
  if min_chunk < 1 then invalid_arg "parallel_for: min_chunk must be >= 1";
  let run lo hi =
    Pool.timed_exec (fun () ->
        for i = lo to hi - 1 do
          body i
        done)
  in
  if n > 0 then begin
    let pool = resolve domains in
    let width = Pool.effective_width pool in
    if width = 1 || n < 2 * min_chunk then begin
      (* Serial fallback = one chunk executed by the calling domain,
         so the fault hook still sees a chunk boundary. *)
      Obs.Counter.incr Metrics.serial;
      Fault.hook ();
      run 0 n
    end
    else begin
      (* Pilot: run the first chunk on the caller under a timer to
         measure the per-item cost, then decide serial vs parallel
         and the chunk size from the measurement.  An armed fault
         skips the serial exit: the tests aim faults at spawned
         workers and rely on them executing chunks. *)
      let pilot = min_chunk in
      Fault.hook ();
      let t0 = Unix.gettimeofday () in
      run 0 pilot;
      let dt = Unix.gettimeofday () -. t0 in
      let per_item = Float.max (dt /. float_of_int pilot) 1e-9 in
      let remaining = n - pilot in
      if
        float_of_int remaining *. per_item < serial_threshold
        && not (Fault.active ())
      then begin
        Obs.Counter.incr Metrics.small_work;
        Fault.hook ();
        run pilot n
      end
      else begin
        Obs.Counter.incr Metrics.adaptive_batches;
        let grain_items =
          int_of_float (Float.min (target_grain /. per_item) 1e9)
        in
        let balance_items =
          max 1 (remaining / (width * chunks_per_worker))
        in
        let chunk = max min_chunk (min grain_items balance_items) in
        Pool.run_chunked pool ~width ~lo:pilot ~hi:n ~chunk body
      end
    end
  end
