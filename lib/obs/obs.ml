(* rrms.obs — zero-dependency metrics and tracing.

   Everything in this module is built around one invariant: recording
   must never change what a solver computes.  Instruments only ever
   *read* solver state and *write* obs state, and the disabled fast
   path is a single atomic load plus a branch, so leaving the
   instrumentation compiled into every hot path costs nothing
   measurable (bench/fig_obs.ml keeps that honest).

   Thread model: counters are per-metric atomics (sums are commutative,
   so totals are identical for every domain count); histogram timers
   and the trace buffer take a mutex, but are only touched from
   orchestration code or at per-chunk granularity, never per element.

   A metric is [deterministic] when its final value depends only on the
   input workload — not on wall-clock time, the domain count, or the
   chunk layout.  test/test_obs.ml asserts exactly the deterministic
   subset is reproducible across RRMS_DOMAINS=1/2/4.

   Request scoping ([Ctx]): a serving layer can bind an explicit
   context to the calling thread; while bound, every counter and float
   counter tees its delta into the context as well as the global
   registry, and spans carry the context's request/session ids.  The
   global registry stays the single source of truth — a context is an
   additional, request-local view, and with no context bound anywhere
   the overhead is one atomic load per recording. *)

type level = Disabled | Counters | Full

let level_cell = Atomic.make 0 (* 0 = Disabled, 1 = Counters, 2 = Full *)

let int_of_level = function Disabled -> 0 | Counters -> 1 | Full -> 2
let level_of_int = function 0 -> Disabled | 1 -> Counters | _ -> Full

let level () = level_of_int (Atomic.get level_cell)
let set_level l = Atomic.set level_cell (int_of_level l)
let enabled () = Atomic.get level_cell > 0
let spans_enabled () = Atomic.get level_cell > 1

(* ------------------------------------------------------------------ *)
(* Latency histograms                                                  *)

(* A bare [Hist] is not registered: the serving layer owns a keyed
   family of them — (algo, cache outcome, status) — and folds them into
   its own [stats] response.  A registered [Timer] is a [Hist] plus its
   registry entry.  Everything about the estimator is deterministic
   given the multiset of observations: fixed bucket boundaries,
   rank-based quantiles answered as bucket upper bounds, and a merge
   that adds bucket counts (exactly associative; the float [sum] is
   added pairwise, so it is associative whenever the inputs are, e.g.
   dyadic test values). *)
module Hist = struct
  (* Five buckets per decade from 1 µs to 1000 s, plus implicit +Inf. *)
  let bounds =
    Array.init 46 (fun i -> 10. ** ((float_of_int i /. 5.) -. 6.))

  type t = {
    h_mutex : Mutex.t;
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_max : float;
    h_buckets : int array; (* one slot per [bounds] entry + +Inf *)
  }

  let create () =
    {
      h_mutex = Mutex.create ();
      h_count = 0;
      h_sum = 0.;
      h_max = 0.;
      h_buckets = Array.make (Array.length bounds + 1) 0;
    }

  (* Smallest i with dur <= bounds.(i); the overflow slot otherwise. *)
  let slot_of dur =
    let nb = Array.length bounds in
    if dur <= bounds.(0) then 0
    else if dur > bounds.(nb - 1) then nb
    else begin
      let lo = ref 0 and hi = ref (nb - 1) in
      (* invariant: bounds.(lo) < dur <= bounds.(hi) *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if dur <= bounds.(mid) then hi := mid else lo := mid
      done;
      !hi
    end

  let observe t dur =
    Mutex.lock t.h_mutex;
    t.h_count <- t.h_count + 1;
    t.h_sum <- t.h_sum +. dur;
    if dur > t.h_max then t.h_max <- dur;
    let s = slot_of dur in
    t.h_buckets.(s) <- t.h_buckets.(s) + 1;
    Mutex.unlock t.h_mutex

  let with_lock t f =
    Mutex.lock t.h_mutex;
    let v = f () in
    Mutex.unlock t.h_mutex;
    v

  let count t = with_lock t (fun () -> t.h_count)
  let sum t = with_lock t (fun () -> t.h_sum)
  let max_value t = with_lock t (fun () -> t.h_max)
  let buckets t = with_lock t (fun () -> Array.copy t.h_buckets)

  let reset t =
    with_lock t (fun () ->
        t.h_count <- 0;
        t.h_sum <- 0.;
        t.h_max <- 0.;
        Array.fill t.h_buckets 0 (Array.length t.h_buckets) 0)

  let merge a b =
    let t = create () in
    let absorb src =
      Mutex.lock src.h_mutex;
      t.h_count <- t.h_count + src.h_count;
      t.h_sum <- t.h_sum +. src.h_sum;
      if src.h_max > t.h_max then t.h_max <- src.h_max;
      Array.iteri
        (fun i v -> t.h_buckets.(i) <- t.h_buckets.(i) + v)
        src.h_buckets;
      Mutex.unlock src.h_mutex
    in
    absorb a;
    absorb b;
    t

  (* Rebuild a histogram from exported raw parts (the [metrics] wire
     op): a shorter bucket array is accepted and zero-padded, so a
     reader with more buckets than the writer still merges. *)
  let import ~count ~sum ~max_value ~buckets =
    let t = create () in
    t.h_count <- count;
    t.h_sum <- sum;
    t.h_max <- max_value;
    let n = Stdlib.min (Array.length buckets) (Array.length t.h_buckets) in
    Array.blit buckets 0 t.h_buckets 0 n;
    t

  (* Rank-based: the answer for quantile q over n observations is the
     upper bound of the bucket holding the ceil(q·n)-th smallest one
     (clamped by the observed max; the +Inf bucket answers the max).
     Deterministic in the observation multiset — observation order and
     merge shape cannot change it. *)
  let quantile t q =
    Mutex.lock t.h_mutex;
    let n = t.h_count in
    let hmax = t.h_max in
    let bks = Array.copy t.h_buckets in
    Mutex.unlock t.h_mutex;
    if n = 0 then 0.
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
      let acc = ref 0 in
      let ans = ref hmax in
      (try
         for i = 0 to Array.length bounds - 1 do
           acc := !acc + bks.(i);
           if !acc >= rank then begin
             ans := min bounds.(i) hmax;
             raise Exit
           end
         done
       with Exit -> ());
      !ans
    end
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

type kind = Kcounter | Kfloat_counter | Kgauge | Ktimer

type meta = {
  name : string; (* full name, including any {label="v"} suffix *)
  help : string;
  kind : kind;
  deterministic : bool;
}

type cell =
  | Int_cell of int Atomic.t
  | Float_cell of float Atomic.t
  | Timer_cell of Hist.t

(* Dense metric ids: each metric name is interned once, at [make]
   time, so a request context records and reads by an int, never by
   hashing the name.  Two metrics of one name share an id, as they
   shared a name before. *)
module Ids = struct
  let mutex = Mutex.create ()
  let of_name : (string, int) Hashtbl.t = Hashtbl.create 64
  let names = ref (Array.make 64 "")
  let count = ref 0

  let find name =
    Mutex.lock mutex;
    let id = Hashtbl.find_opt of_name name in
    Mutex.unlock mutex;
    id

  let intern name =
    Mutex.lock mutex;
    let id =
      match Hashtbl.find_opt of_name name with
      | Some id -> id
      | None ->
          let id = !count in
          if id = Array.length !names then begin
            let bigger = Array.make (2 * id) "" in
            Array.blit !names 0 bigger 0 id;
            names := bigger
          end;
          !names.(id) <- name;
          Hashtbl.add of_name name id;
          count := id + 1;
          id
    in
    Mutex.unlock mutex;
    id

  let name id =
    Mutex.lock mutex;
    let n = !names.(id) in
    Mutex.unlock mutex;
    n
end

type metric = { meta : meta; cell : cell; id : int }

let registry : metric list ref = ref []
let registry_mutex = Mutex.create ()

let register meta cell =
  let m = { meta; cell; id = Ids.intern meta.name } in
  Mutex.lock registry_mutex;
  registry := m :: !registry;
  Mutex.unlock registry_mutex;
  m

let metrics_sorted () =
  Mutex.lock registry_mutex;
  let all = !registry in
  Mutex.unlock registry_mutex;
  List.sort (fun a b -> compare a.meta.name b.meta.name) all

let float_add cell x =
  let rec go () =
    let old = Atomic.get cell in
    if not (Atomic.compare_and_set cell old (old +. x)) then go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Trace buffer                                                        *)

module Trace = struct
  type event = {
    name : string;
    domain : int;
    depth : int;
    start : float; (* seconds since process start of the span's entry *)
    dur : float;
    attrs : (string * string) list;
    (* Distributed-trace identity; all empty outside a traced request,
       in which case the JSON encoding is unchanged from the pre-trace
       schema. *)
    span_id : string;
    parent_id : string;
    trace_id : string;
  }

  let origin = Unix.gettimeofday ()
  let buffer : event list ref = ref []
  let buffer_size = ref 0
  let buffer_mutex = Mutex.create ()
  let default_max_events = 200_000
  let max_events_cell = ref default_max_events

  (* Discards past the cap are not silent: they land in a registered
     counter (summary sink) and in the trace footer. *)
  let dropped_cell = Atomic.make 0

  let () =
    ignore
      (register
         {
           name = "rrms_trace_dropped_total";
           help = "span events discarded at the trace-buffer cap";
           kind = Kcounter;
           deterministic = false;
         }
         (Int_cell dropped_cell))

  let set_max_events n =
    Mutex.lock buffer_mutex;
    max_events_cell := max 0 n;
    Mutex.unlock buffer_mutex

  let record ev =
    Mutex.lock buffer_mutex;
    if !buffer_size >= !max_events_cell then Atomic.incr dropped_cell
    else begin
      buffer := ev :: !buffer;
      incr buffer_size
    end;
    Mutex.unlock buffer_mutex

  let events () =
    Mutex.lock buffer_mutex;
    let evs = List.rev !buffer in
    Mutex.unlock buffer_mutex;
    evs

  let count () =
    Mutex.lock buffer_mutex;
    let n = !buffer_size in
    Mutex.unlock buffer_mutex;
    n

  let dropped () = Atomic.get dropped_cell

  let clear () =
    Mutex.lock buffer_mutex;
    buffer := [];
    buffer_size := 0;
    Atomic.set dropped_cell 0;
    Mutex.unlock buffer_mutex

  let json_escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let event_to_json ev =
    let attrs =
      match ev.attrs with
      | [] -> ""
      | kvs ->
          let fields =
            List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
              kvs
          in
          Printf.sprintf ",\"attrs\":{%s}" (String.concat "," fields)
    in
    let opt key v =
      if v = "" then "" else Printf.sprintf ",\"%s\":\"%s\"" key (json_escape v)
    in
    Printf.sprintf
      "{\"type\":\"span\",\"name\":\"%s\",\"domain\":%d,\"depth\":%d,\
       \"start\":%.6f,\"dur\":%.6f%s%s%s%s}"
      (json_escape ev.name) ev.domain ev.depth ev.start ev.dur
      (opt "span_id" ev.span_id)
      (opt "parent_id" ev.parent_id)
      (opt "trace_id" ev.trace_id)
      attrs
end

(* ------------------------------------------------------------------ *)
(* Request-scoped contexts                                             *)

module Ctx = struct
  type t = {
    request_id : string;
    session_id : string;
    capture_spans : bool;
    (* Distributed-trace identity (docs/OBSERVABILITY.md, "Cluster
       tracing"): [trace_id] marks the whole cross-process request;
       [parent_span] is the caller's span id, the cross-process edge a
       root span recorded here hangs from.  Both default to empty, in
       which case spans carry no trace identity at all. *)
    trace_id : string;
    parent_span : string;
    mutable c_root_span : string;
        (* id of the first stack-root span opened under this context —
           later stack-root spans (e.g. pool-worker chunks) attach
           under it so a request trace has exactly one local root. *)
    c_mutex : Mutex.t;
    (* Recorded deltas as parallel arrays over the first [c_len] slots,
       keyed by dense metric id: a request records a handful of
       distinct metrics, so a scan beats hashing. *)
    mutable c_ids : int array;
    mutable c_vals : float array;
    mutable c_len : int;
    mutable c_spans : Trace.event list; (* newest first *)
    mutable c_span_count : int;
    mutable c_span_dropped : int;
  }

  type key = int

  let key = Ids.intern
  let max_spans = 10_000

  (* Contexts take their lock from a fixed stripe rather than creating
     one per request: the critical sections are a few loads and stores,
     so two requests sharing a stripe hardly ever meet. *)
  let stripes = Array.init 64 (fun _ -> Mutex.create ())
  let next_stripe = Atomic.make 0

  let create ?(request_id = "") ?(session_id = "") ?(capture_spans = false)
      ?(trace_id = "") ?(parent_span = "") () =
    {
      request_id;
      session_id;
      capture_spans;
      trace_id;
      parent_span;
      c_root_span = "";
      c_mutex =
        stripes.(Atomic.fetch_and_add next_stripe 1
                 land (Array.length stripes - 1));
      c_ids = [||];
      c_vals = [||];
      c_len = 0;
      c_spans = [];
      c_span_count = 0;
      c_span_dropped = 0;
    }

  let request_id t = t.request_id
  let session_id t = t.session_id
  let trace_id t = t.trace_id
  let parent_span t = t.parent_span

  (* Ambient binding, keyed by (domain, systhread).  Domain.DLS would
     be wrong here: server sessions are systhreads multiplexed on
     domain 0 and must not see each other's binding.  [active] keeps
     the no-context fast path at one atomic load. *)
  module Slots = Hashtbl.Make (struct
    type t = int * int

    let equal (d, th) (d', th') = Int.equal d d' && Int.equal th th'
    let hash (d, th) = ((th * 65599) + d) land max_int
  end)

  let active = Atomic.make 0

  (* Bindings of contexts that capture spans: while there are none, a
     span at Counters records nothing and need not look up [current]. *)
  let capturing = Atomic.make 0

  let slots : t Slots.t = Slots.create 32
  let slots_mutex = Mutex.create ()
  let self_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

  let current () =
    if Atomic.get active = 0 then None
    else begin
      let k = self_key () in
      Mutex.lock slots_mutex;
      let c = Slots.find_opt slots k in
      Mutex.unlock slots_mutex;
      c
    end

  let with_ctx c f =
    let k = self_key () in
    Mutex.lock slots_mutex;
    let prev = Slots.find_opt slots k in
    Slots.replace slots k c;
    if Option.is_none prev then Atomic.incr active;
    if c.capture_spans then Atomic.incr capturing;
    Mutex.unlock slots_mutex;
    let restore () =
      Mutex.lock slots_mutex;
      (match prev with
      | Some p -> Slots.replace slots k p
      | None ->
          Slots.remove slots k;
          Atomic.decr active);
      if c.capture_spans then Atomic.decr capturing;
      Mutex.unlock slots_mutex
    in
    match f () with
    | v ->
        restore ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        restore ();
        Printexc.raise_with_backtrace e bt

  let scoped copt f = match copt with None -> f () | Some c -> with_ctx c f

  (* Slot of [id] among the first [c_len], or -1; under [c_mutex]. *)
  let slot c id =
    let rec go i =
      if i = c.c_len then -1
      else if Int.equal (Array.unsafe_get c.c_ids i) id then i
      else go (i + 1)
    in
    go 0

  let add_id c id x =
    if x <> 0. then begin
      Mutex.lock c.c_mutex;
      let i = slot c id in
      if i >= 0 then c.c_vals.(i) <- c.c_vals.(i) +. x
      else begin
        let n = c.c_len in
        if n = Array.length c.c_ids then begin
          let cap = max 4 (2 * n) in
          let ids = Array.make cap 0 and vals = Array.make cap 0. in
          Array.blit c.c_ids 0 ids 0 n;
          Array.blit c.c_vals 0 vals 0 n;
          c.c_ids <- ids;
          c.c_vals <- vals
        end;
        c.c_ids.(n) <- id;
        c.c_vals.(n) <- x;
        c.c_len <- n + 1
      end;
      Mutex.unlock c.c_mutex
    end

  let add c name x = add_id c (Ids.intern name) x

  (* The tee called from Counter/Floatc hot paths (already level
     gated); [current] early-exits on the [active] atomic. *)
  let record id x =
    match current () with None -> () | Some c -> add_id c id x

  let get c id =
    Mutex.lock c.c_mutex;
    let i = slot c id in
    let v = if i >= 0 then c.c_vals.(i) else 0. in
    Mutex.unlock c.c_mutex;
    v

  let value c name = match Ids.find name with Some id -> get c id | None -> 0.

  let counters c =
    Mutex.lock c.c_mutex;
    let kvs = List.init c.c_len (fun i -> (c.c_ids.(i), c.c_vals.(i))) in
    Mutex.unlock c.c_mutex;
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun (id, v) -> (Ids.name id, v)) kvs)

  let deterministic_counters c =
    let det = Hashtbl.create 16 in
    List.iter
      (fun m ->
        if m.meta.deterministic then Hashtbl.replace det m.meta.name ())
      (metrics_sorted ());
    List.filter (fun (k, _) -> Hashtbl.mem det k) (counters c)

  let record_span c ev =
    Mutex.lock c.c_mutex;
    if c.c_span_count >= max_spans then
      c.c_span_dropped <- c.c_span_dropped + 1
    else begin
      c.c_spans <- ev :: c.c_spans;
      c.c_span_count <- c.c_span_count + 1
    end;
    Mutex.unlock c.c_mutex

  let spans c =
    Mutex.lock c.c_mutex;
    let evs = List.rev c.c_spans in
    Mutex.unlock c.c_mutex;
    evs

  let spans_dropped c =
    Mutex.lock c.c_mutex;
    let n = c.c_span_dropped in
    Mutex.unlock c.c_mutex;
    n
end

(* ------------------------------------------------------------------ *)
(* Instruments                                                         *)

module Counter = struct
  type t = { c : int Atomic.t; m : metric }

  let make ?(deterministic = true) ?(help = "") name =
    let c = Atomic.make 0 in
    let m =
      register
        { name; help; kind = Kcounter; deterministic }
        (Int_cell c)
    in
    { c; m }

  let incr t =
    if Atomic.get level_cell > 0 then begin
      ignore (Atomic.fetch_and_add t.c 1);
      Ctx.record t.m.id 1.
    end

  let add t n =
    if Atomic.get level_cell > 0 && n <> 0 then begin
      ignore (Atomic.fetch_and_add t.c n);
      Ctx.record t.m.id (float_of_int n)
    end

  let value t = Atomic.get t.c
end

module Floatc = struct
  type t = { c : float Atomic.t; m : metric }

  let make ?(deterministic = false) ?(help = "") name =
    let c = Atomic.make 0. in
    let m =
      register
        { name; help; kind = Kfloat_counter; deterministic }
        (Float_cell c)
    in
    { c; m }

  let add t x =
    if Atomic.get level_cell > 0 && x <> 0. then begin
      float_add t.c x;
      Ctx.record t.m.id x
    end

  let value t = Atomic.get t.c
end

module Gauge = struct
  type t = { c : float Atomic.t; _m : metric }

  let make ?(deterministic = true) ?(help = "") name =
    let c = Atomic.make 0. in
    let m = register { name; help; kind = Kgauge; deterministic } (Float_cell c) in
    { c; _m = m }

  let set t x = if Atomic.get level_cell > 0 then Atomic.set t.c x
  let set_int t n = set t (float_of_int n)
  let value t = Atomic.get t.c
end

module Timer = struct
  type t = { h : Hist.t; _m : metric }

  let make ?(deterministic = false) ?(help = "") name =
    let h = Hist.create () in
    let m = register { name; help; kind = Ktimer; deterministic } (Timer_cell h) in
    { h; _m = m }

  let observe t dur = if Atomic.get level_cell > 0 then Hist.observe t.h dur

  let time t f =
    if Atomic.get level_cell = 0 then f ()
    else begin
      let t0 = Unix.gettimeofday () in
      Fun.protect ~finally:(fun () -> observe t (Unix.gettimeofday () -. t0)) f
    end

  let count t = Hist.count t.h
  let sum t = Hist.sum t.h
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

module Span = struct
  (* Per-domain nesting depth; worker domains get their own stack, so a
     span opened inside a pool chunk nests under nothing foreign. *)
  let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

  (* Distributed-trace span identity — engaged only when the bound
     context carries a trace id, so the untraced path never touches any
     of this.  Ids are hierarchical: [base.n] where [base] is the
     caller's span id (the context's [parent_span]) or, failing that,
     the request id — each process of a fanned-out request mints under
     the unique span id of the leg that spawned it, so ids never
     collide across processes of one trace. *)
  let span_seq = Atomic.make 0

  (* Innermost open traced span per (domain, systhread) — same keying
     as [Ctx] bindings (sessions are systhreads multiplexed on domain
     0); saved and restored around each traced span. *)
  let open_spans : string Ctx.Slots.t = Ctx.Slots.create 32
  let open_mutex = Mutex.create ()

  (* First stack-root span under the context claims the context root;
     later stack-roots (pool-worker chunks on other domains) attach
     under it, so a request's local trace has exactly one root. *)
  let claim_root (c : Ctx.t) id =
    Mutex.lock c.Ctx.c_mutex;
    let existing = c.Ctx.c_root_span in
    if existing = "" then c.Ctx.c_root_span <- id;
    Mutex.unlock c.Ctx.c_mutex;
    existing

  (* The innermost open traced span on this (domain, systhread) — the
     id a cross-process fan-out puts in its wire envelopes so worker
     spans hang from the span that dispatched them. *)
  let current_id () =
    let key = Ctx.self_key () in
    Mutex.lock open_mutex;
    let id = Ctx.Slots.find_opt open_spans key in
    Mutex.unlock open_mutex;
    match id with Some id -> id | None -> ""

  (* Aggregate duration stats per span name, for the summary table and
     the Prometheus histogram sink. *)
  let timers : (string, Timer.t) Hashtbl.t = Hashtbl.create 16
  let timers_mutex = Mutex.create ()

  let timer_for name =
    Mutex.lock timers_mutex;
    let t =
      match Hashtbl.find_opt timers name with
      | Some t -> t
      | None ->
          let t =
            Timer.make ~help:"span duration"
              (Printf.sprintf "rrms_span_seconds{span=\"%s\"}" name)
          in
          Hashtbl.add timers name t;
          t
    in
    Mutex.unlock timers_mutex;
    t

  (* A span records when level = Full (global trace), and also when the
     bound context asked for its own capture — that path works at
     Counters, so a server can keep slow-query traces without paying
     for a global Full buffer.  Context ids ride along as attrs. *)
  let with_ ?(attrs = []) name f =
    let lvl = Atomic.get level_cell in
    if lvl = 0 || (lvl = 1 && Atomic.get Ctx.capturing = 0) then f ()
    else begin
      let ctx = Ctx.current () in
      let capture =
        match ctx with Some c -> c.Ctx.capture_spans | None -> false
      in
      if lvl < 2 && not capture then f ()
      else begin
        let depth = Domain.DLS.get depth_key in
        let d = !depth in
        depth := d + 1;
        let trace_id, span_id, parent_id, open_key, prev_open =
          match ctx with
          | Some c when c.Ctx.trace_id <> "" ->
              let key = Ctx.self_key () in
              Mutex.lock open_mutex;
              let prev = Ctx.Slots.find_opt open_spans key in
              Mutex.unlock open_mutex;
              let base =
                if c.Ctx.parent_span <> "" then c.Ctx.parent_span
                else if c.Ctx.request_id <> "" then c.Ctx.request_id
                else c.Ctx.trace_id
              in
              let id =
                Printf.sprintf "%s.%d" base
                  (1 + Atomic.fetch_and_add span_seq 1)
              in
              let parent =
                match prev with
                | Some p -> p
                | None ->
                    let root = claim_root c id in
                    if root <> "" then root else c.Ctx.parent_span
              in
              Mutex.lock open_mutex;
              Ctx.Slots.replace open_spans key id;
              Mutex.unlock open_mutex;
              (c.Ctx.trace_id, id, parent, Some key, prev)
          | _ -> ("", "", "", None, None)
        in
        let t0 = Unix.gettimeofday () in
        Fun.protect
          ~finally:(fun () ->
            let dur = Unix.gettimeofday () -. t0 in
            depth := d;
            (match open_key with
            | None -> ()
            | Some key ->
                Mutex.lock open_mutex;
                (match prev_open with
                | Some p -> Ctx.Slots.replace open_spans key p
                | None -> Ctx.Slots.remove open_spans key);
                Mutex.unlock open_mutex);
            Timer.observe (timer_for name) dur;
            let attrs =
              match ctx with
              | Some c
                when c.Ctx.request_id <> "" || c.Ctx.session_id <> "" ->
                  attrs
                  @ (if c.Ctx.request_id <> "" then
                       [ ("request_id", c.Ctx.request_id) ]
                     else [])
                  @
                  if c.Ctx.session_id <> "" then
                    [ ("session_id", c.Ctx.session_id) ]
                  else []
              | _ -> attrs
            in
            let ev =
              {
                Trace.name;
                domain = (Domain.self () :> int);
                depth = d;
                start = t0 -. Trace.origin;
                dur;
                attrs;
                span_id;
                parent_id;
                trace_id;
              }
            in
            if lvl > 1 then Trace.record ev;
            match ctx with
            | Some c when c.Ctx.capture_spans -> Ctx.record_span c ev
            | _ -> ())
          f
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Reset and snapshots                                                 *)

let reset () =
  List.iter
    (fun m ->
      match m.cell with
      | Int_cell c -> Atomic.set c 0
      | Float_cell c -> Atomic.set c 0.
      | Timer_cell h -> Hist.reset h)
    (metrics_sorted ());
  Trace.clear ()

let metric_value m =
  match m.cell with
  | Int_cell c -> float_of_int (Atomic.get c)
  | Float_cell c -> Atomic.get c
  | Timer_cell h -> Hist.sum h

let snapshot () =
  List.map (fun m -> (m.meta.name, metric_value m)) (metrics_sorted ())

let deterministic_snapshot () =
  List.filter_map
    (fun m ->
      if m.meta.deterministic then Some (m.meta.name, metric_value m) else None)
    (metrics_sorted ())

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let summary () =
  let buf = Buffer.create 1024 in
  let nonzero = List.filter (fun m -> metric_value m <> 0.) (metrics_sorted ()) in
  let width =
    List.fold_left (fun acc m -> max acc (String.length m.meta.name)) 20 nonzero
  in
  Buffer.add_string buf "observability summary\n";
  List.iter
    (fun m ->
      match m.cell with
      | Int_cell c ->
          Buffer.add_string buf
            (Printf.sprintf "  %-*s %d\n" width m.meta.name (Atomic.get c))
      | Float_cell c ->
          Buffer.add_string buf
            (Printf.sprintf "  %-*s %g\n" width m.meta.name (Atomic.get c))
      | Timer_cell h ->
          Buffer.add_string buf
            (Printf.sprintf "  %-*s count=%d sum=%.6fs max=%.6fs\n" width
               m.meta.name (Hist.count h) (Hist.sum h) (Hist.max_value h)))
    nonzero;
  if nonzero = [] then Buffer.add_string buf "  (no metrics recorded)\n";
  Buffer.contents buf

(* Prometheus text exposition: HELP/TYPE use the base name (label
   suffixes stripped); histogram timers emit _bucket/_sum/_count. *)
let prometheus () =
  let base name =
    match String.index_opt name '{' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let labels name =
    match String.index_opt name '{' with
    | Some i -> String.sub name i (String.length name - i)
    | None -> ""
  in
  let buf = Buffer.create 2048 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let b = base m.meta.name in
      let l = labels m.meta.name in
      if not (Hashtbl.mem seen_header b) then begin
        Hashtbl.add seen_header b ();
        if m.meta.help <> "" then
          Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" b m.meta.help);
        let ty =
          match m.meta.kind with
          | Kcounter | Kfloat_counter -> "counter"
          | Kgauge -> "gauge"
          | Ktimer -> "histogram"
        in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" b ty)
      end;
      match m.cell with
      | Int_cell c ->
          Buffer.add_string buf
            (Printf.sprintf "%s %d\n" m.meta.name (Atomic.get c))
      | Float_cell c ->
          Buffer.add_string buf
            (Printf.sprintf "%s %.9g\n" m.meta.name (Atomic.get c))
      | Timer_cell h ->
          let strip_braces l =
            (* "{span=\"x\"}" -> "span=\"x\"," for merging with le *)
            if l = "" then ""
            else String.sub l 1 (String.length l - 2) ^ ","
          in
          let inner = strip_braces l in
          (* One locked read, so _count equals the +Inf bucket even
             while other threads observe. *)
          let count, sum, buckets =
            Hist.with_lock h (fun () ->
                (h.h_count, h.h_sum, Array.copy h.h_buckets))
          in
          let acc = ref 0 in
          Array.iteri
            (fun i bound ->
              acc := !acc + buckets.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{%sle=\"%g\"} %d\n" b inner bound !acc))
            Hist.bounds;
          let total = !acc + buckets.(Array.length Hist.bounds) in
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{%sle=\"+Inf\"} %d\n" b inner total);
          Buffer.add_string buf (Printf.sprintf "%s_sum%s %.9f\n" b l sum);
          Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" b l count))
    (metrics_sorted ());
  Buffer.contents buf

let write_trace path =
  let oc = open_out path in
  List.iter
    (fun ev ->
      output_string oc (Trace.event_to_json ev);
      output_char oc '\n')
    (Trace.events ());
  Printf.fprintf oc
    "{\"type\":\"trace_footer\",\"events\":%d,\"dropped\":%d}\n" (Trace.count ())
    (Trace.dropped ());
  (* Final metrics snapshot so a trace file is self-contained. *)
  List.iter
    (fun m ->
      let kind =
        match m.meta.kind with
        | Kcounter -> "counter"
        | Kfloat_counter -> "float_counter"
        | Kgauge -> "gauge"
        | Ktimer -> "timer"
      in
      Printf.fprintf oc
        "{\"type\":\"metric\",\"name\":\"%s\",\"kind\":\"%s\",\
         \"deterministic\":%b,\"value\":%.9g}\n"
        (Trace.json_escape m.meta.name)
        kind m.meta.deterministic (metric_value m))
    (metrics_sorted ());
  close_out oc

(* ------------------------------------------------------------------ *)
(* Environment configuration                                           *)

(* RRMS_OBS = 0|off | 1|counters | 2|full|on   selects the level;
   RRMS_TRACE = FILE  enables Full and writes the JSONL trace at exit. *)
let configure_from_env () =
  (match Sys.getenv_opt "RRMS_OBS" with
  | None -> ()
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "0" | "off" | "" -> set_level Disabled
      | "1" | "counters" -> set_level Counters
      | "2" | "full" | "on" -> set_level Full
      | _ -> ()));
  match Sys.getenv_opt "RRMS_TRACE" with
  | None | Some "" -> ()
  | Some path ->
      set_level Full;
      at_exit (fun () -> try write_trace path with Sys_error _ -> ())
