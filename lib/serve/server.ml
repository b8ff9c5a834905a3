module Guard = Rrms_guard.Guard
module Obs = Rrms_obs.Obs

module Metrics = struct
  let requests =
    Obs.Counter.make ~help:"requests handled by the serving layer"
      "rrms_serve_requests_total"

  let errors =
    Obs.Counter.make ~help:"requests answered with an error response"
      "rrms_serve_errors_total"

  let sessions =
    Obs.Counter.make ~deterministic:false
      ~help:"client sessions accepted (socket transport)"
      "rrms_serve_sessions_total"

  let open_sessions =
    Obs.Gauge.make ~deterministic:false ~help:"sessions currently connected"
      "rrms_serve_open_sessions"

  let request_seconds =
    Obs.Timer.make ~help:"request handling latency" "rrms_serve_request_seconds"

  let batch_requests =
    Obs.Counter.make ~help:"batch requests handled"
      "rrms_serve_batch_requests_total"

  let batch_items =
    Obs.Counter.make ~help:"individual items carried by batch requests"
      "rrms_serve_batch_items_total"
end

(* Remove the first occurrence only: a session that loaded the same
   content twice holds two references and must drop both at teardown. *)
let rec remove_one key = function
  | [] -> []
  | k :: rest when k = key -> rest
  | k :: rest -> k :: remove_one key rest

(* Session identities are process-global ("s1", "s2", …); request ids
   append a per-session sequence number ("s2-r7").  Both ride on every
   span executed on the request's behalf — including pool-worker spans
   — and key the access log, which is what makes concurrent sessions'
   telemetry separable again. *)
let session_seq = Atomic.make 0
let new_session_id () = Printf.sprintf "s%d" (1 + Atomic.fetch_and_add session_seq 1)

(* "<session>-r<n>" for n >= 0, written into one string. *)
let request_id_of session_id n =
  let rec width k = if k < 10 then 1 else 1 + width (k / 10) in
  let ls = String.length session_id in
  let b = Bytes.create (ls + 2 + width n) in
  Bytes.blit_string session_id 0 b 0 ls;
  Bytes.set b ls '-';
  Bytes.set b (ls + 1) 'r';
  let rec digits k i =
    Bytes.set b i (Char.unsafe_chr (Char.code '0' + (k mod 10)));
    if k >= 10 then digits (k / 10) (i - 1)
  in
  digits n (Bytes.length b - 1);
  Bytes.unsafe_to_string b

let ints arr = Json.Arr (Array.to_list (Array.map Json.int arr))

(* What a shard router changes about answering a request.  Everything
   else — parsing, counters, request contexts, refusals, telemetry,
   reference bookkeeping — is [dispatch]'s, for both kinds of server. *)
type router = {
  query_pinned :
    Store.handle -> Protocol.query -> (Store.outcome, Store.refusal) result;
  shards : int;
  after_load : key:string -> Protocol.load -> unit;
  after_release : unit -> unit;
  stats_extra : unit -> (string * Json.t) list;
}

(* The one refusal-to-wire-code mapping.  The messages name the refused
   work: a query's solve, a mutation, a worker's skyline leg, or an
   evict. *)
let refusal work dataset (r : Store.refusal) =
  let mutation = work = `Mutate in
  match r with
  | `Unknown_dataset ->
      ( "unknown_dataset",
        match work with
        | `Query | `Mutate ->
            Printf.sprintf
              "no loaded dataset %S (load it first, then %s by key or name)"
              dataset
              (if mutation then "mutate" else "query")
        | `Skyline | `Evict -> Printf.sprintf "no loaded dataset %S" dataset )
  | `Overloaded ->
      ( "overloaded",
        Printf.sprintf "admission queue is full; the %s was shed — retry later"
          (if mutation then "mutation" else "request") )
  | `Deadline_exceeded ->
      ( "deadline_exceeded",
        match work with
        | `Query ->
            "the request's deadline expired before the solver started \
             (admission queue wait counts against the timeout) — raise the \
             timeout or retry when the server is less loaded"
        | `Mutate ->
            "the mutation's deadline expired before it started (admission \
             queue wait counts against the timeout)"
        | `Skyline | `Evict ->
            "the request's deadline expired before the skyline computation \
             started" )
  | `Draining ->
      ( "draining",
        Printf.sprintf
          "the server is draining for shutdown and admits no new %s — retry \
           against the restarted instance"
          (if mutation then "mutations" else "solves") )

let error_of_exn = function
  | Stdlib.Exit | Sys.Break -> ("internal", "interrupted")
  | exn -> (
      match Protocol.error_of_exn exn with
      | Some e -> e
      | None -> ("internal", Printexc.to_string exn))

(* The four per-request values the runner reads from its context, by
   dense id rather than by name. *)
let matrix_derived_key = Obs.Ctx.key "rrms_serve_matrix_derived_total"
let queue_wait_key = Obs.Ctx.key "rrms_serve_queue_wait_seconds_total"
let probes_key = Obs.Ctx.key "rrms_hd_rrms_probes_total"
let cells_key = Obs.Ctx.key "rrms_matrix_cells_total"

(* The one per-request runner: a single query, a batch item or a
   mutation runs [f] under its own request context and span, a refusal
   or exception becomes the wire [(code, message)], and one telemetry
   record (access log, latency histogram) is written. *)
let run_request ?trace ~telemetry ~session_id ~request_id ~dataset
    ~dataset_key ~shards ~elapsed_ms work f =
  (* A trace envelope binds the request into the caller's distributed
     trace: spans minted here carry its trace id and hang from the
     caller's span (the cross-process edge), and span capture turns on
     so the worker can hand its span dump back.  Without an envelope
     nothing changes — ids stay empty and the wire bytes are identical. *)
  let trace_id, parent_span =
    match trace with
    | Some t -> (t.Protocol.trace_id, t.Protocol.parent_span)
    | None -> ("", "")
  in
  let ctx =
    Obs.Ctx.create ~request_id ~session_id
      ~capture_spans:(Telemetry.capture_spans telemetry || trace_id <> "")
      ~trace_id ~parent_span ()
  in
  let span, attrs, algo, r, gamma, kind =
    match work with
    | `Query (q : Protocol.query) ->
        let algo = Protocol.algo_to_string q.Protocol.algo in
        ( "serve.query",
          [ ("algo", algo); ("dataset", dataset_key) ],
          algo,
          q.Protocol.r,
          q.Protocol.gamma,
          `Query )
    | `Mutate ops ->
        let attrs = [ ("dataset", dataset_key) ] in
        ("serve.mutate", attrs, "mutate", ops, 0, `Mutate)
  in
  let outcome =
    Obs.Ctx.with_ctx ctx (fun () ->
        match Obs.Span.with_ span ~attrs f with
        | Ok o -> Ok o
        | Error r -> Error (refusal kind dataset r)
        | exception exn -> Error (error_of_exn exn))
  in
  let cache, status, merge =
    match outcome with
    | Error _ -> ("miss", "error", "")
    | Ok { Store.result; cached; cost; _ } ->
        ( (if cached then "hit"
           else if Obs.Ctx.get ctx matrix_derived_key > 0.
           then "derived"
           else "miss"),
          (match Json.member "degraded" result with
          | Some (Json.Bool true) -> "degraded"
          | _ -> "ok"),
          match Json.field "merge" cost with
          | Some (Json.Str s) -> s
          | _ -> "" )
  in
  Telemetry.record telemetry
    {
      Telemetry.request_id;
      session_id;
      algo;
      dataset = dataset_key;
      r;
      gamma;
      cache;
      status;
      error_code =
        (match outcome with Error (code, _) -> Some code | Ok _ -> None);
      queue_wait_ms =
        1000. *. Obs.Ctx.get ctx queue_wait_key;
      elapsed_ms = elapsed_ms ();
      probes = Obs.Ctx.get ctx probes_key;
      cells = Obs.Ctx.get ctx cells_key;
      shards;
      merge;
    }
    ~spans:(Obs.Ctx.spans ctx);
  outcome

(* A mutation summary in the runner's outcome shape; the skyline
   maintenance path is the access record's [merge] field. *)
let mutation_outcome (r : Store.mutated) =
  let result = Mutate.summary_json r in
  {
    Store.result;
    result_text = Json.to_string result;
    cached = false;
    cost =
      (match r.Store.skyline_path with
      | Some p -> [ ("merge", Json.Str p) ]
      | None -> []);
  }

let batch_item = function
  | Ok ((o : Store.outcome), cost) ->
      Json.Obj
        ([
           ("ok", Json.Bool true);
           ("cached", Json.Bool o.Store.cached);
           ("result", Json.Raw o.Store.result_text);
         ]
        @ match cost with Some c -> [ ("cost", c) ] | None -> [])
  | Error (code, message) ->
      Json.Obj
        [
          ("ok", Json.Bool false);
          ( "error",
            Json.Obj [ ("code", Json.Str code); ("message", Json.Str message) ]
          );
        ]

(* One request line → one response.  [session] collects the dataset
   references this connection holds, for teardown; [router] is [None]
   for a plain store.  Total: parsing included, every exception —
   structured guard errors, solver [Invalid_argument]s, injected worker
   faults — becomes an error response. *)
let dispatch ~telemetry ~router ~session_id ~reqno store session line =
  let t0 = Unix.gettimeofday () in
  Obs.Counter.incr Metrics.requests;
  let elapsed_ms () = (Unix.gettimeofday () -. t0) *. 1000. in
  let id = ref Json.Null in
  let ok_text ?(cached = false) ?cost result =
    Protocol.ok_response ?cost ~id:!id ~cached ~elapsed_ms:(elapsed_ms ())
      result
  in
  let ok ?cached ?cost result = `Reply (ok_text ?cached ?cost result) in
  let error (code, message) =
    Obs.Counter.incr Metrics.errors;
    `Reply (Protocol.error_response ~id:!id ~code ~message)
  in
  let next_request_id () =
    incr reqno;
    request_id_of session_id !reqno
  in
  let resolved dataset =
    Option.value ~default:dataset (Store.resolve store dataset)
  in
  let with_pin dataset f =
    match Store.pin store dataset with
    | None -> Error `Unknown_dataset
    | Some h ->
        Fun.protect ~finally:(fun () -> Store.unpin store h) (fun () -> f h)
  in
  let answer h q =
    match router with
    | Some rt -> rt.query_pinned h q
    | None -> Store.query_pinned store h q
  in
  let shards = match router with Some rt -> rt.shards | None -> 0 in
  let handle { Protocol.id = rid; req; trace } =
    id := rid;
    (* The router is a trace origin as well as a propagator: a client
       envelope is forwarded as-is; with none, global tracing (Full)
       mints one per query, so every routed query yields a merged
       cross-process trace. *)
    let trace_for request_id =
      match trace with
      | None when Option.is_some router && Obs.spans_enabled () ->
          Some
            {
              Protocol.trace_id = "t-" ^ request_id;
              parent_span = "";
              origin_request = request_id;
              origin_session = session_id;
              deadline = None;
            }
      | _ -> trace
    in
    (* The body of one query, a single one or a batch item: the whole
       query — result-cache probe, admission wait, solver, pool chunks —
       runs under one request context, giving the access log its
       per-request cost attribution. *)
    let query ~request_id ~dataset_key ~elapsed_ms (q : Protocol.query) f =
      Result.map
        (fun (o : Store.outcome) ->
          let cost = Json.Obj o.Store.cost in
          (o, if q.Protocol.explain then Some cost else None))
        (run_request ?trace:(trace_for request_id) ~telemetry ~session_id
           ~request_id ~dataset:q.Protocol.dataset ~dataset_key ~shards
           ~elapsed_ms (`Query q) f)
    in
    match req with
    | Error e -> error e
    | Ok (Protocol.Load l) ->
        let ld =
          Store.load store ?name:l.Protocol.name
            ~normalize:l.Protocol.normalize ~lenient:l.Protocol.lenient
            ?shard:l.Protocol.shard l.Protocol.path
        in
        session := ld.Store.key :: !session;
        Option.iter (fun rt -> rt.after_load ~key:ld.Store.key l) router;
        ok
          (Json.Obj
             [
               ("key", Json.Str ld.Store.key);
               ("name", Json.Str ld.Store.dataset_name);
               ("n", Json.int ld.Store.n);
               ("m", Json.int ld.Store.m);
               ("refs", Json.int ld.Store.refs);
               ("already_loaded", Json.Bool ld.Store.already_loaded);
               ("warnings", Json.int ld.Store.warnings);
             ])
    | Ok (Protocol.Query q) -> (
        (* A batch item on a handle pinned for this one query; the pin
           names the content key the access log records. *)
        let request_id = next_request_id () in
        let dataset = q.Protocol.dataset in
        let run h () =
          query ~request_id
            ~dataset_key:
              (match h with Some h -> Store.pinned_key h | None -> dataset)
            ~elapsed_ms q (fun () ->
              match h with
              | Some h -> answer h q
              | None -> Error `Unknown_dataset)
        in
        match
          match Store.pin store dataset with
          | None -> run None ()
          | Some h ->
              Fun.protect
                ~finally:(fun () -> Store.unpin store h)
                (run (Some h))
        with
        | Ok (o, cost) ->
            ok ~cached:o.Store.cached ?cost (Json.Raw o.Store.result_text)
        | Error e -> error e)
    | Ok (Protocol.Batch { dataset; items }) -> (
        (* One resolve, many items: the dataset is pinned once and every
           item runs against the pinned handle; items answer in order,
           each with its own [ok]/[error] status, its own request
           context ("s1-r2.0", "s1-r2.1", …) and its own access-log
           line, so a failed item never hides or aborts the others. *)
        let base_id = next_request_id () in
        Obs.Counter.incr Metrics.batch_requests;
        Obs.Counter.add Metrics.batch_items (Array.length items);
        match
          with_pin dataset (fun h ->
              let key = Store.pinned_key h in
              let results =
                Array.mapi
                  (fun i item ->
                    batch_item
                      (match item with
                      | Error e -> Error e
                      | Ok q ->
                          let t0i = Unix.gettimeofday () in
                          query
                            ~request_id:(Printf.sprintf "%s.%d" base_id i)
                            ~dataset_key:key
                            ~elapsed_ms:(fun () ->
                              (Unix.gettimeofday () -. t0i) *. 1000.)
                            q
                            (fun () -> answer h q)))
                  items
              in
              Ok
                (Json.Obj
                   [
                     ("dataset", Json.Str key);
                     ("count", Json.int (Array.length results));
                     ("results", Json.Arr (Array.to_list results));
                   ]))
        with
        | Ok j -> ok j
        | Error r -> error (refusal `Query dataset r))
    | Ok (Protocol.Mutate _) when Option.is_some router ->
        (* The router's workers each hold a read-only slice of every
           dataset; accepting a write here would silently fork the
           router's copy away from theirs. *)
        error
          ( "read_only",
            "the shard router fans out over read-only worker slices; send \
             mutations to the store that owns the writable state (an \
             rrms-serve instance without --router)" )
    | Ok (Protocol.Mutate { dataset; ops; timeout }) -> (
        (* Mutations follow the query discipline: one request context,
           admission-gated inside the store, end-to-end deadline, one
           access-log line (algo = "mutate", r = op count). *)
        let request_id = next_request_id () in
        match
          run_request ?trace ~telemetry ~session_id ~request_id ~dataset
            ~dataset_key:(resolved dataset) ~shards ~elapsed_ms
            (`Mutate (Array.length ops)) (fun () ->
              Result.map mutation_outcome
                (Store.mutate ?timeout store ~dataset
                   (Mutate.ops_of_protocol ops)))
        with
        | Ok o ->
            (* The store has applied the write (and journaled it under
               --state-dir): its acknowledgement must reach the client
               even if the process dies on a later line of the burst. *)
            `Flush (ok_text (Json.Raw o.Store.result_text))
        | Error e -> error e)
    | Ok (Protocol.Skyline { dataset; timeout }) -> (
        (* The per-shard half of the router fan-out: compute (or fetch)
           the dataset's skyline artifact under admission, honouring the
           forwarded remaining deadline.  With a trace envelope, the
           work runs under a context bound to the originating trace and
           the reply carries this worker's span dump, so the router can
           splice it into one merged cluster trace. *)
        let budget =
          match timeout with
          | None -> Guard.Budget.unlimited
          | Some t -> Guard.Budget.create ~timeout:t ()
        in
        let ctx =
          Option.map
            (fun t ->
              let request_id = next_request_id () in
              Obs.Ctx.create
                ~request_id:
                  (if t.Protocol.origin_request <> "" then
                     t.Protocol.origin_request
                   else request_id)
                ~session_id ~capture_spans:true ~trace_id:t.Protocol.trace_id
                ~parent_span:t.Protocol.parent_span ())
            trace
        in
        let outcome =
          with_pin dataset (fun h ->
              match
                Obs.Ctx.scoped ctx (fun () ->
                    Obs.Span.with_ "serve.skyline"
                      ~attrs:[ ("dataset", dataset) ]
                      (fun () ->
                        Store.with_admission store (fun () ->
                            match Guard.Budget.deadline_expired budget with
                            | Some _ -> None
                            | None -> Some (Store.skyline_of store h))))
              with
              | Error `Overloaded -> Error `Overloaded
              | Ok None -> Error `Deadline_exceeded
              | Ok (Some sky) ->
                  let n, m = Store.pinned_dims h in
                  Ok (Store.pinned_key h, n, m, sky))
        in
        match outcome with
        | Error r -> error (refusal `Skyline dataset r)
        | Ok (key, n, m, sky) ->
            let span_dump =
              match ctx with
              | None -> []
              | Some c ->
                  [
                    ( "spans",
                      Json.Arr (List.map Telemetry.span_json (Obs.Ctx.spans c))
                    );
                  ]
            in
            ok
              (Json.Obj
                 ([
                    ("key", Json.Str key);
                    ("n", Json.int n);
                    ("m", Json.int m);
                    ("size", Json.int (Array.length sky));
                    ("indices", ints sky);
                  ]
                 @ span_dump)))
    | Ok (Protocol.Evict { dataset }) -> (
        let released = Store.release store dataset in
        (* Whatever left the store — by this evict or an earlier unpin —
           leaves the router's workers too. *)
        Option.iter (fun rt -> rt.after_release ()) router;
        match released with
        | Store.Not_loaded -> error (refusal `Evict dataset `Unknown_dataset)
        | Store.Released { key; remaining; freed } ->
            session := remove_one key !session;
            ok
              (Json.Obj
                 [
                   ("key", Json.Str key);
                   ("remaining_refs", Json.int remaining);
                   ("freed", Json.Bool freed);
                 ]))
    | Ok Protocol.Stats -> (
        (* Restart count travels via the environment: the supervisor
           parent sets RRMS_SERVE_RESTARTS before each fork, so the
           serving child can report its own incarnation number. *)
        let restarts =
          match Sys.getenv_opt "RRMS_SERVE_RESTARTS" with
          | Some s -> Option.value ~default:0 (int_of_string_opt s)
          | None -> 0
        in
        match Store.stats store with
        | Json.Obj fields ->
            ok
              (Json.Obj
                 (fields
                 @ [
                     ("latency", Telemetry.to_json telemetry);
                     ( "supervisor",
                       Json.Obj [ ("restarts", Json.int restarts) ] );
                   ]
                 @
                 match router with
                 | Some rt -> rt.stats_extra ()
                 | None -> []))
        | j -> ok j)
    | Ok Protocol.Metrics ->
        (* The raw, mergeable half of cluster observability: the global
           counter snapshot plus the latency histograms as raw bucket
           counts (seconds).  A router fans this out and merges the
           exports — counters sum, histograms merge associatively — so
           [stats] against a router reports cluster-wide quantiles. *)
        ok
          (Json.Obj
             [
               ( "metrics",
                 Json.Obj
                   (List.map
                      (fun (name, v) -> (name, Json.float v))
                      (Obs.snapshot ())) );
               ("latency_raw", Telemetry.export_json telemetry);
             ])
    | Ok Protocol.Ping -> ok (Json.Obj [ ("pong", Json.Bool true) ])
    | Ok Protocol.Shutdown ->
        `Shutdown
          (Protocol.ok_response ~id:!id ~cached:false
             ~elapsed_ms:(elapsed_ms ())
             (Json.Obj [ ("stopping", Json.Bool true) ]))
  in
  let reply =
    try handle (Protocol.parse_request line) with exn -> error (error_of_exn exn)
  in
  Obs.Timer.observe Metrics.request_seconds (Unix.gettimeofday () -. t0);
  reply

let handle_line ?(telemetry = Telemetry.default) store line =
  match
    dispatch ~telemetry ~router:None ~session_id:(new_session_id ())
      ~reqno:(ref 0) store (ref []) line
  with
  | `Flush r -> `Reply r
  | (`Reply _ | `Shutdown _) as reply -> reply

(* A transport-agnostic session: the line pump and the socket daemon
   below work for any per-connection handler, so the shard router (a
   protocol speaker that is not a plain store) reuses them verbatim.
   [handler] is invoked once per connection and returns that session's
   line/close callbacks. *)
type session_handler = {
  on_line : string -> [ `Reply of string | `Flush of string | `Shutdown of string ];
  on_close : unit -> unit;
}

type handler = unit -> session_handler

let store_handler ?(telemetry = Telemetry.default) ?router store () =
  let session = ref [] in
  let session_id = new_session_id () in
  let reqno = ref 0 in
  {
    on_line =
      (fun line ->
        dispatch ~telemetry ~router ~session_id ~reqno store session line);
    on_close =
      (fun () ->
        Store.session_release_all store !session;
        Option.iter (fun rt -> rt.after_release ()) router);
  }

(* Replies are written as their lines are answered but flushed only
   when no complete request line is left in the read buffer, the way
   Redis batches pipelined replies: a burst of lines that arrived in
   one read costs one write, while a lock-step client, which sends its
   next line only after the reply, gets each reply as soon as it is
   answered.
   The price is head-of-line: within one burst, an early reply waits
   for the later lines of that burst.  A [`Flush] reply (an applied
   mutation's) is flushed at once, with every reply before it. *)
let run_handler_session (h : handler) ic oc =
  let s = h () in
  let finish outcome =
    s.on_close ();
    outcome
  in
  let buf = ref (Bytes.create 65536) in
  (* [lo, hi) is the unconsumed part of [!buf]; its first [!scanned]
     bytes hold no newline, so a search resumes after them and a line
     that arrives in many reads is scanned once, not once per read. *)
  let lo = ref 0 and hi = ref 0 and scanned = ref 0 in
  let rec newline i =
    if i >= !hi then begin
      scanned := !hi - !lo;
      -1
    end
    else if Bytes.unsafe_get !buf i = '\n' then i
    else newline (i + 1)
  in
  let take upto =
    let line = Bytes.sub_string !buf !lo (upto - !lo) in
    lo := min !hi (upto + 1);
    scanned := 0;
    line
  in
  (* Read at least one more byte; [false] at end of input. *)
  let refill () =
    let len = !hi - !lo in
    if len = Bytes.length !buf then begin
      let bigger = Bytes.create (2 * len) in
      Bytes.blit !buf !lo bigger 0 len;
      buf := bigger
    end
    else if !lo > 0 then Bytes.blit !buf !lo !buf 0 len;
    lo := 0;
    hi := len;
    match In_channel.input ic !buf len (Bytes.length !buf - len) with
    | 0 -> false
    | got ->
        hi := len + got;
        true
    | exception Sys_error _ -> false
  in
  let write str =
    try
      output_string oc str;
      output_char oc '\n';
      true
    with Sys_error _ -> false
  in
  let flush_out () = try flush oc; true with Sys_error _ -> false in
  let rec loop () =
    match newline (!lo + !scanned) with
    | -1 ->
        if not (flush_out ()) then finish `Eof
        else if refill () then loop ()
        else if !hi > !lo then answer (take !hi) (* a last line, no '\n' *)
        else finish `Eof
    | i -> answer (take i)
  and answer line =
    if String.trim line = "" then loop ()
    else
      match s.on_line line with
      | `Reply r -> if write r then loop () else finish `Eof
      | `Flush r -> if write r && flush_out () then loop () else finish `Eof
      | `Shutdown r ->
          ignore (write r && flush_out ());
          finish `Shutdown
  in
  loop ()

let run_session ?telemetry store ic oc =
  run_handler_session (store_handler ?telemetry store) ic oc

(* ------------------------------------------------------------------ *)
(* Unix-domain-socket daemon                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  path : string;
  listener : Unix.file_descr;
  stopping : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  (* Connected session sockets, so a drain can EOF them after their
     in-flight work settles — that is what unblocks each session
     thread's [input_line] and runs its reference teardown. *)
  sessions_lock : Mutex.t;
  mutable session_fds : Unix.file_descr list;
}

let stop t =
  if not (Atomic.exchange t.stopping true) then
    try Unix.close t.listener with Unix.Unix_error _ -> ()

(* A pre-existing socket file is either a live server (connect
   succeeds → refuse to double-bind) or a leftover from a crashed one
   (connection refused → unlink and take over). *)
let probe_stale path =
  if Sys.file_exists path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error (_, _, _) -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if live then
      Guard.Error.invalid_input
        (Printf.sprintf "socket %s is already being served" path);
    try Sys.remove path with Sys_error _ -> ()
  end

let start_handler (h : handler) ~socket:path =
  if Sys.os_type = "Unix" then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  probe_stale path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listener (Unix.ADDR_UNIX path);
     Unix.listen listener 64
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      path;
      listener;
      stopping = Atomic.make false;
      accept_thread = None;
      sessions_lock = Mutex.create ();
      session_fds = [];
    }
  in
  let with_sessions f =
    Mutex.lock t.sessions_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.sessions_lock) f
  in
  let session fd =
    with_sessions (fun () -> t.session_fds <- fd :: t.session_fds);
    Obs.Counter.incr Metrics.sessions;
    Obs.Gauge.set Metrics.open_sessions
      (Obs.Gauge.value Metrics.open_sessions +. 1.);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let outcome = try run_handler_session h ic oc with _ -> `Eof in
    (* ic and oc share [fd]; one close releases it. *)
    close_out_noerr oc;
    with_sessions (fun () ->
        t.session_fds <- List.filter (fun fd' -> fd' != fd) t.session_fds);
    Obs.Gauge.set Metrics.open_sessions
      (Obs.Gauge.value Metrics.open_sessions -. 1.);
    match outcome with `Shutdown -> stop t | `Eof -> ()
  in
  (* Poll-accept so [stop] (from another thread, possibly a session
     answering [shutdown]) reliably unblocks the loop on every OS. *)
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then begin
      match Unix.select [ listener ] [] [] 0.2 with
      | [], _, _ -> accept_loop ()
      | _ -> (
          match Unix.accept listener with
          | fd, _ ->
              ignore (Thread.create session fd);
              accept_loop ()
          | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
              accept_loop ()
          | exception Unix.Unix_error (_, _, _) ->
              if not (Atomic.get t.stopping) then accept_loop ())
      | exception Unix.Unix_error (_, _, _) ->
          if not (Atomic.get t.stopping) then accept_loop ()
    end
  in
  t.accept_thread <- Some (Thread.create accept_loop ());
  t

let start ?telemetry store ~socket =
  start_handler (store_handler ?telemetry store) ~socket

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  try Sys.remove t.path with Sys_error _ -> ()

(* Graceful drain: refuse new solves, stop accepting connections, let
   the in-flight requests settle inside their own budgets, then EOF the
   connected sessions so each one runs its normal teardown (releasing
   its dataset references) and the process can exit cleanly.  Sessions
   that never go idle are cut off when [grace] runs out — their solves
   were already running under cooperative budgets, and the refusal path
   answered everything newly arrived. *)
let drain ?(grace = 5.) t store =
  Store.set_draining store;
  stop t;
  let deadline = Unix.gettimeofday () +. grace in
  let rec settle () =
    let inflight, queued = Store.admission_state store in
    if (inflight > 0 || queued > 0) && Unix.gettimeofday () < deadline then begin
      Thread.delay 0.02;
      settle ()
    end
  in
  settle ();
  (* One beat for the just-finished solves' responses to flush before
     the read side of every session is shut. *)
  Thread.delay 0.05;
  let fds =
    Mutex.lock t.sessions_lock;
    let fds = t.session_fds in
    Mutex.unlock t.sessions_lock;
    fds
  in
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    fds
