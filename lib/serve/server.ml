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

let ints arr = Json.Arr (Array.to_list (Array.map Json.int arr))

(* Run one query under its own request context and record its telemetry;
   [run] produces the store outcome (a plain [Store.query], a pinned
   batch item, or the router's merged fan-out).  Shared by the
   single-query path, every batch item and the shard router, so all
   three produce identical error codes and access-log records. *)
let run_query ?trace ~telemetry ~session_id ~request_id ~dataset_key ~shards
    ~elapsed_ms (q : Protocol.query) run =
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
  let cache_outcome = ref "miss" in
  let degraded = ref false in
  let cost = ref [] in
  let outcome =
    Obs.Ctx.with_ctx ctx (fun () ->
        match
          Obs.Span.with_ "serve.query"
            ~attrs:
              [
                ("algo", Protocol.algo_to_string q.Protocol.algo);
                ("dataset", dataset_key);
              ]
            run
        with
        | Ok { Store.result; cached; cost = c } ->
            cost := c;
            (if cached then cache_outcome := "hit"
             else if Obs.Ctx.value ctx "rrms_serve_matrix_derived_total" > 0.
             then cache_outcome := "derived");
            (match Json.member "degraded" result with
            | Some (Json.Bool true) -> degraded := true
            | _ -> ());
            Ok (result, cached)
        | Error `Unknown_dataset ->
            Error
              ( "unknown_dataset",
                Printf.sprintf
                  "no loaded dataset %S (load it first, then query by key or \
                   name)"
                  q.Protocol.dataset )
        | Error `Overloaded ->
            Error
              ( "overloaded",
                "admission queue is full; the request was shed — retry later"
              )
        | Error `Deadline_exceeded ->
            Error
              ( "deadline_exceeded",
                "the request's deadline expired before the solver started \
                 (admission queue wait counts against the timeout) — raise \
                 the timeout or retry when the server is less loaded" )
        | Error `Draining ->
            Error
              ( "draining",
                "the server is draining for shutdown and admits no new \
                 solves — retry against the restarted instance" )
        | exception (Stdlib.Exit | Sys.Break) -> Error ("internal", "interrupted")
        | exception exn -> (
            match Protocol.error_of_exn exn with
            | Some e -> Error e
            | None -> Error ("internal", Printexc.to_string exn)))
  in
  let status =
    match outcome with
    | Error _ -> "error"
    | Ok _ -> if !degraded then "degraded" else "ok"
  in
  let merge_path =
    match List.assoc_opt "merge" !cost with
    | Some (Json.Str s) -> s
    | _ -> ""
  in
  Telemetry.record telemetry
    {
      Telemetry.request_id;
      session_id;
      algo = Protocol.algo_to_string q.Protocol.algo;
      dataset = dataset_key;
      r = q.Protocol.r;
      gamma = q.Protocol.gamma;
      cache = !cache_outcome;
      status;
      error_code =
        (match outcome with Error (code, _) -> Some code | Ok _ -> None);
      queue_wait_ms =
        1000. *. Obs.Ctx.value ctx "rrms_serve_queue_wait_seconds_total";
      elapsed_ms = elapsed_ms ();
      probes = Obs.Ctx.value ctx "rrms_hd_rrms_probes_total";
      cells = Obs.Ctx.value ctx "rrms_matrix_cells_total";
      shards;
      merge = merge_path;
    }
    ~spans:(Obs.Ctx.spans ctx);
  match outcome with
  | Error _ as e -> e
  | Ok (result, cached) ->
      let cost_echo =
        if q.Protocol.explain then Some (Json.Obj !cost) else None
      in
      Ok (result, cached, cost_echo)

(* One request line → one response.  [session] collects the dataset
   references this connection holds, for teardown.  Total: every
   exception — structured guard errors, solver [Invalid_argument]s,
   injected worker faults — becomes an error response. *)
let dispatch ~telemetry ~session_id ~reqno store session line =
  let t0 = Unix.gettimeofday () in
  let { Protocol.id; req; trace } = Protocol.parse_request line in
  Obs.Counter.incr Metrics.requests;
  let elapsed_ms () = (Unix.gettimeofday () -. t0) *. 1000. in
  let ok ?(cached = false) ?cost result =
    `Reply
      (Protocol.ok_response ?cost ~id ~cached ~elapsed_ms:(elapsed_ms ())
         result)
  in
  let error_code = ref None in
  let error code message =
    Obs.Counter.incr Metrics.errors;
    error_code := Some code;
    `Reply (Protocol.error_response ~id ~code ~message)
  in
  let safe f =
    try f () with
    | Stdlib.Exit | Sys.Break -> error "internal" "interrupted"
    | exn -> (
        match Protocol.error_of_exn exn with
        | Some (code, message) -> error code message
        | None -> error "internal" (Printexc.to_string exn))
  in
  let reply =
    match req with
    | Error (code, message) -> error code message
    | Ok (Protocol.Load { path; name; normalize; lenient; shard }) ->
        safe (fun () ->
            let l = Store.load store ?name ~normalize ~lenient ?shard path in
            session := l.Store.key :: !session;
            ok
              (Json.Obj
                 [
                   ("key", Json.Str l.Store.key);
                   ("name", Json.Str l.Store.dataset_name);
                   ("n", Json.int l.Store.n);
                   ("m", Json.int l.Store.m);
                   ("refs", Json.int l.Store.refs);
                   ("already_loaded", Json.Bool l.Store.already_loaded);
                   ("warnings", Json.int l.Store.warnings);
                 ]))
    | Ok (Protocol.Query q) ->
        (* The whole query — result-cache probe, admission wait, solver,
           pool chunks — runs under one request context; every counter
           delta and span lands there as well as in the global
           registry, giving the access log its per-request cost
           attribution. *)
        incr reqno;
        let request_id = Printf.sprintf "%s-r%d" session_id !reqno in
        let dataset_key =
          match Store.resolve store q.Protocol.dataset with
          | Some key -> key
          | None -> q.Protocol.dataset
        in
        (match
           run_query ?trace ~telemetry ~session_id ~request_id ~dataset_key
             ~shards:0 ~elapsed_ms q (fun () -> Store.query store q)
         with
        | Ok (result, cached, cost) -> ok ~cached ?cost result
        | Error (code, message) -> error code message)
    | Ok (Protocol.Batch { dataset; items }) ->
        (* One resolve, many items: the dataset is pinned once and every
           item runs against the pinned handle; items answer in order,
           each with its own [ok]/[error] status, its own request
           context ("s1-r2.0", "s1-r2.1", …) and its own access-log
           line, so a failed item never hides or aborts the others. *)
        incr reqno;
        let base_id = Printf.sprintf "%s-r%d" session_id !reqno in
        Obs.Counter.incr Metrics.batch_requests;
        Obs.Counter.add Metrics.batch_items (Array.length items);
        safe (fun () ->
            match Store.pin store dataset with
            | None ->
                error "unknown_dataset"
                  (Printf.sprintf
                     "no loaded dataset %S (load it first, then query by key \
                      or name)"
                     dataset)
            | Some h ->
                Fun.protect
                  ~finally:(fun () -> Store.unpin store h)
                  (fun () ->
                    let key = Store.pinned_key h in
                    let item_error code message =
                      Json.Obj
                        [
                          ("ok", Json.Bool false);
                          ( "error",
                            Json.Obj
                              [
                                ("code", Json.Str code);
                                ("message", Json.Str message);
                              ] );
                        ]
                    in
                    let results =
                      Array.to_list
                        (Array.mapi
                           (fun i item ->
                             match item with
                             | Error (code, message) -> item_error code message
                             | Ok q -> (
                                 let t0i = Unix.gettimeofday () in
                                 let item_ms () =
                                   (Unix.gettimeofday () -. t0i) *. 1000.
                                 in
                                 match
                                   run_query ?trace ~telemetry ~session_id
                                     ~request_id:
                                       (Printf.sprintf "%s.%d" base_id i)
                                     ~dataset_key:key ~shards:0
                                     ~elapsed_ms:item_ms q (fun () ->
                                       Store.query_pinned store h q)
                                 with
                                 | Ok (result, cached, cost) ->
                                     Json.Obj
                                       ([
                                          ("ok", Json.Bool true);
                                          ("cached", Json.Bool cached);
                                          ("result", result);
                                        ]
                                       @
                                       match cost with
                                       | Some c -> [ ("cost", c) ]
                                       | None -> [])
                                 | Error (code, message) ->
                                     item_error code message))
                           items)
                    in
                    ok
                      (Json.Obj
                         [
                           ("dataset", Json.Str key);
                           ("count", Json.int (List.length results));
                           ("results", Json.Arr results);
                         ])))
    | Ok (Protocol.Mutate { dataset; ops; timeout }) ->
        (* Mutations follow the query discipline: one request context,
           admission-gated inside the store, end-to-end deadline, one
           access-log line (algo = "mutate"). *)
        incr reqno;
        let request_id = Printf.sprintf "%s-r%d" session_id !reqno in
        let dataset_key =
          match Store.resolve store dataset with
          | Some key -> key
          | None -> dataset
        in
        (match
           Mutate.run ?trace ~telemetry ~session_id ~request_id ~dataset_key
             ~elapsed_ms ~timeout store ~dataset ops
         with
        | Ok result -> ok result
        | Error (code, message) -> error code message)
    | Ok (Protocol.Skyline { dataset; timeout }) ->
        (* The per-shard half of the router fan-out: compute (or fetch)
           the dataset's skyline artifact under admission, honouring the
           forwarded remaining deadline.  With a trace envelope, the
           work runs under a context bound to the originating trace and
           the reply carries this worker's span dump, so the router can
           splice it into one merged cluster trace. *)
        safe (fun () ->
            let budget =
              match timeout with
              | None -> Guard.Budget.unlimited
              | Some t -> Guard.Budget.create ~timeout:t ()
            in
            let ctx =
              match trace with
              | Some t ->
                  incr reqno;
                  Some
                    (Obs.Ctx.create
                       ~request_id:
                         (if t.Protocol.origin_request <> "" then
                            t.Protocol.origin_request
                          else Printf.sprintf "%s-r%d" session_id !reqno)
                       ~session_id ~capture_spans:true
                       ~trace_id:t.Protocol.trace_id
                       ~parent_span:t.Protocol.parent_span ())
              | None -> None
            in
            match Store.pin store dataset with
            | None ->
                error "unknown_dataset"
                  (Printf.sprintf "no loaded dataset %S" dataset)
            | Some h ->
                Fun.protect
                  ~finally:(fun () -> Store.unpin store h)
                  (fun () ->
                    let outcome =
                      Obs.Ctx.scoped ctx (fun () ->
                          Obs.Span.with_ "serve.skyline"
                            ~attrs:[ ("dataset", dataset) ] (fun () ->
                              Store.with_admission store (fun () ->
                                  match
                                    Guard.Budget.deadline_expired budget
                                  with
                                  | Some _ -> `Deadline
                                  | None -> `Sky (Store.skyline_of store h))))
                    in
                    match outcome with
                    | Error `Overloaded ->
                        error "overloaded"
                          "admission queue is full; the request was shed — \
                           retry later"
                    | Ok `Deadline ->
                        error "deadline_exceeded"
                          "the request's deadline expired before the skyline \
                           computation started"
                    | Ok (`Sky sky) ->
                        let n, m = Store.pinned_dims h in
                        let span_dump =
                          match ctx with
                          | None -> []
                          | Some c ->
                              [
                                ( "spans",
                                  Json.Arr
                                    (List.map Telemetry.span_json
                                       (Obs.Ctx.spans c)) );
                              ]
                        in
                        ok
                          (Json.Obj
                             ([
                                ("key", Json.Str (Store.pinned_key h));
                                ("n", Json.int n);
                                ("m", Json.int m);
                                ("size", Json.int (Array.length sky));
                                ("indices", ints sky);
                              ]
                             @ span_dump))))
    | Ok (Protocol.Evict { dataset }) ->
        safe (fun () ->
            match Store.release store dataset with
            | Store.Not_loaded ->
                error "unknown_dataset"
                  (Printf.sprintf "no loaded dataset %S" dataset)
            | Store.Released { key; remaining; freed } ->
                session := remove_one key !session;
                ok
                  (Json.Obj
                     [
                       ("key", Json.Str key);
                       ("remaining_refs", Json.int remaining);
                       ("freed", Json.Bool freed);
                     ]))
    | Ok Protocol.Stats ->
        safe (fun () ->
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
                       ]))
            | j -> ok j)
    | Ok Protocol.Metrics ->
        (* The raw, mergeable half of cluster observability: the global
           counter snapshot plus the latency histograms as raw bucket
           counts (seconds).  A router fans this out and merges the
           exports — counters sum, histograms merge associatively — so
           [stats] against a router reports cluster-wide quantiles. *)
        safe (fun () ->
            ok
              (Json.Obj
                 [
                   ( "metrics",
                     Json.Obj
                       (List.map
                          (fun (name, v) -> (name, Json.float v))
                          (Obs.snapshot ())) );
                   ("latency_raw", Telemetry.export_json telemetry);
                 ]))
    | Ok Protocol.Ping -> ok (Json.Obj [ ("pong", Json.Bool true) ])
    | Ok Protocol.Shutdown ->
        `Shutdown
          (Protocol.ok_response ~id ~cached:false ~elapsed_ms:(elapsed_ms ())
             (Json.Obj [ ("stopping", Json.Bool true) ]))
  in
  Obs.Timer.observe Metrics.request_seconds (Unix.gettimeofday () -. t0);
  reply

let handle_line ?(telemetry = Telemetry.default) store line =
  dispatch ~telemetry ~session_id:(new_session_id ()) ~reqno:(ref 0) store
    (ref []) line

(* A transport-agnostic session: the line pump and the socket daemon
   below work for any per-connection handler, so the shard router (a
   protocol speaker that is not a plain store) reuses them verbatim.
   [handler] is invoked once per connection and returns that session's
   line/close callbacks. *)
type session_handler = {
  on_line : string -> [ `Reply of string | `Shutdown of string ];
  on_close : unit -> unit;
}

type handler = unit -> session_handler

let store_handler ?(telemetry = Telemetry.default) store () =
  let session = ref [] in
  let session_id = new_session_id () in
  let reqno = ref 0 in
  {
    on_line =
      (fun line -> dispatch ~telemetry ~session_id ~reqno store session line);
    on_close = (fun () -> Store.session_release_all store !session);
  }

let run_handler_session (h : handler) ic oc =
  let s = h () in
  let finish outcome =
    s.on_close ();
    outcome
  in
  let send str =
    try
      output_string oc str;
      output_char oc '\n';
      flush oc;
      true
    with Sys_error _ -> false
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> finish `Eof
    | exception Sys_error _ -> finish `Eof
    | line ->
        if String.trim line = "" then loop ()
        else (
          match s.on_line line with
          | `Reply r -> if send r then loop () else finish `Eof
          | `Shutdown r ->
              ignore (send r);
              finish `Shutdown)
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
