(* rrms-serve: the long-lived RRMS query service (docs/SERVING.md).

   One process, one artifact store: datasets, skylines, hulls, direction
   grids and regret matrices are computed once and shared by every
   session; Exact answers land in a result cache keyed by
   (dataset, algo, r, γ).  Three modes:

     --socket PATH    daemon on a Unix-domain socket, one thread per
                      connection (the service mode)
     --stdio          one session over stdin/stdout (scripting, tests)
     --connect PATH   thin client: relay stdin lines to a running
                      daemon and print its responses (CI smoke jobs
                      need no netcat)

   With --router and N --shard-socket PATHs, the socket/stdio session is
   a fan-out router instead: HD solves send skyline requests to the
   worker daemons (each holding its round-robin slice), merge, and
   answer from merged artifacts — byte-identical to a single process. *)

open Cmdliner
module Guard = Rrms_guard.Guard
module Obs = Rrms_obs.Obs
module Store = Rrms_serve.Store
module Server = Rrms_serve.Server
module Shard = Rrms_serve.Shard
module Persist = Rrms_serve.Persist
module Telemetry = Rrms_serve.Telemetry
module Json = Rrms_serve.Json

let guard_error e =
  Printf.eprintf "rrms-serve: error: %s\n%!" (Guard.Error.to_string e);
  exit (Guard.Error.exit_code e)

let connect_to path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "rrms-serve: cannot connect to %s: %s\n%!" path
        (Unix.error_message err);
      exit 69);
  fd

(* ------------------------------------------------------------------ *)
(* --top: live stats table                                             *)
(* ------------------------------------------------------------------ *)

(* One persistent connection; each tick sends a [stats] request and
   renders the per-(algo, cache, status) latency table plus a service
   summary line from the metric snapshot. *)
let top path ~interval ~iterations =
  let fd = connect_to path in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let sstr j k = match Json.member k j with Some v -> Json.str v | None -> None in
  let snum j k = match Json.member k j with Some v -> Json.num v | None -> None in
  let fnum j k = Option.value ~default:0. (snum j k) in
  let metric result name =
    match Json.member "metrics" result with
    | Some ms -> fnum ms name
    | None -> 0.
  in
  let hist_rows container =
    match Json.member "histograms" container with
    | Some (Json.Arr rows) -> rows
    | _ -> []
  in
  (* Cluster view (a router's stats): the per-(algo, cache, status)
     table gains a SHARD column — the "all" rows are exact
     cross-process merges, followed by each process under its own
     label — plus a worker liveness/skew summary. *)
  let render_cluster buf cluster =
    Buffer.add_string buf
      (Printf.sprintf "\ncluster — %.0f processes\n"
         (fnum cluster "processes"));
    (match Json.member "workers" cluster with
    | Some (Json.Arr ws) ->
        List.iter
          (fun w ->
            let connected =
              match Json.member "connected" w with
              | Some (Json.Bool true) -> "up"
              | _ -> "down"
            in
            let shard =
              match Json.member "shard" w with
              | Some (Json.Num x) -> Printf.sprintf "%.0f" x
              | Some (Json.Str s) -> s
              | _ -> "?"
            in
            Buffer.add_string buf
              (Printf.sprintf
                 "  shard %-3s %-4s busy %8.3fs   requests %6.0f   errors \
                  %4.0f   hit-rate %5.1f%%\n"
                 shard connected
                 (fnum w "busy_seconds") (fnum w "requests")
                 (fnum w "errors")
                 (100. *. fnum w "hit_rate")))
          ws
    | _ -> ());
    (match Json.member "skew" cluster with
    | Some skew ->
        Buffer.add_string buf
          (Printf.sprintf
             "  skew: busy max %.3fs   min %.3fs   straggler gap %.3fs\n"
             (fnum skew "busy_max_seconds") (fnum skew "busy_min_seconds")
             (fnum skew "straggler_gap_seconds"))
    | None -> ());
    let rows =
      match Json.member "latency" cluster with
      | Some lat -> hist_rows lat
      | None -> []
    in
    Buffer.add_string buf
      (Printf.sprintf "\n%-7s %-12s %-8s %-9s %8s %10s %10s %10s %10s\n"
         "SHARD" "ALGO" "CACHE" "STATUS" "COUNT" "P50(ms)" "P95(ms)"
         "P99(ms)" "MAX(ms)");
    if rows = [] then Buffer.add_string buf "  (no queries observed yet)\n"
    else
      List.iter
        (fun row ->
          let s k = Option.value ~default:"?" (sstr row k) in
          Buffer.add_string buf
            (Printf.sprintf
               "%-7s %-12s %-8s %-9s %8.0f %10.3f %10.3f %10.3f %10.3f\n"
               (s "shard") (s "algo") (s "cache") (s "status")
               (fnum row "count") (fnum row "p50_ms") (fnum row "p95_ms")
               (fnum row "p99_ms") (fnum row "max_ms")))
        rows
  in
  let render result =
    let buf = Buffer.create 2048 in
    let hits = metric result "rrms_serve_result_hits_total" in
    let misses = metric result "rrms_serve_result_misses_total" in
    let probed = hits +. misses in
    let hit_rate = if probed > 0. then 100. *. hits /. probed else 0. in
    Buffer.add_string buf
      (Printf.sprintf
         "rrms-top — %s\nrequests %.0f   errors %.0f   result hit-rate %.1f%% \
          (%.0f/%.0f)   inflight %.0f   queued %.0f   overloaded %.0f\n\n"
         path
         (metric result "rrms_serve_requests_total")
         (metric result "rrms_serve_errors_total")
         hit_rate hits probed
         (metric result "rrms_serve_inflight")
         (metric result "rrms_serve_queue_depth")
         (metric result "rrms_serve_overloaded_total"));
    (match Json.member "cluster" result with
    | Some cluster -> render_cluster buf cluster
    | None ->
        Buffer.add_string buf
          (Printf.sprintf "%-12s %-8s %-9s %8s %10s %10s %10s %10s\n" "ALGO"
             "CACHE" "STATUS" "COUNT" "P50(ms)" "P95(ms)" "P99(ms)" "MAX(ms)");
        let rows =
          match Json.member "latency" result with
          | Some lat -> hist_rows lat
          | None -> []
        in
        if rows = [] then Buffer.add_string buf "  (no queries observed yet)\n"
        else
          List.iter
            (fun row ->
              let s k = Option.value ~default:"?" (sstr row k) in
              Buffer.add_string buf
                (Printf.sprintf
                   "%-12s %-8s %-9s %8.0f %10.3f %10.3f %10.3f %10.3f\n"
                   (s "algo") (s "cache") (s "status") (fnum row "count")
                   (fnum row "p50_ms") (fnum row "p95_ms") (fnum row "p99_ms")
                   (fnum row "max_ms")))
            rows);
    (match Json.member "latency" result with
    | Some lat ->
        let slow = fnum lat "slow_queries" in
        let lines = fnum lat "access_log_lines" in
        if slow > 0. || lines > 0. then
          Buffer.add_string buf
            (Printf.sprintf "\naccess-log lines %.0f   slow queries %.0f\n"
               lines slow)
    | None -> ());
    Buffer.contents buf
  in
  let rec loop n =
    output_string oc "{\"id\": 0, \"req\": \"stats\"}\n";
    flush oc;
    (match input_line ic with
    | exception End_of_file ->
        Printf.eprintf "rrms-serve: server closed the connection\n%!";
        exit 1
    | line -> (
        match Json.parse line with
        | Error e ->
            Printf.eprintf "rrms-serve: bad stats response: %s\n%!" e;
            exit 1
        | Ok j -> (
            match Json.member "result" j with
            | Some result ->
                (* Clear screen + home when on a tty; plain append
                   otherwise so output stays greppable in pipes. *)
                if Unix.isatty Unix.stdout then print_string "\027[2J\027[H";
                print_string (render result);
                flush stdout
            | None ->
                Printf.eprintf "rrms-serve: stats request failed: %s\n%!" line;
                exit 1)));
    if iterations = 0 || n + 1 < iterations then begin
      Unix.sleepf interval;
      loop (n + 1)
    end
  in
  loop 0;
  close_out_noerr oc

(* ------------------------------------------------------------------ *)
(* --connect: thin client with idempotent ids and retry               *)
(* ------------------------------------------------------------------ *)

(* Queries and loads are idempotent on the server (content-addressed
   store, deterministic solvers, result cache), so a request that died
   with its connection — or was shed with [overloaded] / refused with
   [draining] — can be resent verbatim under the same id.  The client
   stamps an id of its own ("c<pid>-<seq>") on any request line that
   lacks one, so every retry is attributable in the access log. *)

let retryable_code response =
  match Json.parse response with
  | Ok j when Json.member "ok" j = Some (Json.Bool false) -> (
      match Json.member "error" j with
      | Some e -> (
          match Option.bind (Json.member "code" e) Json.str with
          | Some ("overloaded" | "draining") -> true
          | _ -> false)
      | None -> false)
  | _ -> false

let stamp_id ~seq line =
  match Json.parse line with
  | Ok (Json.Obj fields) when not (List.mem_assoc "id" fields) ->
      let id = Printf.sprintf "c%d-%d" (Unix.getpid ()) seq in
      Json.to_string (Json.Obj (("id", Json.Str id) :: fields))
  | _ -> line

let try_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None

let client path ~retries ~retry_backoff_ms =
  Random.self_init ();
  (* Jittered exponential backoff: base · 2^attempt · U[0.75, 1.25). *)
  let backoff attempt =
    let base = retry_backoff_ms /. 1000. in
    let d = base *. (2. ** float_of_int attempt) in
    Unix.sleepf (d *. (0.75 +. (Random.float 0.5)))
  in
  let conn = ref None in
  let connect_or_retry () =
    match !conn with
    | Some c -> Some c
    | None ->
        let rec go attempt =
          match try_connect path with
          | Some c ->
              conn := Some c;
              Some c
          | None when attempt < retries ->
              backoff attempt;
              go (attempt + 1)
          | None -> None
        in
        go 0
  in
  let drop_conn () =
    (match !conn with
    | Some (fd, _, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    conn := None
  in
  let rec exchange line attempt =
    match connect_or_retry () with
    | None ->
        Printf.eprintf "rrms-serve: cannot connect to %s\n%!" path;
        exit 69
    | Some (_, ic, oc) -> (
        let sent =
          try
            output_string oc line;
            output_char oc '\n';
            flush oc;
            true
          with Sys_error _ -> false
        in
        let response =
          if not sent then None
          else match input_line ic with
            | r -> Some r
            | exception (End_of_file | Sys_error _) -> None
        in
        match response with
        | None ->
            (* The connection died with the request in flight: the
               request is idempotent, so reconnect and resend it under
               the same id. *)
            drop_conn ();
            if attempt < retries then begin
              backoff attempt;
              exchange line (attempt + 1)
            end
            else begin
              Printf.eprintf "rrms-serve: server closed the connection\n%!";
              exit 1
            end
        | Some r when retryable_code r && attempt < retries ->
            backoff attempt;
            exchange line (attempt + 1)
        | Some r -> print_endline r)
  in
  let rec loop seq =
    match input_line stdin with
    | exception End_of_file -> ()
    | line when String.trim line = "" -> loop seq
    | line ->
        exchange (stamp_id ~seq line) 0;
        loop (seq + 1)
  in
  loop 1;
  drop_conn ()

(* ------------------------------------------------------------------ *)
(* Supervision                                                        *)
(* ------------------------------------------------------------------ *)

(* --supervise: fork the serving process and restart it after abnormal
   exit with capped, jittered exponential backoff.  A child that exits
   0 (clean drain) ends supervision; SIGTERM/SIGINT to the supervisor
   are forwarded to the child so the whole tree drains gracefully.  The
   incarnation number rides into each child as RRMS_SERVE_RESTARTS and
   surfaces in the stats response. *)
let supervise run_child =
  Random.self_init ();
  let stop_requested = ref false in
  let child = ref None in
  let forward signal =
    match !child with
    | Some pid -> ( try Unix.kill pid signal with Unix.Unix_error _ -> ())
    | None -> ()
  in
  let on_stop signal _ =
    stop_requested := true;
    forward signal
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (on_stop Sys.sigterm));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (on_stop Sys.sigint));
  let rec waitpid pid =
    match Unix.waitpid [] pid with
    | r -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
  in
  let status_string = function
    | Unix.WEXITED c -> Printf.sprintf "exit %d" c
    | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
    | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
  in
  let rec loop ~restarts ~backoff =
    if !stop_requested then exit 0;
    Unix.putenv "RRMS_SERVE_RESTARTS" (string_of_int restarts);
    let started = Unix.gettimeofday () in
    match Unix.fork () with
    | 0 -> run_child () (* serves, then exits; never returns here *)
    | pid -> (
        child := Some pid;
        Printf.eprintf "rrms-serve: supervising pid=%d (restarts=%d)\n%!" pid
          restarts;
        let _, status = waitpid pid in
        child := None;
        let uptime = Unix.gettimeofday () -. started in
        match status with
        | Unix.WEXITED 0 -> exit 0
        | status when !stop_requested ->
            Printf.eprintf "rrms-serve: child %s during shutdown\n%!"
              (status_string status);
            exit 0
        | status ->
            (* A healthy stretch of uptime resets the backoff — only a
               crash loop escalates it. *)
            let backoff =
              if uptime > 5. then 0.1 else Float.min 30. (backoff *. 2.)
            in
            let delay = backoff *. (0.75 +. Random.float 0.5) in
            Printf.eprintf
              "rrms-serve: child %s after %.1fs; restarting in %.2fs\n%!"
              (status_string status) uptime delay;
            Unix.sleepf delay;
            loop ~restarts:(restarts + 1) ~backoff)
  in
  loop ~restarts:0 ~backoff:0.05

let run stdio connect top_path socket router shard_sockets domains
    max_inflight max_queue obs access_log slow_ms interval iterations
    state_dir supervise_flag grace retries retry_backoff_ms =
  Rrms_parallel.Pool.configure_from_env ();
  Rrms_parallel.Fault.configure_from_env ();
  Persist.Fault.configure_from_env ();
  (* A resident service records by default: RRMS_OBS / RRMS_TRACE win
     when set, then --obs, then Counters. *)
  (match (Sys.getenv_opt "RRMS_OBS", Sys.getenv_opt "RRMS_TRACE") with
  | None, None -> (
      Obs.set_level
        (match obs with
        | "off" -> Obs.Disabled
        | "full" -> Obs.Full
        | _ -> Obs.Counters))
  | _ -> Obs.configure_from_env ());
  (match domains with
  | Some d when d >= 1 -> Rrms_parallel.Pool.set_default_size d
  | Some _ | None -> ());
  let telemetry () =
    match (access_log, slow_ms) with
    | None, None -> Telemetry.default
    | _ ->
        let t = Telemetry.create ?access_log ?slow_ms () in
        at_exit (fun () -> Telemetry.close t);
        t
  in
  let persist () = Option.map Persist.open_dir state_dir in
  (* The session handler and the store behind it (for drain): a plain
     store-backed server, or the shard router fanning out to the worker
     daemons named by --shard-socket.  Only the plain store owns
     writable state: it opens the --state-dir and replays the mutation
     write-ahead log before serving, so a restarted instance answers
     from the exact dataset generation the crashed one had installed. *)
  let make_handler () =
    if router then begin
      let rt =
        Shard.Router.create ~telemetry:(telemetry ()) ~max_inflight ~max_queue
          ~workers:shard_sockets ()
      in
      at_exit (fun () -> Shard.Router.close rt);
      (Shard.Router.handler rt, Shard.Router.store rt)
    end
    else
      let p = persist () in
      let store = Store.create ~max_inflight ~max_queue ?persist:p () in
      Option.iter
        (fun p ->
          let { Rrms_serve.Mutate.records; applied; skipped } =
            Rrms_serve.Mutate.replay store p
          in
          if records > 0 then
            Printf.eprintf
              "rrms-serve: replayed mutation log: %d records, %d applied, %d \
               skipped\n\
               %!"
              records applied skipped)
        p;
      (Server.store_handler ~telemetry:(telemetry ()) store, store)
  in
  let serve_socket path () =
    let handler, store = make_handler () in
    let srv = Server.start_handler handler ~socket:path in
    (* SIGTERM/SIGINT → graceful drain.  The handler only spawns the
       drain thread (handlers must not block); the main thread's
       [Server.wait] returns once the accept loop stops, and the
       process exits 0 through the normal path — at_exit flushes the
       access log. *)
    let draining = Atomic.make false in
    let on_signal _ =
      if not (Atomic.exchange draining true) then
        ignore (Thread.create (fun () -> Server.drain ~grace srv store) ())
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Printf.eprintf "rrms-serve: listening on %s\n%!" path;
    Server.wait srv
  in
  try
    if router && shard_sockets = [] then
      `Error (true, "--router requires at least one --shard-socket PATH")
    else if (not router) && shard_sockets <> [] then
      `Error (true, "--shard-socket requires --router")
    else if router && state_dir <> None then
      `Error
        ( true,
          "--router cannot take --state-dir: the router holds no writable \
           state (mutations answer read_only); run --state-dir on the \
           workers instead" )
    else
      match (connect, top_path, stdio, socket) with
      | Some path, _, _, _ -> `Ok (client path ~retries ~retry_backoff_ms)
      | None, Some path, _, _ -> `Ok (top path ~interval ~iterations)
      | None, None, true, _ ->
          let handler, _store = make_handler () in
          ignore (Server.run_handler_session handler stdin stdout);
          `Ok ()
      | None, None, false, Some path ->
          if supervise_flag then
            `Ok (supervise (fun () -> serve_socket path (); exit 0))
          else `Ok (serve_socket path ())
      | None, None, false, None ->
          if supervise_flag then
            `Error (true, "--supervise requires --socket PATH")
          else
            `Error
              ( true,
                "one of --socket PATH, --stdio, --connect PATH or --top PATH \
                 is required" )
  with Guard.Error.Guard_error e -> guard_error e

let cmd =
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ] ~doc:"Serve one session over stdin/stdout.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:"Act as a client of the daemon at $(docv), relaying stdin.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on the Unix-domain socket $(docv).")
  in
  let router =
    Arg.(
      value & flag
      & info [ "router" ]
          ~doc:
            "Serve as a shard router: fan HD solves out as $(i,skyline) \
             requests to the worker daemons given by $(b,--shard-socket), \
             merge their answers, and solve over the merged artifacts — \
             byte-identical to a single-process server.  Combines with \
             $(b,--socket) or $(b,--stdio).")
  in
  let shard_sockets =
    Arg.(
      value & opt_all string []
      & info [ "shard-socket" ] ~docv:"PATH"
          ~doc:
            "Unix socket of one shard worker (repeatable; order defines the \
             shard index).  Worker $(i,s) of $(i,N) is sent $(i,load) \
             requests with shard_index=$(i,s), shard_count=$(i,N), so it \
             holds the matching round-robin slice.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains for the parallel kernels (default: \
             $(b,RRMS_DOMAINS) or 1).")
  in
  let max_inflight =
    Arg.(
      value & opt int 4
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Concurrent solves admitted before queueing.")
  in
  let max_queue =
    Arg.(
      value & opt int 16
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Solves queued beyond the in-flight cap before requests are \
             shed with an $(i,overloaded) error.")
  in
  let obs =
    Arg.(
      value
      & opt (enum [ ("off", "off"); ("counters", "counters"); ("full", "full") ])
          "counters"
      & info [ "obs" ] ~docv:"LEVEL"
          ~doc:
            "Observability level when $(b,RRMS_OBS) is unset (off | \
             counters | full).")
  in
  let top_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "top" ] ~docv:"PATH"
          ~doc:
            "Poll the daemon at $(docv) with $(i,stats) requests and render \
             a live per-(algo, cache, status) latency/hit-rate table.")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per query request to $(docv): request id, \
             algo, r, gamma, dataset hash, cache outcome, queue wait, solve \
             time, probes/cells.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"N"
          ~doc:
            "Dump the full per-request span trace of any query taking at \
             least $(docv) ms (to the access log when set, stderr \
             otherwise).")
  in
  let interval =
    Arg.(
      value & opt float 2.
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Polling interval for $(b,--top).")
  in
  let iterations =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop $(b,--top) after $(docv) polls (0 = run until killed).")
  in
  let state_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Durable artifact cache: spill datasets, skylines and Exact \
             results to write-once, content-addressed blobs under \
             $(docv) (created if absent), and rehydrate them on demand \
             after a restart; regret matrices and direction grids are \
             rebuilt from the skyline, which is faster than reading them \
             back.  Mutations are journaled to a \
             checksummed write-ahead log in the same directory and \
             replayed at startup.  Torn or corrupt blobs are detected by \
             checksum, discarded and counted, never served.  Incompatible \
             with $(b,--router).")
  in
  let supervise =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Fork the serving process and restart it after abnormal exit \
             with capped exponential backoff (socket mode only).  A clean \
             exit — graceful drain — ends supervision; SIGTERM/SIGINT are \
             forwarded to the child.")
  in
  let grace =
    Arg.(
      value & opt float 5.
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:
            "Drain grace period on SIGTERM/SIGINT: how long to let \
             in-flight solves settle before sessions are cut off.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "$(b,--connect) only: resend a request (same id) up to $(docv) \
             times after a lost connection or an $(i,overloaded) / \
             $(i,draining) refusal, with jittered exponential backoff.")
  in
  let retry_backoff_ms =
    Arg.(
      value & opt float 50.
      & info [ "retry-backoff-ms" ] ~docv:"MS"
          ~doc:"Base backoff for $(b,--connect) retries.")
  in
  let doc = "long-lived RRMS query service over line-delimited JSON" in
  Cmd.v
    (Cmd.info "rrms-serve" ~doc)
    Term.(
      ret
        (const run $ stdio $ connect $ top_path $ socket $ router
       $ shard_sockets $ domains $ max_inflight $ max_queue $ obs
       $ access_log $ slow_ms $ interval $ iterations $ state_dir
       $ supervise $ grace $ retries $ retry_backoff_ms))

let () = exit (Cmd.eval cmd)
