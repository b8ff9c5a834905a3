module Guard = Rrms_guard.Guard
module Obs = Rrms_obs.Obs
module Skyline = Rrms_skyline.Skyline

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

module Metrics = struct
  let c ?(deterministic = true) name help =
    Obs.Counter.make ~deterministic ~help name

  let skyline_merges =
    c "rrms_shard_skyline_merges_total"
      "merged skylines assembled from per-shard skylines"

  let worker_redials =
    c ~deterministic:false "rrms_shard_worker_redials_total"
      "router reconnections to a shard worker"

  let worker_failures =
    c ~deterministic:false "rrms_shard_worker_failures_total"
      "router fan-out legs that failed after the redial retry"

  let straggler_gap =
    Obs.Floatc.make ~deterministic:false
      ~help:"accumulated slowest-minus-fastest leg time over router fan-outs"
      "rrms_shard_fanout_straggler_seconds_total"
end

(* Annotate an outcome's cost provenance with the merge path that
   produced it — ["certified"] / ["gather"] — so the
   per-answer cost echo and the access log both say how the cluster
   assembled the answer. *)
let tag_merge path = function
  | Ok o -> Ok { o with Store.cost = o.Store.cost @ [ ("merge", Json.Str path) ] }
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Router: fan-out over worker processes                               *)
(* ------------------------------------------------------------------ *)

module Router = struct
  exception Worker_down of string * string (* path, detail *)
  exception Worker_error of string * string * string (* path, code, msg *)

  type ds_info = { load_line : int -> string }

  type worker = {
    w_index : int;
    w_path : string;
    w_lock : Mutex.t;
    mutable conn : (in_channel * out_channel) option;
    (* Router dataset key → this worker's slice key, valid for the
       current connection only: a redial clears it, and the next use
       replays the load (which is how a restarted worker recovers). *)
    mutable w_keys : (string * string) list;
  }

  type t = {
    rt_store : Store.t;
    telemetry : Telemetry.t;
    domains : int option;
    workers : worker array;
    r_lock : Mutex.t;
    datasets : (string, ds_info) Hashtbl.t;
  }

  let create ?(telemetry = Telemetry.default) ?domains ?max_inflight ?max_queue
      ~workers () =
    if workers = [] then
      Guard.Error.invalid_input "Shard.Router.create: no worker sockets";
    {
      rt_store = Store.create ?domains ?max_inflight ?max_queue ();
      telemetry;
      domains;
      workers =
        Array.of_list
          (List.mapi
             (fun i p ->
               {
                 w_index = i;
                 w_path = p;
                 w_lock = Mutex.create ();
                 conn = None;
                 w_keys = [];
               })
             workers);
      r_lock = Mutex.create ();
      datasets = Hashtbl.create 8;
    }

  let store rt = rt.rt_store
  let width rt = Array.length rt.workers

  (* -------------------------- worker RPC -------------------------- *)

  let disconnect w =
    (match w.conn with Some (_, oc) -> close_out_noerr oc | None -> ());
    w.conn <- None;
    w.w_keys <- []

  let ensure_conn w =
    if w.conn = None then begin
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX w.w_path) with
      | () ->
          w.conn <-
            Some (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise (Worker_down (w.w_path, Unix.error_message e))
    end

  let send_recv w line =
    match w.conn with
    | None -> raise (Worker_down (w.w_path, "not connected"))
    | Some (ic, oc) -> (
        try
          output_string oc line;
          output_char oc '\n';
          flush oc;
          input_line ic
        with End_of_file | Sys_error _ ->
          disconnect w;
          raise (Worker_down (w.w_path, "connection lost mid-request")))

  let rpc_once w line =
    let reply = send_recv w line in
    match Json.parse reply with
    | Error msg ->
        disconnect w;
        raise (Worker_down (w.w_path, "unparseable reply: " ^ msg))
    | Ok j -> (
        match Json.member "ok" j with
        | Some (Json.Bool true) -> j
        | _ ->
            let get name =
              match Option.bind (Json.member "error" j) (Json.member name) with
              | Some (Json.Str s) -> s
              | _ -> "internal"
            in
            raise (Worker_error (w.w_path, get "code", get "message")))

  let reply_field j name = Option.bind (Json.member "result" j) (Json.member name)

  (* The worker's key for [key]'s slice, loading it over this connection
     on first use (and after every redial). *)
  let worker_key rt w ~key =
    match List.assoc_opt key w.w_keys with
    | Some wk -> wk
    | None -> (
        let info =
          match
            with_lock rt.r_lock (fun () -> Hashtbl.find_opt rt.datasets key)
          with
          | Some i -> i
          | None ->
              raise
                (Worker_down
                   ( w.w_path,
                     Printf.sprintf
                       "dataset %s has no registered load parameters" key ))
        in
        let j = rpc_once w (info.load_line w.w_index) in
        match reply_field j "key" with
        | Some (Json.Str wk) ->
            w.w_keys <- (key, wk) :: w.w_keys;
            wk
        | _ -> raise (Worker_down (w.w_path, "malformed load reply")))

  let skyline_request ?trace ~dataset ~timeout () =
    Json.to_string
      (Json.Obj
         ([ ("req", Json.Str "skyline"); ("dataset", Json.Str dataset) ]
         @ (match timeout with
           | Some tm -> [ ("timeout", Json.float tm) ]
           | None -> [])
         @ (match trace with
           | Some t -> [ Protocol.trace_member t ]
           | None -> [])
         @ [ ("id", Json.Str "router-skyline") ]))

  (* One fan-out leg: the worker's shard-local skyline indices, plus —
     when a trace envelope rode along — the worker's span dump for the
     router's merged trace.  A transport failure redials once
     (replaying the load), so a worker restart between requests heals
     transparently; a second failure — or a semantic error — surfaces
     to the caller. *)
  let worker_skyline ?trace rt w ~key ~timeout =
    with_lock w.w_lock (fun () ->
        let attempt () =
          ensure_conn w;
          let wkey = worker_key rt w ~key in
          let j = rpc_once w (skyline_request ?trace ~dataset:wkey ~timeout ()) in
          let spans =
            match reply_field j "spans" with
            | Some (Json.Arr l) -> l
            | _ -> []
          in
          match reply_field j "indices" with
          | Some (Json.Arr l) ->
              ( Array.of_list
                  (List.map
                     (fun x ->
                       match Json.int_ x with
                       | Some i -> i
                       | None ->
                           raise
                             (Worker_down (w.w_path, "malformed skyline reply")))
                     l),
                spans )
          | _ -> raise (Worker_down (w.w_path, "malformed skyline reply"))
        in
        try attempt ()
        with Worker_down _ ->
          Obs.Counter.incr Metrics.worker_redials;
          disconnect w;
          attempt ())

  (* ------------------------- fan-out merge ------------------------ *)

  exception Deadline

  (* Pass the deadline through honestly: the fan-out already spent part
     of the budget, so the store-level solve gets only what remains. *)
  let remaining_query ~guard (q : Protocol.query) =
    match q.Protocol.timeout with
    | None -> q
    | Some _ -> (
        match Guard.Budget.remaining guard with
        | Some rem when rem <= 0. -> raise Deadline
        | Some rem -> { q with Protocol.timeout = Some rem }
        | None -> q)

  let fan_out_workers rt f =
    let n = Array.length rt.workers in
    let out = Array.make n None in
    let durs = Array.make n 0. in
    let threads =
      Array.init n (fun s ->
          Thread.create
            (fun () ->
              let t0 = Unix.gettimeofday () in
              out.(s) <- Some (try Ok (f s) with exn -> Error exn);
              durs.(s) <- Unix.gettimeofday () -. t0)
            ())
    in
    Array.iter Thread.join threads;
    (* Fan-out skew: the wall-time the fastest leg spent waiting for
       the slowest — the cluster's straggler signal in [stats]. *)
    if n > 1 then begin
      let mx = Array.fold_left Float.max neg_infinity durs in
      let mn = Array.fold_left Float.min infinity durs in
      Obs.Floatc.add Metrics.straggler_gap (Float.max 0. (mx -. mn))
    end;
    Array.map
      (function
        | Some r -> r
        | None -> Error (Failure "Router fan-out task produced no result"))
      out

  (* Splice a worker's span dump into the router's global trace buffer,
     labelled with its shard index — the cross-process half of the
     merged trace.  The events already carry the originating trace id
     and hang from the router's fan-out span via their wire [parent].
     Workers mint ids independently under the same fan-out parent, so
     two shards produce the same hierarchical ids; namespace each dump
     with its shard ([w0:…]) to keep merged ids globally unique,
     rewriting intra-dump parent references to match and leaving the
     cross-process edge (a parent outside the dump) untouched. *)
  let ingest_worker_spans s spans =
    if Obs.spans_enabled () then begin
      let evs = List.map Telemetry.span_of_json spans in
      let local = Hashtbl.create 16 in
      List.iter
        (fun ev ->
          if ev.Obs.Trace.span_id <> "" then
            Hashtbl.replace local ev.Obs.Trace.span_id ())
        evs;
      let tag id =
        if id = "" then "" else Printf.sprintf "w%d:%s" s id
      in
      List.iter
        (fun ev ->
          Obs.Trace.record
            {
              ev with
              Obs.Trace.span_id = tag ev.Obs.Trace.span_id;
              Obs.Trace.parent_id =
                (if Hashtbl.mem local ev.Obs.Trace.parent_id then
                   tag ev.Obs.Trace.parent_id
                 else ev.Obs.Trace.parent_id);
              Obs.Trace.attrs =
                ("shard", string_of_int s) :: ev.Obs.Trace.attrs;
            })
        evs
    end

  (* The envelope the router forwards on every fan-out leg: the bound
     context's trace id plus the id of the currently open span (the
     dispatch span), so worker spans hang from it.  Computed on the
     dispatching thread — fan-out legs run on fresh systhreads that
     inherit neither the context nor the open-span stack. *)
  let fan_out_trace ~deadline =
    match Obs.Ctx.current () with
    | Some c when Obs.Ctx.trace_id c <> "" ->
        Some
          {
            Protocol.trace_id = Obs.Ctx.trace_id c;
            parent_span = Obs.Span.current_id ();
            origin_request = Obs.Ctx.request_id c;
            origin_session = Obs.Ctx.session_id c;
            deadline;
          }
    | _ -> None

  (* Merge the workers' skylines into the router store's artifact; the
     regret matrix is then built locally from the merged skyline by the
     ordinary store path, so the answer is byte-identical to a
     single-process solve (same artifacts, same [solve_prepared]). *)
  let ensure_artifacts rt h (q : Protocol.query) ~guard =
    let sky_cached, _ = Store.artifacts_cached h ~gamma:q.Protocol.gamma in
    if not sky_cached then begin
      (match Guard.Budget.deadline_expired guard with
      | Some _ -> raise Deadline
      | None -> ());
      let key = Store.pinned_key h in
      let timeout =
        match q.Protocol.timeout with
        | None -> None
        | Some _ -> Guard.Budget.remaining guard
      in
      let n = Array.length rt.workers in
      let results =
        Obs.Span.with_ "router.fanout"
          ~attrs:[ ("workers", string_of_int n) ]
          (fun () ->
            let trace = fan_out_trace ~deadline:timeout in
            let results =
              fan_out_workers rt (fun s ->
                  worker_skyline ?trace rt rt.workers.(s) ~key ~timeout)
            in
            Array.iteri
              (fun s r ->
                match r with
                | Ok (_, spans) -> ingest_worker_spans s spans
                | Error _ -> ())
              results;
            results)
      in
      Array.iter (function Ok _ -> () | Error e -> raise e) results;
      let parts =
        Array.mapi
          (fun s r ->
            match r with
            | Ok (local, _) ->
                Array.map (Store.shard_global ~shard:s ~shards:n) local
            | Error _ -> assert false)
          results
      in
      Obs.Counter.incr Metrics.skyline_merges;
      Obs.Span.with_ "router.certified_merge"
        ~attrs:[ ("shards", string_of_int n) ]
        (fun () ->
          let merged =
            Skyline.merge_partitions ?domains:rt.domains (Store.pinned_rows h)
              parts
          in
          Store.preload_skyline h merged)
    end

  (* One query against a pinned handle, fanning out for the HD
     algorithms; worker failures become [shard_failure] responses
     (never a dropped session), a worker-side deadline propagates as
     [deadline_exceeded]. *)
  let query_pinned rt h (q : Protocol.query) =
    match q.Protocol.algo with
    | Protocol.Hd_rrms | Protocol.Hd_greedy -> (
        let guard = Protocol.budget_of q in
        match ensure_artifacts rt h q ~guard with
        | () ->
            tag_merge "certified"
              (Store.query_pinned rt.rt_store h (remaining_query ~guard q))
        | exception Deadline -> Error `Deadline_exceeded
        | exception Worker_error (_, "deadline_exceeded", _) ->
            Error `Deadline_exceeded
        | exception Worker_error (p, code, msg) ->
            Obs.Counter.incr Metrics.worker_failures;
            raise
              (Protocol.Shard_failure
                 (Printf.sprintf "worker %s answered %s: %s" p code msg))
        | exception Worker_down (p, msg) ->
            Obs.Counter.incr Metrics.worker_failures;
            raise
              (Protocol.Shard_failure
                 (Printf.sprintf "worker %s unreachable: %s" p msg)))
    | _ -> tag_merge "gather" (Store.query_pinned rt.rt_store h q)

  (* Record a dataset's load parameters, so the workers can be sent
     their slices on first fan-out (and again after a redial). *)
  let register_dataset rt ~key (l : Protocol.load) =
    let count = Array.length rt.workers in
    let load_line s =
      Json.to_string
        (Json.Obj
           ([ ("req", Json.Str "load"); ("path", Json.Str l.Protocol.path) ]
           @ (match l.Protocol.name with
             | Some nm -> [ ("name", Json.Str nm) ]
             | None -> [])
           @ [
               ("normalize", Json.Bool l.Protocol.normalize);
               ("lenient", Json.Bool l.Protocol.lenient);
               ("shard_index", Json.int s);
               ("shard_count", Json.int count);
               ("id", Json.Str (Printf.sprintf "router-load-%d" s));
             ]))
    in
    with_lock rt.r_lock (fun () ->
        Hashtbl.replace rt.datasets key { load_line })

  let evict_request wkey =
    Json.to_string
      (Json.Obj
         [
           ("req", Json.Str "evict");
           ("dataset", Json.Str wkey);
           ("id", Json.Str "router-evict");
         ])

  (* Release the worker slices of every dataset the router's store no
     longer holds, over the connections that loaded them, and forget
     their load parameters.  A worker that is not connected holds
     nothing for this router (closing the connection released its
     slice), and a failed evict leg drops the connection the same way —
     so a worker never fails the client's evict or teardown. *)
  let release_freed rt =
    let gone =
      with_lock rt.r_lock (fun () ->
          let gone =
            Hashtbl.fold
              (fun key _ acc ->
                if Store.resolve rt.rt_store key = None then key :: acc
                else acc)
              rt.datasets []
          in
          List.iter (Hashtbl.remove rt.datasets) gone;
          gone)
    in
    if gone <> [] then
      Array.iter
        (fun w ->
          with_lock w.w_lock (fun () ->
              let dead, live =
                List.partition (fun (key, _) -> List.mem key gone) w.w_keys
              in
              w.w_keys <- live;
              List.iter
                (fun (_, wkey) ->
                  try ignore (rpc_once w (evict_request wkey) : Json.t)
                  with Worker_down _ | Worker_error _ -> ())
                dead))
        rt.workers

  (* ----------------------- cluster aggregation -------------------- *)

  let metrics_request =
    Json.to_string
      (Json.Obj
         [ ("req", Json.Str "metrics"); ("id", Json.Str "router-metrics") ])

  let worker_metrics w =
    with_lock w.w_lock (fun () ->
        let attempt () =
          ensure_conn w;
          rpc_once w metrics_request
        in
        try attempt ()
        with Worker_down _ ->
          Obs.Counter.incr Metrics.worker_redials;
          disconnect w;
          attempt ())

  (* Fraction of a process's requests answered from its result cache,
     read off its raw latency export. *)
  let hit_rate raw =
    match Json.member "histograms" raw with
    | Some (Json.Arr rows) ->
        let tot = ref 0 and hits = ref 0 in
        List.iter
          (fun r ->
            let c =
              match Json.member "count" r with
              | Some x -> Option.value ~default:0 (Json.int_ x)
              | None -> 0
            in
            tot := !tot + c;
            match Json.member "cache" r with
            | Some (Json.Str "hit") -> hits := !hits + c
            | _ -> ())
          rows;
        if !tot = 0 then 0. else float_of_int !hits /. float_of_int !tot
    | _ -> 0.

  (* The cluster view [stats] carries when answered by a router: fan
     the [metrics] op out to every worker, sum the counters (only the
     [_total] families — gauges and timers don't sum meaningfully),
     merge the raw latency histograms into cluster-wide quantiles, and
     summarize skew (per-shard busy time spread, accumulated fan-out
     straggler gap).  An unreachable worker degrades to a
     [connected: false] row — never a failed [stats]. *)
  let cluster_stats rt =
    let replies =
      Array.map
        (function Ok v -> v | Error _ -> None)
        (fan_out_workers rt (fun s ->
             match worker_metrics rt.workers.(s) with
             | j -> Some j
             | exception _ -> None))
    in
    let counter_sums : (string, float) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    let is_total name =
      let n = String.length name in
      n > 6 && String.sub name (n - 6) 6 = "_total"
    in
    (* Client-facing counts are the router's own: a worker's requests
       and errors are the router's fan-out legs, already counted once
       as the client lines that caused them.  They stay in the
       per-shard rows below. *)
    let client_facing name =
      name = "rrms_serve_requests_total" || name = "rrms_serve_errors_total"
    in
    let add_counters ?(worker = false) kvs =
      List.iter
        (fun (name, v) ->
          if is_total name && not (worker && client_facing name) then
            match Hashtbl.find_opt counter_sums name with
            | Some prev -> Hashtbl.replace counter_sums name (prev +. v)
            | None ->
                Hashtbl.replace counter_sums name v;
                order := name :: !order)
        kvs
    in
    add_counters (Obs.snapshot ());
    let worker_counters j =
      match reply_field j "metrics" with
      | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) -> match v with Json.Num x -> Some (k, x) | _ -> None)
            kvs
      | _ -> []
    in
    let busies = ref [] in
    let labeled = ref [ ("router", Telemetry.export_json rt.telemetry) ] in
    let rows =
      Array.to_list
        (Array.mapi
           (fun s reply ->
             let w = rt.workers.(s) in
             match reply with
             | None ->
                 Json.Obj
                   [
                     ("shard", Json.int s);
                     ("path", Json.Str w.w_path);
                     ("connected", Json.Bool false);
                   ]
             | Some j ->
                 let kvs = worker_counters j in
                 add_counters ~worker:true kvs;
                 let v name =
                   Option.value ~default:0. (List.assoc_opt name kvs)
                 in
                 let raw =
                   Option.value ~default:(Json.Obj [])
                     (reply_field j "latency_raw")
                 in
                 labeled := (string_of_int s, raw) :: !labeled;
                 let busy = v "rrms_serve_request_seconds" in
                 busies := busy :: !busies;
                 Json.Obj
                   [
                     ("shard", Json.int s);
                     ("path", Json.Str w.w_path);
                     ("connected", Json.Bool true);
                     ("busy_seconds", Json.float busy);
                     ("requests", Json.float (v "rrms_serve_requests_total"));
                     ("errors", Json.float (v "rrms_serve_errors_total"));
                     ("hit_rate", Json.float (hit_rate raw));
                   ])
           replies)
    in
    let live = List.length !busies in
    let busy_max = List.fold_left Float.max 0. !busies in
    let busy_min =
      if !busies = [] then 0. else List.fold_left Float.min infinity !busies
    in
    Json.Obj
      [
        ("processes", Json.int (1 + live));
        ("workers", Json.Arr rows);
        ( "counters",
          Json.Obj
            (List.map
               (fun name -> (name, Json.float (Hashtbl.find counter_sums name)))
               (List.sort compare !order)) );
        ("latency", Telemetry.merge_exports (List.rev !labeled));
        ( "skew",
          Json.Obj
            [
              ("busy_max_seconds", Json.float busy_max);
              ("busy_min_seconds", Json.float busy_min);
              ( "straggler_gap_seconds",
                Json.float (Obs.Floatc.value Metrics.straggler_gap) );
            ] );
      ]

  (* The router's protocol handler is the store's: [Server.dispatch]
     answers every request over the router's own (full-dataset) store,
     so reference bookkeeping, counters and telemetry stay the server's.
     The router supplies only the fan-out answer and its hooks. *)
  let handler rt : Server.handler =
    Server.store_handler ~telemetry:rt.telemetry
      ~router:
        {
          Server.query_pinned = query_pinned rt;
          shards = width rt;
          after_load = register_dataset rt;
          after_release = (fun () -> release_freed rt);
          stats_extra =
            (fun () ->
              [
                ( "router",
                  Json.Obj
                    [
                      ( "workers",
                        Json.Arr
                          (Array.to_list
                             (Array.map
                                (fun w ->
                                  Json.Obj
                                    [
                                      ("path", Json.Str w.w_path);
                                      ( "connected",
                                        Json.Bool
                                          (with_lock w.w_lock (fun () ->
                                               Option.is_some w.conn)) );
                                    ])
                                rt.workers)) );
                    ] );
                ("cluster", cluster_stats rt);
              ]);
        }
      rt.rt_store

  let close rt =
    Array.iter (fun w -> with_lock w.w_lock (fun () -> disconnect w)) rt.workers
end
