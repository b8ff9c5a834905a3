(* Request-level telemetry for the serving layer: keyed latency
   histograms, the JSONL access log, and slow-query capture.

   One [t] aggregates across every session of a server.  The histogram
   family is keyed by (algo, cache outcome, status) — the three axes
   that explain a latency: which solver ran, whether it ran at all
   (hit/derived/miss), and whether it finished exact, degraded or
   failed.  Quantiles come from {!Rrms_obs.Obs.Hist}, so they are
   deterministic in the multiset of observations.

   The access log is newline-delimited JSON, one ["access"] record per
   query request, written and flushed as the response goes out; when
   [slow_ms] is set, a request at or over the threshold additionally
   writes a ["slow_query"] record carrying its full span trace (the
   per-request capture works at the Counters level — no global Full
   trace buffer needed). *)

module Obs = Rrms_obs.Obs

type key = { k_algo : string; k_cache : string; k_status : string }

module Hists = Hashtbl.Make (struct
  type t = key

  let equal a b =
    String.equal a.k_algo b.k_algo
    && String.equal a.k_cache b.k_cache
    && String.equal a.k_status b.k_status

  let hash = Hashtbl.hash
end)

type t = {
  mutex : Mutex.t; (* guards hists, the channel, and the line counters *)
  hists : Obs.Hist.t Hists.t;
  access : out_channel option;
  access_path : string option;
  slow_ms : float option;
  mutable access_lines : int;
  mutable slow_queries : int;
}

let create ?access_log ?slow_ms () =
  {
    mutex = Mutex.create ();
    hists = Hists.create 16;
    access = Option.map open_out access_log;
    access_path = access_log;
    slow_ms;
    access_lines = 0;
    slow_queries = 0;
  }

(* The shared instance behind every [?telemetry] default: a server that
   never configured telemetry still accumulates latency histograms, so
   [stats] always has quantiles to report. *)
let default = create ()

let capture_spans t = t.slow_ms <> None
let close t = match t.access with Some oc -> close_out_noerr oc | None -> ()

type request = {
  request_id : string;
  session_id : string;
  algo : string;
  dataset : string;  (** resolved content hash when loaded, else the handle *)
  r : int;
  gamma : int;
  cache : string;  (** ["hit"] | ["derived"] | ["miss"] *)
  status : string;  (** ["ok"] | ["degraded"] | ["error"] *)
  error_code : string option;
  queue_wait_ms : float;
  elapsed_ms : float;
  probes : float;
  cells : float;
  shards : int;  (** fan-out width; [0] for an unsharded store *)
  merge : string;  (** answer's merge path; [""] for an unsharded answer *)
}

let hist_for t k =
  match Hists.find_opt t.hists k with
  | Some h -> h
  | None ->
      let h = Obs.Hist.create () in
      Hists.add t.hists k h;
      h

let span_json (ev : Obs.Trace.event) =
  Json.Obj
    ([
       ("name", Json.Str ev.Obs.Trace.name);
       ("domain", Json.int ev.Obs.Trace.domain);
       ("depth", Json.int ev.Obs.Trace.depth);
       ("start", Json.float ev.Obs.Trace.start);
       ("dur", Json.float ev.Obs.Trace.dur);
     ]
    @ (let opt key v =
         if v = "" then [] else [ (key, Json.Str v) ]
       in
       opt "span_id" ev.Obs.Trace.span_id
       @ opt "parent_id" ev.Obs.Trace.parent_id
       @ opt "trace_id" ev.Obs.Trace.trace_id)
    @ [
        ( "attrs",
          Json.Obj
            (List.map (fun (k, v) -> (k, Json.Str v)) ev.Obs.Trace.attrs) );
      ])

(* Inverse of [span_json], for the router splicing worker span dumps
   into its merged trace.  Missing fields default (empty / zero) — a
   malformed span never fails the merge, it just carries less. *)
let span_of_json j =
  let str f = match Json.member f j with Some (Json.Str s) -> s | _ -> "" in
  let int f =
    match Json.member f j with
    | Some x -> Option.value ~default:0 (Json.int_ x)
    | None -> 0
  in
  let num f = match Json.member f j with Some (Json.Num v) -> v | _ -> 0. in
  let attrs =
    match Json.member "attrs" j with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) -> match v with Json.Str s -> Some (k, s) | _ -> None)
          kvs
    | _ -> []
  in
  {
    Obs.Trace.name = str "name";
    domain = int "domain";
    depth = int "depth";
    start = num "start";
    dur = num "dur";
    attrs;
    span_id = str "span_id";
    parent_id = str "parent_id";
    trace_id = str "trace_id";
  }

let request_fields r =
  [
    ("request_id", Json.Str r.request_id);
    ("session_id", Json.Str r.session_id);
    ("algo", Json.Str r.algo);
    ("dataset", Json.Str r.dataset);
    ("r", Json.int r.r);
    ("gamma", Json.int r.gamma);
    ("cache", Json.Str r.cache);
    ("status", Json.Str r.status);
  ]
  @ (match r.error_code with
    | Some c -> [ ("error_code", Json.Str c) ]
    | None -> [])
  @ (if r.shards > 0 then [ ("shards", Json.int r.shards) ] else [])
  @ (if r.merge <> "" then [ ("merge", Json.Str r.merge) ] else [])
  @ [
      ("queue_wait_ms", Json.float r.queue_wait_ms);
      ("elapsed_ms", Json.float r.elapsed_ms);
      ("probes", Json.float r.probes);
      ("cells", Json.float r.cells);
    ]

let access_line r =
  Json.to_string (Json.Obj (("type", Json.Str "access") :: request_fields r))

let slow_line r spans =
  Json.to_string
    (Json.Obj
       ((("type", Json.Str "slow_query") :: request_fields r)
       @ [ ("spans", Json.Arr (List.map span_json spans)) ]))

let record t (r : request) ~spans =
  let k = { k_algo = r.algo; k_cache = r.cache; k_status = r.status } in
  Mutex.lock t.mutex;
  let h = hist_for t k in
  Obs.Hist.observe h (r.elapsed_ms /. 1000.);
  (match t.access with
  | Some oc ->
      output_string oc (access_line r);
      output_char oc '\n';
      flush oc;
      t.access_lines <- t.access_lines + 1
  | None -> ());
  (match t.slow_ms with
  | Some threshold when r.elapsed_ms >= threshold ->
      t.slow_queries <- t.slow_queries + 1;
      let line = slow_line r spans in
      (match t.access with
      | Some oc ->
          output_string oc line;
          output_char oc '\n';
          flush oc
      | None -> prerr_endline line)
  | Some _ | None -> ());
  Mutex.unlock t.mutex

let quantile_ms h q = 1000. *. Obs.Hist.quantile h q

(* ------------------------------------------------------------------ *)
(* Raw (mergeable) export and the cluster merge — the two halves of the
   wire [metrics] op.  Export carries seconds and raw bucket counts, so
   a router merging N worker exports gets exactly the histogram a
   single process observing the union would hold. *)

let sorted_entries t =
  Mutex.lock t.mutex;
  let entries = Hists.fold (fun k h acc -> (k, h) :: acc) t.hists [] in
  Mutex.unlock t.mutex;
  (* [compare] on keys orders by algo, then cache, then status. *)
  List.sort (fun ((a : key), _) (b, _) -> compare a b) entries

let key_fields k =
  [
    ("algo", Json.Str k.k_algo);
    ("cache", Json.Str k.k_cache);
    ("status", Json.Str k.k_status);
  ]

let export_json t =
  Json.Obj
    [
      ( "histograms",
        Json.Arr
          (List.map
             (fun (k, h) ->
               Json.Obj
                 (key_fields k
                 @ [
                     ("count", Json.int (Obs.Hist.count h));
                     ("sum", Json.float (Obs.Hist.sum h));
                     ("max", Json.float (Obs.Hist.max_value h));
                     ( "buckets",
                       Json.Arr
                         (Array.to_list
                            (Array.map Json.int (Obs.Hist.buckets h))) );
                   ]))
             (sorted_entries t)) );
    ]

let hist_of_export j =
  let str f = match Json.member f j with Some (Json.Str s) -> s | _ -> "" in
  let int f =
    match Json.member f j with
    | Some x -> Option.value ~default:0 (Json.int_ x)
    | None -> 0
  in
  let num f =
    match Json.member f j with Some (Json.Num v) -> v | _ -> 0.
  in
  let buckets =
    match Json.member "buckets" j with
    | Some (Json.Arr l) ->
        Array.of_list
          (List.map (fun x -> Option.value ~default:0 (Json.int_ x)) l)
    | _ -> [||]
  in
  ( { k_algo = str "algo"; k_cache = str "cache"; k_status = str "status" },
    Obs.Hist.import ~count:(int "count") ~sum:(num "sum")
      ~max_value:(num "max") ~buckets )

(* One histogram's quantile row, as [stats] reports it. *)
let row_fields k h =
  key_fields k
  @ [
      ("count", Json.int (Obs.Hist.count h));
      ("p50_ms", Json.float (quantile_ms h 0.5));
      ("p95_ms", Json.float (quantile_ms h 0.95));
      ("p99_ms", Json.float (quantile_ms h 0.99));
      ("max_ms", Json.float (1000. *. Obs.Hist.max_value h));
      ("sum_ms", Json.float (1000. *. Obs.Hist.sum h));
    ]

let to_json t =
  let rows =
    List.map (fun (k, h) -> Json.Obj (row_fields k h)) (sorted_entries t)
  in
  Mutex.lock t.mutex;
  let access_lines = t.access_lines and slow_queries = t.slow_queries in
  Mutex.unlock t.mutex;
  Json.Obj
    ([
       ("histograms", Json.Arr rows);
       ("access_log_lines", Json.int access_lines);
       ("slow_queries", Json.int slow_queries);
     ]
    @
    match t.access_path with
    | Some p -> [ ("access_log", Json.Str p) ]
    | None -> [])

let summary_row ~shard k h =
  Json.Obj (("shard", Json.Str shard) :: row_fields k h)

(* Merge per-process exports into the cluster latency view: one
   ["all"]-labelled row per key (histograms merged across processes,
   quantiles recomputed — identical to a single process observing the
   union), followed by the per-process rows under their shard labels,
   in the given order. *)
let merge_exports labeled =
  let parse (label, j) =
    match Json.member "histograms" j with
    | Some (Json.Arr rows) -> List.map (fun r -> (label, hist_of_export r)) rows
    | _ -> []
  in
  let per_shard = List.concat_map parse labeled in
  let merged = Hists.create 16 in
  let order = ref [] in
  List.iter
    (fun (_, (k, h)) ->
      match Hists.find_opt merged k with
      | Some prev -> Hists.replace merged k (Obs.Hist.merge prev h)
      | None ->
          Hists.replace merged k h;
          order := k :: !order)
    per_shard;
  let keys = List.sort (fun (a : key) b -> compare a b) (List.rev !order) in
  let all_rows =
    List.map (fun k -> summary_row ~shard:"all" k (Hists.find merged k)) keys
  in
  let shard_rows =
    List.map (fun (label, (k, h)) -> summary_row ~shard:label k h) per_shard
  in
  Json.Obj [ ("histograms", Json.Arr (all_rows @ shard_rows)) ]
