(** Request-level telemetry for the serving layer.

    One value aggregates, across every session of a server:

    - a family of {!Rrms_obs.Obs.Hist} latency histograms keyed by
      (algo, cache outcome, status), folded into the [stats] response
      as deterministic p50/p95/p99 quantiles;
    - an optional JSONL {e access log}: one ["access"] record per query
      request (ids, parameters, cache outcome, queue wait, solve time,
      and the probe/cell counts read from the request's
      {!Rrms_obs.Obs.Ctx});
    - optional {e slow-query capture}: with [slow_ms] set, a request at
      or over the threshold writes a ["slow_query"] record carrying its
      full span trace (captured per-request, so the Counters level
      suffices — no global Full buffer required).

    All entry points are thread-safe. *)

type t

val create : ?access_log:string -> ?slow_ms:float -> unit -> t
(** [access_log] opens (truncating) the JSONL sink; [slow_ms] enables
    slow-query capture at the given threshold in milliseconds (records
    go to the access log when configured, stderr otherwise). *)

val default : t
(** Shared instance used when a server is not handed one explicitly —
    histograms keep accumulating so [stats] always has latency data.
    Has no access log and no slow-query threshold. *)

val capture_spans : t -> bool
(** Whether per-request span capture is wanted (i.e. [slow_ms] set) —
    the server passes this into {!Rrms_obs.Obs.Ctx.create}. *)

val close : t -> unit
(** Close the access-log channel, if any. *)

(** Everything the server knows about one finished query request. *)
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
  shards : int;
      (** fan-out width of the answering path: [0] for an unsharded
          store (the field is then omitted from access-log lines, so
          pre-shard log consumers see unchanged records) *)
  merge : string;
      (** the answer's merge path through a router — ["certified"] or
          ["gather"] — and [""] for an unsharded answer (omitted from
          access-log lines) *)
}

val record : t -> request -> spans:Rrms_obs.Obs.Trace.event list -> unit
(** Observe the request in its histogram, append the access-log line,
    and emit a slow-query record when the threshold says so. *)

val span_json : Rrms_obs.Obs.Trace.event -> Json.t
(** One captured span as JSON — name, domain, depth, start, dur, the
    span/parent/trace ids when the span was minted under a traced
    context, and its attrs.  The shape shared by slow-query records,
    shard-worker span dumps and the router's merged trace. *)

val span_of_json : Json.t -> Rrms_obs.Obs.Trace.event
(** Inverse of {!span_json} — the router parses worker span dumps back
    into events to splice them into its merged trace.  Missing fields
    default to empty/zero; never raises on a malformed span. *)

val to_json : t -> Json.t
(** [{"histograms": [{algo, cache, status, count, p50_ms, p95_ms,
    p99_ms, max_ms, sum_ms}], "access_log_lines": n, "slow_queries":
    n, "access_log"?: path}] — histogram entries sorted by key. *)

val export_json : t -> Json.t
(** Raw, mergeable histogram export — the per-process half of the wire
    [metrics] op: [{"histograms": [{algo, cache, status, count, sum,
    max, buckets}]}] with durations in seconds and raw bucket counts,
    so merging across processes is exact. *)

val merge_exports : (string * Json.t) list -> Json.t
(** Merge per-process {!export_json} values (labelled by shard — the
    router uses ["router"], ["0"], ["1"], …) into the cluster latency
    view: one ["all"]-labelled quantile row per key with histograms
    merged across processes ({!Rrms_obs.Obs.Hist.merge} is associative,
    so this equals a single process observing the union), followed by
    the per-process rows under their own labels. *)
