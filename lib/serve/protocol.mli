(** Wire protocol of the RRMS query service (docs/SERVING.md).

    Line-delimited JSON: one request object per line, one response
    object per line, in order.  Every request may carry an ["id"]
    member (any JSON value) which is echoed verbatim in the response —
    the standard correlation idiom, so a client may pipeline.

    Requests are [{"req": <kind>, ...}] with kinds [load], [query],
    [batch], [skyline], [stats], [evict], [ping], [shutdown].
    Responses are either

    {v {"id":…,"ok":true,"cached":…,"elapsed_ms":…,"result":{…}} v}

    or [{"id":…,"ok":false,"error":{"code":…,"message":…}}].  The
    [result] member is the deterministic part: for a given loaded
    dataset and query parameters it is byte-identical whether it came
    from a solver run or the result cache (test/test_serve.ml asserts
    this); [cached] and [elapsed_ms] are the per-call metadata.
    [elapsed_ms] has microsecond resolution: integer digits and three
    decimals. *)

type algo =
  | A2d  (** the published 2D DP, ["2d"] *)
  | A2d_exact  (** corrected exact 2D variant, ["2d-exact"] *)
  | Sweepline  (** quadratic exact 2D baseline, ["sweepline"] *)
  | Hd_rrms  (** Algorithm 4, ["hd-rrms"] *)
  | Hd_greedy  (** matrix-greedy ablation, ["hd-greedy"] *)
  | Greedy  (** LP-based VLDB'10 baseline, ["greedy"] *)
  | Cube  (** discretization baseline, ["cube"] *)

val algo_of_string : string -> algo option
val algo_to_string : algo -> string

type query = {
  dataset : string;  (** store key or dataset name (see {!Store}) *)
  algo : algo;
  r : int;
  gamma : int;  (** grid resolution; meaningful for the HD algorithms *)
  timeout : float option;  (** per-request wall-clock budget, seconds *)
  max_cells : int option;  (** per-request regret-matrix cell cap *)
  max_probes : int option;  (** per-request probe/iteration cap *)
  use_cache : bool;  (** [false] forces a fresh solve (cache bypass) *)
  explain : bool;
      (** echo the per-answer cost-provenance record in the response
          envelope (["cost"] member, a sibling of ["result"] — the
          [result] bytes are unchanged) *)
}

(** Distributed-trace envelope (docs/OBSERVABILITY.md, "Cluster tracing
    & metrics").  Any request may carry a ["trace"] object:
    [{"id": …, "parent": …, "request_id": …, "session_id": …,
    "deadline": …}] with only [id] required.  The receiving server
    binds it into the request's {!Rrms_obs.Obs.Ctx}, so spans and
    counter deltas recorded there carry the originating trace id; a
    router injects one into every fan-out leg and batch item.  The
    envelope never participates in the result cache and never changes
    the [result] bytes. *)
type trace = {
  trace_id : string;  (** wire field ["id"]; never empty *)
  parent_span : string;  (** caller's span id — the cross-process edge *)
  origin_request : string;  (** baggage: originating request id *)
  origin_session : string;  (** baggage: originating session id *)
  deadline : float option;
      (** baggage: originating absolute deadline budget, seconds *)
}

val trace_member : trace -> string * Json.t
(** The [("trace", {...})] request member encoding [t] — what a router
    splices into fan-out requests. *)

type mutation_op =
  | Op_insert of float array  (** append a tuple (["insert"]) *)
  | Op_delete of int  (** delete the tuple at this index (["delete"]) *)
  | Op_upsert of int * float array
      (** replace the tuple at this index (["upsert"]) *)

type load = {
  path : string;
  name : string option;  (** alias for later [query] requests *)
  normalize : bool;
  lenient : bool;  (** CSV {!Rrms_dataset.Dataset.load_mode} *)
  shard : (int * int) option;
      (** [(shard_index, shard_count)]: keep only the round-robin
          partition member — what a shard worker loads (see
          {!Store.load}) *)
}

type request =
  | Load of load
  | Query of query
  | Batch of { dataset : string; items : (query, string * string) result array }
      (** One dataset resolve amortized over many queries.  Items are
          parsed independently: a malformed item becomes its per-item
          [(code, message)] error and the rest still run.  Items
          inherit the batch [dataset] (repeating it verbatim is
          allowed; contradicting it is a per-item error).  At most
          {!max_batch_items} items. *)
  | Mutate of {
      dataset : string;
      ops : mutation_op array;
      timeout : float option;
    }
      (** A dataset mutation: the single-op kinds [insert] / [delete] /
          [upsert] (fields ["values"] / ["index"] on the request
          itself) and the batched kind [mutate] (an ["ops"] array of
          [{"op": …, "index": …, "values": …}] objects, at most
          {!max_batch_items}) all parse to this.  Ops apply with
          sequential left-to-right semantics, atomically: unlike batch
          query items, one malformed op fails the whole request
          ([bad_request]), and a runtime failure (bad index, dimension
          mismatch) leaves the dataset untouched.  Indices refer to the
          dataset's current row order at each step. *)
  | Skyline of { dataset : string; timeout : float option }
      (** The dataset's skyline indices — the per-shard half of the
          router fan-out.  Shard-local indices when the dataset was
          loaded with [shard]. *)
  | Stats
  | Metrics
      (** The process's metric snapshot as JSON: every registered
          {!Rrms_obs.Obs} counter/gauge/timer plus the telemetry
          histogram family in raw (mergeable) form.  A router answers
          by fanning out and merging — counters sum, histograms merge
          associatively — into the cluster-wide view. *)
  | Evict of { dataset : string }
  | Ping
  | Shutdown

val max_batch_items : int
(** Hard cap on batch size (1024): a bound on per-request memory, not a
    throughput knob. *)

(** Stable error codes of the protocol (docs/SERVING.md lists them):
    [parse], [bad_request], [invalid_input], [timeout],
    [resource_limit], [numerical], [unknown_dataset], [overloaded],
    [shard_failure], [read_only], [internal].  [read_only] is the
    documented rejection for mutation ops sent to an endpoint without
    writable state — the shard router fans out over read-only worker
    slices, so mutations must go to the workers' owning store. *)

exception Shard_failure of string
(** A shard worker became unreachable or answered an error during a
    router fan-out.  Raised by the shard layer, mapped by
    {!error_of_exn} to the [shard_failure] wire code — always a
    per-query (or per-batch-item) error, never a dropped session. *)

val error_code_of_guard : Rrms_guard.Guard.Error.t -> string
(** The four structured {!Rrms_guard.Guard.Error.t} classes map to
    [invalid_input] / [timeout] / [resource_limit] / [numerical] —
    the same partition as the CLI exit codes. *)

val error_of_exn : exn -> (string * string) option
(** The shared exception→[(code, message)] mapping used by the server,
    the batch per-item path and the shard router, so a given failure
    reports the same wire error everywhere.  [None] for exceptions that
    are not request-level errors. *)

type parsed = {
  id : Json.t;  (** the request's ["id"], [Null] when absent *)
  req : (request, string * string) result;
      (** parsed request, or [(code, message)] — [parse] for malformed
          JSON, [bad_request] for a well-formed object that is not a
          valid request *)
  trace : trace option;
      (** the request's ["trace"] envelope, when present and valid *)
}

val parse_request : string -> parsed
(** Total: never raises.  The [id] is recovered even from requests
    whose body is invalid, so the error response still correlates. *)

val cache_key : query -> string
(** Canonical result-cache key.  Only the parameters that select the
    answer participate — [algo], [r], and [gamma] for the grid-based
    algorithms — never budgets or cache flags, so a budgeted request
    can be answered from a cache entry computed without budgets. *)

val algo_of_cache_key : string -> algo option
(** The [algo] a {!cache_key} names: [algo_of_cache_key (cache_key q)
    = Some q.algo].  [None] for a string that does not start with
    [algo=<name>;] for a known algorithm name. *)

val budget_of : query -> Rrms_guard.Guard.Budget.t
(** The solver budget a query's [timeout], [max_cells] and [max_probes]
    describe ({!Rrms_guard.Guard.Budget.unlimited} when none is set).
    The timeout clock starts at this call. *)

val ok_response :
  ?cost:Json.t -> id:Json.t -> cached:bool -> elapsed_ms:float -> Json.t ->
  string
(** Serialize a success line; the last argument is [result].  [cost]
    (the [explain: true] provenance echo) is emitted as a sibling of
    [result], so the [result] bytes — the cached, byte-compared part —
    are identical with or without it.  The envelope is written directly
    into one buffer (a {!Json.Raw} result is copied in as is);
    [elapsed_ms] is printed with three decimals, e.g. [0.004]. *)

val error_response : id:Json.t -> code:string -> message:string -> string
