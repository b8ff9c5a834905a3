(** Horizontal scale-out for the query service (docs/SERVING.md,
    "Sharding & routing").

    The shards are worker processes ([rrms-serve --socket]), each
    holding the round-robin slice {!Store.shard_rows} of every
    dataset; the
    {!Router} fans [skyline] requests out to them, merges the partial
    skylines, and solves locally over the merged artifacts.

    The merge is {e certified}: the skyline of a dataset equals the
    skyline of the union of per-partition skylines
    ({!Rrms_skyline.Skyline.merge_partitions}), so the merged skyline is
    bit-identical to the unsharded one, the router's regret matrix is
    built from it by the ordinary store path, and every answer is
    byte-for-byte the single-store answer. *)

(** Router instruments (global {!Rrms_obs.Obs} registry, visible in
    [stats]). *)
module Metrics : sig
  val skyline_merges : Rrms_obs.Obs.Counter.t
  (** Merged skylines assembled from per-worker skylines — one per
      fan-out. *)

  val worker_redials : Rrms_obs.Obs.Counter.t
  (** Router reconnections to a worker (non-deterministic). *)

  val worker_failures : Rrms_obs.Obs.Counter.t
  (** Fan-out legs that failed after the one redial retry
      (non-deterministic). *)

  val straggler_gap : Rrms_obs.Obs.Floatc.t
  (** Accumulated (slowest − fastest) leg wall-time over router
      fan-outs — the skew signal [stats] reports per cluster
      (non-deterministic). *)
end

(** Fan-out router over worker processes speaking the wire protocol. *)
module Router : sig
  type t

  val create :
    ?telemetry:Telemetry.t ->
    ?domains:int ->
    ?max_inflight:int ->
    ?max_queue:int ->
    workers:string list ->
    unit ->
    t
  (** A router over the worker Unix-socket paths, in shard order:
      worker [s] of [N] is sent [load] with [shard_index = s],
      [shard_count = N].  Worker connections are dialled lazily on
      first fan-out and redialled (with the dataset loads replayed)
      once per request on transport failure — a restarted worker heals
      transparently.  The router's own store holds the full dataset and
      does the merge, solve, result caching and telemetry.
      @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] when
      [workers] is empty. *)

  val store : t -> Store.t
  (** The router's full-dataset store (drain integration, tests). *)

  val width : t -> int
  (** Number of workers. *)

  val handler : t -> Server.handler
  (** The protocol handler: plug into {!Server.start_handler} (socket
      daemon) or {!Server.run_handler_session} (stdio).  It is
      {!Server.store_handler} over the router's store — the one
      dispatcher answers every request, counts it and logs it — with
      the router's {!Server.router} hooks:
      - [query] and [batch] items over the HD algorithms fan out
        [skyline] requests and answer from merged artifacts —
        byte-identical to a single-process server; other algorithms
        run on the router's store directly.  Worker failures answer
        [shard_failure] (per query or per batch item — the session
        survives); a worker-side deadline expiry propagates as
        [deadline_exceeded].
      - a [load] records the workers' load parameters;
      - when an [evict] (or the session's teardown) frees a dataset from
        the router's store, each worker's slice is evicted too, over the
        connection that loaded it;
      - [stats] gains the [router] and [cluster] members.
      Mutation requests are rejected with the documented [read_only]
      code: the workers hold read-only slices, so a write accepted here
      would fork the router's copy away from theirs. *)

  val close : t -> unit
  (** Drop all worker connections (the workers themselves keep
      running). *)
end
