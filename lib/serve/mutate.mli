(** Serve-protocol front-end of the mutation subsystem
    (docs/DYNAMIC.md).

    Translates the wire-level {!Protocol.mutation_op}s into
    {!Rrms_core.Delta.mutation}s, runs {!Store.mutate} under a request
    context with the same telemetry/error-code discipline as the query
    path, and drives write-ahead-log replay at startup. *)

val run :
  ?trace:Protocol.trace ->
  telemetry:Telemetry.t ->
  session_id:string ->
  request_id:string ->
  dataset_key:string ->
  elapsed_ms:(unit -> float) ->
  timeout:float option ->
  Store.t ->
  dataset:string ->
  Protocol.mutation_op array ->
  (Json.t, string * string) result
(** Execute one mutation request.  Total: every failure — unknown
    dataset, shedding, deadline, malformed batch, solver guard error —
    becomes the documented [(code, message)] pair.  Records an
    access-log line with [algo = "mutate"] and [r] = op count; with a
    [trace] envelope the work runs under a ["serve.mutate"] span bound
    to the originating trace, and the access record carries the
    skyline maintenance path as its [merge] field. *)

type replayed = {
  records : int;  (** valid WAL records scanned *)
  applied : int;  (** records replayed to the expected content hash *)
  skipped : int;
      (** records dropped: base dataset not rehydratable, replay
          failure, or a post-replay content hash that contradicts the
          journaled one (integrity stop) *)
}

val replay : Store.t -> Persist.t -> replayed
(** Replay the directory's write-ahead delta log into the store —
    called by [rrms-serve] after opening a [--state-dir], before
    serving.  For each record the base dataset is resolved (resident,
    or rehydrated from its blob); the mutation is re-applied with
    [journal:false]; and the resulting content hash must equal the
    journaled [new_key] — bit-identity of the rehydrated state is
    checked, not assumed.  Never raises. *)
