(** Serve-protocol front-end of the mutation subsystem
    (docs/DYNAMIC.md).

    Translates the wire-level {!Protocol.mutation_op}s into
    {!Rrms_core.Delta.mutation}s, renders a {!Store.mutated} as the
    response's [result], and drives write-ahead-log replay at startup.
    The request itself runs through {!Server}'s one per-request runner,
    like a query. *)

val ops_of_protocol :
  Protocol.mutation_op array -> Rrms_core.Delta.mutation list
(** The wire ops as {!Rrms_core.Delta} mutations, in order. *)

val summary_json : Store.mutated -> Json.t
(** The [result] of a successful mutation: new and old content key,
    generation, dimensions, ops applied, the skyline maintenance path
    (when a skyline was materialized) and the artifact upkeep counts. *)

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
    serving.  For each record the base dataset is resolved — a
    resident entry under exactly that key, never an alias a later
    mutation left behind, else rehydrated from its blob — and the
    mutation is re-applied with [Store.mutate ~expect:new_key]: unless
    the resulting content hash equals the journaled one, the record is
    skipped and nothing is installed, saved or renamed (a rehydrated
    base is registered only once its record is known to land).
    Bit-identity of the rehydrated state is checked, not assumed.
    Never raises. *)
