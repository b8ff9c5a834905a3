(** The artifact store and plan/result cache of the query service.

    The store owns every expensive intermediate of the RRMS pipeline and
    shares it across concurrent sessions:

    - {e datasets}, keyed by a 64-bit content hash of the loaded
      (post-transform) tuples — two sessions loading the same file, or
      two files with identical content, share one entry.  The hash is
      an FNV-1a header (m, n, attribute names) chained with one digest
      per row, in row order; each entry keeps its rows' digests, so a
      mutation carries them and digests only its fresh rows.  Entries are
      refcounted: each successful [load] takes a reference, [release]
      (the [evict] request, and session teardown) drops one, and the
      entry with all its artifacts is freed when the count reaches zero.
    - {e per-dataset artifacts}, computed once on first use and reused
      by every later query: the skyline index set, the 2D maxima-hull
      context, and regret matrices keyed by the γ they were built at.
      A γ'-query is served from a cached γ-matrix without rebuilding
      whenever γ' is an exact floating-point sub-grid of γ
      ({!Rrms_core.Discretize.subgrid_indices} +
      {!Rrms_core.Regret_matrix.select_cols}) — counted as a derived
      matrix, not a miss.
      Direction grids are not cached: each matrix build or update
      computes its own ({!Rrms_core.Discretize.grid}, a pure function
      of [(m, γ)]).
    - {e results}: the serialized deterministic part of every [Exact]
      answer, keyed by {!Protocol.cache_key}.  Degraded (budget-stopped)
      answers are never cached, so a cache hit is always bit-identical
      to an unbudgeted cold solve.  [use_cache = false] bypasses the
      read but still populates the cache.

    Admission control: at most [max_inflight] solves run concurrently;
    up to [max_queue] more wait on a condition variable; beyond that
    {!query} answers [`Overloaded] immediately (graceful shedding, the
    guard-subsystem philosophy at the service boundary).  Cache hits
    and the cheap requests bypass admission entirely.

    Every cache consults an {!Rrms_obs.Obs} counter pair
    ([rrms_serve_<kind>_{hits,misses}_total]); [stats] snapshots the
    whole registry.  All entry points are thread-safe. *)

type t

(** The serving-layer instruments, exposed so tests (and embedders) can
    assert the no-recompute contract directly: a warm query must leave
    every [*_misses] counter untouched.  All are registered in the
    global {!Rrms_obs.Obs} registry and appear in [stats]. *)
module Metrics : sig
  val datasets_loaded : Rrms_obs.Obs.Counter.t
  val dataset_hits : Rrms_obs.Obs.Counter.t
  val evictions : Rrms_obs.Obs.Counter.t
  val skyline_hits : Rrms_obs.Obs.Counter.t
  val skyline_misses : Rrms_obs.Obs.Counter.t
  val hull_hits : Rrms_obs.Obs.Counter.t
  val hull_misses : Rrms_obs.Obs.Counter.t
  val matrix_hits : Rrms_obs.Obs.Counter.t
  val matrix_misses : Rrms_obs.Obs.Counter.t

  val matrix_derived : Rrms_obs.Obs.Counter.t
  (** γ'-matrices obtained by column-selecting a cached γ-matrix. *)

  val result_hits : Rrms_obs.Obs.Counter.t
  val result_misses : Rrms_obs.Obs.Counter.t
  val overloaded : Rrms_obs.Obs.Counter.t

  val deadline_exceeded : Rrms_obs.Obs.Counter.t
  (** Queries whose end-to-end deadline — queue wait included — expired
      before the solver started. *)

  val drained : Rrms_obs.Obs.Counter.t
  (** Queries refused because the store was draining for shutdown. *)

  val queue_wait : Rrms_obs.Obs.Floatc.t
  (** Seconds spent waiting in the admission queue.  A float counter,
      so the per-request share tees into a bound {!Rrms_obs.Obs.Ctx}
      — the access log reads it from there. *)

  val resolves : Rrms_obs.Obs.Counter.t
  (** Dataset entry resolutions ({!pin}s) performed by query paths: a
      batch of [k] items adds 1, [k] single queries add [k]. *)

  val mutations : Rrms_obs.Obs.Counter.t
  (** Mutation batches applied ({!mutate} successes). *)

  val mutation_ops : Rrms_obs.Obs.Counter.t

  val results_carried : Rrms_obs.Obs.Counter.t
  (** Cached results that survived a mutation under the delta-scoped
      invalidation proof (indices remapped where needed). *)

  val results_invalidated : Rrms_obs.Obs.Counter.t
end

val create :
  ?domains:int ->
  ?max_inflight:int ->
  ?max_queue:int ->
  ?persist:Persist.t ->
  unit ->
  t
(** [create ()] makes an empty store.  [domains] is the worker-domain
    count handed to every solver and artifact build (default: the
    {!Rrms_parallel.Pool.default_size} at call time, so [RRMS_DOMAINS]
    applies).  [max_inflight] defaults to [4]; [max_queue] to [16].
    [persist] attaches a durable artifact cache ({!Persist.open_dir}):
    datasets, skylines and Exact results are written through to it and
    rehydrated on demand, so a store created over the same directory
    answers warm — bit-identically — after a restart.  Regret matrices
    and direction grids stay memory-only: they are rebuilt from the
    rehydrated skyline, which is cheaper than reading them back. *)

type loaded = {
  key : string;  (** 16-hex-digit content hash — the canonical handle *)
  dataset_name : string;
  n : int;
  m : int;
  refs : int;  (** reference count after this load *)
  already_loaded : bool;  (** true on an artifact-store hit *)
  warnings : int;  (** dropped rows under lenient CSV loading *)
}

val load :
  t ->
  ?name:string ->
  ?normalize:bool ->
  ?lenient:bool ->
  ?shard:int * int ->
  string ->
  loaded
(** [load t path] reads a CSV, applies the transforms, hashes the
    content and either joins the existing entry (incrementing its
    refcount) or creates one.  [name] (default: the dataset's own name)
    is registered as an alias usable wherever a key is expected; a
    rebound alias points to the newest load.  [shard = (s, count)]
    keeps only partition member [s] of the round-robin split into
    [count] shards — global rows ≡ s (mod count), order preserved, the
    slice a worker process owns in a sharded deployment (shard-local
    row [l] is global row [s + l·count]).  The slice happens {e after}
    the transforms and {e before} hashing, so every worker's content
    key is its own.
    @raise Rrms_guard.Guard.Error.Guard_error as
    {!Rrms_dataset.Dataset.of_csv_report}, or [Invalid_input] on a path
    that cannot be opened or read, or on a bad or empty shard slice. *)

val shard_rows : shard:int -> shards:int -> int -> int array
(** [shard_rows ~shard:s ~shards n] is member [s] of the round-robin
    split of [0..n-1] into [shards]: the ascending global indices ≡ s
    (mod shards), empty when [n <= s].  [load ~shard:(s, shards)] keeps
    exactly these rows.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] unless
    [0 <= s < shards]. *)

val shard_global : shard:int -> shards:int -> int -> int
(** [shard_global ~shard:s ~shards l] = [s + l·shards]: the global row
    of shard [s]'s local row [l] — the inverse of {!shard_rows}. *)

val add : t -> Rrms_dataset.Dataset.t -> loaded
(** [add t d] registers an in-memory dataset exactly as {!load} would
    after reading it from disk — same hashing, aliasing, refcounting and
    persistence.  WAL replay and the tests use it to register rows that
    never existed as a CSV. *)

type release =
  | Not_loaded
  | Released of { key : string; remaining : int; freed : bool }

val release : t -> string -> release
(** Drop one reference (by key or alias); frees the entry and all its
    artifacts when the count reaches zero.  [key] is the resolved
    content hash (the handle may have been an alias). *)

type outcome = {
  result : Json.t;  (** the deterministic [result] member *)
  result_text : string;
      (** [Json.to_string result], encoded once when the answer was
          made (or entered the result cache) and spliced into every
          reply that carries it *)
  cached : bool;  (** answered from the result cache *)
  cost : (string * Json.t) list;
      (** the answer's cost-provenance fields (docs/OBSERVABILITY.md,
          "Cost provenance"): [source] (["cache"] / ["persist"] /
          ["solve"]) plus, for a fresh HD solve, the paper's cost-model
          quantities — skyline size [s], [gamma_used], matrix [cells],
          fresh vs. cache-answered [probes], the [theorem4_bound].
          Ordered fields ready for [Json.Obj]; always outside [result],
          so the answer bytes never depend on provenance. *)
}

type refusal =
  [ `Overloaded | `Unknown_dataset | `Deadline_exceeded | `Draining ]
(** Why the store declined to run a query or mutation: no such dataset,
    the admission queue is full, the deadline expired while queued, or
    the store is draining for shutdown.  [Server] maps each to its wire
    error code. *)

val query :
  t ->
  Protocol.query ->
  (outcome, refusal) result
(** Answer one query: result cache → persisted result → admission →
    artifacts → solver.  The protocol [timeout] is an end-to-end
    deadline stamped on entry: a request that exhausts it waiting for
    an admission slot is refused with [`Deadline_exceeded] before any
    solver work (the solver's own expiry inside the slot still raises
    the structured [Timeout] as before).  [`Draining] is the refusal
    during graceful shutdown — cache hits are still served.
    @raise Rrms_guard.Guard.Error.Guard_error for solver-level failures
    (bad [r], budget expiry with no degraded answer, …);
    [Invalid_argument] raised by the 2D solvers on non-2D data is
    translated to a structured [Invalid_input] here. *)

(** {2 Mutations}

    {!mutate} applies a batch of {!Rrms_core.Delta.mutation}s to a
    resident dataset with sequential left-to-right semantics,
    atomically: the whole maintenance pass — new rows, content hash,
    skyline ({!Rrms_core.Delta.update_skyline}), regret matrices
    ({!Rrms_core.Regret_matrix.update}) and the delta-scoped result
    cache — is computed against a consistent snapshot and installed in
    one critical section, bumping the entry's {e generation}.  A
    replaced matrix gets a new record without the old one's pooled MRST
    probe state and HD-GREEDY scratch; the next queries build them over
    the new matrix.  Queries
    racing a mutation keep answering against the old generation (a
    valid linearization) and never pollute the new generation's caches.
    The pass reads no cell of a row the batch did not change: carried
    rows keep the validation and digest they got when they entered, so
    only fresh rows are validated and digested, and the new content key
    still equals the key the same rows would get from a fresh {!add}.

    Every artifact the pass produces is {e bit-identical} to a
    from-scratch build over the mutated rows (test/test_mutate.ml
    asserts this at 1/2/4 domains); a cached result survives only with
    a proof that a fresh solve would return the same bytes (see the
    invalidation rules in docs/DYNAMIC.md).

    When the store is persistent, the batch is journaled to the
    write-ahead log ({!Persist.Wal}) before the install, so a crash at
    any point is recoverable by replay ([expect] marks a replay itself:
    it is not journaled again, and its blobs already exist, so the
    write-once saves skip them).  The entry stays resident under its {e new} content hash;
    the old hash and all name aliases re-point to it. *)

type mutated = {
  old_key : string;
  new_key : string;  (** content hash of the mutated dataset *)
  generation : int;
  n : int;  (** rows after the mutation *)
  m : int;
  ops_applied : int;
  skyline_path : string option;
      (** {!Rrms_core.Delta.path_name} of the maintenance path taken;
          [None] when no skyline was materialized (it stays lazy) *)
  matrices_updated : int;
  matrices_dropped : int;
  results_kept : int;
  results_evicted : int;
}

val mutate :
  ?expect:string ->
  ?timeout:float ->
  t ->
  dataset:string ->
  Rrms_core.Delta.mutation list ->
  (mutated, refusal) result
(** Apply one mutation batch (admission-gated like a solve; [timeout]
    is the same end-to-end deadline a query gets).  On any failure —
    bad index, dimension mismatch, emptied dataset, budget expiry —
    nothing is installed and nothing is journaled.  [expect] replays a
    write-ahead-log record: the batch is not journaled, and unless it
    lands on exactly that content key nothing is installed or saved.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] on a
    malformed batch (including one that would empty the dataset), and
    on a replay that lands on another key than [expect]. *)

val set_draining : t -> unit
(** Enter drain mode: every subsequent solve is refused with
    [`Draining]; in-flight solves, cached answers and the cheap
    requests (load/stats/ping) continue.  Irreversible. *)

val draining : t -> bool

val stats : t -> Json.t
(** Live snapshot: per-dataset artifact inventory, admission state, and
    the full {!Rrms_obs.Obs.snapshot}. *)

val session_release_all : t -> string list -> unit
(** Teardown helper: drop one reference per listed key (a session's
    loads), ignoring already-freed entries. *)

val resolve : t -> string -> string option
(** Content hash behind a key-or-alias handle, if loaded — the access
    log records this so its lines are join-able with [stats]. *)

val with_admission : t -> (unit -> 'a) -> ('a, [ `Overloaded ]) result
(** The raw admission gate (exposed for the burst tests): run the thunk
    in an in-flight slot, waiting in the bounded queue when saturated,
    shedding with [`Overloaded] when the queue is full too. *)

val admission_state : t -> int * int
(** [(inflight, queued)] right now. *)

(** {2 Pinned handles}

    A pin is a temporary reference to a resolved entry, taken and
    dropped under the store lock.  Query paths pin for their whole
    duration, so a concurrent release/evict — from another session or
    another shard — can never free an entry mid-solve; before pins
    existed, exactly that race could underflow the refcount.  A pin also
    amortizes resolution: the batch request pins once and runs every
    item against the same handle. *)

type handle
(** A pinned store entry.  Must be balanced with {!unpin}. *)

val pin : t -> string -> handle option
(** [pin t name] resolves a key-or-alias and takes a reference, in one
    atomic step; [None] when not loaded.  Counts in
    [rrms_serve_dataset_resolves_total]. *)

val unpin : t -> handle -> unit
(** Drop a pin.  Frees the entry when it was the last reference and the
    entry is still resident (a key re-bound to fresh identical content
    since the pin is left untouched). *)

val pinned_key : handle -> string
(** The content hash of the pinned entry. *)

val pinned_dims : handle -> int * int
(** [(n, m)] of the pinned entry's dataset. *)

val pinned_rows : handle -> Rrms_geom.Vec.t array
(** The pinned entry's tuples (post-transform, in load order) — shared,
    not copied: callers must not mutate.  The router merges per-worker
    skylines against these rows.  Mutations replace the array
    wholesale (never in place), so a snapshot stays internally
    consistent even if the entry mutates afterwards. *)

val pinned_dataset : handle -> Rrms_dataset.Dataset.t
(** The pinned entry's current dataset. *)

val pinned_generation : handle -> int
(** The entry's mutation generation (0 at load). *)

val query_pinned :
  t ->
  handle ->
  Protocol.query ->
  (outcome, refusal) result
(** {!query} against an already-pinned entry (the query's [dataset]
    field is ignored).  Never answers [`Unknown_dataset]; the union
    matches {!query} so callers can share error handling. *)

(** {2 Shard hooks}

    The router ({!Shard.Router}) merges its workers' skylines with
    {!Rrms_skyline.Skyline.merge_partitions} and installs the result
    here.  A subsequent {!query_pinned} then builds the regret matrix
    and runs [solve_prepared] on the ordinary path, so the routed answer
    is byte-identical to the unsharded one: same code path,
    bit-identical inputs. *)

val skyline_of : t -> handle -> int array
(** The entry's skyline artifact, computing (and persisting) it on
    first use — what a worker answers a [skyline] request with. *)

val artifacts_cached : handle -> gamma:int -> bool * bool
(** [(skyline_cached, matrix_cached_at_gamma)] — lets the router skip
    the fan-out when its store already holds the merged skyline. *)

val preload_skyline : handle -> int array -> unit
(** Install a merged skyline as the entry's artifact, unless one is
    already present — first writer wins, later writers must have
    produced the identical array by the merge contract.  The router's
    store has no state directory, so nothing is persisted.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] on an
    empty or out-of-range index set. *)
