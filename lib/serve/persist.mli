(** Durable content-addressed artifact cache of the query service.

    A {!t} manages one state directory ([rrms-serve --state-dir]) of
    self-validating blobs, one artifact per file:

    - [dataset-<key>.blob] — the loaded (post-transform) tuples,
    - [skyline-<key>.blob] — the skyline index set,
    - [result-<key>-<h>.blob] — one serialized [Exact] answer,

    where [<key>] is the store's 16-hex-digit FNV-1a content hash, so a
    blob written by one process is addressable by any later one that
    loads the same dataset content.  Only artifacts that are cheaper to
    read back than to recompute are kept: regret matrices and direction
    grids are rebuilt from a rehydrated skyline (one O(s·|F|·m) pass),
    which is faster than decoding them.  Their former kind bytes (3 and
    4) are retired, so such a blob left by an older build is discarded
    and counted corrupt once, by the first startup scan.

    {b Write protocol.}  Blobs are write-once: a save whose final name
    already exists does nothing — the name is a content hash, so the
    bytes would be identical — and is neither counted in
    [rrms_serve_persist_writes_total] nor given a {!Fault} write
    ordinal.  Any other save writes a private temp file in the same
    directory, [fsync]s it, atomically renames it over the final name,
    then [fsync]s the directory.  A crash — including SIGKILL —
    can therefore leave only (a) the complete old state, (b) the
    complete new state, or (c) a leftover temp file, never a
    half-written blob under the final name.  Saves never raise: a full
    disk or permission error is counted
    ([rrms_serve_persist_write_errors_total]) and the service continues
    memory-only.

    {b Blob format.}  A fixed header (magic, format version, kind,
    payload length, 64-bit FNV-1a payload checksum) followed by the
    payload.  Loads verify all five fields; any mismatch — torn write,
    flipped bit, wrong version, truncation — discards the blob
    (unlinking it, counting it in
    [rrms_serve_persist_corrupt_blobs_total]) and returns [None], so a
    corrupt blob is never rehydrated.

    {b Startup scan.}  {!open_dir} creates the directory if needed,
    deletes leftover temp files (crash litter from an interrupted
    write), and validates every [*.blob] header + checksum, unlinking
    and counting the corrupt ones.  Artifacts are {e not} decoded at
    scan time — rehydration stays lazy, on first demand.  The scan and
    every load share one header + checksum validator.

    Rehydrated artifacts are decoded from the exact bytes the original
    process serialized (IEEE bits for every float), so answers served
    from a rehydrated artifact are bit-identical to the cold solve that
    produced it — the same contract the in-memory caches keep. *)

type t

module Metrics : sig
  val writes : Rrms_obs.Obs.Counter.t
  (** Blobs actually written; a write-once save skipped because the
      blob already exists does not count. *)

  val write_errors : Rrms_obs.Obs.Counter.t

  val rehydrated : Rrms_obs.Obs.Counter.t
  (** Blobs successfully loaded and decoded. *)

  val corrupt : Rrms_obs.Obs.Counter.t
  (** Blobs discarded (scan or load time) as torn / corrupt /
      wrong-version — the chaos drill asserts this stays 0 on a clean
      SIGKILL-and-restart cycle. *)

  val partial_cleaned : Rrms_obs.Obs.Counter.t
  (** Leftover temp files removed by the startup scan. *)

  val blobs_scanned : Rrms_obs.Obs.Counter.t
  (** Blob files examined (validated) by the startup scan — with
      [corrupt], gives the scan's discard rate. *)

  val rehydrate_seconds : Rrms_obs.Obs.Timer.t
  (** Latency of one blob load + decode attempt (hits and misses
      alike) — the rehydration cost [stats] exposes. *)

  val wal_appends : Rrms_obs.Obs.Counter.t
  (** Mutation records durably appended to the write-ahead log. *)

  val wal_replayed : Rrms_obs.Obs.Counter.t
  (** Mutation records replayed from the log at rehydration. *)

  val wal_torn : Rrms_obs.Obs.Counter.t
  (** Torn / corrupt log tails detected (and truncated away by the
      next append). *)
end

(** Fault injection for the durability layer, mirroring
    {!Rrms_parallel.Fault}: [RRMS_SERVE_FAULT] arms a process-wide
    fault that fires inside {!t}'s write path, which is how tests and
    CI kill the daemon mid-write and prove recovery. *)
module Fault : sig
  type mode =
    | Crash of int
        (** [crash@N]: on the Nth blob write of the process (saves
            skipped as write-once do not count), persist
            half the payload to the temp file and [_exit 137] — the
            SIGKILL-mid-write scenario. *)
    | Torn of int option
        (** [torn_write] (every write) or [torn_write@N] (the Nth
            only): complete the rename with a truncated payload, so the
            blob exists but fails validation — the lying-disk
            scenario. *)
    | Stall of float
        (** [stall@MS]: sleep [MS] milliseconds before each write —
            slow-disk latency injection (keeps all results exact). *)

  val set : mode -> unit
  val clear : unit -> unit
  val active : unit -> bool

  val configure_from_env : unit -> unit
  (** Parse [RRMS_SERVE_FAULT] ([crash@N] | [torn_write] |
      [torn_write@N] | [stall@MS]) and arm it; malformed or absent
      values leave injection disabled.  Called by [rrms-serve] at
      startup and by {!open_dir}. *)
end

type scan = {
  valid : int;  (** blobs that passed header + checksum validation *)
  corrupt : int;  (** blobs discarded (and unlinked) by the scan *)
  partial : int;  (** leftover temp files removed *)
}

val open_dir : string -> t
(** Open (creating if absent) a state directory and run the startup
    scan.  @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input]
    when the path exists and is not a directory, or cannot be
    created. *)

val root : t -> string

val last_scan : t -> scan
(** The startup scan's tallies — surfaced in the [stats] response so a
    chaos drill can assert "zero corrupt blobs loaded" from outside. *)

(** {2 Artifact codecs} — every [save_*] is atomic, write-once and
    non-raising; every [load_*] returns [None] for missing {e or} corrupt (counted,
    unlinked) blobs. *)

val save_dataset : t -> key:string -> Rrms_dataset.Dataset.t -> unit
val load_dataset : t -> key:string -> Rrms_dataset.Dataset.t option
val save_skyline : t -> key:string -> int array -> unit
val load_skyline : t -> key:string -> int array option

val save_result : t -> key:string -> cache_key:string -> Json.t -> unit
(** The blob embeds [cache_key] itself (the file name only carries its
    hash), so a load can reject a colliding key instead of serving the
    wrong answer. *)

val load_result : t -> key:string -> cache_key:string -> Json.t option

(** {2 Write-ahead delta log} — docs/DYNAMIC.md describes the format.

    Mutations are journaled to a single append-only file
    ([mutations.wal]) in the state directory {e before} they are
    installed in memory, so a crash at any point leaves a replayable
    prefix.  Each record reuses the blob header (magic, version, kind,
    length, FNV-1a checksum) followed by the base dataset key, the
    expected post-mutation key, and the op list.  {!Wal.append}
    validates the log's tail first and truncates a torn final record
    (counted in [rrms_serve_persist_wal_torn_total]) before writing, so
    torn tails self-heal; appends [fsync] before returning.  Like every
    persist write, appends never raise — an I/O failure degrades that
    mutation to memory-only durability and is counted. *)
module Wal : sig
  val file : string
  (** File name of the log inside the state directory
      ([mutations.wal]); deliberately not [*.blob], so the startup
      blob scan ignores it. *)

  type record = {
    base_key : string;  (** dataset key the ops apply to *)
    new_key : string;
        (** content hash of the post-mutation dataset — an integrity
            check: replay verifies the recomputed key matches and stops
            the chain on a mismatch *)
    ops : Rrms_core.Delta.mutation list;
  }

  val append : t -> record -> unit
  (** Durably append one record at the validated end of the log
      (truncating a torn tail first).  Never raises. *)

  val replay : t -> (record -> unit) -> int
  (** Scan the log from the start, calling the function on every valid
      record in order; stops at the first torn / corrupt record.
      Returns the number of records replayed.  The callback must not
      raise. *)
end
