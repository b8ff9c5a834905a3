(** Durable content-addressed artifact cache of the query service.

    A {!t} manages one state directory ([rrms-serve --state-dir]) of
    self-validating blobs, one artifact per file:

    - [dataset-<key>.blob] — the loaded (post-transform) tuples,
    - [skyline-<key>.blob] — the skyline index set,
    - [result-<key>-<h>.blob] — one serialized [Exact] answer,

    where [<key>] is the store's 16-hex-digit content hash (an FNV-1a
    header chained with per-row digests), so a blob written by one
    process is addressable by any later one that loads the same dataset
    content.  A change to how keys are computed bumps the blob format
    version, so a directory written under the old keys is discarded
    whole (counted in {!scan.stale}) instead of being rehydrated or
    replayed under keys that no longer name its content.  Only artifacts that are cheaper to
    read back than to recompute are kept: regret matrices and direction
    grids are rebuilt from a rehydrated skyline (one O(s·|F|·m) pass),
    which is faster than decoding them.  Their former kind bytes (3 and
    4) are retired, so such a blob left by an older build is discarded
    and counted corrupt once, by the first startup scan.

    {b Frame format.}  Every file in the directory is made of frames:
    a fixed 22-byte header (magic ["RRMB"], format version, kind,
    payload length, 64-bit FNV-1a payload checksum) followed by the
    payload.  A blob is a file holding exactly one frame; the
    write-ahead log ({!Wal}) is a sequence of frames.  One reader
    validates every frame — the startup scan, every load and the log
    scan all go through it — and one writer writes every frame, which
    is also the only place a {!Fault} lands.  Any mismatch — torn
    write, flipped bit, wrong version, truncation, trailing bytes —
    discards the blob (unlinking it, counting it in
    [rrms_serve_persist_corrupt_blobs_total]) and a load returns
    [None], so a corrupt blob is never rehydrated.

    {b Write protocol.}  Blobs are write-once: a save whose final name
    already exists does nothing — the name is a content hash, so the
    bytes would be identical — and is neither counted in
    [rrms_serve_persist_writes_total] nor given a {!Fault} write
    ordinal.  Any other save writes its frame to a private temp file in
    the same directory, [fsync]s it, atomically renames it over the
    final name, then [fsync]s the directory.  A crash — including
    SIGKILL — can therefore leave only (a) the complete old state, (b)
    the complete new state, or (c) a leftover temp file, never a
    half-written blob under the final name.  Saves never raise: a full
    disk or permission error is counted
    ([rrms_serve_persist_write_errors_total]) and the service continues
    memory-only.

    {b Startup scan.}  {!open_dir} creates the directory if needed,
    deletes leftover temp files (crash litter from an interrupted
    write), validates every [*.blob] frame, unlinking and counting the
    corrupt ones, and discards a log whose first frame is of another
    format version.  Artifacts are {e not} decoded at scan time —
    rehydration stays lazy, on first demand.

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
    fault that fires inside {!t}'s one frame writer — blob saves and
    log appends alike — which is how tests and CI kill the daemon
    mid-write and prove recovery. *)
module Fault : sig
  type mode =
    | Crash of int
        (** [crash@N]: on the Nth frame write since the fault was
            armed (blob saves skipped as write-once do not count),
            persist the header and half the payload — to the blob's
            temp file, or at the log's end — and [_exit 137]: the
            SIGKILL-mid-write scenario. *)
    | Torn of int option
        (** [torn_write] (every write) or [torn_write@N] (the Nth
            only): write the header over half the payload and carry on
            — a blob is still renamed into place but fails validation,
            a log record is cut away by the next append — the
            lying-disk scenario. *)
    | Stall of float
        (** [stall@MS]: sleep [MS] milliseconds before each write —
            slow-disk latency injection (keeps all results exact). *)

  val set : mode -> unit
  (** Arm a fault and restart the write ordinal, so [N] counts from
      here. *)

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
  corrupt : int;  (** damaged blobs discarded (and unlinked) by the scan *)
  stale : int;
      (** blobs, and a write-ahead log, of another format version,
          discarded (and unlinked) by the scan.  The content key is part
          of every file name, so a directory written by a build that
          keyed content differently is dropped whole and rebuilt on
          demand; [rrms-serve] reports the count at startup. *)
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

val save_result : t -> key:string -> cache_key:string -> string -> unit
(** Save an answer's encoded text — the bytes the store already holds
    for its replies, so the answer is never encoded a second time.  The
    blob embeds [cache_key] itself (the file name only carries its
    hash), so a load can reject a colliding key instead of serving the
    wrong answer. *)

val load_result :
  t -> key:string -> cache_key:string -> (Json.t * string) option
(** The parsed answer beside the text it was parsed from, which a
    caller can splice into replies as is. *)

(** {2 Write-ahead delta log} — docs/DYNAMIC.md describes the format.

    Mutations are journaled to a single append-only file
    ([mutations.wal]) in the state directory {e before} they are
    installed in memory, so a crash at any point leaves a replayable
    prefix.  The log is a sequence of frames, read and written by the
    same codec as blobs; each record's payload is the base dataset key,
    the expected post-mutation key, and the op list.  The log's
    validated end is found once per {!t}, by a scan that stops at the
    first frame that is not a whole current-version record (a torn
    tail, counted in [rrms_serve_persist_wal_torn_total]).
    {!Wal.append} writes its frame there, cutting off whatever follows,
    so torn tails self-heal; a torn append leaves the end where it was.
    Appends [fsync] before returning.  Like every persist write,
    appends never raise — an I/O failure degrades that mutation to
    memory-only durability and is counted. *)
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

  val append : t -> record -> bool
  (** Durably append one record at the validated end of the log
      (cutting off a torn tail), and return whether the whole record
      was written; [false] (a torn write or an I/O error) is counted in
      [rrms_serve_persist_write_errors_total].  Never raises.  The
      record is a mutation's only durable write: the store saves the
      new generation's dataset blob only when the append returns
      [false], so a later record based on that generation can still
      replay. *)

  val replay : t -> (record -> unit) -> int
  (** Scan the log from the start, calling the function on every valid
      record in order; stops at the first torn / corrupt record.
      Returns the number of records replayed.  The callback must not
      raise. *)
end
