(** rrms.obs — zero-dependency metrics and tracing for the RRMS stack.

    The subsystem is off by default; a disabled instrument costs one
    atomic load and a branch, so the hot paths keep their recording
    calls compiled in unconditionally.  Recording never feeds back into
    solver state: results are bit-identical with observability on or
    off, at every domain count (test/test_obs.ml asserts this).

    Levels: {!Disabled} records nothing; {!Counters} records counters,
    gauges, float counters and timers; {!Full} additionally records
    nestable spans into the trace buffer.

    See docs/OBSERVABILITY.md for the metric catalogue (each metric is
    mapped to the paper quantity it measures) and the trace schema. *)

type level = Disabled | Counters | Full

val level : unit -> level
val set_level : level -> unit

val enabled : unit -> bool
(** [enabled ()] is true at {!Counters} or {!Full}. *)

val spans_enabled : unit -> bool
(** [spans_enabled ()] is true at {!Full} only. *)

val configure_from_env : unit -> unit
(** [RRMS_OBS] = [0]/[off], [1]/[counters], [2]/[full]/[on] selects the
    level; [RRMS_TRACE=FILE] forces {!Full} and registers an [at_exit]
    hook writing the JSON-lines trace to [FILE]. *)

(** Monotonic integer counters.  [deterministic] (default [true])
    declares that the final value depends only on the workload — not on
    wall-clock time, domain count, or chunk layout; the differential
    test harness compares exactly the deterministic subset across
    domain counts. *)
module Counter : sig
  type t

  val make : ?deterministic:bool -> ?help:string -> string -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

(** Monotonic float counters (e.g. busy seconds); [deterministic]
    defaults to [false]. *)
module Floatc : sig
  type t

  val make : ?deterministic:bool -> ?help:string -> string -> t
  val add : t -> float -> unit
  val value : t -> float
end

(** Last-write-wins gauges for sizes and parameters (skyline size, hull
    size, grid cells, γ). *)
module Gauge : sig
  type t

  val make : ?deterministic:bool -> ?help:string -> string -> t
  val set : t -> float -> unit
  val set_int : t -> int -> unit
  val value : t -> float
end

(** Histogram timers: a registered {!Hist} (same bucket bounds), exposed
    by {!prometheus} as [_bucket]/[_sum]/[_count]. *)
module Timer : sig
  type t

  val make : ?deterministic:bool -> ?help:string -> string -> t
  val observe : t -> float -> unit

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk, observing its wall-clock duration when enabled. *)

  val count : t -> int
  val sum : t -> float
end

(** Nestable spans.  Recorded only at {!Full}; each span lands in the
    trace buffer with its per-domain nesting depth and feeds an
    aggregated [rrms_span_seconds{span="name"}] histogram. *)
module Span : sig
  val with_ : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

  val current_id : unit -> string
  (** Id of the innermost open traced span on the calling
      (domain, systhread), [""] when none (or when the bound context
      carries no trace id).  A cross-process fan-out calls this inside
      its dispatch span to fill the wire envelope's [parent] member, so
      worker spans hang from the span that dispatched them. *)
end

val reset : unit -> unit
(** Zero every registered metric and clear the trace buffer. *)

val snapshot : unit -> (string * float) list
(** Every registered metric with its current value, sorted by name. *)

val deterministic_snapshot : unit -> (string * float) list
(** The subset of {!snapshot} declared deterministic. *)

val summary : unit -> string
(** Human-readable table of every non-zero metric. *)

val prometheus : unit -> string
(** Prometheus text exposition of the whole registry. *)

val write_trace : string -> unit
(** Write the trace buffer as JSON-lines ([{"type":"span",...}] events
    followed by a [{"type":"metric",...}] snapshot of the registry). *)

(** Raw access to the span trace buffer, for tests and custom sinks. *)
module Trace : sig
  type event = {
    name : string;
    domain : int;
    depth : int;
    start : float; (* seconds since process start *)
    dur : float;
    attrs : (string * string) list;
    span_id : string;
        (** Distributed-trace identity (docs/OBSERVABILITY.md, "Cluster
            tracing & metrics").  All three ids are empty outside a
            traced request; empty ids are omitted from the JSON
            encoding, so untraced output is byte-identical to the
            pre-trace schema. *)
    parent_id : string;
    trace_id : string;
  }

  val events : unit -> event list
  val count : unit -> int

  val record : event -> unit
  (** Append one event to the buffer (subject to the cap).  Used by the
      router to ingest span dumps returned by shard workers, so one
      process's trace file covers the whole cluster. *)

  val dropped : unit -> int
  (** Span events discarded because the buffer was at its cap since the
      last {!clear}.  Also registered as [rrms_trace_dropped_total] and
      written into the [trace_footer] line of {!write_trace}. *)

  val default_max_events : int

  val set_max_events : int -> unit
  (** Resize the buffer cap (tests shrink it to exercise the drop
      path); existing buffered events are kept even if over the new
      cap. *)

  val clear : unit -> unit
  val event_to_json : event -> string
end

(** Request-scoped recording contexts.

    A context is an additional, request-local view of the same
    instruments: while bound to the calling thread (and to any
    {!Rrms_parallel} worker executing on its behalf), every
    {!Counter.incr}/{!Counter.add}/{!Floatc.add} tees its delta into
    the context, and every {!Span.with_} tags its event with the
    context's [request_id]/[session_id].  The global registry is
    unaffected; with no context bound anywhere the extra cost is one
    atomic load per recording, and at {!Disabled} nothing records at
    all — solver outputs stay bit-identical either way.

    Bindings are keyed by (domain, systhread), so concurrent server
    sessions on one domain keep disjoint scopes. *)
module Ctx : sig
  type t

  val create :
    ?request_id:string ->
    ?session_id:string ->
    ?capture_spans:bool ->
    ?trace_id:string ->
    ?parent_span:string ->
    unit ->
    t
  (** [capture_spans] (default [false]) additionally records every span
      executed under the context into the context itself — this works
      at {!Counters} (not just {!Full}), which is what lets a server
      keep slow-query traces without a global trace buffer.

      [trace_id] (default empty) marks the context as part of a
      distributed trace: every span recorded under it is assigned a
      hierarchical [span_id], its parent resolved from the innermost
      open span on the recording thread (falling back to the context's
      first root span, then to [parent_span] — the caller's span id,
      i.e. the cross-process edge).  With an empty [trace_id] span
      events carry no identity and the encoding is unchanged. *)

  val request_id : t -> string
  val session_id : t -> string

  val trace_id : t -> string
  val parent_span : t -> string

  val with_ctx : t -> (unit -> 'a) -> 'a
  (** Bind the context to the calling thread for the thunk's duration
      (re-entrant: an inner binding shadows and restores). *)

  val scoped : t option -> (unit -> 'a) -> 'a
  (** [scoped (current ()) f] is how a worker adopts its submitter's
      context; [scoped None f] is just [f ()]. *)

  val current : unit -> t option

  val add : t -> string -> float -> unit
  (** Record directly into a context (rarely needed — the instrument
      tee does this for you). *)

  val value : t -> string -> float
  (** Accumulated delta for one metric name; [0.] if never recorded. *)

  type key
  (** A metric name's dense id.  Every instrument interns its name when
      it is made; a context records and reads by id, not by name. *)

  val key : string -> key
  (** The id of a metric name, interned on first use: resolve it once,
      then read with {!get}. *)

  val get : t -> key -> float
  (** [value] by id: [get c (key name) = value c name], without hashing
      [name]. *)

  val counters : t -> (string * float) list
  (** Every metric recorded in this context, sorted by name. *)

  val deterministic_counters : t -> (string * float) list
  (** The subset of {!counters} whose registered metric is
      deterministic — identical across domain counts for a fixed
      workload. *)

  val spans : t -> Trace.event list
  (** Spans captured under [capture_spans], in completion order. *)

  val spans_dropped : t -> int
end

(** Log-bucketed latency histograms with deterministic quantile
    estimation; every {!Timer} is backed by one.  A bare [Hist] is not
    registered in the global registry: the serving layer owns a keyed family of these — (algo, cache outcome,
    status) — and folds them into its [stats] response.  Bucket
    boundaries are fixed (five per decade, 1 µs … 1000 s), quantiles
    are rank-based bucket upper bounds clamped by the observed max, and
    {!merge} adds bucket counts, so estimates depend only on the
    multiset of observations — never on arrival order or merge shape. *)
module Hist : sig
  type t

  val bounds : float array
  val create : unit -> t
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val max_value : t -> float

  val buckets : t -> int array
  (** Copy of the bucket counts; last slot is the +Inf overflow. *)

  val merge : t -> t -> t
  (** Pure: builds a new histogram; bucket counts and counts add
      exactly (associative), [sum] adds in float. *)

  val import :
    count:int -> sum:float -> max_value:float -> buckets:int array -> t
  (** Rebuild a histogram from raw exported parts (the wire [metrics]
      op); a shorter [buckets] array is zero-padded. *)

  val quantile : t -> float -> float
  (** [quantile t q] for q in [0,1]; [0.] on an empty histogram. *)
end
