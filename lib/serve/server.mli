(** Session and transport layer of the query service.

    A {e session} is one client connection speaking the line-delimited
    JSON protocol of {!Protocol}: requests are answered in order, one
    response line per request line, and every dataset reference the
    session took with [load] is dropped when it ends (so a crashed
    client never leaks store entries).  Request handling is total — a
    malformed line, an unknown request or a solver failure becomes an
    error {e response}, never a dropped connection; even an injected
    worker fault ({!Rrms_parallel.Fault}) surfaces as an [internal]
    error and leaves the session (and the server) healthy.

    Two transports share the session code:

    - {!run_handler_session}: one session over any channel pair — the
      test- and script-friendly mode ([rrms_serve --stdio] runs it over
      stdin/stdout).
    - {!start}/{!wait}: a Unix-domain-socket daemon with one systhread
      per connection; sessions share the one {!Store.t}, which is what
      makes concurrent artifact sharing (and the admission gate) real. *)

val handle_line :
  ?telemetry:Telemetry.t ->
  Store.t ->
  string ->
  [ `Reply of string | `Shutdown of string ]
(** Handle one request line against the store (stateless with respect
    to the session; reference bookkeeping is the session loop's job).
    [`Shutdown line] is the positive response to a [shutdown] request —
    the caller sends it, then stops.  Never raises.

    Every query, batch item and mutation runs through one per-request
    runner, under a fresh {!Rrms_obs.Obs.Ctx} tagged with
    process-unique session/request ids ([s3-r7]); its latency, cache
    outcome and per-request counters land in [telemetry] (default
    {!Telemetry.default}), and the [stats] request folds that
    instance's histograms into its response as a ["latency"] member. *)

type router = {
  query_pinned :
    Store.handle -> Protocol.query -> (Store.outcome, Store.refusal) result;
      (** Answer a query (single, or one batch item) on a pinned handle —
          the router fans the HD algorithms out to its workers, merges,
          then calls {!Store.query_pinned}.  Refusals and exceptions
          are mapped to wire codes by the caller, as for a plain
          store. *)
  shards : int;  (** fan-out width recorded in the access log *)
  after_load : key:string -> Protocol.load -> unit;
      (** Runs after a successful [load] with the loaded content key:
          the router records the workers' load parameters. *)
  after_release : unit -> unit;
      (** Runs after every [evict] and at session teardown: the router
          evicts the worker slices of datasets that left its store. *)
  stats_extra : unit -> (string * Json.t) list;
      (** Members appended to the [stats] result (the router's
          [router] and [cluster] views). *)
}
(** What a shard router changes about answering a request; everything
    else is the one dispatcher's.  With a router, [mutate] requests
    answer [read_only], and when spans are on a query without a trace
    envelope gets a trace id minted for it ([t-<request id>]). *)

type session_handler = {
  on_line : string -> [ `Reply of string | `Flush of string | `Shutdown of string ];
  on_close : unit -> unit;
}
(** One connection's callbacks: [on_line] answers a request line,
    [on_close] runs teardown (reference release) when the session
    ends.  [`Flush line] is a reply that must reach the client before
    the next request line is answered: the acknowledgement of a
    mutation the store has already applied (and, under a state
    directory, journaled). *)

type handler = unit -> session_handler
(** A per-connection session factory — what the transports below pump.
    {!store_handler} builds it for a plain store and for the shard
    router alike. *)

val store_handler :
  ?telemetry:Telemetry.t -> ?router:router -> Store.t -> handler
(** The store-backed protocol handler used by {!run_session} and
    {!start}: each line is answered by {!handle_line}'s dispatcher,
    under a session id [s<N>] shared with every other session of the
    process.  [router] turns it into the shard router's handler
    ({!Shard.Router.handler}). *)

val run_handler_session :
  handler -> in_channel -> out_channel -> [ `Eof | `Shutdown ]
(** Pump one session for an arbitrary handler: read lines until EOF or
    [shutdown], answering each in order (blank lines are skipped; a last
    line without a newline is answered at EOF).  Responses are flushed
    when no complete request line is left buffered, so a pipelined burst
    is answered with one write and a lock-step client still gets each
    reply before it sends its next line; a [`Flush] reply (a mutation's)
    and a [shutdown] reply are flushed with every reply before them at
    once.  [on_close] runs on the way out. *)

val run_session :
  ?telemetry:Telemetry.t ->
  Store.t ->
  in_channel ->
  out_channel ->
  [ `Eof | `Shutdown ]
(** {!run_handler_session} over {!store_handler}: pump one store-backed
    session.  Session [load] references are released on the way out. *)

type t

val start_handler : handler -> socket:string -> t
(** Bind a Unix-domain listener at [socket] and accept in a background
    thread, one thread per connection, each pumped through the given
    handler.  A pre-existing socket file is probed: live (something
    accepts) → [Invalid_input]; stale → removed and rebound.  [SIGPIPE]
    is ignored process-wide (an abruptly closed client must not kill
    the daemon).
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] when the
    path is already served, [Unix.Unix_error] on bind failures. *)

val start : ?telemetry:Telemetry.t -> Store.t -> socket:string -> t
(** {!start_handler} over {!store_handler}. *)

val stop : t -> unit
(** Ask the daemon to stop: close the listener (idempotent).  In-flight
    sessions are not interrupted. *)

val wait : t -> unit
(** Block until the accept loop exits — a [shutdown] request or {!stop}
    — then remove the socket file. *)

val drain : ?grace:float -> t -> Store.t -> unit
(** Graceful shutdown, the SIGTERM path: put the store in drain mode
    (new solves answer [draining]; cached answers and cheap requests
    keep working), close the listener, wait up to [grace] seconds
    (default 5) for in-flight and queued solves to settle, then shut
    the read side of every connected session so each session thread
    sees EOF and runs its normal teardown.  After [drain] returns,
    {!wait} completes promptly and the process can exit 0. *)
