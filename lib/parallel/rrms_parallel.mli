(** Domain-pool parallelism for the RRMS hot paths.

    OCaml 5 exposes true shared-memory parallelism through [Domain], but
    spawning a domain costs ~1 ms — far too much to pay inside a binary
    search that probes the MRST oracle dozens of times.  This module
    keeps a small set of long-lived worker pools (one per requested
    size, created lazily and cached for the process lifetime) and
    schedules chunked loops onto them.

    Determinism contract: every combinator here produces results that
    are {e bit-identical} for every pool size, including the serial
    fallback: [parallel_for] bodies only ever write disjoint indices.
    A caller that needs a fixed chunk layout (HD-GREEDY's chunk-local
    argmin) derives it from the iteration count itself and runs one
    [parallel_for] index per chunk.

    Bodies passed to these combinators must be thread-safe: they run
    concurrently on several domains and must not mutate shared state
    except through their own disjoint indices. *)

module Fault : sig
  (** Fault injection for resilience testing.  A configured fault makes
      one chosen worker raise or stall at every chunk boundary it
      reaches, which is how the tests prove the pool propagates worker
      exceptions, never deadlocks, and stays healthy for later batches.

      Worker identities are stable: [0] is the submitting (main)
      domain — it runs the serial fallback and helps drain batches —
      and spawned workers of a pool of size [s] are [1 .. s-1].  A
      fault aimed at a worker id the current pool does not have is a
      no-op, so e.g. [stall@1] degrades a 4-domain run and leaves a
      serial run untouched. *)

  type mode =
    | Raise  (** raise {!Injected} at each chunk boundary *)
    | Stall of float  (** sleep this many seconds at each chunk boundary *)

  exception Injected of int
  (** Raised by a [Raise]-faulted worker; the payload is the worker id.
      Batch submission rethrows the {e first} failure on the caller. *)

  val set : worker:int -> mode -> unit
  (** Arm the fault (process-wide, atomic). *)

  val clear : unit -> unit
  val active : unit -> bool

  val self : unit -> int
  (** The executing domain's worker id (0 outside spawned workers). *)

  val configure_from_env : unit -> unit
  (** Parse [RRMS_FAULT] — [raise@W] or [stall@W:SECONDS] (e.g.
      [stall@1:0.001]) — and arm it.  Malformed or absent values leave
      injection disabled.  Called by the CLI, the test runner and the
      bench harness at startup. *)
end

module Pool : sig
  type t

  val get : int -> t
  (** [get size] returns the cached pool with [size]-way parallelism
      ([size - 1] worker domains plus the calling domain).  Pools are
      created on first use and kept alive for the process; repeated
      calls with the same size return the same pool.
      @raise Invalid_argument if [size < 1]. *)

  val size : t -> int

  val default_size : unit -> int
  (** The process-wide default parallelism used when a combinator is
      called without [?domains].  Starts at [1] (serial) — libraries
      never go parallel behind the caller's back. *)

  val set_default_size : int -> unit
  (** Override the default parallelism (clamped to [>= 1]). *)

  val set_parallel_cap : int -> unit
  (** Override the parallelism ceiling ([0] restores the automatic
      value, [Domain.recommended_domain_count ()]).  A loop on a pool of
      size [s] uses [min s cap] participants, so requesting 8 domains on
      a 1-core container runs serially instead of thrashing; results are
      unaffected, and an armed {!Fault} bypasses the cap.  Tests use
      this to exercise real multi-domain execution on single-core
      machines. *)

  val configure_from_env : unit -> unit
  (** Read [RRMS_DOMAINS] (positive integer: the default size) and
      [RRMS_POOL_CAP] (non-negative integer: the parallelism cap, [0] =
      automatic).  Called by the CLI and the bench harness at startup;
      malformed or absent values leave the settings untouched. *)
end

val parallel_for : ?domains:int -> ?min_chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f i] for every [i] in [0 .. n-1], split
    into contiguous chunks across the pool; it is the pool's only loop
    combinator.  Stays on the calling domain when the effective width
    is 1, when [n < 2 * min_chunk] (default [min_chunk = 64]), or when
    a timed pilot chunk of [min_chunk] items estimates the remaining
    work below the parallelism break-even threshold; otherwise chunk
    sizes adapt to the measured per-item cost.  An armed {!Fault}
    bypasses the parallelism cap and the break-even exit, so a faulted
    worker gets chunks, but the chunks follow the same measured formula.
    [f] must only write state owned by index [i] — which is also why the
    adaptive chunk layout cannot affect results.  A body that needs a
    work buffer allocates it per index or per chunk of its own making
    (HD-GREEDY's argmin runs one index per fixed chunk). *)
