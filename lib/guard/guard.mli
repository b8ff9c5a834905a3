(** Structured errors, cooperative budgets and anytime-result tags for
    the solver stack.

    The north star is a long-running service: a malformed CSV row, an
    oversized [(γ+1)^(m−1)] regret matrix or a degenerate LP must
    surface as a typed, reportable condition — never as a bare
    [failwith] — and a slow solve must be able to stop at a budget
    boundary and still return a {e certified} answer.  Theorem 4's
    additive form [E ≤ c·ε + (1 − c)] makes that possible: the bound
    holds for whatever discretized regret ε the partial computation
    actually achieved, so "best so far" is still a guaranteed result,
    just a looser one.

    This module is deliberately dependency-free (only [Unix] for the
    wall clock) so every layer — dataset loading, the LP substrate, the
    solvers, the CLI — can share one error vocabulary. *)

module Error : sig
  (** The error classes of the system.  Each maps to a distinct CLI
      exit code (see {!exit_code} and docs/ROBUSTNESS.md). *)
  type t =
    | Invalid_input of {
        what : string;  (** human-readable description *)
        line : int option;  (** 1-based source line (CSV loader) *)
        column : string option;  (** attribute name or index *)
      }  (** malformed or out-of-domain input data *)
    | Timeout of { elapsed : float; limit : float }
        (** a wall-clock deadline expired where no degraded answer was
            possible *)
    | Resource_limit of { what : string; requested : int; limit : int }
        (** an allocation guard refused to proceed (e.g. the regret
            matrix would exceed the cell cap even at γ = 1) *)
    | Numerical of { what : string }
        (** LP unboundedness / degeneracy or other numerical collapse *)

  exception Guard_error of t
  (** The single structured exception of the system.  A printer is
      registered, so an uncaught [Guard_error] still renders readably. *)

  val to_string : t -> string

  val exit_code : t -> int
  (** Stable per-class CLI exit codes (sysexits-flavoured):
      [Invalid_input → 65], [Timeout → 75], [Resource_limit → 69],
      [Numerical → 70].  Exit 3 (degraded success) and cmdliner's 124
      are documented alongside in docs/ROBUSTNESS.md. *)

  val invalid_input : ?line:int -> ?column:string -> string -> 'a
  (** Raise [Guard_error (Invalid_input …)]. *)

  val resource_limit : what:string -> requested:int -> limit:int -> 'a
  val numerical : string -> 'a
end

(** Why a result is weaker than the exact one. *)
type reason =
  | Deadline of { elapsed : float; limit : float }
      (** the wall-clock budget expired; the result is the best answer
          certified before expiry *)
  | Probe_cap of { probes : int; limit : int }
      (** the probe/iteration cap was hit (deterministic degradation,
          used by tests) *)
  | Cell_cap of { requested : int; cap : int; gamma_from : int; gamma_to : int }
      (** γ was auto-shrunk so the matrix fits the cell cap *)
  | Numerical_skips of int
      (** this many per-point LPs were skipped as unbounded/degenerate *)

type quality =
  | Exact  (** the full computation ran to completion *)
  | Degraded of reason list
      (** anytime result: still carries a certified bound, but a budget
          or numerical guard weakened it.  The list is non-empty and in
          occurrence order. *)

val describe : quality -> string
(** ["exact"] or ["degraded(reason; …)"] — the CLI's [degraded:] line. *)

val degrade : quality -> reason -> quality
(** Append one reason (keeps occurrence order). *)

val is_exact : quality -> bool

module Budget : sig
  (** A cooperative computation budget: a wall-clock deadline, a cap on
      regret-matrix cells, and a cap on solver probes/iterations.  The
      clock starts when the budget is created.  Budgets are checked at
      probe / iteration boundaries only — nothing is interrupted
      mid-kernel, which is what keeps degraded results deterministic
      for a fixed probe count. *)

  type t

  val unlimited : t
  (** No limits; every check passes.  The shared default. *)

  val create : ?timeout:float -> ?max_cells:int -> ?max_probes:int -> unit -> t
  (** [create ()] stamps the start time.  [timeout] is wall-clock
      seconds; [max_cells] bounds [rows × cols] of any regret matrix
      built under this budget; [max_probes] bounds binary-search probes
      (HD-RRMS) or greedy iterations (HD-GREEDY / GREEDY) — the
      deterministic degradation knob. *)

  val is_unlimited : t -> bool
  val elapsed : t -> float
  val timeout : t -> float option
  val max_cells : t -> int option

  val deadline_expired : t -> reason option
  (** [Some (Deadline …)] once the wall clock has passed the timeout. *)

  val remaining : t -> float option
  (** Wall-clock seconds left before the deadline ([None] without one;
      negative once expired).  Lets a service propagate one end-to-end
      deadline across queueing and solve stages instead of granting
      each stage a fresh clock. *)

  val note_probe : t -> unit
  (** Count one probe / iteration against [max_probes]. *)

  val stop_reason : t -> reason option
  (** Deadline first, then probe cap: the reason to stop now, if any. *)

  val check_cells : t -> what:string -> int -> unit
  (** @raise Error.Guard_error [Resource_limit] when the cell count
      exceeds [max_cells]. *)
end
