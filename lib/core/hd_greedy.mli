(** HD-GREEDY: greedy selection over the discretized regret matrix
    (§6.1).

    The paper introduces this algorithm to ablate its two ideas: it uses
    the discretized matrix (idea 1) but replaces the set-cover reduction
    (idea 2) with a greedy loop that repeatedly adds the tuple giving
    the largest reduction of the current max-column regret.  O(r·s·|F|). *)

type result = {
  selected : int array;
      (** indices into the input points; exactly [min r s] of them on
          an [Exact] run, possibly fewer (but ≥ 1) under a budget stop *)
  discretized_regret : float;
      (** [max_f min_{t∈selected} M[t,f]] at termination *)
  gamma_used : int;
      (** the grid resolution actually used — smaller than requested
          when a cell cap forced a shrink *)
  quality : Rrms_guard.Guard.quality;
      (** [Exact], or [Degraded] with the budget interventions *)
  steps : int;
      (** greedy argmin sweeps actually taken — this answer's cost
          provenance; equals [Array.length selected] *)
  cells_read : int;
      (** matrix cells the pruned argmin sweeps read, at most
          [steps · s · (|F| + 1)]; the same for every domain count *)
}

val solve_prepared :
  ?domains:int ->
  ?guard:Rrms_guard.Guard.Budget.t ->
  skyline:int array ->
  gamma_used:int ->
  Regret_matrix.t ->
  r:int ->
  result
(** The greedy loop on precomputed artifacts: [matrix]'s row [i] is
    tuple [skyline.(i)] of the original database; [gamma_used] is only
    echoed into the result.  {!solve} is [skyline → grid → matrix →
    solve_prepared], so a warm answer on cached artifacts (the query
    server's path) is bit-identical to a cold [solve].  No cell-cap
    shrinking happens here; deadline / probe budgets bound the greedy
    steps exactly as in {!solve}.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] if
    [r < 1] or [skyline] and [matrix] disagree on the row count. *)

val solve :
  ?gamma:int ->
  ?funcs:Rrms_geom.Vec.t array ->
  ?domains:int ->
  ?guard:Rrms_guard.Guard.Budget.t ->
  Rrms_geom.Vec.t array ->
  r:int ->
  result
(** [solve points ~r] with the γ-grid discretization (default
    [gamma = 4]) or an explicit function sample [funcs].  The skyline
    pass, the matrix build and each greedy argmin sweep run on
    [domains] worker domains (default
    {!Rrms_parallel.Pool.default_size}) with bit-identical results.

    The [guard] is checked between greedy steps (each step counts as
    one probe): the first step always runs, so the result is never
    empty, and a budget stop simply truncates the selection — the
    reported [discretized_regret] is exact for the truncated set.
    When [guard] carries a cell cap and [funcs] is not given, [gamma]
    auto-shrinks just as in {!Hd_rrms.solve}.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] if
    [r < 1] or the input is empty, [Resource_limit] if no γ' ≥ 1 fits
    the cell cap. *)
