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
      (** matrix cells the pruned argmin sweeps of steps 2 and later
          read, at most [(steps - 1) · s · 2|F|] (a row's witness
          search plus its scan; step 1 reads the scratch's cached row
          maxima); the same for every domain count and whether or not
          the scratch was pooled *)
}

type scratch
(** A solve's work space for one matrix: the rows' maxima (computed
    once, when the scratch is made), the coverage, the chosen flags,
    the columns ordered by coverage and the per-chunk argmin slots.
    Every solve resets what it writes, so one scratch serves any
    sequence of queries on its matrix — a budget-stopped one included
    — as long as no two run at once. *)

val scratch : ?domains:int -> Regret_matrix.t -> scratch
(** [scratch matrix] is a fresh scratch for [matrix]; its row-maxima
    scan (one read of every cell) runs on [domains] worker domains. *)

val solve_prepared :
  ?domains:int ->
  ?guard:Rrms_guard.Guard.Budget.t ->
  ?scratch:scratch ->
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

    With [scratch] (the query server pools one per resident matrix),
    the solve starts from its cached row maxima; without, it makes a
    fresh one.  The answer and [cells_read] are the same either way.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] if
    [r < 1], [skyline] and [matrix] disagree on the row count, or
    [scratch] was made for another matrix (physically). *)

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
