(** HD-RRMS: the paper's high-dimensional approximation algorithm
    (§4.4, Algorithm 4).

    Pipeline: restrict to the skyline (Theorem 1) → discretize the
    function space with the polar γ-grid (Algorithm 3) → build the
    regret matrix → binary-search its sorted distinct cell values,
    asking the MRST set-cover oracle at each candidate ε for a row set
    of size ≤ r.  The smallest feasible ε is optimal {e for the
    discretized function set}, and Theorem 4 lifts it to the full
    continuous space: [E ≤ c·ε_min + (1 − c) ≤ c·E_opt + (1 − c)].

    With the exact set-cover oracle this is the theoretical algorithm;
    with Chvátal's greedy (the default) it is the practical §4.4.3
    variant.  §4.4.3 and §6.1 describe two acceptance policies for the
    greedy cover, both implemented here as {!budget}:

    - {!Strict} (§6.1, the default): accept a cover only if its size is
      at most [r].  Output never exceeds [r], but since the greedy
      cover can be up to [H(|F|)] times larger than optimal, the binary
      search may settle above the grid optimum.
    - {!Inflated} (§4.4.3's alternative): accept covers up to
      [r·(ln|F| + 1)].  Whenever a size-[r] cover exists the greedy one
      passes, so [eps_min] is at most the grid optimum for [r] and
      Theorem 4's bound holds against it — at the cost of returning up
      to [r·(ln|F| + 1)] tuples.

    {2 Budgets and anytime degradation}

    [solve] and the matrix search accept a {!Rrms_guard.Guard.Budget.t}.
    The budget is consulted only at probe boundaries, so a degraded run
    is deterministic for a fixed probe cap and bit-identical across
    domain counts.  When the budget stops the binary search early, the
    solver still returns a certified answer: either the best threshold
    accepted so far, or — if none was accepted yet — a one-probe
    fallback at the largest distinct cell value, where a single-row
    cover always exists.  Either way Theorem 4's bound is computed from
    the returned set's {e achieved} discretized regret, so the
    [guarantee] field stays valid (just looser) under degradation. *)

type budget = Strict | Inflated

(** Per-solve cost provenance: the paper's cost-model quantities for
    {e one} answer — as opposed to the process-cumulative
    [rrms_hd_rrms_*] counters.  The serving layer threads this record
    through shard merges into the per-answer ["cost"] echo
    (docs/OBSERVABILITY.md, "Cost provenance"). *)
type cost = {
  probes : int;
      (** binary-search probes executed (the anytime fallback's probe
          is not one) *)
  probes_fresh : int;
      (** MRST solves paid: [probes], plus one when the anytime fallback
          ran *)
  cells_crossed : int;
      (** matrix cells whose threshold membership those solves changed
          ({!Mrst.Incremental.last_crossed}, summed) *)
}

type result = {
  selected : int array;
      (** chosen tuples (indices into the input points); at most [r]
          under the [Strict] budget, up to [r·(ln|F|+1)] under
          [Inflated]; never empty *)
  eps_min : float;
      (** the smallest accepted discretized regret (ε_min of §4.4.1) *)
  guarantee : float;
      (** Theorem 4's bound [c·ε + (1 − c)] on the true regret, with
          [ε = discretized_regret] — valid even when [quality] is
          [Degraded] *)
  discretized_regret : float;
      (** [max_f min_{t∈selected} M[t,f]] of the returned set — equals
          [eps_min] up to set-cover slack *)
  gamma_used : int;
      (** the grid resolution actually used — smaller than the
          requested [gamma] when a cell cap forced a shrink *)
  quality : Rrms_guard.Guard.quality;
      (** [Exact] when the full binary search ran at the requested γ;
          [Degraded reasons] records every budget intervention *)
  cost : cost;  (** this answer's probe accounting *)
}

val solve :
  ?gamma:int ->
  ?solver:Mrst.solver ->
  ?budget:budget ->
  ?funcs:Rrms_geom.Vec.t array ->
  ?domains:int ->
  ?guard:Rrms_guard.Guard.Budget.t ->
  Rrms_geom.Vec.t array ->
  r:int ->
  result
(** [solve points ~r] runs HD-RRMS with [gamma] grid partitions per
    angle (default 4, the paper's default), the given MRST [solver]
    (default [Greedy]) and acceptance [budget] (default [Strict]).
    [funcs] overrides the discretized function set entirely (for the
    §5.2 alternative discretizations; Theorem 4's [guarantee] field is
    then computed from [gamma] anyway and should be ignored by the
    caller).  [domains] spreads the skyline pass and the matrix build
    over a worker-domain pool (default
    {!Rrms_parallel.Pool.default_size}); the result is bit-identical
    for every domain count.

    When [guard] carries a cell cap and [funcs] is not given, [gamma]
    auto-shrinks to the largest γ' whose matrix fits the cap (recorded
    as a [Cell_cap] degradation reason); an explicit [funcs] makes the
    cap a hard check instead.  A deadline or probe cap stops the binary
    search at a probe boundary and the best-so-far (or the certified
    fallback) is returned with [quality = Degraded].
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] if
    [r < 1] or the input is empty, [Resource_limit] if no γ' ≥ 1 fits
    the cell cap. *)

type search = {
  found : (int array * float) option;
      (** (row set, ε) for the best accepted threshold; [None] only if
          nothing satisfies even the largest cell value *)
  probes : int;  (** MRST probes actually executed by the search loop *)
  probes_fresh : int;  (** as in {!cost} *)
  cells_crossed : int;  (** as in {!cost} *)
  cells_toggled : int;
      (** cells those solves actually toggled
          ({!Mrst.Incremental.last_toggled}, summed): at most
          [cells_crossed], less when a probe started from a saved
          state *)
  stopped : Rrms_guard.Guard.reason option;
      (** [Some _] iff the budget cut the binary search short *)
}

val search_on_matrix :
  ?solver:Mrst.solver ->
  ?guard:Rrms_guard.Guard.Budget.t ->
  ?max_size:int ->
  ?inc:Mrst.Incremental.t ->
  Regret_matrix.t ->
  r:int ->
  search
(** The core binary search of Algorithm 4 over an arbitrary matrix,
    accepting covers of size at most [max_size] (default [r]).  Each
    probe is one {!Mrst.Incremental.solve_run} at the midpoint's run
    with [~limit:max_size] (toggling only the cells that cross the
    threshold) and returns exactly what a from-scratch {!Mrst.solve}
    probe would.  It is serial: the cell order, the probe state and
    the probes take no domain count.
    [inc] supplies a ready {!Mrst.Incremental.t} for this matrix (e.g.
    pooled across queries); any starting probe state is fine because
    every threshold move is bidirectional.  The search mutates it,
    {!Mrst.Incremental.save}s it after each of its first three probes
    (so later searches on it start near their thresholds) and leaves it
    at the last probed threshold.  The
    [guard] is checked before every
    probe; on stop, if no threshold was accepted yet, one fallback
    probe at the largest distinct value recovers a certified
    single-row answer (so [found = None] with a stopped budget implies
    an empty or degenerate matrix).
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] when
    [inc]'s row or column count does not match [matrix]. *)

val solve_prepared :
  ?solver:Mrst.solver ->
  ?budget:budget ->
  ?domains:int ->
  ?guard:Rrms_guard.Guard.Budget.t ->
  ?inc:Mrst.Incremental.t ->
  skyline:int array ->
  gamma_used:int ->
  m:int ->
  Regret_matrix.t ->
  r:int ->
  result
(** The back half of {!solve}, starting from precomputed artifacts:
    [matrix] is the regret matrix whose row [i] is the tuple
    [skyline.(i)] of the original database, [gamma_used] the grid
    resolution the matrix was built at, and [m] the dimensionality
    (both feed Theorem 4's [guarantee]).  [selected] is reported in
    original-database indices via [skyline].  {!solve} itself is
    [skyline → grid → matrix → solve_prepared], so an answer computed
    on cached artifacts — the resident query server's warm path — is
    bit-identical to a cold [solve].  No cell-cap shrinking happens
    here (the matrix is already built); deadline / probe budgets apply
    to the binary search exactly as in {!solve}.  [domains] is unused:
    the search is serial, and the argument stays for callers that pass
    one.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] if
    [r < 1] or [skyline] and [matrix] disagree on the row count. *)
