(** Discretization of the linear ranking-function space (§4.3, §5.2).

    HD-RRMS replaces the continuous function space — the non-negative
    orthant of the unit sphere — with a finite sample [F].  The paper's
    primary scheme ({!grid}, Algorithm 3 DISCRETIZE) divides each of the
    [m-1] polar angles into γ equal parts, giving [(γ+1)^(m-1)]
    directions and the additive quality guarantee of Theorem 4.  §5.2
    sketches two alternatives that fix [|F|] directly instead of γ:
    uniform random directions ({!random}) and a force-directed spreading
    of charged particles on the quarter hypersphere ({!force_directed});
    both are implemented as the paper's proposed extensions. *)

val grid : gamma:int -> m:int -> Rrms_geom.Vec.t array
(** Algorithm 3: all [(γ+1)^(m-1)] unit directions whose polar angles
    are multiples of [α = π/(2γ)].  Directions are non-negative unit
    vectors.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] if
    [gamma < 1] or [m < 2], and [Resource_limit] when the grid would
    exceed the 2M-direction hard cap. *)

val matrix_cells : rows:int -> gamma:int -> m:int -> int
(** [rows · (γ+1)^(m-1)] — the regret-matrix size a solve would
    allocate — computed with saturating arithmetic (never overflows,
    never raises; a saturated value still compares correctly against
    any cap below [max_int / 2]). *)

val shrink_gamma :
  max_cells:int option ->
  rows:int ->
  gamma:int ->
  m:int ->
  int * Rrms_guard.Guard.reason option
(** [shrink_gamma ~max_cells ~rows ~gamma ~m] is the auto-shrink rule of
    the budgeted HD solvers: the largest [γ' ≤ gamma] (at least 1) whose
    regret matrix fits the cell cap, with the [Cell_cap] reason when
    [γ' < gamma].  [(gamma, None)] without a cap or when [gamma]
    already fits.  The solvers and the query service both call it, so a
    capped served query uses the matrix a cold solve would build.
    @raise Rrms_guard.Guard.Error.Guard_error [Resource_limit] when even
    [γ' = 1] does not fit. *)

val subgrid_indices : gamma_sub:int -> gamma:int -> m:int -> int array option
(** [subgrid_indices ~gamma_sub ~gamma ~m] maps the γ'-grid into the
    γ-grid when the former is an exact sub-grid of the latter: entry
    [i] is the index in [grid ~gamma ~m] of direction [i] of
    [grid ~gamma:gamma_sub ~m].  Returns [None] unless [gamma_sub]
    divides [gamma] {e and} every shared angle is bit-identical in
    floating point (always true when [gamma / gamma_sub] is a power of
    two) — so reusing the corresponding columns of a cached regret
    matrix is exact, never approximate.  This is how the query server
    serves a γ' query from a γ matrix without rebuilding anything.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] if either
    gamma is < 1 or [m < 2]. *)

val random : Rrms_rng.Rng.t -> count:int -> m:int -> Rrms_geom.Vec.t array
(** [count] directions with each polar angle drawn uniformly from
    \[0, π/2\] (§5.2's "uniformly at random" alternative). *)

val force_directed :
  ?iterations:int ->
  ?step:float ->
  Rrms_rng.Rng.t ->
  count:int ->
  m:int ->
  Rrms_geom.Vec.t array
(** §5.2's Barycentric/force-directed alternative: start from {!random}
    and relax — every pair of directions repels with force ∝ 1/d², each
    point moves along the tangential component of the net force, is
    re-normalized, and is clamped to the non-negative orthant; repeat
    [iterations] times (default 100, [step] default 0.05).  The result
    spreads the [count] directions nearly evenly over the quarter
    hypersphere. *)

val min_pairwise_angle : Rrms_geom.Vec.t array -> float
(** Smallest angular distance between two of the directions — the
    quality measure for a spread (bigger is better). *)

val max_coverage_angle :
  ?samples:int -> Rrms_rng.Rng.t -> Rrms_geom.Vec.t array -> m:int -> float
(** Monte-Carlo estimate of the covering radius: the largest angle from
    a random direction to its nearest sample.  Drives the empirical
    check of Theorem 4's α'/2 bound. *)

val alpha : gamma:int -> float
(** The grid step [α = π / (2γ)] (Equation 6). *)

val theorem4_alpha' : gamma:int -> m:int -> float
(** Equation 19: the worst angular distance [α'] between a ranking
    function and the discretized grid,
    [α' = 2·asin(√((1 - cos^(m-1) α) / 2))]. *)

val theorem4_c : gamma:int -> m:int -> float
(** The contraction constant of Theorem 4:
    [c = cos(α'/2)·cos(π/4) / cos(π/4 - α'/2)].  The regret of HD-RRMS
    satisfies [E ≤ c·E_opt + (1 - c)]. *)

val theorem4_bound : gamma:int -> m:int -> eps:float -> float
(** [theorem4_bound ~gamma ~m ~eps = c·eps + (1 - c)] (Equation 8):
    the guaranteed regret for any set achieving regret [eps] on the
    grid. *)
