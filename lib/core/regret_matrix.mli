(** The discretized regret matrix M (§4.2–4.3).

    Rows are candidate tuples (the skyline suffices, by Theorem 1),
    columns are the discretized ranking functions; cell [(i, f)] is the
    regret ratio a user of function [f] suffers if tuple [i] alone is
    kept.  HD-RRMS and HD-GREEDY both operate on this matrix.

    The storage is a single flat row-major unboxed float buffer, so row
    scans are stride-1 and a row copy is one [Array.blit].  Matrices are
    immutable after {!build}. *)

type t

val build :
  ?domains:int ->
  ?guard:Rrms_guard.Guard.Budget.t ->
  funcs:Rrms_geom.Vec.t array ->
  Rrms_geom.Vec.t array ->
  t
(** [build ~funcs points] computes the full matrix in O(|points|·|F|·m),
    spread over [domains] worker domains (default:
    {!Rrms_parallel.Pool.default_size}; the result is bit-identical for
    every domain count).  Rows are exactly the given points (pre-filter
    to the skyline for the paper's setting).  Columns whose best
    database score is not positive yield all-zero regret.  When [guard]
    carries a cell cap, the [rows × cols] estimate is checked {e
    before} allocating.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] if either
    array is empty, [Resource_limit] if the matrix would exceed the
    guard's cell cap. *)

val update :
  ?domains:int ->
  ?guard:Rrms_guard.Guard.Budget.t ->
  t ->
  funcs:Rrms_geom.Vec.t array ->
  points:Rrms_geom.Vec.t array ->
  carried:int array ->
  t * int array
(** [update t ~funcs ~points ~carried] is
    [(build ~funcs points, changed_cols)] computed incrementally:
    [points] is the {e new} row set and [carried.(i)] names the old row
    of [t] holding the same point ([-1] for a fresh row).  Columns whose
    best score provably did not move (the old best is positive, a
    carried row's [0.] cell witnesses that it is still attained, and no
    fresh row exceeds it) blit every carried cell verbatim; all other
    columns rerun {!build}'s best scan and cell kernel in the new row
    order.  The result is bit-identical to [build ~funcs points] for
    every split of rows into carried/fresh and every domain count.
    [changed_cols] lists (ascending) the columns whose best score is not
    bitwise equal to [t]'s — when it is empty, every carried row's cells
    are unchanged from [t], which is what lets MRST probe state rebase
    ({!Mrst.Incremental.rebase}).  [funcs] must be the grid [t] was
    built with and carried points must be the identical values.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] on empty
    points, a funcs/width mismatch, or a bad [carried] spec;
    [Resource_limit] past the guard's cell cap. *)

val select_cols : t -> int array -> t
(** [select_cols t cols] is the sub-matrix of the given function
    columns, in the given order, copied into a fresh contiguous buffer.
    Cell values and per-column best scores are the parent's verbatim
    (the distinct-value cache starts empty), so solving on the
    sub-matrix is bit-identical to solving on a matrix built from the
    corresponding function subset.  Pairs with
    {!Discretize.subgrid_indices} to serve a γ'-grid query from a cached
    γ-grid matrix.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] on a bad
    column index or when [cols] is empty. *)

val materialize : t -> t
(** The identity: every matrix is contiguous.  Kept only for the
    benchmark replay in [perfbench/trace.ml], which calls it after
    {!select_cols}. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
(** [get t i f] = M\[i, f\].
    @raise Invalid_argument when [i] or [f] is out of range. *)

val column_best_score : t -> int -> float
(** The database-wide best score of column [f]'s function. *)

val blit_row : t -> int -> float array -> unit
(** [blit_row t i dst] copies row [i]'s [cols t] cells into
    [dst.(0 .. cols t - 1)] with a single [Array.blit].
    @raise Invalid_argument if [i] is out of range or [dst] is shorter
    than [cols t]. *)

val row_update_mins : t -> int -> float array -> unit
(** [row_update_mins t i mins] folds row [i] into the per-column running
    minima: [mins.(f) <- min mins.(f) M[i,f]] for every column, using
    the same [<] comparison as {!regret_of_rows}. *)

val row_worst_against : t -> int -> float array -> float
(** [row_worst_against t i current] =
    [max_f (Float.min current.(f) M[i,f])]: the maximum regret of a set
    whose per-column minima are [current] after adding row [i].  The
    inner HD-GREEDY sweep, one contiguous row scan per candidate. *)

val distinct_values : t -> float array
(** All distinct cell values, sorted ascending — the binary-search
    domain of Algorithm 4.  Includes at least [0.] when the matrix has a
    zero cell.  Computed once per matrix (one flatten + one sort + one
    dedup scan) and cached — matrices are immutable, so the cache never
    invalidates and repeated solver calls on a stored artifact pay
    nothing.  The returned array is the cache itself: treat it as
    read-only. *)

val regret_of_rows : t -> int array -> float
(** [regret_of_rows t rs] = the discretized maximum regret of keeping
    the row subset [rs]: [max_f min_{i∈rs} M[i,f]].
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] if [rs]
    is empty, [Invalid_argument] on an out-of-range row index. *)
