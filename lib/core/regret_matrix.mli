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
    are unchanged from [t].  The result's cell order starts empty.
    [funcs] must be the grid [t] was built with and carried points must
    be the identical values.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] on empty
    points, a funcs/width mismatch, or a bad [carried] spec;
    [Resource_limit] past the guard's cell cap. *)

val select_cols : t -> int array -> t
(** [select_cols t cols] is the sub-matrix of the given function
    columns, in the given order, copied into a fresh contiguous buffer.
    Cell values and per-column best scores are the parent's verbatim
    (the cell-order cache starts empty), so solving on the
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

val fmin : float -> float -> float
(** [fmin x y] = [Float.min x y], NaN and ±0 included.  Two strict
    comparisons settle distinct ordered values inline; only ties and
    NaNs reach [Float.min], whose sign-bit tests are C calls when the
    compiler does not inline them. *)

val row_max : t -> int -> float
(** [row_max t i] is row [i]'s largest cell (NaN cells skipped;
    [neg_infinity] if every cell is NaN): its HD-GREEDY value against
    the empty set, bit for bit what {!row_improve} computes against an
    all-[infinity] coverage and an infinite bound.
    @raise Invalid_argument if [i] is out of range. *)

val row_improve :
  t -> int -> float array -> order:int array -> float array -> at:int -> int
(** One HD-GREEDY candidate: does adding row [i] to a set whose
    per-column minima are [current] beat the bound [cell.(at)]?  The
    row's value is [max_f (fmin current.(f) M[i,f])], the maximum
    regret of the set with row [i] added ({!fmin} is [Float.min]
    without a C call per cell).  Only a column [f] with
    [current.(f) >= bound] can lift that to the bound, so the row is
    first searched for a witness [f] with [fmin current.(f) M[i,f] >=
    bound] along [order], for as long as [current] stays at or above
    the bound; a witness dismisses the row.  Without one the row is
    scanned from column 0 until its running maximum reaches the bound,
    and a value below the bound is exact and is stored in [cell.(at)].
    [order] should list the columns by non-increasing [current] (the
    greedy sorts them once per step), so the search sees every column
    that could be a witness; any order of valid columns gives the same
    result, at a different cost.  Returns the cells read (the search's,
    plus the scan's).  Bound and value travel through [cell], so a call
    allocates nothing, not even a boxed float.
    @raise Invalid_argument if [i] or a searched entry of [order] is
    out of range, or [current] or [order] is shorter than [cols t]. *)

type cell_order = {
  cells : Fsort.ids;
      (** every cell id [i·cols + f], stably sorted by value: ascending
          by [(Float.compare M[i,f], id)] *)
  starts : Fsort.ids;
      (** [starts.{r}] is the first position in [cells] of the [r]-th
          run of equal values; one sentinel entry [= dim cells] closes
          the last run *)
}
(** The matrix's cells in value order — the one sort behind both
    Algorithm 4's thresholds ({!distinct_value}) and every MRST probe
    ({!Mrst.Incremental}): a threshold at run [r]'s value admits
    exactly the cells [cells.{0 .. starts.{r + 1} - 1}].  Both arrays
    hold 4-byte ids off the OCaml heap, 4 bytes per cell plus 4 per
    run; a run's value is not stored, since its first cell holds it. *)

val cell_order : t -> cell_order
(** The cell order, computed on first use (one {!Fsort.order} of every
    cell) and cached — matrices are immutable, so the cache never
    invalidates.  The arrays are the cache itself: treat them as
    read-only.
    @raise Rrms_guard.Guard.Error.Guard_error [Resource_limit] when the
    matrix has more than {!Fsort.max_length} cells. *)

val distinct_count : t -> int
(** The number of distinct cell values: the runs of {!cell_order},
    which it computes on first use. *)

val distinct_value : t -> int -> float
(** [distinct_value t r] is the [r]-th smallest distinct cell value,
    read from run [r]'s first cell: O(1) once the cell order exists.
    @raise Invalid_argument unless [0 <= r < distinct_count t]. *)

val distinct_values : t -> float array
(** All distinct cell values, sorted ascending — the binary-search
    domain of Algorithm 4, as a fresh array of {!distinct_value} for
    every run.  Includes at least [0.] when the matrix has a zero cell.
    Equal to sorting every cell and dropping each value equal to its
    predecessor.  The search itself reads {!distinct_value} and never
    builds this array. *)

val regret_of_rows : ?mins:float array -> t -> int array -> float
(** [regret_of_rows t rs] = the discretized maximum regret of keeping
    the row subset [rs]: [max_f min_{i∈rs} M[i,f]].  The per-column
    minima are built in [mins] when it is given (its first [cols t]
    entries are overwritten), so a caller that keeps a buffer allocates
    nothing; otherwise in a fresh array.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] if [rs]
    is empty, [Invalid_argument] on an out-of-range row index or a
    [mins] shorter than [cols t]. *)

val regret_of_minima : t -> float array -> float
(** [regret_of_minima t mins] = [max_f mins.(f)] over the first
    [cols t] entries, and at least [0.]: the regret of a row set whose
    per-column minima {!row_update_mins} built in [mins] from
    [infinity].  {!regret_of_rows} ends with exactly this, so the two
    agree bit for bit.
    @raise Invalid_argument if [mins] is shorter than [cols t]. *)
