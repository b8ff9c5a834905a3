(** MRST — Minimum Rows Satisfying a Threshold (§4.4.1, Algorithm 5).

    Given the discretized regret matrix and a threshold ε, find the
    fewest rows such that every column has some selected row with cell
    value ≤ ε.  The reduction: threshold the matrix to 0/1 and solve set
    cover — exactly (branch and bound) for the theoretical algorithm, or
    with Chvátal's greedy for the practical one (§4.4.3).  Only the
    exact solver collapses duplicate rows first: the greedy keeps the
    first of equal rows on every tie, so it returns the same rows
    without the collapse. *)

type solver = Exact | Greedy

val solve : ?solver:solver -> Regret_matrix.t -> eps:float -> int array option
(** [solve matrix ~eps] returns row indices covering every column within
    [eps], of minimum (Exact) or near-minimum (Greedy, the default)
    cardinality; [None] when some column cannot be satisfied by any
    single row.  It thresholds every row from scratch, serially, in
    O(s·|F|): the reference that {!Incremental} is tested against.  No
    served path calls it; Algorithm 4 probes through {!Incremental}. *)

(** Incremental probing for Algorithm 4's binary search.

    [solve] rebuilds every row bitset from scratch in O(s·|F|) per
    probe.  The binary search, however, only ever moves the threshold,
    and a threshold admits a prefix of the matrix's value-sorted cells
    ({!Regret_matrix.cell_order}, the same sort behind
    {!Regret_matrix.distinct_value}).  So the probe state is the
    admitted prefix, and each probe toggles only the cells between the
    old and the new threshold.  A full search costs the one cached sort
    plus O(changed cells) per probe, instead of O(s·|F|) per probe.

    The state's row bitsets are one flat row-major word array,
    [w = Bitset.nwords |F|] words per row ({!Rrms_setcover.Bitset.row_count}
    documents the layout), and that array is the
    {!Rrms_setcover.Setcover.instance} every probe's greedy cover reads
    in place: a toggle flips one word of it, and no probe copies it.

    A state can also {!Incremental.save} copies of itself at up to
    seven levels (Algorithm 4 saves the first three levels of its
    bisection in a pooled state); a probe then starts from whichever of
    the current and the saved levels is fewest cells away, so a warm
    search toggles only the cells below those levels.

    For every ε, [Incremental.solve t ~eps] returns exactly what
    [solve matrix ~eps] returns — the probe sequence may move the
    threshold in either direction. *)
module Incremental : sig
  type t

  val create : ?domains:int -> Regret_matrix.t -> t
  (** Empty probe state — a threshold below every cell — over the
      matrix's cell order, which is computed here if no earlier call
      (e.g. {!Regret_matrix.distinct_count}) did.  [domains] is unused:
      the order is built serially. *)

  val rows : t -> int

  val cols : t -> int
  (** The column count of the matrix [t] was created from. *)

  val rebase : ?domains:int -> t -> Regret_matrix.t -> carried:int array -> t
  (** [rebase old matrix ~carried] is [create matrix], after checking
      that [matrix] has [old]'s column count and that [carried] maps
      each of its rows to a row of [old] or to [-1].  Nothing of [old]
      is reused: the probe state of a replaced matrix is dropped, and
      the new matrix's cell order is the one sort its
      {!Regret_matrix.distinct_count} needs anyway.  [domains] is
      unused.
      @raise Invalid_argument on a column-count or [carried] mismatch. *)

  val solve :
    ?solver:solver -> ?limit:int -> t -> eps:float -> int array option
  (** [solve t ~eps] = [Mrst.solve matrix ~eps] for the matrix [t] was
      created from, at incremental cost.  With [limit], the answer is
      that cover when it has at most [limit] rows and [None] otherwise —
      the question Algorithm 4's search asks — and the cover stops as
      soon as it knows.  It finds [eps]'s level by a binary search
      over the run values; {!solve_run} skips that search. *)

  val solve_run : ?solver:solver -> ?limit:int -> t -> int -> int array option
  (** [solve_run t r] = [solve t ~eps:(Regret_matrix.distinct_value
      matrix r)]: the probe at run [r]'s value, which admits runs
      [0 .. r] of the cell order.  Algorithm 4 probes this way, by run
      index, so no probe searches the runs for its threshold.
      @raise Invalid_argument unless [0 <= r < distinct_count matrix]. *)

  val save : t -> unit
  (** Keep a copy of the current state (one [Array.copy] of the row
      word array, one of the popcounts) as a starting point for later
      probes; a probe that starts there restores it with two blits.  A no-op when
      the current level is already saved or seven levels are. *)

  val last_crossed : t -> int
  (** Cells whose threshold membership the last {!solve} on [t]
      changed: the sum over rows of the change in how many of the row's
      cells are [<= eps] ([0] before the first).  It counts from the
      previous probe's threshold whatever state the probe started
      from. *)

  val last_toggled : t -> int
  (** Cells the last {!solve} on [t] actually toggled: at most
      {!last_crossed}, less when a saved state was nearer. *)

  val row : t -> int -> Rrms_setcover.Bitset.t
  (** A copy of row [i]'s current thresholded bitset, read out of the
      flat word array. *)

  val buffer : t -> float array
  (** A [cols t]-float work array that travels with the state and that
      nothing in [t] reads: a pooled state lends it to the caller's
      per-column scratch (Algorithm 4 builds its answer's column minima
      there), so a warm search allocates no |F|-sized array. *)
end
