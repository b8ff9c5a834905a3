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

val solve :
  ?solver:solver -> ?domains:int -> Regret_matrix.t -> eps:float -> int array option
(** [solve matrix ~eps] returns row indices covering every column within
    [eps], of minimum (Exact) or near-minimum (Greedy, the default)
    cardinality; [None] when some column cannot be satisfied by any
    single row.  The per-row thresholding scan fans out over [domains]
    worker domains (default {!Rrms_parallel.Pool.default_size}); the
    answer is identical for every domain count. *)

(** Incremental probing for Algorithm 4's binary search.

    [solve] rebuilds every row bitset from scratch in O(s·|F|) per
    probe.  The binary search, however, only ever moves the threshold —
    so [create] sorts each row's columns by cell value once, and each
    probe then derives the new bitsets by sliding a per-row prefix
    pointer, touching only the cells whose membership actually changed.
    A full search costs O(s·|F|·log|F|) setup plus O(changed cells) per
    probe, instead of O(s·|F|) per probe.

    For every ε, [Incremental.solve t ~eps] returns exactly what
    [solve matrix ~eps] returns — the probe sequence may move the
    threshold in either direction. *)
module Incremental : sig
  type t

  val create : ?domains:int -> Regret_matrix.t -> t
  (** Sort every row's columns by cell value (parallel over rows,
      deterministic: ties break on column index) and start with the
      empty prefix, i.e. a threshold below every cell. *)

  val rows : t -> int

  val cols : t -> int
  (** The column count of the matrix [t] was created (or rebased) from. *)

  val rebase : ?domains:int -> t -> Regret_matrix.t -> carried:int array -> t
  (** [rebase old matrix ~carried] is [create matrix] at reduced cost:
      [carried.(i)] names the row of [old] whose matrix cells are
      bitwise identical to row [i] of [matrix] ([-1] when there is no
      such row).  Carried rows share [old]'s per-row sorted orders by
      reference (they are immutable after creation); only fresh rows pay
      the tandem sort.  Probe state (bitsets, prefix positions) starts
      empty, exactly as after [create].  The caller owns the cell-equality
      contract — pair with {!Regret_matrix.update} returning an empty
      changed-column list.
      @raise Invalid_argument on a column-count or [carried] mismatch. *)

  val solve :
    ?solver:solver ->
    ?limit:int ->
    ?domains:int ->
    t ->
    eps:float ->
    int array option
  (** [solve t ~eps] = [Mrst.solve matrix ~eps] for the matrix [t] was
      created from, at incremental cost.  With [limit], the answer is
      that cover when it has at most [limit] rows and [None] otherwise —
      the question Algorithm 4's search asks — and the cover stops as
      soon as it knows. *)

  val last_crossed : t -> int
  (** Cells whose threshold membership the last {!solve} on [t]
      changed: the sum of its per-row prefix moves ([0] before the
      first). *)
end
