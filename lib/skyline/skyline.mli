(** Skyline (maximal-vector) computation.

    The skyline of a database is the set of tuples not dominated by any
    other tuple; it is the maxima representative for arbitrary monotone
    ranking functions and, by the paper's Theorem 1, the search space of
    the RRMS problem can be restricted to it.  Three algorithms are
    provided:

    - {!bnl}: Block-Nested-Loop [Börzsönyi et al., ICDE'01] — the
      algorithm the paper uses for its 2D pipeline; `O(n·s)` worst case.
    - {!sfs}: Sort-Filter-Skyline — presorts by attribute sum so every
      kept tuple is final; usually much faster in high dimensions.
    - {!two_d}: `O(n log n)` sort-and-sweep, exact for [m = 2].

    All return {e indices into the input} of one representative per
    distinct skyline point (duplicates collapse), in unspecified order
    except {!two_d}, which returns them sorted top-left to bottom-right
    (A₂ descending / A₁ ascending) — the order the 2D DP requires. *)

val bnl : Rrms_geom.Vec.t array -> int array
(** Block-Nested-Loop skyline. *)

val sfs : ?domains:int -> Rrms_geom.Vec.t array -> int array
(** Sort-Filter-Skyline.  Returns the rows no other row {!beats}, in
    SFS order: attribute sum ([Array.fold_left ( +. ) 0.]) descending,
    then index ascending.  The dominance filter fans its
    candidate-vs-survivor checks out over [domains] worker domains
    (default {!Rrms_parallel.Pool.default_size}); the returned indices
    are identical for every domain count. *)

val beats : Rrms_geom.Vec.t array -> int -> int -> bool
(** [beats points q p]: row [q] strictly dominates row [p], or the two
    are equal and [q < p].  The skyline is the set of unbeaten rows, so
    this is the one dominance rule {!sfs} and {!extend} share.
    @raise Invalid_argument if the two rows differ in dimension. *)

val extend :
  ?domains:int -> Rrms_geom.Vec.t array -> sky:int array -> extra:int array ->
  int array
(** [extend points ~sky ~extra] is the incremental {!sfs}: the rows of
    [sky ∪ extra] that nothing in it beats, in SFS order.  [sky] must be
    pairwise unbeaten (for example a previous skyline, remapped), the
    two sets disjoint, and every unbeaten row of [points] in one of
    them; then the result is bit-identical to [sfs points].  [sky] is
    never compared with itself: rows of [extra] that [sky] beats are
    dropped first (O(|extra|·|sky|·m) at worst, usually far less), the
    rest go through one {!sfs} pass, and [sky] is checked against that
    pass's output only — O(|sky|·|sky B|·m) for the result [sky B].
    Each row's SFS key (its attribute sum) is computed once.
    @raise Invalid_argument on an out-of-range index or a dimension
    mismatch. *)

val merge_partitions :
  ?domains:int -> Rrms_geom.Vec.t array -> int array array -> int array
(** [merge_partitions points parts] computes the skyline of [points]
    from per-part candidate sets: [skyline(D) = skyline(∪ᵢ skyline(Dᵢ))]
    for any partition [{Dᵢ}] of the index space.  Each element of
    [parts] holds {e global} indices into [points]; the parts must
    jointly contain every skyline representative of [points] — the
    per-part {!sfs} skylines of a partition always do.  Under that
    contract the result is {e bit-identical} (same indices, same order)
    to [sfs points]: candidates are re-sorted by global index before the
    merging SFS pass, so sort order and duplicate representatives match
    the direct run.  This is the shard-merge primitive of the serving
    layer.
    @raise Invalid_argument on an out-of-range index. *)

val two_d : Rrms_geom.Vec.t array -> int array
(** 2D sweep skyline, sorted top-left → bottom-right.
    @raise Invalid_argument if points are not 2-dimensional. *)

val is_skyline_point : Rrms_geom.Vec.t array -> int -> bool
(** [is_skyline_point points i] checks by linear scan whether point [i]
    is dominated by no other point (treating duplicates as
    non-dominating).  O(n·m); meant for tests and assertions. *)

val size_of : Rrms_geom.Vec.t array -> int
(** [size_of points] = number of skyline points (via {!sfs}). *)
