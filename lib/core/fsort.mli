(** The sorting kernel behind a regret matrix's cell order.

    [Array.sort] with a [(Float.compare value, index)] comparator pays
    an indirect closure call per comparison; on the ~10^6 cells of a
    regret matrix that dominates the whole Algorithm-4 setup.  [order]
    reaches the same permutation without one.

    The permutation and the run starts are 4-byte ids in off-heap
    [Bigarray]s: half the bytes of an [int array], and nothing for the
    major GC to scan or move. *)

type ids = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

val max_length : int
(** [2^31 - 1]: the most values {!order} sorts.  Every id and the
    closing run start [n] must fit in an [int32]. *)

val check_length : int -> unit
(** [check_length n] returns when [n <= max_length].
    @raise Rrms_guard.Guard.Error.Guard_error [Resource_limit] otherwise,
    so an id never wraps. *)

val order : float array -> ids * ids
(** [order a] is [(ids, starts)]:
    - [ids] is the permutation of [0 .. n-1] ascending by
      [(Float.compare a.(i), i)] — a stable sort by value, so it is the
      unique sorted permutation whatever the algorithm;
    - the sorted sequence [a.(ids.{q})] splits into maximal runs of
      [=]-equal values; run [r] occupies positions
      [starts.{r} .. starts.{r + 1} - 1], and one sentinel entry
      [starts.{runs} = n] closes the last.  So run [r]'s first value,
      bit for bit, is [a.(ids.{starts.{r}})], and those values are [a]
      sorted with each value equal to its predecessor dropped.

    When every value lies in [0, 2) — always true for regret ratios of
    non-negative scores — an LSD radix sort on the IEEE-754 bit
    patterns, carrying each index as payload, runs in O(n); any other
    input (NaN, negatives, values ≥ 2) falls back to the comparator
    sort.
    @raise Rrms_guard.Guard.Error.Guard_error [Resource_limit] when [a]
    holds more than {!max_length} values. *)
