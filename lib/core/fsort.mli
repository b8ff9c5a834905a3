(** The sorting kernel behind a regret matrix's cell order.

    [Array.sort] with a [(Float.compare value, index)] comparator pays
    an indirect closure call per comparison; on the ~10^6 cells of a
    regret matrix that dominates the whole Algorithm-4 setup.  [order]
    reaches the same permutation without one. *)

val order : float array -> int array * int array * float array
(** [order a] is [(ids, starts, values)]:
    - [ids] is the permutation of [0 .. n-1] ascending by
      [(Float.compare a.(i), i)] — a stable sort by value, so it is the
      unique sorted permutation whatever the algorithm;
    - the sorted sequence [a.(ids.(q))] splits into maximal runs of
      [=]-equal values; run [r] occupies positions
      [starts.(r) .. starts.(r + 1) - 1], and one sentinel entry
      [starts.(runs) = n] closes the last;
    - [values.(r)] is the first value of run [r], bit for bit — so
      [values] is [a] sorted with each value equal to its predecessor
      dropped.

    When every value lies in [0, 2) — always true for regret ratios of
    non-negative scores — an LSD radix sort on the IEEE-754 bit
    patterns, carrying each index as payload, runs in O(n); any other
    input (NaN, negatives, values ≥ 2) falls back to the comparator
    sort. *)
