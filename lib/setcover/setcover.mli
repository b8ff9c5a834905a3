(** Set cover solvers.

    The MRST oracle (§4.4.1) reduces "which tuples satisfy a regret
    threshold?" to covering the discretized ranking functions with tuple
    rows.  The paper's theoretical algorithm assumes an exact solver on
    constant-size instances; its practical variant (§4.4.3) substitutes
    Chvátal's greedy, which guarantees an [H(|U|) ≤ ln|U| + 1]
    approximation.  Both are implemented here over one flat word array
    of {!Bitset} rows. *)

type instance = private {
  universe : int;  (** items are [0 .. universe-1] *)
  sets : int;  (** how many sets *)
  words : int array;
      (** every set as a row of [w = Bitset.nwords universe] words, row
          [i] at [words.(i*w) .. words.(i*w + w - 1)] (see
          {!Bitset.row_count}) *)
}
(** Sets stored flat and row-major, so the greedy scan reads every row
    in place.  The instance shares [words] with its maker: a caller
    that rewrites the rows between covers (the incremental MRST probe)
    covers the new rows with the same instance. *)

val make_instance : universe:int -> sets:int -> int array -> instance
(** [make_instance ~universe ~sets words] wraps [words], which it does
    not copy.
    @raise Invalid_argument if a size is negative, [words] does not hold
    exactly [sets] rows, or a row has a bit at or above [universe]. *)

val of_bitsets : universe:int -> Bitset.t array -> instance
(** The instance whose set [i] is a copy of [bitsets.(i)].
    @raise Invalid_argument if a set has the wrong width. *)

val set : instance -> int -> Bitset.t
(** A copy of set [i]. *)

val coverable : instance -> bool
(** True iff the union of all sets is the whole universe. *)

val greedy : ?limit:int -> ?bounds:int array -> instance -> int array option
(** Chvátal's greedy algorithm: repeatedly take the set covering the
    most uncovered items (ties to the smallest index).  Returns the
    chosen set indices in selection order, or [None] if the instance is
    not coverable.  Equal sets need no dedup: the first copy wins every
    tie and the others then gain nothing.  With [limit], the greedy
    stops once it holds [limit] sets without covering everything and
    returns [None] — so the answer is the unlimited cover when that has
    at most [limit] sets, and [None] otherwise.  [bounds.(i)], when
    given, must hold the size of set [i]; the greedy uses the array as
    its work space and leaves stale gains in it, so a caller that
    already knows the sizes passes a scratch copy of them and saves
    both the popcounts and the allocation.  O(|sets|² · words) in the worst
    case; stale gains bound the fresh ones, so most sets are skipped
    unread. *)

val exact : ?max_sets:int -> instance -> int array option
(** Optimal cover by depth-first branch-and-bound: branch on the
    lowest-index uncovered item, prune with the greedy upper bound and a
    simple lower bound.  Exponential in general — intended for the
    constant-size instances of the theoretical HD-RRMS and for tests.
    [max_sets] (default [max_int]) aborts branches deeper than that.
    Returns [None] when not coverable (or no cover within [max_sets]). *)
