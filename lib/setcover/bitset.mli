(** Fixed-width bitsets over the universe [0, width).

    The MRST oracle (§4.4.1) turns every tuple row of the thresholded
    regret matrix into the set of ranking-function columns it covers;
    with `|F| = (γ+1)^(m-1)` columns these sets are wide but dense, so a
    packed int-array bitset keeps both the exact solver's dedup step
    and the greedy cover fast. *)

type t

val create : int -> t
(** All-zero bitset of the given width.  @raise Invalid_argument if the
    width is negative. *)

val width : t -> int
val copy : t -> t
val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
val unsafe_toggle : t -> int -> unit
(** [unsafe_toggle t i] flips bit [i] with no range check.  An MRST
    probe flips only columns of the matrix the bitset was sized for,
    so the index is in range by construction; out of range is
    undefined. *)

val is_empty : t -> bool

val popcount : int -> int
(** Set bits of one packed word (all 63 of them, so [popcount (-1) = 63]),
    in constant time. *)

val count : t -> int
(** Number of set bits, one {!popcount} per word. *)

val union_into : t -> into:t -> unit
(** [union_into s ~into] sets [into <- into ∪ s]. *)

val diff_count : t -> minus:t -> int
(** [diff_count s ~minus] = |s \ minus| without allocating. *)

val subset : t -> of_:t -> bool
(** [subset s ~of_:t] is [s ⊆ t]. *)

val equal : t -> t -> bool

val hash : t -> int
(** A non-negative hash of every word, consistent with {!equal}. *)

val words : t -> int
(** Packed words of [t]'s representation: what {!blit_to} writes. *)

val blit_to : t -> int array -> int -> unit
(** [blit_to t buf pos] copies [t]'s {!words} words into
    [buf.(pos ..)], without allocating. *)

val blit_from : t -> int array -> int -> unit
(** [blit_from t buf pos] overwrites [t] with the words [buf.(pos ..)]
    that a {!blit_to} of an equal-width set wrote. *)

val iter : (int -> unit) -> t -> unit
(** Iterate set bit positions in increasing order. *)

val elements : t -> int list

val of_list : int -> int list -> t
(** [of_list width elems].  @raise Invalid_argument on out-of-range
    elements. *)
