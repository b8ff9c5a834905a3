(** Fixed-width bitsets over the universe [0, width).

    The MRST oracle (§4.4.1) turns every tuple row of the thresholded
    regret matrix into the set of ranking-function columns it covers;
    with `|F| = (γ+1)^(m-1)` columns these sets are wide but dense, so a
    packed int-array bitset keeps both the exact solver's dedup step
    and the greedy cover fast. *)

type t

val nwords : int -> int
(** [nwords width] packed words hold [width] bits: 63 per word (the
    OCaml native int), [0] for width [0]. *)

val create : int -> t
(** All-zero bitset of the given width.  @raise Invalid_argument if the
    width is negative. *)

val width : t -> int
val copy : t -> t
val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
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

val iter : (int -> unit) -> t -> unit
(** Iterate set bit positions in increasing order. *)

val elements : t -> int list

val of_list : int -> int list -> t
(** [of_list width elems].  @raise Invalid_argument on out-of-range
    elements. *)

(** {2 Rows of a flat word array}

    Many equal-width sets can share one [int array], set [i] of width
    [n] being the {!nwords}[ n] words from [i * nwords n]: bit [b] of
    the set is bit [b mod 63] of word [b / 63] of its row.  A {!t}'s
    own words have that layout, so a row and a bitset of the same
    width convert by a copy.  These read and write a row in place and
    allocate nothing.  Each raises [Invalid_argument] when the row
    does not lie inside the array. *)

val row_set : int array -> int -> int -> unit
(** [row_set words pos b] sets bit [b] (at least [0], below the row's
    width) of the row at [pos].
    @raise Invalid_argument if that bit's word is outside [words]. *)

val row_count : int array -> int -> int -> int
(** [row_count words pos len]: set bits of [words.(pos .. pos+len-1)]. *)

val row_diff_count : int array -> int -> minus:int array -> int
(** [row_diff_count words pos ~minus] = |row \ minus|, the row being the
    [Array.length minus] words from [pos]. *)

val row_union_into : int array -> int -> into:int array -> unit
(** [row_union_into words pos ~into] sets [into <- into ∪ row], the row
    being the [Array.length into] words from [pos]. *)

val of_row : int -> int array -> int -> t
(** [of_row width words pos]: a copy of the row of width [width] at
    [pos], as a bitset. *)

val blit_row : t -> int array -> int -> unit
(** [blit_row t words pos] writes [t]'s words over the row at [pos]. *)
