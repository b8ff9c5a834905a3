(** ONION: layered maxima-hull indexing for 2D linear maxima queries
    (Chang et al., SIGMOD'00 — the index the paper's introduction
    motivates against).

    ONION peels the database into layers: layer 1 is the maxima hull of
    all tuples, layer 2 the maxima hull of the rest, and so on.  Because
    every tuple below a layer's chain scores below that layer's envelope
    for {e every} non-negative weight vector, the top-k answers of any
    such query lie within the first k layers, so ONION answers top-k
    {e exactly} — at the cost of storing whole hulls per layer.  The
    RRMS sets of this library are the competing design point: a fixed
    budget of [r] tuples with a bounded, non-zero regret.  The
    [onion] bench contrasts the two (index size vs answer quality).

    Only [m = 2] is supported (the paper's own ONION experiments are
    low-dimensional; peeling uses {!Rrms_geom.Hull2d}). *)

type t

val build : ?max_layers:int -> Rrms_geom.Vec.t array -> t
(** Peel up to [max_layers] (default: until exhausted) maxima-hull
    layers.  O(L·n·log n).
    @raise Invalid_argument on empty or non-2D input. *)

val depth : t -> int
(** Number of layers actually built. *)

val layer : t -> int -> int array
(** [layer t i] = members of the i-th layer (0-based), as indices into
    the original input, in chain order.  Fresh copy. *)

val size_upto : t -> int -> int
(** [size_upto t k] = total tuples in the first [k] layers — the index
    footprint needed to guarantee exact top-[k]. *)

val exhaustive : t -> bool
(** True when every input tuple was assigned a layer (no [max_layers]
    truncation), i.e. arbitrary-depth queries are answerable. *)

val top1 : t -> Rrms_geom.Vec.t -> int
(** Exact top-1 for non-negative weights, via an O(log c) binary search
    on layer 1's angle list.
    @raise Invalid_argument if the weight vector is not 2D or is 0. *)

val topk : t -> Rrms_geom.Vec.t -> k:int -> int array
(** Exact top-k for non-negative weights: gathers the first [k] layers
    and selects the [k] best (ties broken by smaller input index).
    Returns fewer than [k] when the whole database is smaller; raises
    [Invalid_argument] if [k] exceeds the built depth on a truncated
    index ([exhaustive t = false] and [k > depth t]) since exactness
    could not be guaranteed. *)
