(** In-memory databases of numeric tuples.

    A dataset is an immutable collection of [n] tuples over [m] named
    numeric attributes, all non-negative and "higher is better" — the data
    model of the paper (§2).  Tuples are stored as one [float array] per
    row, shared with {!Rrms_geom.Vec.t} so algorithms can score rows with
    no conversion. *)

type t

val create : ?name:string -> attributes:string array -> Rrms_geom.Vec.t array -> t
(** [create ~attributes rows] builds a dataset.  Every row must have
    length [Array.length attributes] and only finite, non-negative
    values.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] (with the
    offending row and attribute) otherwise, or if there are no
    attributes. *)

val with_rows : t -> fresh:int array -> Rrms_geom.Vec.t array -> t
(** [with_rows d ~fresh rows] is a dataset with [d]'s name and
    attributes over [rows] (not copied), validating only the rows at the
    positions [fresh] exactly as {!create} validates every row.  Every
    other row must be one that an existing dataset with the same
    attributes already holds: it passed validation when it entered, so
    checking it again would re-read cells that cannot have changed.
    The store builds each mutated generation this way.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] as
    {!create}, for a bad fresh row. *)

val name : t -> string
val attributes : t -> string array
val size : t -> int
(** Number of tuples, [n]. *)

val dim : t -> int
(** Number of attributes, [m]. *)

val row : t -> int -> Rrms_geom.Vec.t
(** [row d i] is the i-th tuple.  The array is shared, do not mutate. *)

val rows : t -> Rrms_geom.Vec.t array
(** All rows; the outer array is fresh, the rows are shared. *)

val shared_rows : t -> Rrms_geom.Vec.t array
(** All rows in the dataset's own outer array, not copied: callers must
    not mutate it.  For holders that keep the dataset resident and
    should not pay for a second outer array. *)

val value : t -> int -> int -> float
(** [value d i j] is attribute [j] of tuple [i]. *)

val project : t -> int array -> t
(** [project d cols] keeps only the given attribute columns (in the given
    order).  @raise Invalid_argument on bad column indices. *)

val take : t -> int -> t
(** [take d k] is the dataset of the first [min k n] tuples.  Used by the
    vary-[n] experiments, which grow a prefix of one generated dataset. *)

val select : t -> int array -> t
(** [select d idxs] is the sub-dataset of the given row indices. *)

val normalize : t -> t
(** Scale each attribute to \[0, 1\] by dividing by its maximum (columns
    with maximum 0 are left untouched).  Regret ratios are invariant
    under per-dataset uniform scaling but not per-attribute scaling, so
    experiments normalize first, as is standard for this literature. *)

val to_csv : t -> string -> unit
(** [to_csv d path] writes a header line with attribute names and one
    comma-separated line per tuple. *)

type load_mode =
  | Strict  (** reject the file on the first malformed row *)
  | Lenient  (** drop malformed rows and report them as warnings *)

type load_warning = {
  line : int;  (** 1-based line number in the file *)
  column : string option;  (** offending attribute, when identifiable *)
  reason : string;
}

val of_csv_report :
  ?name:string -> ?mode:load_mode -> string -> t * load_warning list
(** [of_csv_report path] reads a CSV file (header required).  The
    header is validated {e before} any data row is read — attribute
    names must be non-empty and unique, and a header whose every cell
    parses as a number is rejected as a missing-header file — so a bad
    header fails fast instead of after scanning the whole file.  A row
    is malformed when its cell count differs from the header's, a cell
    is not a number, or a value is NaN, ±inf or negative.  Under
    [Strict] (the default) the first malformed row raises
    [Guard_error (Invalid_input _)] carrying its line number and
    attribute; under [Lenient] malformed rows are dropped and returned
    as warnings in file order (the warning list is empty under
    [Strict]).
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] on an
    empty file, a bad header, any malformed row in [Strict] mode, or
    when no data row survives (a 0-tuple dataset is never returned). *)

val of_csv : ?name:string -> string -> t
(** [of_csv path] is [of_csv_report ~mode:Strict path] without the
    (necessarily empty) warning list. *)

val pp : Format.formatter -> t -> unit
(** Short human-readable summary: name, [n], [m]. *)
