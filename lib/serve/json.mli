(** Minimal JSON for the wire protocol of [rrms.serve].

    The serving layer is zero-new-dependency by design (ROADMAP:
    nothing beyond the toolchain), so this is a small, complete
    JSON implementation: a recursive-descent parser for one request
    line and a deterministic printer for the response line.

    Determinism matters more than prettiness here: the result cache
    stores {!t} values and the protocol tests assert that a cache hit
    serializes {e bit-identically} to the cold solve that populated it.
    The printer therefore emits object fields in construction order,
    escapes strings canonically, and prints floats with ["%.17g"]
    (round-trip exact) — integral values within [2^53] are printed
    without a decimal point so counters read naturally.

    A cached answer is printed once, when it enters the cache; every
    reply that carries it splices those bytes back in as a {!Raw}
    value instead of printing the tree again. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string
      (** Printer-only: already-encoded JSON text, emitted verbatim by
          {!to_string}.  {!parse} never produces it and the accessors
          see through nothing in it; the caller guarantees it is one
          valid JSON value (in practice, an earlier {!to_string}). *)

val max_depth : int
(** Deepest array/object nesting {!parse} accepts (512). *)

val parse : string -> (t, string) result
(** Parse one JSON document.  Trailing garbage after the document, and
    any syntax error, yield [Error message]; the parser accepts the
    full JSON grammar (nesting, escapes, [\uXXXX], exponents) but — by
    design for a line-delimited protocol — no literal newlines inside
    strings (they cannot appear in one line anyway).  A document nested
    deeper than {!max_depth} is an [Error] too, so a hostile line cannot
    overflow the stack. *)

val to_string : t -> string
(** Deterministic single-line serialization (see preamble).  Non-finite
    numbers (which valid requests cannot produce, but a defensive
    printer must handle) are emitted as [null]. *)

val write : Buffer.t -> t -> unit
(** [to_string t] without the copy: append [t]'s encoding to a buffer,
    for a caller that writes an envelope around it. *)

val number_string : float -> string
(** How {!to_string} prints a [Num]: integral values below [2^53] as
    [Printf.sprintf "%.0f"] would (["-0"] for negative zero), other
    finite values with ["%.17g"], non-finite ones as [null]. *)

(** {2 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on absent field or non-object.  With
    duplicate keys, the first one. *)

val field : string -> (string * t) list -> t option
(** [member] over an object's field list. *)

val str : t -> string option
val num : t -> float option

val int_ : t -> int option
(** [Num v] when [v] is integral and fits an [int]. *)

(** {2 Constructors} *)

val int : int -> t
val float : float -> t
