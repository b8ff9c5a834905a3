(** Dataset deltas: the core maintenance layer of the mutation
    subsystem.

    A mutation batch is applied with sequential left-to-right semantics
    to produce a {!plan}: the new row array plus the index
    correspondence between the old and new datasets — an old → new map
    and, the other way, the runs of carried rows.  The plan is what
    every incremental artifact step consumes — skyline maintenance
    here, matrix row carry-over via {!Regret_matrix.update}, and the
    serve layer's delta-scoped result-cache invalidation. *)

type mutation =
  | Insert of Rrms_geom.Vec.t  (** append a tuple at the end *)
  | Delete of int  (** remove the tuple at this current index *)
  | Upsert of int * Rrms_geom.Vec.t
      (** replace the tuple at this current index; the old identity is
          destroyed (artifact-wise a delete-at + insert-at: the row
          keeps its position but counts as fresh) *)

type run = {
  new_start : int;  (** first new index of the run *)
  old_start : int;  (** the base index carried to [new_start] *)
  len : int;  (** rows in the run, at least 1 *)
}
(** A maximal block of base rows carried unedited: new indices
    [new_start .. new_start + len - 1] hold base rows
    [old_start .. old_start + len - 1], in order. *)

type plan = {
  base : Rrms_geom.Vec.t array;
      (** the pre-batch rows — the very array passed to {!apply}, shared,
          not copied; {!update_skyline} reads departed skyline members
          from it *)
  rows : Rrms_geom.Vec.t array;  (** the mutated dataset's rows *)
  old_to_new : int array;
      (** base index → new index; [-1] when deleted or value-destroyed
          by an upsert *)
  runs : run array;
      (** the carried rows as runs, ascending and non-overlapping: one
          more than the edited base positions at most, so the new → old
          direction costs O(ops) to keep ({!origin} reads it) *)
  fresh : int array;
      (** new indices with no base origin, ascending; with [runs] they
          partition the new indices *)
}

val apply : ?dim:int -> Rrms_geom.Vec.t array -> mutation list -> plan
(** [apply rows muts] executes the batch in order.  Indices are
    interpreted against the {e current} sequence at each step (so a
    delete shifts everything after it, exactly like applying the ops
    one at a time).  Inserted/upserted values must have the base
    dimensionality ([dim] overrides it, required for an empty base) and
    be finite and non-negative.  The result may be empty — callers that
    must keep a dataset resident reject that case themselves.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] on a bad
    index, a dimension mismatch, or a non-finite / negative value. *)

val origin : plan -> int -> int
(** [origin plan j] is the base index that new row [j] was carried
    from, or [-1] for a fresh row (or an index outside the new rows).
    A binary search over [plan.runs]: O(log runs). *)

type skyline_path =
  | Remap  (** every old skyline member survives and no row is fresh *)
  | Merge  (** every old skyline member survives; some rows are fresh *)
  | Rebuild
      (** an old skyline member departed (deleted or upserted), so the
          rows it beat are re-examined *)
(** Which case a skyline update was: the labels classify the batch, and
    one code path serves all three. *)

val path_name : skyline_path -> string

val update_skyline :
  ?domains:int -> plan -> old_sky:int array -> int array * skyline_path
(** [update_skyline plan ~old_sky] is
    [Rrms_skyline.Skyline.sfs plan.rows] — bit-identical indices in
    bit-identical order — computed by one incremental
    {!Rrms_skyline.Skyline.extend} step.  [old_sky] must be the skyline
    of [plan.base].  The surviving members (remapped) are extended by
    the fresh rows plus every carried row that a departed member beat
    ({!Rrms_skyline.Skyline.beats}, read from [plan.base]): a carried
    row outside the old skyline was beaten by some old member, and if
    that member survived it still beats the row.  Cost
    O(s·|sky B|·m + n·d·m) for [s] old skyline members, [n] base rows,
    [m] attributes, [d] departed members and [B] the extension rows.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] when
    [old_sky] does not index the plan's base. *)

val sequence_preserved : plan -> old_sky:int array -> new_sky:int array -> bool
(** [sequence_preserved plan ~old_sky ~new_sky] is [true] iff the new
    skyline is, position by position, the same point sequence as the
    old one (same length, and [new_sky.(i)] carries exactly the base
    row [old_sky.(i)]).  Then every artifact that is a pure function of
    the skyline point sequence — the regret matrix, and any Theorem-1
    solver answer up to index names — is unchanged, which is the
    delta-invalidation rule that lets cached results survive a
    mutation with their [selected] indices remapped. *)

val carried_rows : plan -> old_sky:int array -> new_sky:int array -> int array
(** [carried_rows plan ~old_sky ~new_sky] maps each new skyline
    position to the old skyline position holding the identical point
    ([-1] for fresh rows) — the [carried] spec for
    {!Regret_matrix.update}.  Reads {!origin} per new member and an
    s-sized table of the old positions sorted by base index, so the
    cost is O(s·log s + s·log runs), nothing per row of the base.
    @raise Rrms_guard.Guard.Error.Guard_error [Invalid_input] when
    [old_sky] does not index the plan's base. *)
