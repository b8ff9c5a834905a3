open Rrms_geom
module Guard = Rrms_guard.Guard
module Skyline = Rrms_skyline.Skyline
module Obs = Rrms_obs.Obs

module Metrics = struct
  let applied =
    Obs.Counter.make ~help:"dataset mutations applied" "rrms_delta_ops_total"

  (* Skyline maintenance case per mutation batch; one incremental step
     serves all three. *)
  let sky_remap =
    Obs.Counter.make
      ~help:"skyline updates with no fresh row and no departed member"
      "rrms_delta_skyline_remaps_total"

  let sky_merge =
    Obs.Counter.make
      ~help:"skyline updates with fresh rows and no departed member"
      "rrms_delta_skyline_merges_total"

  let sky_rebuild =
    Obs.Counter.make
      ~help:"skyline updates where an old skyline member departed"
      "rrms_delta_skyline_rebuilds_total"
end

type mutation = Insert of Vec.t | Delete of int | Upsert of int * Vec.t

type run = { new_start : int; old_start : int; len : int }

type plan = {
  base : Vec.t array;
  rows : Vec.t array;
  old_to_new : int array;
  runs : run array;
  fresh : int array;
}

let check_value ~dim ~what p =
  if Array.length p <> dim then
    Guard.Error.invalid_input
      (Printf.sprintf "%s: value has %d attributes, dataset has %d" what
         (Array.length p) dim);
  Array.iter
    (fun v ->
      if not (Float.is_finite v) || v < 0. then
        Guard.Error.invalid_input
          (Printf.sprintf "%s: values must be finite and non-negative" what))
    p

(* Sequential left-to-right semantics without moving any row: the
   current sequence is always the base rows not yet deleted, in order,
   followed by the live inserted values, in order — inserts only ever
   append.  So the ops become positional edits on the base (deleted,
   or upserted to a new value) plus the inserted tail, and the new
   arrays are each allocated once and filled in one pass.  Upsert
   destroys a value's identity: artifacts treat it as delete-at +
   insert-at, so an upserted row counts as fresh. *)
let apply ?dim rows muts =
  let n0 = Array.length rows in
  let dim =
    match dim with
    | Some d -> d
    | None ->
        if n0 = 0 then
          Guard.Error.invalid_input "Delta.apply: empty base needs ~dim"
        else Array.length rows.(0)
  in
  (* Edited base positions, ascending: [None] deleted, [Some v]
     upserted to [v]. *)
  let edits = ref [] in
  let rec put p e = function
    | (q, _) :: rest when q = p -> (p, e) :: rest
    | ((q, _) as x) :: rest when q < p -> x :: put p e rest
    | l -> (p, e) :: l
  in
  (* The inserted values still present, in order. *)
  let inserts =
    List.fold_left
      (fun acc op -> match op with Insert _ -> acc + 1 | _ -> acc)
      0 muts
  in
  let tail = Array.make inserts [||] and nt = ref 0 in
  let nb = ref n0 in
  (* The base position of the [i]-th base row still present. *)
  let base_pos i =
    List.fold_left
      (fun p (d, e) -> if Option.is_none e && d <= p then p + 1 else p)
      i !edits
  in
  let check_index ~what i =
    let len = !nb + !nt in
    if i < 0 || i >= len then
      Guard.Error.invalid_input
        (Printf.sprintf "%s: index %d out of range (current size %d)" what i
           len)
  in
  List.iter
    (fun op ->
      Obs.Counter.incr Metrics.applied;
      match op with
      | Insert p ->
          check_value ~dim ~what:"Delta.apply insert" p;
          tail.(!nt) <- p;
          incr nt
      | Delete i ->
          check_index ~what:"Delta.apply delete" i;
          if i < !nb then begin
            edits := put (base_pos i) None !edits;
            decr nb
          end
          else begin
            let j = i - !nb in
            Array.blit tail (j + 1) tail j (!nt - j - 1);
            decr nt
          end
      | Upsert (i, p) ->
          check_index ~what:"Delta.apply upsert" i;
          check_value ~dim ~what:"Delta.apply upsert" p;
          if i < !nb then edits := put (base_pos i) (Some p) !edits
          else tail.(i - !nb) <- p)
    muts;
  let nb = !nb in
  let n = nb + !nt in
  let rows' = Array.make n [||] in
  let old_to_new = Array.make n0 (-1) in
  let runs = ref [] and fresh = ref [] in
  let j = ref 0 and o = ref 0 in
  (* Carry the unedited base rows [!o, stop) as one run. *)
  let carry stop =
    let old_start = !o and new_start = !j in
    let len = stop - old_start in
    if len > 0 then begin
      Array.blit rows old_start rows' new_start len;
      for k = 0 to len - 1 do
        old_to_new.(old_start + k) <- new_start + k
      done;
      runs := { new_start; old_start; len } :: !runs;
      j := new_start + len
    end;
    o := stop
  in
  List.iter
    (fun (p, e) ->
      carry p;
      (match e with
      | None -> ()
      | Some v ->
          rows'.(!j) <- v;
          fresh := !j :: !fresh;
          incr j);
      o := p + 1)
    !edits;
  carry n0;
  Array.blit tail 0 rows' nb (n - nb);
  let fresh =
    Array.append
      (Array.of_list (List.rev !fresh))
      (Array.init (n - nb) (( + ) nb))
  in
  {
    base = rows;
    rows = rows';
    old_to_new;
    runs = Array.of_list (List.rev !runs);
    fresh;
  }

(* The last run starting at or before [j] is the only one that can
   hold it. *)
let origin plan j =
  let runs = plan.runs in
  let lo = ref 0 and hi = ref (Array.length runs) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if runs.(mid).new_start <= j then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then -1
  else
    let r = runs.(!lo - 1) in
    if j < r.new_start + r.len then r.old_start + (j - r.new_start) else -1

type skyline_path = Remap | Merge | Rebuild

let path_name = function
  | Remap -> "remap"
  | Merge -> "merge"
  | Rebuild -> "rebuild"

(* One exact step for every case (Skyline.extend).  A row is in a
   skyline iff no row beats it (Skyline.beats), and carried rows keep
   their relative order, so between carried rows "beats" is the same
   relation before and after the batch.  A carried row outside the old
   skyline was beaten by some old skyline member; if that member
   survived, it still beats the row.  So every row of the new skyline is
   a surviving old member, a fresh row, or a carried row that a
   departed member (deleted, or value-destroyed by an upsert) beat —
   and those last are found by one scan of the base per departed
   member.  The surviving members are pairwise unbeaten, which is
   [extend]'s contract, so the result is bit-identical to
   [Skyline.sfs plan.rows].  The path label only classifies the case. *)
let update_skyline ?domains plan ~old_sky =
  let n0 = Array.length plan.old_to_new in
  Array.iter
    (fun g ->
      if g < 0 || g >= n0 then
        Guard.Error.invalid_input
          "Delta.update_skyline: skyline index out of range for the base")
    old_sky;
  let survivors, departed =
    List.partition (fun g -> plan.old_to_new.(g) >= 0) (Array.to_list old_sky)
  in
  let kept = Array.of_list (List.map (fun g -> plan.old_to_new.(g)) survivors) in
  (* No old skyline member is beaten, so this finds only carried
     non-skyline rows. *)
  let exposed =
    if departed = [] then [||]
    else begin
      let acc = ref [] in
      for o = n0 - 1 downto 0 do
        let j = plan.old_to_new.(o) in
        if j >= 0 && List.exists (fun d -> Skyline.beats plan.base d o) departed
        then acc := j :: !acc
      done;
      Array.of_list !acc
    end
  in
  let path =
    if departed <> [] then Rebuild
    else if Array.length plan.fresh = 0 then Remap
    else Merge
  in
  Obs.Counter.incr
    (match path with
    | Remap -> Metrics.sky_remap
    | Merge -> Metrics.sky_merge
    | Rebuild -> Metrics.sky_rebuild);
  ( Skyline.extend ?domains plan.rows ~sky:kept
      ~extra:(Array.append plan.fresh exposed),
    path )

let sequence_preserved plan ~old_sky ~new_sky =
  Array.length old_sky = Array.length new_sky
  &&
  let rec same i =
    i = Array.length new_sky
    ||
    let o = origin plan new_sky.(i) in
    o >= 0 && o = old_sky.(i) && same (i + 1)
  in
  same 0

(* Old skyline positions ordered by base index: an s-sized table that
   one binary search per new member reads. *)
let carried_rows plan ~old_sky ~new_sky =
  let n0 = Array.length plan.old_to_new in
  Array.iter
    (fun g ->
      if g < 0 || g >= n0 then
        Guard.Error.invalid_input
          "Delta.carried_rows: skyline index out of range for the base")
    old_sky;
  let s = Array.length old_sky in
  let by_base = Array.init s Fun.id in
  Array.sort (fun a b -> Int.compare old_sky.(a) old_sky.(b)) by_base;
  let position o =
    let lo = ref 0 and hi = ref s in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if old_sky.(by_base.(mid)) < o then lo := mid + 1 else hi := mid
    done;
    if !lo < s && old_sky.(by_base.(!lo)) = o then by_base.(!lo) else -1
  in
  Array.map
    (fun g ->
      let o = origin plan g in
      if o >= 0 then position o else -1)
    new_sky
