open Rrms_setcover
module Obs = Rrms_obs.Obs

module Metrics = struct
  (* Fresh probes rebuild every row bitset; incremental probes toggle
     only the cells crossing the threshold.  Together these expose
     where Algorithm 4's O(log (distinct values)) probes spend their
     work. *)
  let fresh_solves =
    Obs.Counter.make ~help:"from-scratch MRST probes (full O(s*|F|) rescan)"
      "rrms_mrst_fresh_solves_total"

  let incremental_solves =
    Obs.Counter.make
      ~help:"incremental MRST probes (threshold-crossing toggles)"
      "rrms_mrst_incremental_solves_total"

  let cells_crossed =
    Obs.Counter.make
      ~help:"matrix cells whose threshold membership changed across all \
             incremental probes"
      "rrms_mrst_cells_crossed_total"

  (* What the probes paid: a probe that starts from a saved state
     toggles fewer cells than it crosses. *)
  let cells_toggled =
    Obs.Counter.make
      ~help:"matrix cells toggled by incremental probes (from the nearest \
             saved or current state)"
      "rrms_mrst_cells_toggled_total"
end

type solver = Exact | Greedy

(* Algorithm 5's cover step on the thresholded row bitsets.  Chvátal's
   greedy needs no dedup: it keeps the first of equal sets on every
   tie, the later copies then gain nothing, and empty rows never gain,
   so the greedy cover over all rows names the same rows as the greedy
   cover over first representatives.  The exact solver's branching
   does multiply with copies, so it still collapses duplicate
   non-empty bitsets in row order first, keyed on every word of each
   set.  [bounds], when given, holds the bitsets' popcounts and is the
   greedy's work space (see {!Setcover.greedy}). *)
module Bitset_tbl = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

let cover_of_bitsets ?(solver = Greedy) ?limit ?bounds ~universe bitsets =
  match solver with
  | Greedy ->
      Setcover.greedy ?limit ?bounds (Setcover.make_instance ~universe bitsets)
  | Exact ->
      let seen = Bitset_tbl.create 64 in
      let distinct = ref [] in
      Array.iteri
        (fun i b ->
          if (not (Bitset.is_empty b)) && not (Bitset_tbl.mem seen b) then begin
            Bitset_tbl.add seen b ();
            distinct := (i, b) :: !distinct
          end)
        bitsets;
      let pairs = Array.of_list (List.rev !distinct) in
      let instance = Setcover.make_instance ~universe (Array.map snd pairs) in
      Option.map
        (Array.map (fun si -> fst pairs.(si)))
        (Setcover.exact ?max_sets:limit instance)

let solve ?solver ?domains matrix ~eps =
  Obs.Counter.incr Metrics.fresh_solves;
  let n = Regret_matrix.rows matrix and k = Regret_matrix.cols matrix in
  (* Threshold every row into the bitset of columns it satisfies; rows
     are independent, so the scan fans out across the domain pool.  The
     row is blitted into a per-worker scratch buffer once, so the
     threshold loop reads contiguous floats even on a column view. *)
  let bitsets = Array.make n (Bitset.create 0) in
  Rrms_parallel.parallel_for_with ?domains ~min_chunk:16
    ~scratch:(fun () -> Array.make k 0.)
    n
    (fun row i ->
      Regret_matrix.blit_row matrix i row;
      let b = Bitset.create k in
      for f = 0 to k - 1 do
        if Array.unsafe_get row f <= eps then Bitset.set b f
      done;
      bitsets.(i) <- b);
  cover_of_bitsets ?solver ~universe:k bitsets

module Incremental = struct
  (* Probe state over the matrix's cell order.  A threshold admits a
     prefix of the order's runs, so the state is that prefix length plus
     the row bitsets and popcounts it implies.  A saved state is a flat
     copy of both at one level; a probe starts from whichever of the
     current and the saved levels is fewest cells away. *)
  type saved = { at : int; words : int array; counts : int array }

  type t = {
    universe : int;
    order : Regret_matrix.cell_order;
    bits : Bitset.t array; (* current thresholded bitset per row *)
    sizes : int array; (* per row: set bits of [bits] *)
    bounds : int array; (* the greedy cover's work space *)
    buffer : float array; (* per column: the caller's work space *)
    mutable saved : saved list; (* at distinct levels, at most [max_saved] *)
    mutable level : int; (* runs [0, level) are admitted *)
    mutable crossed : int; (* cells whose membership the last probe changed *)
    mutable toggled : int; (* cells the last probe toggled *)
  }

  (* The first three levels of Algorithm 4's bisection: 1 + 2 + 4. *)
  let max_saved = 7

  let create ?domains:_ matrix =
    let n = Regret_matrix.rows matrix and k = Regret_matrix.cols matrix in
    {
      universe = k;
      order = Regret_matrix.cell_order matrix;
      bits = Array.init n (fun _ -> Bitset.create k);
      sizes = Array.make n 0;
      bounds = Array.make n 0;
      buffer = Array.make k 0.;
      saved = [];
      level = 0;
      crossed = 0;
      toggled = 0;
    }

  let rows t = Array.length t.bits
  let cols t = t.universe
  let last_crossed t = t.crossed
  let last_toggled t = t.toggled
  let row t i = Bitset.copy t.bits.(i)
  let buffer t = t.buffer

  let rebase ?domains old matrix ~carried =
    let n = Regret_matrix.rows matrix and k = Regret_matrix.cols matrix in
    if old.universe <> k then
      invalid_arg "Mrst.Incremental.rebase: column counts differ";
    if Array.length carried <> n then
      invalid_arg "Mrst.Incremental.rebase: carried length mismatch";
    Array.iter
      (fun j ->
        if j >= rows old then
          invalid_arg "Mrst.Incremental.rebase: carried row out of range")
      carried;
    create ?domains matrix

  (* Every row bitset has the same word count, so row [i]'s words sit
     at [i * w] of a saved copy. *)
  let row_words t = Bitset.words t.bits.(0)

  let save t =
    if
      List.length t.saved < max_saved
      && not (List.exists (fun s -> s.at = t.level) t.saved)
    then begin
      let w = row_words t in
      let words = Array.make (rows t * w) 0 in
      Array.iteri (fun i b -> Bitset.blit_to b words (i * w)) t.bits;
      t.saved <- { at = t.level; words; counts = Array.copy t.sizes } :: t.saved
    end

  let restore t s =
    let w = row_words t in
    Array.iteri (fun i b -> Bitset.blit_from b s.words (i * w)) t.bits;
    Array.blit s.counts 0 t.sizes 0 (rows t);
    t.level <- s.at

  (* Runs admitted at [eps]: how many run values are <= eps (they
     ascend, so a binary search finds the boundary). *)
  let level_of values eps =
    let lo = ref 0 and hi = ref (Array.length values) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if values.(mid) <= eps then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Move to [eps]'s level by toggling the cells of the runs between the
     starting and the new level — exactly the cells whose membership
     differs, so a probe costs O(#cells toggled) instead of a full
     O(s·|F|) rescan.  The start is the nearest of the current and the
     saved levels; the crossed count is from the current level either
     way, so it stays the distance between consecutive thresholds. *)
  let advance t ~eps =
    let o = t.order and k = t.universe in
    let l0 = t.level and l1 = level_of o.values eps in
    let dist l = abs (o.starts.(l) - o.starts.(l1)) in
    let crossed = dist l0 in
    let nearest, _ =
      List.fold_left
        (fun ((_, d) as best) s ->
          let ds = dist s.at in
          if ds < d then (Some s, ds) else best)
        (None, crossed) t.saved
    in
    Option.iter (restore t) nearest;
    let from = t.level in
    let lo = o.starts.(min from l1) and hi = o.starts.(max from l1) in
    let delta = if l1 > from then 1 else -1 in
    for q = lo to hi - 1 do
      let c = Array.unsafe_get o.cells q in
      let i = c / k in
      Bitset.unsafe_toggle (Array.unsafe_get t.bits i) (c - (i * k));
      Array.unsafe_set t.sizes i (Array.unsafe_get t.sizes i + delta)
    done;
    t.level <- l1;
    t.crossed <- crossed;
    t.toggled <- hi - lo;
    Obs.Counter.add Metrics.cells_crossed crossed;
    Obs.Counter.add Metrics.cells_toggled (hi - lo)

  let solve ?solver ?limit t ~eps =
    Obs.Counter.incr Metrics.incremental_solves;
    advance t ~eps;
    Array.blit t.sizes 0 t.bounds 0 (rows t);
    cover_of_bitsets ?solver ?limit ~bounds:t.bounds ~universe:t.universe
      t.bits
end
