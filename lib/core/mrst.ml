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

(* Algorithm 5's cover step on the thresholded rows.  Chvátal's greedy
   needs no dedup: it keeps the first of equal sets on every tie, the
   later copies then gain nothing, and empty rows never gain, so the
   greedy cover over all rows names the same rows as the greedy cover
   over first representatives.  The exact solver's branching does
   multiply with copies, so it still collapses duplicate non-empty rows
   in row order first, keyed on every word of each row.  [bounds], when
   given, holds the rows' popcounts and is the greedy's work space (see
   {!Setcover.greedy}). *)
module Bitset_tbl = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

let cover ?(solver = Greedy) ?limit ?bounds (rows : Setcover.instance) =
  match solver with
  | Greedy -> Setcover.greedy ?limit ?bounds rows
  | Exact ->
      let seen = Bitset_tbl.create 64 in
      let distinct = ref [] in
      for i = 0 to rows.sets - 1 do
        let b = Setcover.set rows i in
        if (not (Bitset.is_empty b)) && not (Bitset_tbl.mem seen b) then begin
          Bitset_tbl.add seen b ();
          distinct := (i, b) :: !distinct
        end
      done;
      let pairs = Array.of_list (List.rev !distinct) in
      let instance =
        Setcover.of_bitsets ~universe:rows.universe (Array.map snd pairs)
      in
      Option.map
        (Array.map (fun si -> fst pairs.(si)))
        (Setcover.exact ?max_sets:limit instance)

let solve ?solver matrix ~eps =
  Obs.Counter.incr Metrics.fresh_solves;
  let n = Regret_matrix.rows matrix and k = Regret_matrix.cols matrix in
  (* Threshold every row into its words of one flat array.  Each row is
     blitted into one buffer first, so the threshold loop reads
     contiguous floats even on a column view. *)
  let w = Bitset.nwords k in
  let words = Array.make (n * w) 0 and row = Array.make k 0. in
  for i = 0 to n - 1 do
    Regret_matrix.blit_row matrix i row;
    for f = 0 to k - 1 do
      if Array.unsafe_get row f <= eps then Bitset.row_set words (i * w) f
    done
  done;
  cover ?solver (Setcover.make_instance ~universe:k ~sets:n words)

module Incremental = struct
  (* Probe state over the matrix's cell order.  A threshold admits a
     prefix of the order's runs, so the state is that prefix length plus
     the row bitsets and popcounts it implies.  The rows live in one
     flat row-major word array, [w] words per row, which is also the
     set-cover instance every probe covers: a toggle flips one word of
     it, and a saved state is one copy of it and of the popcounts.  A
     probe starts from whichever of the current and the saved levels is
     fewest cells away. *)
  type saved = { at : int; words : int array; counts : int array }

  type t = {
    matrix : Regret_matrix.t;
    order : Regret_matrix.cell_order;
    runs : int; (* distinct cell values *)
    rows : Setcover.instance; (* thresholded rows, updated in place *)
    sizes : int array; (* per row: its set bits *)
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
    let order = Regret_matrix.cell_order matrix in
    {
      matrix;
      order;
      runs = Bigarray.Array1.dim order.starts - 1;
      rows =
        Setcover.make_instance ~universe:k ~sets:n
          (Array.make (n * Bitset.nwords k) 0);
      sizes = Array.make n 0;
      bounds = Array.make n 0;
      buffer = Array.make k 0.;
      saved = [];
      level = 0;
      crossed = 0;
      toggled = 0;
    }

  let rows t = t.rows.sets
  let cols t = t.rows.universe
  let last_crossed t = t.crossed
  let last_toggled t = t.toggled
  let row t i = Setcover.set t.rows i
  let buffer t = t.buffer

  let rebase ?domains old matrix ~carried =
    let n = Regret_matrix.rows matrix and k = Regret_matrix.cols matrix in
    if cols old <> k then
      invalid_arg "Mrst.Incremental.rebase: column counts differ";
    if Array.length carried <> n then
      invalid_arg "Mrst.Incremental.rebase: carried length mismatch";
    Array.iter
      (fun j ->
        if j >= rows old then
          invalid_arg "Mrst.Incremental.rebase: carried row out of range")
      carried;
    create ?domains matrix

  let save t =
    if
      List.length t.saved < max_saved
      && not (List.exists (fun s -> s.at = t.level) t.saved)
    then
      t.saved <-
        { at = t.level; words = Array.copy t.rows.words; counts = Array.copy t.sizes }
        :: t.saved

  let restore t s =
    Array.blit s.words 0 t.rows.words 0 (Array.length s.words);
    Array.blit s.counts 0 t.sizes 0 (rows t);
    t.level <- s.at

  (* Runs admitted at [eps]: how many run values are <= eps (they
     ascend, so a binary search finds the boundary). *)
  let level_of t eps =
    let lo = ref 0 and hi = ref t.runs in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Regret_matrix.distinct_value t.matrix mid <= eps then lo := mid + 1
      else hi := mid
    done;
    !lo

  (* Move to level [l1] by toggling the cells of the runs between the
     starting and the new level — exactly the cells whose membership
     differs, so a probe costs O(#cells toggled) instead of a full
     O(s·|F|) rescan.  The start is the nearest of the current and the
     saved levels; the crossed count is from the current level either
     way, so it stays the distance between consecutive thresholds.  A
     cell [c] is row [c / k], column [f = c mod k], and so bit [f mod 63]
     of word [f / 63] of that row's [w] words; every index is in range
     by construction, so the loop reads and writes unchecked. *)
  let advance t l1 =
    let o = t.order and k = cols t in
    let start l = Int32.to_int o.starts.{l} in
    let l0 = t.level in
    let dist l = abs (start l - start l1) in
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
    let lo = start (min from l1) and hi = start (max from l1) in
    let delta = if l1 > from then 1 else -1 in
    let words = t.rows.words and w = Bitset.nwords k and cells = o.cells in
    for q = lo to hi - 1 do
      let c = Int32.to_int (Bigarray.Array1.unsafe_get cells q) in
      let i = c / k in
      let f = c - (i * k) in
      let j = f / 63 in
      let at = (i * w) + j in
      Array.unsafe_set words at
        (Array.unsafe_get words at lxor (1 lsl (f - (j * 63))));
      Array.unsafe_set t.sizes i (Array.unsafe_get t.sizes i + delta)
    done;
    t.level <- l1;
    t.crossed <- crossed;
    t.toggled <- hi - lo;
    Obs.Counter.add Metrics.cells_crossed crossed;
    Obs.Counter.add Metrics.cells_toggled (hi - lo)

  let probe ?solver ?limit t level =
    Obs.Counter.incr Metrics.incremental_solves;
    advance t level;
    Array.blit t.sizes 0 t.bounds 0 (rows t);
    cover ?solver ?limit ~bounds:t.bounds t.rows

  (* A threshold at run [r]'s value admits runs [0, r]. *)
  let solve_run ?solver ?limit t r =
    if r < 0 || r >= t.runs then
      invalid_arg "Mrst.Incremental.solve_run: run out of range";
    probe ?solver ?limit t (r + 1)

  let solve ?solver ?limit t ~eps = probe ?solver ?limit t (level_of t eps)
end
