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
end

type solver = Exact | Greedy

(* Algorithm 5's cover step on the thresholded row bitsets.  Chvátal's
   greedy needs no dedup: it keeps the first of equal sets on every
   tie, the later copies then gain nothing, and empty rows never gain,
   so the greedy cover over all rows names the same rows as the greedy
   cover over first representatives.  The exact solver's branching
   does multiply with copies, so it still collapses duplicate
   non-empty bitsets in row order first.  [sizes], when given, are the
   bitsets' popcounts. *)
let cover_of_bitsets ?(solver = Greedy) ?limit ?sizes ~universe bitsets =
  match solver with
  | Greedy ->
      Setcover.greedy ?limit ?sizes (Setcover.make_instance ~universe bitsets)
  | Exact ->
      let seen : (Bitset.t, unit) Hashtbl.t = Hashtbl.create 64 in
      let distinct = ref [] in
      Array.iteri
        (fun i b ->
          if (not (Bitset.is_empty b)) && not (Hashtbl.mem seen b) then begin
            Hashtbl.add seen b ();
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
     the row bitsets and popcounts it implies. *)
  type t = {
    universe : int;
    order : Regret_matrix.cell_order;
    bits : Bitset.t array; (* current thresholded bitset per row *)
    sizes : int array; (* per row: set bits of [bits] *)
    mutable level : int; (* runs [0, level) are admitted *)
    mutable crossed : int; (* cells whose membership the last probe changed *)
  }

  let create ?domains:_ matrix =
    let n = Regret_matrix.rows matrix and k = Regret_matrix.cols matrix in
    {
      universe = k;
      order = Regret_matrix.cell_order matrix;
      bits = Array.init n (fun _ -> Bitset.create k);
      sizes = Array.make n 0;
      level = 0;
      crossed = 0;
    }

  let rows t = Array.length t.bits
  let cols t = t.universe
  let last_crossed t = t.crossed

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
     old and the new level — exactly the cells whose membership changed,
     so a probe costs O(#cells crossing the threshold) instead of a full
     O(s·|F|) rescan. *)
  let advance t ~eps =
    let o = t.order and k = t.universe in
    let l0 = t.level and l1 = level_of o.values eps in
    let lo = o.starts.(min l0 l1) and hi = o.starts.(max l0 l1) in
    let delta = if l1 > l0 then 1 else -1 in
    for q = lo to hi - 1 do
      let c = Array.unsafe_get o.cells q in
      let i = c / k in
      Bitset.unsafe_toggle (Array.unsafe_get t.bits i) (c - (i * k));
      Array.unsafe_set t.sizes i (Array.unsafe_get t.sizes i + delta)
    done;
    t.level <- l1;
    t.crossed <- hi - lo;
    Obs.Counter.add Metrics.cells_crossed (hi - lo)

  let solve ?solver ?limit t ~eps =
    Obs.Counter.incr Metrics.incremental_solves;
    advance t ~eps;
    cover_of_bitsets ?solver ?limit ~sizes:t.sizes ~universe:t.universe t.bits
end
