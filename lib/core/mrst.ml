open Rrms_setcover
module Obs = Rrms_obs.Obs

module Metrics = struct
  (* Fresh probes rebuild every row bitset; incremental probes slide
     the per-row prefix pointers.  Together with the hd_rrms probe
     cache hit/miss counters these expose exactly where Algorithm 4's
     O(log (distinct values)) probes spend their work. *)
  let fresh_solves =
    Obs.Counter.make ~help:"from-scratch MRST probes (full O(s*|F|) rescan)"
      "rrms_mrst_fresh_solves_total"

  let incremental_solves =
    Obs.Counter.make ~help:"incremental MRST probes (prefix-slid bitsets)"
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
  type t = {
    universe : int;
    order : int array array; (* per row: columns sorted by cell value *)
    sorted : float array array; (* the cell values in that order *)
    bits : Bitset.t array; (* current thresholded bitset per row *)
    pos : int array; (* per row: #leading sorted columns currently set *)
    mutable crossed : int; (* cells whose membership the last probe changed *)
  }

  let create ?domains matrix =
    let n = Regret_matrix.rows matrix and k = Regret_matrix.cols matrix in
    let order = Array.make n [||] and sorted = Array.make n [||] in
    Rrms_parallel.parallel_for ?domains ~min_chunk:8 n (fun i ->
        (* Copy the row once (one contiguous blit on a flat matrix) and
           tandem-sort values with their column indices — same
           (value, column) order as a comparator sort, without the
           per-comparison closure call. *)
        let vals = Array.make k 0. in
        Regret_matrix.blit_row matrix i vals;
        let ord = Array.init k Fun.id in
        Fsort.sort_pairs vals ord;
        order.(i) <- ord;
        sorted.(i) <- vals);
    {
      universe = k;
      order;
      sorted;
      bits = Array.init n (fun _ -> Bitset.create k);
      pos = Array.make n 0;
      crossed = 0;
    }

  let rows t = Array.length t.bits
  let cols t = t.universe
  let last_crossed t = t.crossed

  (* After a mutation, most skyline rows survive with bitwise-identical
     matrix cells (Regret_matrix.update reports this as an empty
     changed-column list).  Their sorted orders are pure functions of
     the row's cells, so the O(|F| log |F|) tandem sorts can be carried
     over by reference — create() never mutates order/sorted after
     construction — and only genuinely new rows pay a sort.  Bitsets and
     prefix positions always restart empty: they are probe state, and
     the next probe slides bidirectionally from any starting point. *)
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
    let order = Array.make n [||] and sorted = Array.make n [||] in
    Rrms_parallel.parallel_for ?domains ~min_chunk:8 n (fun i ->
        let j = carried.(i) in
        if j >= 0 then begin
          order.(i) <- old.order.(j);
          sorted.(i) <- old.sorted.(j)
        end
        else begin
          let vals = Array.make k 0. in
          Regret_matrix.blit_row matrix i vals;
          let ord = Array.init k Fun.id in
          Fsort.sort_pairs vals ord;
          order.(i) <- ord;
          sorted.(i) <- vals
        end);
    {
      universe = k;
      order;
      sorted;
      bits = Array.init n (fun _ -> Bitset.create k);
      pos = Array.make n 0;
      crossed = 0;
    }

  (* Slide row [i]'s bitset from its current prefix to [target] sorted
     columns.  The all-columns and no-columns targets collapse to
     word-level prefix fills/clears (the prefix basis is sorted order,
     but "every column" and "no column" are basis-independent); anything
     else flips exactly the bits whose membership changed. *)
  let slide_row_bits t i target =
    let ord = t.order.(i) and b = t.bits.(i) in
    let k = Array.length ord in
    let p0 = t.pos.(i) in
    if target = k && target > p0 then Bitset.set_range_prefix b k
    else if target = 0 && p0 > 0 then Bitset.clear_range_prefix b k
    else
      for q = min p0 target to max p0 target - 1 do
        Bitset.unsafe_toggle b (Array.unsafe_get ord q)
      done;
    t.pos.(i) <- target

  (* Move every row's prefix pointer to the new threshold: advance while
     the next sorted value fits, retreat while the last one no longer
     does.  Each probe costs O(#cells crossing the threshold) instead of
     a full O(s·|F|) rescan.  The crossing count is a sum of per-row
     pointer moves, identical for every chunking. *)
  let advance ?domains t ~eps =
    let crossed =
      Rrms_parallel.reduce ?domains ~min_chunk:64 ~neutral:0 ~combine:( + )
        (rows t) (fun acc i ->
          let vals = t.sorted.(i) in
          let k = Array.length vals in
          let p0 = t.pos.(i) in
          let p = ref p0 in
          while !p < k && Array.unsafe_get vals !p <= eps do
            incr p
          done;
          while !p > 0 && Array.unsafe_get vals (!p - 1) > eps do
            decr p
          done;
          slide_row_bits t i !p;
          acc + abs (!p - p0))
    in
    t.crossed <- crossed;
    Obs.Counter.add Metrics.cells_crossed crossed

  let solve ?solver ?limit ?domains t ~eps =
    Obs.Counter.incr Metrics.incremental_solves;
    advance ?domains t ~eps;
    (* A row's prefix length is its bitset's popcount. *)
    cover_of_bitsets ?solver ?limit ~sizes:t.pos ~universe:t.universe t.bits
end
