open Rrms_geom
module Obs = Rrms_obs.Obs

module Metrics = struct
  let builds =
    Obs.Counter.make ~help:"regret matrices built" "rrms_matrix_builds_total"

  (* Paper quantity s·(γ+1)^(m-1): total cells materialized. *)
  let cells =
    Obs.Counter.make ~help:"regret-matrix cells materialized (rows x cols)"
      "rrms_matrix_cells_total"

  let distinct =
    Obs.Gauge.make
      ~help:"distinct cell values of the last distinct_values scan"
      "rrms_matrix_distinct_values"

  let updates =
    Obs.Counter.make ~help:"incremental regret-matrix updates"
      "rrms_matrix_updates_total"

  (* The whole point of [update]: cells carried over verbatim instead of
     paying a dot product.  updates_total together with this exposes the
     reuse ratio the dynamic bench asserts on. *)
  let cells_carried =
    Obs.Counter.make ~help:"cells blitted from the previous matrix by update"
      "rrms_matrix_cells_carried_total"
end

(* One flat row-major buffer instead of [float array array]: a cell read
   is one load with no row pointer to chase, and rows are contiguous for
   streaming scans and single-[Array.blit] copies.  Matrices are
   immutable after construction, so the sorted distinct-cell array is
   computed once and cached; [Atomic] gives the cache a publication
   barrier — matrices are shared across serve sessions running on
   different domains. *)
type t = {
  data : float array; (* nrows × cols, row-major *)
  nrows : int;
  best : float array; (* per column: best database score *)
  distinct : float array option Atomic.t;
}

let rows t = t.nrows
let cols t = Array.length t.best

let make ~data ~nrows ~best = { data; nrows; best; distinct = Atomic.make None }

(* The explicit column check keeps an out-of-range column from reading
   a neighbouring row's cell; an out-of-range row then lands outside
   [data] and the array access raises. *)
let get t i f =
  if f < 0 || f >= cols t then invalid_arg "index out of bounds";
  t.data.((i * cols t) + f)

let column_best_score t f = t.best.(f)

let check_row t i =
  if i < 0 || i >= t.nrows then invalid_arg "index out of bounds"

let blit_row t i dst =
  check_row t i;
  let k = cols t in
  if Array.length dst < k then
    invalid_arg "Regret_matrix.blit_row: destination too short";
  Array.blit t.data (i * k) dst 0 k

let row_update_mins t i mins =
  check_row t i;
  let k = cols t in
  if Array.length mins < k then
    invalid_arg "Regret_matrix.row_update_mins: mins too short";
  let off = i * k in
  for f = 0 to k - 1 do
    let v = Array.unsafe_get t.data (off + f) in
    if v < Array.unsafe_get mins f then Array.unsafe_set mins f v
  done

let row_worst_against t i current =
  check_row t i;
  let k = cols t in
  if Array.length current < k then
    invalid_arg "Regret_matrix.row_worst_against: current too short";
  let off = i * k in
  let worst = ref neg_infinity in
  for f = 0 to k - 1 do
    let v =
      Float.min (Array.unsafe_get current f) (Array.unsafe_get t.data (off + f))
    in
    if v > !worst then worst := v
  done;
  !worst

let build ?domains ?(guard = Rrms_guard.Guard.Budget.unlimited) ~funcs points =
  let n = Array.length points and k = Array.length funcs in
  if n = 0 then
    Rrms_guard.Guard.Error.invalid_input "Regret_matrix.build: no points";
  if k = 0 then
    Rrms_guard.Guard.Error.invalid_input "Regret_matrix.build: no functions";
  Obs.Counter.incr Metrics.builds;
  Obs.Counter.add Metrics.cells (n * k);
  (* Refuse to allocate past the budget's cell cap: the HD solvers
     shrink gamma to fit beforehand, so tripping this means a direct
     caller asked for more than the guard allows. *)
  Rrms_guard.Guard.Budget.check_cells guard ~what:"regret matrix cells" (n * k);
  (* Each column's best scan is an independent O(n·m) dot-product sweep
     and each row fill writes only its own [k]-cell slice of the flat
     buffer, so both loops parallelise with bit-identical results. *)
  Obs.Span.with_ "regret_matrix.build" (fun () ->
      let best = Array.make k 0. in
      Rrms_parallel.parallel_for ?domains ~min_chunk:8 k (fun f ->
          best.(f) <- Vec.max_score funcs.(f) points);
      let data = Array.make (n * k) 0. in
      Rrms_parallel.parallel_for ?domains ~min_chunk:16 n (fun i ->
          let off = i * k in
          let p = points.(i) in
          for f = 0 to k - 1 do
            let b = Array.unsafe_get best f in
            if b > 0. then
              Array.unsafe_set data (off + f)
                (Float.max 0. ((b -. Vec.dot funcs.(f) p) /. b))
          done);
      make ~data ~nrows:n ~best)

let select_cols t cols =
  let k = Array.length t.best in
  Array.iter
    (fun f ->
      if f < 0 || f >= k then
        Rrms_guard.Guard.Error.invalid_input
          "Regret_matrix.select_cols: column index out of range")
    cols;
  if Array.length cols = 0 then
    Rrms_guard.Guard.Error.invalid_input "Regret_matrix.select_cols: no columns";
  let k' = Array.length cols in
  let data = Array.make (t.nrows * k') 0. in
  for i = 0 to t.nrows - 1 do
    let src = i * k and dst = i * k' in
    for f = 0 to k' - 1 do
      Array.unsafe_set data (dst + f)
        (Array.unsafe_get t.data (src + Array.unsafe_get cols f))
    done
  done;
  make ~data ~nrows:t.nrows ~best:(Array.map (fun f -> t.best.(f)) cols)

let materialize t = t

(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                             *)
(* ------------------------------------------------------------------ *)

(* A mutation replaces the row set (skyline) of the matrix: some rows
   survive unchanged, some are retired, some are new.  Cells of a
   surviving row only depend on its point and the column's best score,
   so a column whose best provably did not move can carry every
   surviving cell over verbatim; only new rows and moved columns pay
   dot products.

   The "provably did not move" test costs no extra storage: build's
   kernel writes exactly 0. in the cell of any row achieving the
   column's best (b - d = 0 with d = b), and conversely a 0. cell in a
   positive-best column certifies dot = best bitwise (b - d = 0 in IEEE
   implies d = b for finite d, b).  So a column keeps its best iff
     - the old best is positive (all-zero columns always recompute:
       a 0. cell there certifies nothing),
     - some carried row has a 0. cell (a witness that the old max is
       still attained), and
     - no fresh row's dot exceeds it.
   Recomputed columns rerun Vec.max_score's strict-> scan in the new
   row order, so they too are bit-identical to [build ~funcs points]. *)

let update ?domains ?(guard = Rrms_guard.Guard.Budget.unlimited) t ~funcs
    ~points ~carried =
  let k = cols t in
  let n = Array.length points in
  if n = 0 then
    Rrms_guard.Guard.Error.invalid_input "Regret_matrix.update: no points";
  if Array.length funcs <> k then
    Rrms_guard.Guard.Error.invalid_input
      "Regret_matrix.update: function count differs from the matrix";
  if Array.length carried <> n then
    Rrms_guard.Guard.Error.invalid_input
      "Regret_matrix.update: carried length does not match points";
  Array.iter
    (fun j ->
      if j >= rows t then
        Rrms_guard.Guard.Error.invalid_input
          "Regret_matrix.update: carried row index out of range")
    carried;
  Rrms_guard.Guard.Budget.check_cells guard ~what:"regret matrix cells" (n * k);
  Obs.Counter.incr Metrics.updates;
  Obs.Counter.add Metrics.cells (n * k);
  Obs.Span.with_ "regret_matrix.update" (fun () ->
      let old = t.data and old_best = t.best in
      (* Fresh rows need a dot product in every column no matter what;
         compute them once up front so the per-column decision and the
         fill phase both reuse them. *)
      let fresh = ref [] in
      for i = n - 1 downto 0 do
        if carried.(i) < 0 then fresh := i :: !fresh
      done;
      let fresh = Array.of_list !fresh in
      let nf = Array.length fresh in
      let fdots = Array.make (Int.max 1 (nf * k)) 0. in
      Rrms_parallel.parallel_for ?domains ~min_chunk:4 nf (fun fi ->
          let p = points.(fresh.(fi)) in
          let off = fi * k in
          for f = 0 to k - 1 do
            Array.unsafe_set fdots (off + f) (Vec.dot funcs.(f) p)
          done);
      let fpos = Array.make n (-1) in
      Array.iteri (fun fi i -> fpos.(i) <- fi) fresh;
      (* Does some carried row witness the old best?  One scan over the
         carried rows' old cells. *)
      let carried_zero = Array.make k false in
      for i = 0 to n - 1 do
        let j = carried.(i) in
        if j >= 0 then begin
          let off = j * k in
          for f = 0 to k - 1 do
            if Array.unsafe_get old (off + f) = 0. then carried_zero.(f) <- true
          done
        end
      done;
      let keep = Array.make k false in
      let best = Array.make k 0. in
      Rrms_parallel.parallel_for ?domains ~min_chunk:8 k (fun f ->
          let ob = Array.unsafe_get old_best f in
          let fresh_le = ref true in
          for fi = 0 to nf - 1 do
            if Array.unsafe_get fdots ((fi * k) + f) > ob then fresh_le := false
          done;
          if ob > 0. && carried_zero.(f) && !fresh_le then begin
            keep.(f) <- true;
            best.(f) <- ob
          end
          else begin
            (* Exactly Vec.max_score's strict-> scan over the new points
               (seeded from points.(0)), reusing the fresh dots. *)
            let dot_of i =
              let fi = Array.unsafe_get fpos i in
              if fi >= 0 then Array.unsafe_get fdots ((fi * k) + f)
              else Vec.dot funcs.(f) points.(i)
            in
            let b = ref (dot_of 0) in
            for i = 1 to n - 1 do
              let v = dot_of i in
              if v > !b then b := v
            done;
            best.(f) <- !b
          end);
      let data = Array.make (n * k) 0. in
      Rrms_parallel.parallel_for ?domains ~min_chunk:16 n (fun i ->
          let off = i * k in
          let j = carried.(i) in
          let fi = Array.unsafe_get fpos i in
          for f = 0 to k - 1 do
            if j >= 0 && Array.unsafe_get keep f then
              Array.unsafe_set data (off + f)
                (Array.unsafe_get old ((j * k) + f))
            else begin
              let b = Array.unsafe_get best f in
              if b > 0. then begin
                let d =
                  if fi >= 0 then Array.unsafe_get fdots ((fi * k) + f)
                  else Vec.dot funcs.(f) points.(i)
                in
                Array.unsafe_set data (off + f) (Float.max 0. ((b -. d) /. b))
              end
            end
          done);
      (* Every carried row blits every kept column; nothing else does. *)
      let kept_cols = Array.fold_left (fun a kp -> if kp then a + 1 else a) 0 keep in
      Obs.Counter.add Metrics.cells_carried ((n - nf) * kept_cols);
      let changed = ref [] in
      for f = k - 1 downto 0 do
        if best.(f) <> old_best.(f) then changed := f :: !changed
      done;
      (make ~data ~nrows:n ~best, Array.of_list !changed))

let compute_distinct t =
  let all = Array.copy t.data in
  Fsort.sort all;
  (* Dedup in place in one scan: [j] entries are emitted, and the next
     candidate only needs comparing against the last emitted value. *)
  let j = ref 1 in
  for i = 1 to Array.length all - 1 do
    if all.(i) <> all.(!j - 1) then begin
      all.(!j) <- all.(i);
      incr j
    end
  done;
  Array.sub all 0 !j

let distinct_values t =
  let d =
    match Atomic.get t.distinct with
    | Some d -> d
    | None ->
        let d = compute_distinct t in
        (* A concurrent loser computed the identical array; either
           result is correct, so last-write-wins is fine. *)
        Atomic.set t.distinct (Some d);
        d
  in
  Obs.Gauge.set_int Metrics.distinct (Array.length d);
  d

let regret_of_rows t rs =
  if Array.length rs = 0 then
    Rrms_guard.Guard.Error.invalid_input
      "Regret_matrix.regret_of_rows: empty row set";
  let k = cols t in
  (* Stream row-by-row over the flat buffer (one pass per selected row)
     rather than column-by-column: same per-column minima, same result,
     contiguous reads. *)
  let mins = Array.make k infinity in
  Array.iter (fun i -> row_update_mins t i mins) rs;
  let worst = ref 0. in
  for f = 0 to k - 1 do
    if Array.unsafe_get mins f > !worst then worst := Array.unsafe_get mins f
  done;
  !worst
