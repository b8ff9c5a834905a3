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
      ~help:"distinct cell values of the last matrix searched"
      "rrms_matrix_distinct_values"

  (* One per sort of a matrix's cells: a cold solve must pay it once. *)
  let cell_orders =
    Obs.Counter.make ~help:"regret-matrix cell orders built (one sort each)"
      "rrms_matrix_cell_orders_total"

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

type cell_order = { cells : Fsort.ids; starts : Fsort.ids }

(* One flat row-major buffer instead of [float array array]: a cell read
   is one load with no row pointer to chase, and rows are contiguous for
   streaming scans and single-[Array.blit] copies.  Matrices are
   immutable after construction, so the cell order is computed once and
   cached; [Atomic] gives the cache a publication barrier — matrices are
   shared across serve sessions running on different domains. *)
type t = {
  data : float array; (* nrows × cols, row-major *)
  nrows : int;
  best : float array; (* per column: best database score *)
  order : cell_order option Atomic.t;
}

let rows t = t.nrows
let cols t = Array.length t.best

let make ~data ~nrows ~best = { data; nrows; best; order = Atomic.make None }

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

(* [Float.min] without flambda inlines to up to two [caml_signbit] C
   calls; the strict comparisons settle every pair of distinct ordered
   values inline and leave only ties and NaNs to [Float.min], so the
   result is [Float.min]'s, ±0 and NaN included. *)
let[@inline] fmin x y =
  if x < y then x else if y < x then y else Float.min x y

(* [row_improve]'s fold from [neg_infinity] with every coverage at
   [infinity] is the plain fold over the cells: [fmin infinity v] is
   [v], or a NaN that [>] skips either way. *)
let row_max t i =
  check_row t i;
  let k = cols t in
  let off = i * k in
  let worst = ref neg_infinity in
  for f = 0 to k - 1 do
    let v = Array.unsafe_get t.data (off + f) in
    if v > !worst then worst := v
  done;
  !worst

(* The bound comes from, and a better value goes to, a float array
   cell, and only the count is returned, so a call boxes nothing: the
   HD-GREEDY argmin makes one per candidate row per step.  Only a
   column whose coverage reaches the bound can lift the row's value to
   it, so the witness search walks [order] while the coverage does;
   with [order] by falling coverage that is every such column.  A row
   with no witness there is scanned contiguously for its exact value,
   which decides, so any order of valid columns gives the same
   answer. *)
let row_improve t i current ~order cell ~at =
  check_row t i;
  let k = cols t in
  if Array.length current < k || Array.length order < k then
    invalid_arg "Regret_matrix.row_improve: current or order too short";
  let off = i * k in
  let bound = cell.(at) in
  let j = ref 0 and witness = ref false in
  while
    (not !witness) && !j < k
    && begin
         let f = Array.unsafe_get order !j in
         if f < 0 || f >= k then invalid_arg "index out of bounds";
         Array.unsafe_get current f >= bound
       end
  do
    let f = Array.unsafe_get order !j in
    if fmin (Array.unsafe_get current f) (Array.unsafe_get t.data (off + f)) >= bound
    then witness := true;
    incr j
  done;
  if !witness then !j
  else begin
    let worst = ref neg_infinity and f = ref 0 in
    while !f < k && !worst < bound do
      let v =
        fmin (Array.unsafe_get current !f) (Array.unsafe_get t.data (off + !f))
      in
      if v > !worst then worst := v;
      incr f
    done;
    if !worst < bound then cell.(at) <- !worst;
    !j + !f
  end

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

(* The cell id is the cell's offset in [data], so sorting [data]'s
   indices sorts the cells.  A run's value is the value of its first
   cell, so [data] is the only copy of the values. *)
let compute_order t =
  Obs.Counter.incr Metrics.cell_orders;
  let cells, starts = Fsort.order t.data in
  { cells; starts }

let cell_order t =
  match Atomic.get t.order with
  | Some o -> o
  | None ->
      let o = compute_order t in
      (* A concurrent loser computed the identical order; either result
         is correct, so last-write-wins is fine. *)
      Atomic.set t.order (Some o);
      o

let distinct_count t =
  let d = Bigarray.Array1.dim (cell_order t).starts - 1 in
  Obs.Gauge.set_int Metrics.distinct d;
  d

let distinct_value t r =
  let o = cell_order t in
  if r < 0 || r >= Bigarray.Array1.dim o.starts - 1 then
    invalid_arg "Regret_matrix.distinct_value: run out of range";
  t.data.(Int32.to_int o.cells.{Int32.to_int o.starts.{r}})

let distinct_values t = Array.init (distinct_count t) (distinct_value t)

let regret_of_minima t mins =
  if Array.length mins < cols t then
    invalid_arg "Regret_matrix.regret_of_minima: mins too short";
  let worst = ref 0. in
  for f = 0 to cols t - 1 do
    if Array.unsafe_get mins f > !worst then worst := Array.unsafe_get mins f
  done;
  !worst

let regret_of_rows ?mins t rs =
  if Array.length rs = 0 then
    Rrms_guard.Guard.Error.invalid_input
      "Regret_matrix.regret_of_rows: empty row set";
  let k = cols t in
  (* Stream row-by-row over the flat buffer (one pass per selected row)
     rather than column-by-column: same per-column minima, same result,
     contiguous reads. *)
  let mins =
    match mins with
    | Some m when Array.length m >= k ->
        Array.fill m 0 k infinity;
        m
    | Some _ -> invalid_arg "Regret_matrix.regret_of_rows: mins too short"
    | None -> Array.make k infinity
  in
  Array.iter (fun i -> row_update_mins t i mins) rs;
  regret_of_minima t mins
