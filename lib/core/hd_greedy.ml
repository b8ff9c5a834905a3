module Guard = Rrms_guard.Guard
module Obs = Rrms_obs.Obs

module Metrics = struct
  let solves =
    Obs.Counter.make ~help:"HD-GREEDY solves" "rrms_hd_greedy_solves_total"

  (* One step = one full argmin sweep over the skyline rows. *)
  let steps =
    Obs.Counter.make ~help:"greedy selection steps taken by HD-GREEDY"
      "rrms_hd_greedy_steps_total"
end

type result = {
  selected : int array;
  discretized_regret : float;
  gamma_used : int;
  quality : Guard.quality;
  steps : int;
  cells_read : int;
}

(* The argmin runs over fixed 128-row chunks, each with its own best so
   far, and the chunk winners are combined left to right with strict <,
   so the parallel scan picks exactly the row the serial loop would.
   Chunks of 128 rows leave 8 or more on a 1k-row skyline. *)
let chunk = 128

(* [order] by falling [current], ties by column: a Shell sort over
   Ciura's gaps, in place.  [Array.sort] raises an exception per sift,
   about 160 words per greedy step at 343 columns. *)
let gaps = [| 701; 301; 132; 57; 23; 10; 4; 1 |]

let sort_by_cover order (current : float array) =
  for g = 0 to Array.length gaps - 1 do
    let gap = gaps.(g) in
    for i = gap to Array.length order - 1 do
      let c = order.(i) in
      let x = current.(c) in
      let j = ref i in
      while
        !j >= gap
        &&
        let p = order.(!j - gap) in
        current.(p) < x || (current.(p) = x && p > c)
      do
        order.(!j) <- order.(!j - gap);
        j := !j - gap
      done;
      order.(!j) <- c
    done
  done

(* Everything a solve writes, sized to one matrix and reset on entry,
   so a pooled scratch serves any number of queries, including after a
   budget stop.  [row_max] depends only on the matrix and is computed
   once. *)
type scratch = {
  matrix : Regret_matrix.t;
  row_max : float array; (* per row: its value against the empty set *)
  current : float array; (* per column: the selection's minimum *)
  chosen : bool array;
  order : int array; (* the columns by falling [current] *)
  best_v : float array; (* per chunk: best value, row and cells read *)
  best_i : int array;
  read : int array;
}

let scratch ?domains matrix =
  let s = Regret_matrix.rows matrix and k = Regret_matrix.cols matrix in
  let nchunks = (s + chunk - 1) / chunk in
  let row_max = Array.make s 0. in
  Rrms_parallel.parallel_for ?domains ~min_chunk:16 s (fun i ->
      row_max.(i) <- Regret_matrix.row_max matrix i);
  {
    matrix;
    row_max;
    current = Array.make k infinity;
    chosen = Array.make s false;
    order = Array.init k Fun.id;
    best_v = Array.make nchunks infinity;
    best_i = Array.make nchunks (-1);
    read = Array.make nchunks 0;
  }

(* The greedy loop itself, on a precomputed matrix + skyline map — the
   shared back half of [solve] and the resident query server's warm
   path, so both produce bit-identical selections. *)
let solve_prepared ?domains ?(guard = Guard.Budget.unlimited) ?scratch:sc
    ~skyline ~gamma_used matrix ~r =
  if r < 1 then
    Guard.Error.invalid_input "Hd_greedy.solve_prepared: r must be >= 1";
  if Array.length skyline <> Regret_matrix.rows matrix then
    Guard.Error.invalid_input
      (Printf.sprintf
         "Hd_greedy.solve_prepared: skyline has %d entries, matrix has %d \
          rows"
         (Array.length skyline) (Regret_matrix.rows matrix));
  let sc =
    match sc with
    | Some sc when sc.matrix == matrix -> sc
    | Some _ ->
        Guard.Error.invalid_input
          "Hd_greedy.solve_prepared: scratch belongs to another matrix"
    | None -> scratch ?domains matrix
  in
  let { row_max; current; chosen; order; best_v; best_i; read; _ } = sc in
  let s = Regret_matrix.rows matrix in
  let k = Regret_matrix.cols matrix in
  Array.fill current 0 k infinity;
  Array.fill chosen 0 s false;
  let nchunks = Array.length best_v in
  let selected = ref [] in
  let stopped = ref None in
  let steps = min r s in
  let cells_read = ref 0 in
  (try
     for step = 1 to steps do
       (* Step 1 runs unconditionally so the result is never empty;
          later steps are budget-checked, and stopping between steps
          leaves a smaller set whose regret is still exactly what
          [regret_of_rows] reports — the anytime property is free. *)
       if step > 1 then begin
         match Guard.Budget.stop_reason guard with
         | Some reason ->
             stopped := Some reason;
             raise Exit
         | None -> ()
       end;
       Guard.Budget.note_probe guard;
       Obs.Counter.incr Metrics.steps;
       (* Pick the row minimizing the resulting max over columns of the
          min of current coverage and the row's cells, the first such
          row on a tie.  Against the empty set a row's value is its
          maximum, so step 1 reads only [row_max]. *)
       let pick =
         if step = 1 then begin
           let best = ref 0 in
           for i = 1 to s - 1 do
             if row_max.(i) < row_max.(!best) then best := i
           done;
           !best
         end
         else begin
           (* A row's value is at least its capped cell in any column,
              and only a column covered at or above the chunk's best so
              far can lift it there: [row_improve] looks for such a
              witness along the columns by falling coverage, and scans
              the row only when there is none.  Either way a row that
              could at most tie is dismissed, and the earlier row wins
              a tie. *)
           sort_by_cover order current;
           Rrms_parallel.parallel_for ?domains ~min_chunk:1 nchunks (fun c ->
               best_v.(c) <- infinity;
               best_i.(c) <- -1;
               let cells = ref 0 in
               for i = c * chunk to min s ((c + 1) * chunk) - 1 do
                 if not chosen.(i) then begin
                   let before = best_v.(c) in
                   cells :=
                     !cells
                     + Regret_matrix.row_improve matrix i current ~order
                         best_v ~at:c;
                   if best_v.(c) < before then best_i.(c) <- i
                 end
               done;
               read.(c) <- !cells);
           let best_row = ref (-1) and best = ref infinity in
           for c = 0 to nchunks - 1 do
             cells_read := !cells_read + read.(c);
             if best_v.(c) < !best then begin
               best := best_v.(c);
               best_row := best_i.(c)
             end
           done;
           !best_row
         end
       in
       chosen.(pick) <- true;
       selected := pick :: !selected;
       Regret_matrix.row_update_mins matrix pick current
     done
   with Exit -> ());
  let rows = Array.of_list (List.rev !selected) in
  let reasons = match !stopped with Some s -> [ s ] | None -> [] in
  {
    selected = Array.map (fun i -> skyline.(i)) rows;
    (* [current] holds the selection's column minima, folded with the
       same [<] as [regret_of_rows]. *)
    discretized_regret = Regret_matrix.regret_of_minima matrix current;
    gamma_used;
    quality = (if reasons = [] then Guard.Exact else Guard.Degraded reasons);
    steps = Array.length rows;
    cells_read = !cells_read;
  }

let solve ?(gamma = 4) ?funcs ?domains ?(guard = Guard.Budget.unlimited)
    points ~r =
  if r < 1 then Guard.Error.invalid_input "Hd_greedy.solve: r must be >= 1";
  if Array.length points = 0 then
    Guard.Error.invalid_input "Hd_greedy.solve: empty input";
  Obs.Counter.incr Metrics.solves;
  Obs.Span.with_ "hd_greedy.solve" (fun () ->
  let m = Array.length points.(0) in
  let sky = Rrms_skyline.Skyline.sfs ?domains points in
  let s = Array.length sky in
  let gamma_used, funcs, shrink_reason =
    match funcs with
    | Some f ->
        Guard.Budget.check_cells guard ~what:"regret matrix cells"
          (s * Array.length f);
        (gamma, f, None)
    | None ->
        let g, reason =
          Discretize.shrink_gamma ~max_cells:(Guard.Budget.max_cells guard)
            ~rows:s ~gamma ~m
        in
        (g, Discretize.grid ~gamma:g ~m, reason)
  in
  let sky_points = Array.map (fun i -> points.(i)) sky in
  let matrix = Regret_matrix.build ?domains ~guard ~funcs sky_points in
  let res =
    solve_prepared ?domains ~guard ~skyline:sky ~gamma_used matrix ~r
  in
  { res with quality = Guard.degrade_first res.quality shrink_reason })
