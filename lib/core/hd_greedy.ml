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

(* The greedy loop itself, on a precomputed matrix + skyline map — the
   shared back half of [solve] and the resident query server's warm
   path, so both produce bit-identical selections. *)
let solve_prepared ?domains ?(guard = Guard.Budget.unlimited) ~skyline
    ~gamma_used matrix ~r =
  if r < 1 then
    Guard.Error.invalid_input "Hd_greedy.solve_prepared: r must be >= 1";
  if Array.length skyline <> Regret_matrix.rows matrix then
    Guard.Error.invalid_input
      (Printf.sprintf
         "Hd_greedy.solve_prepared: skyline has %d entries, matrix has %d \
          rows"
         (Array.length skyline) (Regret_matrix.rows matrix));
  let sky = skyline in
  let s = Regret_matrix.rows matrix in
  let k = Regret_matrix.cols matrix in
  let current = Array.make k infinity in
  let chosen = Array.make s false in
  let selected = ref [] in
  let stopped = ref None in
  let steps = min r s in
  let cells_read = ref 0 in
  (* The argmin runs over fixed 128-row chunks, each with its own best
     so far, and the chunk winners are combined left to right with
     strict <, so the parallel scan picks exactly the row the serial
     loop would.  Each chunk's value, row and cells read go to these
     per-solve arrays, so a step allocates nothing per row. *)
  let chunk = 128 in
  let nchunks = (s + chunk - 1) / chunk in
  let best_v = Array.make nchunks infinity
  and best_i = Array.make nchunks (-1)
  and read = Array.make nchunks 0 in
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
          min of current coverage and the row's cells.  A row's value is
          at least its capped cell in the worst-covered column [fw], and
          its scan may stop once the running max reaches the chunk's
          best so far: either way the row could at most tie, and the
          earlier row wins a tie.  The best so far is chunk-local, and
          each chunk's first row pays a full scan, hence chunks of 128
          rows (8 or more on a 1k-row skyline). *)
       let fw = ref 0 in
       for f = 1 to k - 1 do
         if current.(f) > current.(!fw) then fw := f
       done;
       let fw = !fw in
       Rrms_parallel.parallel_for ?domains ~min_chunk:1 nchunks (fun c ->
           best_v.(c) <- infinity;
           best_i.(c) <- -1;
           let cells = ref 0 in
           for i = c * chunk to min s ((c + 1) * chunk) - 1 do
             if not chosen.(i) then begin
               let before = best_v.(c) in
               cells :=
                 !cells
                 + Regret_matrix.row_improve matrix i current ~col:fw best_v
                     ~at:c;
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
       let i = !best_row in
       chosen.(i) <- true;
       selected := i :: !selected;
       Regret_matrix.row_update_mins matrix i current
     done
   with Exit -> ());
  let rows = Array.of_list (List.rev !selected) in
  let reasons = match !stopped with Some s -> [ s ] | None -> [] in
  {
    selected = Array.map (fun i -> sky.(i)) rows;
    discretized_regret = Regret_matrix.regret_of_rows matrix rows;
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
