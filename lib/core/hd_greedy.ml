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
  (* Argmin with strict < and left preference is insensitive to the
     chunked reduction order, so the parallel scan picks exactly the
     row the serial loop would. *)
  let better (v1, i1) (v2, i2) = if v2 < v1 then (v2, i2) else (v1, i1) in
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
          min of current coverage and the row's cells — one contiguous
          row scan per candidate on the flat matrix. *)
       let _, best_row =
         Rrms_parallel.reduce ?domains ~min_chunk:32 ~neutral:(infinity, -1)
           ~combine:better s (fun i ->
             if chosen.(i) then (infinity, -1)
             else (Regret_matrix.row_worst_against matrix i current, i))
       in
       let i = best_row in
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
