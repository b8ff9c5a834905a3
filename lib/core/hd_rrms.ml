module Guard = Rrms_guard.Guard
module Obs = Rrms_obs.Obs

module Metrics = struct
  let solves =
    Obs.Counter.make ~help:"HD-RRMS solves" "rrms_hd_rrms_solves_total"

  (* Algorithm 4 probe accounting: each binary-search step pays one
     (incremental) MRST solve. *)
  let probes =
    Obs.Counter.make ~help:"binary-search probes issued by HD-RRMS"
      "rrms_hd_rrms_probes_total"

  (* Paper quantity gamma: discretization actually used (post-shrink). *)
  let gamma_used =
    Obs.Gauge.make ~help:"gamma used by the last HD-RRMS solve"
      "rrms_hd_rrms_gamma_used"
end

(* Per-solve cost provenance (the paper's cost-model quantities for one
   answer, as opposed to the process-cumulative Metrics counters): how
   many binary-search probes ran, how many MRST solves they paid (the
   anytime fallback adds one), and how many cells those solves'
   threshold moves crossed. *)
type cost = { probes : int; probes_fresh : int; cells_crossed : int }

type result = {
  selected : int array;
  eps_min : float;
  guarantee : float;
  discretized_regret : float;
  gamma_used : int;
  quality : Guard.quality;
  cost : cost;
}

type budget = Strict | Inflated

type search = {
  found : (int array * float) option;
  probes : int;
  probes_fresh : int;
  cells_crossed : int;
  cells_toggled : int;
  stopped : Guard.reason option;
}

(* Algorithm 4: binary search over the sorted distinct cell values, by
   run index into the matrix's cell order; each probe asks MRST whether
   some row set of size <= max_size satisfies the threshold (max_size =
   r for the §6.1 rule; r·H(|F|) for §4.4.3's alternative).  Each probe
   is one Mrst.Incremental.solve_run, which toggles the cells crossing
   the new threshold and gives up on the cover once it needs more than
   max_size rows.  No threshold is probed twice: binary-search
   midpoints never repeat, and the fallback's top value is probed only
   when no probe accepted, while the top always accepts.

   The guard is consulted at probe boundaries only, so a degraded
   search is deterministic for a fixed probe count: the probe sequence
   depends only on the matrix, never on the pool size or timing.

   A caller-supplied state outlives the search, so the search saves it
   at the first three levels of the bisection (at most 7 distinct
   thresholds per matrix, whatever [r]).  A later search's first probes
   then start from a saved copy, and its deeper probes toggle only the
   cells between a saved level and their own. *)
let search_on_matrix ?solver ?(guard = Guard.Budget.unlimited) ?max_size ?inc
    matrix ~r =
  let max_size = match max_size with Some s -> s | None -> r in
  let runs = Regret_matrix.distinct_count matrix in
  let pooled = Option.is_some inc in
  let inc =
    (* A caller-supplied structure (the serve layer pools them across
       queries) must belong to this matrix; probe state may be
       anywhere — every threshold move is bidirectional. *)
    match inc with
    | Some i
      when Mrst.Incremental.rows i = Regret_matrix.rows matrix
           && Mrst.Incremental.cols i = Regret_matrix.cols matrix ->
        i
    | Some _ ->
        Guard.Error.invalid_input
          "Hd_rrms.search_on_matrix: incremental state does not match the \
           matrix"
    | None -> Mrst.Incremental.create matrix
  in
  let fresh = ref 0 in
  let crossed = ref 0 and toggled = ref 0 in
  let probe ~save mid =
    incr fresh;
    let answer = Mrst.Incremental.solve_run ?solver ~limit:max_size inc mid in
    if save then Mrst.Incremental.save inc;
    crossed := !crossed + Mrst.Incremental.last_crossed inc;
    toggled := !toggled + Mrst.Incremental.last_toggled inc;
    answer
  in
  let best = ref None in
  let stopped = ref None in
  let probes = ref 0 in
  let low = ref 0 and high = ref (runs - 1) in
  (try
     while !low <= !high do
       (match Guard.Budget.stop_reason guard with
       | Some reason ->
           stopped := Some reason;
           raise Exit
       | None -> ());
       Guard.Budget.note_probe guard;
       incr probes;
       Obs.Counter.incr Metrics.probes;
       let mid = (!low + !high) / 2 in
       match probe ~save:(pooled && !probes <= 3) mid with
       | Some rows ->
           best := Some (rows, Regret_matrix.distinct_value matrix mid);
           high := mid - 1
       | None -> low := mid + 1
     done
   with Exit -> ());
  (* Anytime fallback: if the budget stopped the search before any
     acceptance, one probe at the largest distinct value always
     succeeds (every row satisfies every column there, so the cover is
     a single row) and its certificate is still exact for that
     threshold.  One bounded extra probe buys a non-empty, certified,
     deterministic degraded answer. *)
  (match (!best, !stopped) with
  | None, Some _ ->
      let top = runs - 1 in
      if top >= 0 then begin
        match probe ~save:false top with
        | Some rows ->
            best := Some (rows, Regret_matrix.distinct_value matrix top)
        | None -> ()
      end
  | _ -> ());
  {
    found = !best;
    probes = !probes;
    probes_fresh = !fresh;
    cells_crossed = !crossed;
    cells_toggled = !toggled;
    stopped = !stopped;
  }

(* The back half of Algorithm 4, starting from precomputed artifacts: a
   regret matrix over the skyline rows plus the skyline index map.  Both
   [solve] and the resident query server (lib/serve) end up here, so a
   server answer on cached artifacts is bit-identical to a cold
   [solve] by construction. *)
let solve_prepared ?solver ?(budget = Strict) ?domains:_
    ?(guard = Guard.Budget.unlimited) ?inc ~skyline ~gamma_used ~m matrix ~r =
  if r < 1 then
    Guard.Error.invalid_input "Hd_rrms.solve_prepared: r must be >= 1";
  if Array.length skyline <> Regret_matrix.rows matrix then
    Guard.Error.invalid_input
      (Printf.sprintf
         "Hd_rrms.solve_prepared: skyline has %d entries, matrix has %d rows"
         (Array.length skyline) (Regret_matrix.rows matrix));
  Obs.Gauge.set_int Metrics.gamma_used gamma_used;
  let max_size =
    match budget with
    | Strict -> r
    | Inflated ->
        (* Chvátal: greedy cover <= H(|F|)·opt <= (ln|F| + 1)·opt, so a
           size-r optimal cover always passes this acceptance bound. *)
        let h = log (float_of_int (Regret_matrix.cols matrix)) +. 1. in
        max r (int_of_float (ceil (float_of_int r *. h)))
  in
  let search =
    Obs.Span.with_ "hd_rrms.search" (fun () ->
        search_on_matrix ?solver ~guard ~max_size ?inc matrix ~r)
  in
  match search.found with
  | Some (rows, eps_min) ->
      let selected = Array.map (fun i -> skyline.(i)) rows in
      let discretized_regret =
        Regret_matrix.regret_of_rows
          ?mins:(Option.map Mrst.Incremental.buffer inc)
          matrix rows
      in
      let reasons =
        match search.stopped with Some s -> [ s ] | None -> []
      in
      {
        selected;
        eps_min;
        (* Theorem 4 lifts the set's achieved grid regret, which is
           never above the accepted threshold — so certifying from
           [discretized_regret] is both valid and the tighter bound,
           including for budget-degraded answers. *)
        guarantee =
          Discretize.theorem4_bound ~gamma:gamma_used ~m
            ~eps:discretized_regret;
        discretized_regret;
        gamma_used;
        quality =
          (if reasons = [] then Guard.Exact else Guard.Degraded reasons);
        cost =
          {
            probes = search.probes;
            probes_fresh = search.probes_fresh;
            cells_crossed = search.cells_crossed;
          };
      }
  | None ->
      (* Unreachable for a well-formed matrix: at the largest distinct
         value every row satisfies every column, so any single row is a
         cover of size 1 <= r — and the degraded fallback probes exactly
         that threshold. *)
      assert false

let solve ?(gamma = 4) ?solver ?(budget = Strict) ?funcs ?domains
    ?(guard = Guard.Budget.unlimited) points ~r =
  if r < 1 then Guard.Error.invalid_input "Hd_rrms.solve: r must be >= 1";
  if Array.length points = 0 then
    Guard.Error.invalid_input "Hd_rrms.solve: empty input";
  Obs.Counter.incr Metrics.solves;
  Obs.Span.with_ "hd_rrms.solve" (fun () ->
  let m = Array.length points.(0) in
  (* Theorem 1: the optimal set lives on the skyline. *)
  let sky = Obs.Span.with_ "hd_rrms.skyline" (fun () ->
      Rrms_skyline.Skyline.sfs ?domains points)
  in
  let s = Array.length sky in
  let gamma_used, funcs, shrink_reason =
    match funcs with
    | Some f ->
        (* Explicit function set: the cell cap is a hard check — there
           is no gamma to shrink. *)
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
  let matrix =
    Obs.Span.with_ "hd_rrms.matrix" (fun () ->
        Regret_matrix.build ?domains ~guard ~funcs sky_points)
  in
  let res =
    solve_prepared ?solver ~budget ~guard ~skyline:sky ~gamma_used ~m matrix
      ~r
  in
  { res with quality = Guard.degrade_first res.quality shrink_reason })
