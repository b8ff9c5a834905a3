open Rrms_geom
module Obs = Rrms_obs.Obs

module Metrics = struct
  let grid_builds =
    Obs.Counter.make ~help:"discretization grids materialized"
      "rrms_grid_builds_total"

  (* Paper quantity (gamma+1)^(m-1): directions in the last grid. *)
  let grid_directions =
    Obs.Gauge.make ~help:"directions in the last materialized grid"
      "rrms_grid_directions"
end

let half_pi = Float.pi /. 2.

let alpha ~gamma = half_pi /. float_of_int gamma

let max_grid_size = 2_000_000

(* (gamma+1)^(m-1), saturating at [cap + 1] so callers can compare
   against a cap without integer overflow. *)
let grid_size_capped ~cap ~gamma ~m =
  let base = gamma + 1 in
  let rec power acc i =
    if acc > cap then cap + 1
    else if i = 0 then acc
    else power (acc * base) (i - 1)
  in
  power 1 (m - 1)

let grid_size ~gamma ~m =
  if gamma < 1 then
    Rrms_guard.Guard.Error.invalid_input "Discretize.grid: gamma must be >= 1";
  if m < 2 then
    Rrms_guard.Guard.Error.invalid_input "Discretize.grid: m must be >= 2";
  let total = grid_size_capped ~cap:max_grid_size ~gamma ~m in
  if total > max_grid_size then
    Rrms_guard.Guard.Error.resource_limit
      ~what:
        "Discretize.grid: (gamma+1)^(m-1) directions (project to fewer \
         attributes or use Discretize.random)"
      ~requested:total ~limit:max_grid_size;
  total

let matrix_cells ~rows ~gamma ~m =
  if rows < 1 then rows
  else begin
    let cap = (max_int / 2 / rows) + 1 in
    let dirs = grid_size_capped ~cap ~gamma ~m in
    rows * dirs (* saturation keeps this below max_int *)
  end

let fit_gamma ~rows ~max_cells ~gamma ~m =
  (* Largest gamma' in [1, gamma] whose regret matrix fits the cap. *)
  let rec down g =
    if g < 1 then None
    else if matrix_cells ~rows ~gamma:g ~m <= max_cells then Some g
    else down (g - 1)
  in
  down gamma

let shrink_gamma ~max_cells ~rows ~gamma ~m =
  match max_cells with
  | None -> (gamma, None)
  | Some cap -> (
      match fit_gamma ~rows ~max_cells:cap ~gamma ~m with
      | Some g when g = gamma -> (gamma, None)
      | Some g ->
          let requested = matrix_cells ~rows ~gamma ~m in
          ( g,
            Some
              (Rrms_guard.Guard.Cell_cap
                 { requested; cap; gamma_from = gamma; gamma_to = g }) )
      | None ->
          Rrms_guard.Guard.Error.resource_limit
            ~what:"regret matrix cells (even at gamma = 1)"
            ~requested:(matrix_cells ~rows ~gamma:1 ~m)
            ~limit:cap)

let grid ~gamma ~m =
  let total = grid_size ~gamma ~m in
  Obs.Counter.incr Metrics.grid_builds;
  Obs.Gauge.set_int Metrics.grid_directions total;
  let a = alpha ~gamma in
  let k = m - 1 in
  (* Odometer enumeration of all (γ+1)^(m-1) angle index tuples. *)
  let digits = Array.make k 0 in
  let angles = Array.make k 0. in
  Array.init total (fun idx ->
      if idx > 0 then begin
        let j = ref 0 in
        let carry = ref true in
        while !carry && !j < k do
          if digits.(!j) < gamma then begin
            digits.(!j) <- digits.(!j) + 1;
            carry := false
          end
          else begin
            digits.(!j) <- 0;
            incr j
          end
        done
      end;
      for j = 0 to k - 1 do
        angles.(j) <- float_of_int digits.(j) *. a
      done;
      Polar.to_cartesian angles)

(* A γ'-grid is a sub-grid of a γ-grid when γ' | γ: angle j·π/(2γ')
   equals (j·c)·π/(2γ) for c = γ/γ' in the reals.  Floating point only
   honours that identity for some ratios (powers of two always do), so
   the index mapping is accepted only after verifying that every
   sub-grid angle is {e bit-identical} to the big grid's — which makes
   reuse of a cached regret matrix exact, never approximate. *)
let subgrid_indices ~gamma_sub ~gamma ~m =
  if gamma_sub < 1 || gamma < 1 then
    Rrms_guard.Guard.Error.invalid_input
      "Discretize.subgrid_indices: gamma must be >= 1";
  if m < 2 then
    Rrms_guard.Guard.Error.invalid_input
      "Discretize.subgrid_indices: m must be >= 2";
  if gamma mod gamma_sub <> 0 || gamma_sub > gamma then None
  else begin
    let c = gamma / gamma_sub in
    let a_sub = alpha ~gamma:gamma_sub and a_big = alpha ~gamma in
    let angles_match =
      let ok = ref true in
      for d = 0 to gamma_sub do
        if
          float_of_int d *. a_sub
          <> float_of_int (d * c) *. a_big
        then ok := false
      done;
      !ok
    in
    if not angles_match then None
    else begin
      let total = grid_size ~gamma:gamma_sub ~m in
      let k = m - 1 in
      let big_base = gamma + 1 in
      (* Odometer over the sub-grid digits, mirroring [grid]'s
         enumeration order (digit 0 fastest), mapping each digit tuple
         (d_0..d_{k-1}) to Σ (d_j·c)·(γ+1)^j in the big grid. *)
      let digits = Array.make k 0 in
      Some
        (Array.init total (fun idx ->
             if idx > 0 then begin
               let j = ref 0 in
               let carry = ref true in
               while !carry && !j < k do
                 if digits.(!j) < gamma_sub then begin
                   digits.(!j) <- digits.(!j) + 1;
                   carry := false
                 end
                 else begin
                   digits.(!j) <- 0;
                   incr j
                 end
               done
             end;
             let index = ref 0 and stride = ref 1 in
             for j = 0 to k - 1 do
               index := !index + (digits.(j) * c * !stride);
               stride := !stride * big_base
             done;
             !index))
    end
  end

let random rng ~count ~m =
  if m < 2 then invalid_arg "Discretize.random: m must be >= 2";
  Array.init count (fun _ ->
      let angles =
        Array.init (m - 1) (fun _ -> Rrms_rng.Rng.uniform rng 0. half_pi)
      in
      Polar.to_cartesian angles)

let force_directed ?(iterations = 100) ?(step = 0.05) rng ~count ~m =
  let dirs = random rng ~count ~m in
  let force = Array.make m 0. in
  for _ = 1 to iterations do
    for i = 0 to count - 1 do
      Array.fill force 0 m 0.;
      let p = dirs.(i) in
      for j = 0 to count - 1 do
        if j <> i then begin
          let q = dirs.(j) in
          let d2 = ref 1e-9 in
          for d = 0 to m - 1 do
            let diff = p.(d) -. q.(d) in
            d2 := !d2 +. (diff *. diff)
          done;
          (* Coulomb repulsion 1/d², directed away from q. *)
          let mag = 1. /. (!d2 *. sqrt !d2) in
          for d = 0 to m - 1 do
            force.(d) <- force.(d) +. (mag *. (p.(d) -. q.(d)))
          done
        end
      done;
      (* Keep only the tangential component so the move stays on the
         sphere to first order. *)
      let radial = Vec.dot force p in
      for d = 0 to m - 1 do
        force.(d) <- force.(d) -. (radial *. p.(d))
      done;
      let norm = Vec.norm force in
      if norm > 0. then begin
        let scale = step /. norm in
        let moved =
          Array.mapi (fun d x -> Float.max 0. (x +. (scale *. force.(d)))) p
        in
        if Vec.norm moved > 0. then dirs.(i) <- Vec.normalize moved
      end
    done
  done;
  dirs

let min_pairwise_angle dirs =
  let n = Array.length dirs in
  let best = ref infinity in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = Polar.angular_distance dirs.(i) dirs.(j) in
      if a < !best then best := a
    done
  done;
  !best

let max_coverage_angle ?(samples = 2000) rng dirs ~m =
  let worst = ref 0. in
  for _ = 1 to samples do
    let angles = Array.init (m - 1) (fun _ -> Rrms_rng.Rng.uniform rng 0. half_pi) in
    let probe = Polar.to_cartesian angles in
    let nearest =
      Array.fold_left
        (fun acc d -> Float.min acc (Polar.angular_distance probe d))
        infinity dirs
    in
    if nearest > !worst then worst := nearest
  done;
  !worst

let theorem4_alpha' ~gamma ~m =
  let a = alpha ~gamma in
  let cm = cos a ** float_of_int (m - 1) in
  2. *. asin (sqrt ((1. -. cm) /. 2.))

(* Theorem 4's contraction constant as a function of the covering
   radius δ (= α'/2 for the grid): any direction within angle δ of a
   satisfied one keeps at least a c-fraction of its guarantee. *)
let c_of_coverage delta =
  cos delta *. cos (Float.pi /. 4.) /. cos ((Float.pi /. 4.) -. delta)

let theorem4_c ~gamma ~m = c_of_coverage (theorem4_alpha' ~gamma ~m /. 2.)

let theorem4_bound ~gamma ~m ~eps =
  let c = theorem4_c ~gamma ~m in
  (c *. eps) +. (1. -. c)
