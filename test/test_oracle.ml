(* Differential-oracle harness.

   A brute-force regret oracle — dense direction sampling, nothing
   shared with the solvers' geometry — cross-checks every published
   algorithm on seeded random instances:

   - 2D: the corrected 2D-RRMS DP and the Sweeping-Line baseline must
     select sets of EQUAL exact regret on every instance, and both must
     dominate (be no better than) the brute-force subset enumeration on
     small instances;
   - the sampled oracle is a sound lower bound on the exact regret and
     converges to it under dense sampling;
   - HD: the achieved exact regret of HD-RRMS and HD-GREEDY is within
     the certified Theorem-4 bound on every instance. *)

open Rrms_core
module Vec = Rrms_geom.Vec
module Polar = Rrms_geom.Polar

let feq ?(eps = 1e-9) msg expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g, diff %g)" msg expected got
       (Float.abs (expected -. got)))
    true
    (Float.abs (expected -. got) <= eps)

let dataset seed ~n ~m =
  let rng = Rrms_rng.Rng.create seed in
  Array.init n (fun _ -> Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.))

(* ------------------------------------------------------------------ *)
(* The oracle: max over densely sampled directions of the regret ratio.
   Always a LOWER bound on the true maximum regret; converges from
   below as the sample count grows. *)

let oracle_2d ?(steps = 4000) ~selected points =
  let half_pi = Float.pi /. 2. in
  let worst = ref 0. in
  for q = 0 to steps do
    let phi = half_pi *. float_of_int q /. float_of_int steps in
    let w = Polar.weight_of_angle_2d phi in
    let best_all = Vec.max_score w points in
    if best_all > 0. then begin
      let best_sel = ref neg_infinity in
      Array.iter
        (fun i ->
          let s = Vec.dot w points.(i) in
          if s > !best_sel then best_sel := s)
        selected;
      let reg = Float.max 0. ((best_all -. !best_sel) /. best_all) in
      if reg > !worst then worst := reg
    end
  done;
  !worst

let oracle_hd ?(count = 3000) ~seed ~selected points =
  let m = Array.length points.(0) in
  let rng = Rrms_rng.Rng.create seed in
  let dirs = Discretize.random rng ~count ~m in
  Array.fold_left
    (fun acc w -> Float.max acc (Regret.for_function ~points ~selected w))
    0. dirs

(* ------------------------------------------------------------------ *)
(* 2D: 2D-RRMS vs Sweeping-Line vs the oracle, 50 seeded instances.    *)

let test_2d_differential () =
  for trial = 1 to 50 do
    let n = 10 + ((trial * 13) mod 191) in
    let r = 1 + (trial mod 5) in
    let points = dataset (1000 + trial) ~n ~m:2 in
    let exact = Rrms2d.solve_exact points ~r in
    let sweep = Sweepline.solve points ~r in
    (* Both solve the same min-max problem exactly: equal regret (the
       selections may differ when ties exist, the value may not). *)
    feq
      (Printf.sprintf "trial %d: 2D-RRMS exact = sweepline regret" trial)
      exact.Rrms2d.regret sweep.Sweepline.regret;
    (* The published DP is a heuristic under its Property-1 assumption:
       never better than the exact DP, on any instance. *)
    let published = Rrms2d.solve points ~r in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: published >= exact" trial)
      true
      (published.Rrms2d.regret >= exact.Rrms2d.regret -. 1e-9);
    (* Oracle soundness + convergence: sampled <= exact <= sampled + tol
       (4000 samples over the quarter circle; the regret profile is
       piecewise smooth, so the dense max is tight to ~1e-3). *)
    let o = oracle_2d ~selected:exact.Rrms2d.selected points in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: oracle is a lower bound" trial)
      true
      (o <= exact.Rrms2d.regret +. 1e-9);
    Alcotest.(check bool)
      (Printf.sprintf
         "trial %d: oracle converges to the exact regret (gap %g)" trial
         (exact.Rrms2d.regret -. o))
      true
      (exact.Rrms2d.regret -. o <= 5e-3)
  done

(* Small instances: the exact DP must match full subset enumeration. *)
let test_2d_vs_brute_force () =
  for trial = 1 to 12 do
    let n = 6 + (trial mod 7) in
    let r = 1 + (trial mod 3) in
    let points = dataset (4000 + trial) ~n ~m:2 in
    let exact = Rrms2d.solve_exact points ~r in
    let brute = Rrms2d.solve_brute_force points ~r in
    feq
      (Printf.sprintf "trial %d: exact DP = brute force" trial)
      brute.Rrms2d.regret exact.Rrms2d.regret
  done

(* ------------------------------------------------------------------ *)
(* HD: certified bounds hold on every instance.                        *)

let test_hd_rrms_certified () =
  for trial = 1 to 50 do
    let m = 3 + (trial mod 2) in
    let n = 40 + ((trial * 17) mod 141) in
    let r = 2 + (trial mod 4) in
    let gamma = 2 + (trial mod 3) in
    let points = dataset (2000 + trial) ~n ~m in
    let res = Hd_rrms.solve ~gamma points ~r in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: hd-rrms returned <= r tuples" trial)
      true
      (Array.length res.Hd_rrms.selected <= r);
    let achieved = Regret.exact_lp ~selected:res.Hd_rrms.selected points in
    Alcotest.(check bool)
      (Printf.sprintf
         "trial %d: hd-rrms exact regret %g within certified bound %g" trial
         achieved res.Hd_rrms.guarantee)
      true
      (achieved <= res.Hd_rrms.guarantee +. 1e-9);
    (* The sampled oracle can never exceed the exact LP regret. *)
    let o = oracle_hd ~seed:(5000 + trial) ~selected:res.Hd_rrms.selected points in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: sampled oracle <= exact LP regret" trial)
      true
      (o <= achieved +. 1e-9)
  done

let test_hd_greedy_certified () =
  for trial = 1 to 50 do
    let m = 3 + (trial mod 2) in
    let n = 40 + ((trial * 19) mod 141) in
    let r = 2 + (trial mod 4) in
    let gamma = 2 + (trial mod 3) in
    let points = dataset (3000 + trial) ~n ~m in
    let res = Hd_greedy.solve ~gamma points ~r in
    let bound =
      Discretize.theorem4_bound ~gamma:res.Hd_greedy.gamma_used ~m
        ~eps:res.Hd_greedy.discretized_regret
    in
    let achieved = Regret.exact_lp ~selected:res.Hd_greedy.selected points in
    Alcotest.(check bool)
      (Printf.sprintf
         "trial %d: hd-greedy exact regret %g within Theorem-4 bound %g" trial
         achieved bound)
      true
      (achieved <= bound +. 1e-9)
  done

(* The discretized grid regret reported by the HD solvers must agree
   with an independent evaluation of the selection over the same grid —
   Regret.sampled over Discretize.grid is that evaluation. *)
let test_hd_grid_regret_agrees () =
  for trial = 1 to 10 do
    let m = 3 in
    let n = 60 + (trial * 7) in
    let gamma = 3 in
    let points = dataset (6000 + trial) ~n ~m in
    let res = Hd_rrms.solve ~gamma points ~r:3 in
    let funcs = Discretize.grid ~gamma ~m in
    let sampled =
      Regret.sampled ~selected:res.Hd_rrms.selected ~funcs points
    in
    feq ~eps:1e-9
      (Printf.sprintf "trial %d: reported grid regret = independent eval" trial)
      sampled res.Hd_rrms.discretized_regret
  done

(* ------------------------------------------------------------------ *)
(* Every algorithm the query service exposes (Protocol.algo) must be
   bit-identical however wide the default domain pool is — the flat
   matrix layout, the incremental MRST probes and the adaptive chunking
   must never leak into a result.                                      *)

let test_served_algos_domain_invariant () =
  let pts2 = dataset 7700 ~n:400 ~m:2 in
  let ptsh = dataset 7701 ~n:500 ~m:3 in
  let r = 4 and gamma = 3 in
  let run () =
    ( Rrms2d.solve pts2 ~r,
      Rrms2d.solve_exact pts2 ~r,
      Sweepline.solve pts2 ~r,
      Hd_rrms.solve ~gamma ptsh ~r,
      Hd_greedy.solve ~gamma ptsh ~r,
      Greedy.solve ptsh ~r,
      Cube.solve ptsh ~r )
  in
  let saved = Rrms_parallel.Pool.default_size () in
  Fun.protect
    ~finally:(fun () -> Rrms_parallel.Pool.set_default_size saved)
    (fun () ->
      Rrms_parallel.Pool.set_default_size 1;
      let reference = run () in
      List.iter
        (fun d ->
          Rrms_parallel.Pool.set_default_size d;
          Alcotest.(check bool)
            (Printf.sprintf
               "all seven served algos bit-identical at %d domains" d)
            true
            (run () = reference))
        [ 2; 4 ])

let suite =
  [
    Alcotest.test_case "2d differential (50 instances)" `Quick
      test_2d_differential;
    Alcotest.test_case "2d exact = brute force" `Quick test_2d_vs_brute_force;
    Alcotest.test_case "hd-rrms certified bound (50 instances)" `Quick
      test_hd_rrms_certified;
    Alcotest.test_case "hd-greedy certified bound (50 instances)" `Quick
      test_hd_greedy_certified;
    Alcotest.test_case "hd grid regret agrees with independent eval" `Quick
      test_hd_grid_regret_agrees;
    Alcotest.test_case "served algos: domains 1 = 2 = 4" `Quick
      test_served_algos_domain_invariant;
  ]
