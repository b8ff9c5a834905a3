(* End-to-end tests for the high-dimensional algorithms: HD-RRMS,
   HD-GREEDY, the LP GREEDY baseline, and their relationships. *)

open Rrms_core

let random_points rng n m =
  Array.init n (fun _ -> Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.))

let test_hd_rrms_budget_and_guarantee () =
  let rng = Rrms_rng.Rng.create 121 in
  for _ = 1 to 10 do
    let pts = random_points rng 60 3 in
    let r = 2 + Rrms_rng.Rng.int rng 4 in
    let res = Hd_rrms.solve ~gamma:3 pts ~r in
    Alcotest.(check bool) "within budget" true
      (Array.length res.Hd_rrms.selected <= r);
    Alcotest.(check bool) "non-empty" true (Array.length res.Hd_rrms.selected > 0);
    (* The true regret must respect Theorem 4's lifted bound. *)
    let true_regret = Regret.exact_lp ~selected:res.Hd_rrms.selected pts in
    Alcotest.(check bool)
      (Printf.sprintf "true regret %g <= guarantee %g" true_regret
         res.Hd_rrms.guarantee)
      true
      (true_regret <= res.Hd_rrms.guarantee +. 1e-6);
    (* eps_min is the discretized regret the binary search accepted. *)
    Alcotest.(check bool)
      (Printf.sprintf "discretized regret %g <= eps_min %g"
         res.Hd_rrms.discretized_regret res.Hd_rrms.eps_min)
      true
      (res.Hd_rrms.discretized_regret <= res.Hd_rrms.eps_min +. 1e-12)
  done

let test_hd_rrms_exact_solver_opt_on_grid () =
  (* With the exact set-cover solver, eps_min is optimal for the
     discretized functions: no subset of size <= r can do better.
     Check by brute force on tiny instances. *)
  let rng = Rrms_rng.Rng.create 122 in
  for _ = 1 to 10 do
    let n = 8 and r = 2 in
    let pts = random_points rng n 3 in
    let funcs = Discretize.grid ~gamma:2 ~m:3 in
    let sky = Rrms_skyline.Skyline.sfs pts in
    let sky_pts = Array.map (fun i -> pts.(i)) sky in
    let matrix = Regret_matrix.build ~funcs sky_pts in
    match (Hd_rrms.search_on_matrix ~solver:Mrst.Exact matrix ~r).found with
    | None -> Alcotest.fail "must find a solution"
    | Some (_, eps_min) ->
        (* Brute force all pairs of skyline rows. *)
        let s = Array.length sky in
        let best = ref infinity in
        for a = 0 to s - 1 do
          for b = a to s - 1 do
            let v = Regret_matrix.regret_of_rows matrix (if a = b then [| a |] else [| a; b |]) in
            if v < !best then best := v
          done
        done;
        Alcotest.(check bool)
          (Printf.sprintf "eps_min %g = brute force %g" eps_min !best)
          true
          (Float.abs (eps_min -. !best) <= 1e-12)
  done

let test_hd_rrms_monotone_gamma_quality () =
  (* A finer grid cannot make the Theorem-4 guarantee worse. *)
  let rng = Rrms_rng.Rng.create 123 in
  let pts = random_points rng 80 3 in
  let g2 = (Hd_rrms.solve ~gamma:2 pts ~r:4).Hd_rrms.guarantee in
  let g6 = (Hd_rrms.solve ~gamma:6 pts ~r:4).Hd_rrms.guarantee in
  Alcotest.(check bool)
    (Printf.sprintf "guarantee improves with γ: %g -> %g" g2 g6)
    true (g6 <= g2 +. 1e-9)

let test_hd_rrms_2d_against_exact () =
  (* On 2D inputs the HD machinery must approach the exact 2D optimum
     within its guarantee. *)
  let rng = Rrms_rng.Rng.create 124 in
  for _ = 1 to 10 do
    let pts = random_points rng 40 2 in
    let r = 2 + Rrms_rng.Rng.int rng 3 in
    (* Equation 11 and the Theorem-4 lift both assume the exact MRST
       oracle (the greedy cover may overshoot ε_min). *)
    let hd = Hd_rrms.solve ~gamma:8 ~solver:Mrst.Exact pts ~r in
    let opt = Rrms2d.solve pts ~r in
    let hd_true = Regret.exact_2d ~selected:hd.Hd_rrms.selected pts in
    (* ε_min is a lower bound on the optimum (Equation 11)... *)
    Alcotest.(check bool)
      (Printf.sprintf "eps_min %g <= optimal %g" hd.Hd_rrms.eps_min
         opt.Rrms2d.regret)
      true
      (hd.Hd_rrms.eps_min <= opt.Rrms2d.regret +. 1e-9);
    (* ...and the output quality respects Theorem 4 w.r.t. optimal. *)
    let c = Discretize.theorem4_c ~gamma:8 ~m:2 in
    let bound = (c *. opt.Rrms2d.regret) +. (1. -. c) in
    Alcotest.(check bool)
      (Printf.sprintf "true %g <= c·opt + (1-c) = %g" hd_true bound)
      true
      (hd_true <= bound +. 1e-9)
  done

let test_hd_rrms_with_random_discretization () =
  let rng = Rrms_rng.Rng.create 125 in
  let pts = random_points rng 50 3 in
  let funcs = Discretize.random rng ~count:40 ~m:3 in
  let res = Hd_rrms.solve ~funcs pts ~r:3 in
  Alcotest.(check bool) "budget" true (Array.length res.Hd_rrms.selected <= 3);
  Alcotest.(check bool) "discretized regret sane" true
    (res.Hd_rrms.discretized_regret >= 0. && res.Hd_rrms.discretized_regret <= 1.)

let test_hd_greedy_basics () =
  let rng = Rrms_rng.Rng.create 126 in
  let pts = random_points rng 60 4 in
  let res = Hd_greedy.solve ~gamma:3 pts ~r:5 in
  Alcotest.(check int) "exactly r" 5 (Array.length res.Hd_greedy.selected);
  Alcotest.(check bool) "regret in [0,1]" true
    (res.Hd_greedy.discretized_regret >= 0. && res.Hd_greedy.discretized_regret <= 1.)

let test_hd_greedy_monotone_in_r () =
  let rng = Rrms_rng.Rng.create 127 in
  let pts = random_points rng 60 3 in
  let prev = ref infinity in
  for r = 1 to 6 do
    let res = Hd_greedy.solve ~gamma:4 pts ~r in
    Alcotest.(check bool)
      (Printf.sprintf "greedy regret non-increasing (r=%d)" r)
      true
      (res.Hd_greedy.discretized_regret <= !prev +. 1e-12);
    prev := res.Hd_greedy.discretized_regret
  done

let test_hd_rrms_beats_or_ties_hd_greedy_on_grid () =
  (* With the exact oracle, HD-RRMS is optimal on the grid, so it cannot
     be worse than HD-GREEDY there. *)
  let rng = Rrms_rng.Rng.create 128 in
  for _ = 1 to 8 do
    let pts = random_points rng 30 3 in
    let r = 2 + Rrms_rng.Rng.int rng 3 in
    let rrms = Hd_rrms.solve ~gamma:3 ~solver:Mrst.Exact pts ~r in
    let greedy = Hd_greedy.solve ~gamma:3 pts ~r in
    Alcotest.(check bool)
      (Printf.sprintf "HD-RRMS(exact) %g <= HD-GREEDY %g"
         rrms.Hd_rrms.discretized_regret greedy.Hd_greedy.discretized_regret)
      true
      (rrms.Hd_rrms.discretized_regret
      <= greedy.Hd_greedy.discretized_regret +. 1e-9)
  done

let test_greedy_lp_basics () =
  let rng = Rrms_rng.Rng.create 129 in
  let pts = random_points rng 40 3 in
  let res = Greedy.solve pts ~r:4 in
  Alcotest.(check int) "exactly r" 4 (Array.length res.Greedy.selected);
  (* First pick is the max of the first attribute. *)
  let first = res.Greedy.selected.(0) in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "seed maximizes first attribute" true
        (p.(0) <= pts.(first).(0)))
    pts;
  Alcotest.(check bool) "regret in [0,1]" true
    (res.Greedy.regret_lp >= 0. && res.Greedy.regret_lp <= 1.)

let test_greedy_pathological_gadget () =
  (* §4.1: on the gadget, GREEDY (r=3) picks the three unit vectors and
     suffers ~1-2ε regret, while the optimal (corner + two units)
     achieves ~ε.  HD-RRMS must find something near the optimum. *)
  let epsilon = 0.2 in
  let rng = Rrms_rng.Rng.create 130 in
  let d = Rrms_dataset.Synthetic.greedy_pathological ~epsilon ~extra:30 rng in
  let pts = Rrms_dataset.Dataset.rows d in
  let greedy = Greedy.solve pts ~r:3 in
  (* GREEDY picks the unit vectors: regret = distance-driven 1-2ε. *)
  Alcotest.(check bool)
    (Printf.sprintf "GREEDY regret %g is large" greedy.Greedy.regret_lp)
    true
    (greedy.Greedy.regret_lp >= 0.5);
  let sel = Array.copy greedy.Greedy.selected in
  Array.sort compare sel;
  Alcotest.(check (array int)) "GREEDY picks the three unit vectors"
    [| 0; 1; 2 |] sel;
  (* The optimal-style set: corner t3 plus two unit vectors. *)
  let opt_regret = Regret.exact_lp ~selected:[| 3; 0; 1 |] pts in
  Alcotest.(check bool)
    (Printf.sprintf "optimal-style regret %g is small" opt_regret)
    true
    (opt_regret <= epsilon +. 1e-6);
  (* HD-RRMS includes the corner and beats GREEDY by a wide margin. *)
  let hd = Hd_rrms.solve ~gamma:5 pts ~r:3 in
  let hd_regret = Regret.exact_lp ~selected:hd.Hd_rrms.selected pts in
  Alcotest.(check bool)
    (Printf.sprintf "HD-RRMS regret %g << GREEDY regret %g" hd_regret
       greedy.Greedy.regret_lp)
    true
    (hd_regret < greedy.Greedy.regret_lp /. 2.)

let test_greedy_skyline_restriction () =
  let rng = Rrms_rng.Rng.create 131 in
  let pts = random_points rng 50 3 in
  let full = Greedy.solve pts ~r:3 in
  let sky = Greedy.solve ~restrict_to_skyline:true pts ~r:3 in
  (* Same greedy choices modulo tie-breaking: regret must be close. *)
  Alcotest.(check bool)
    (Printf.sprintf "restricted %g ~ full %g" sky.Greedy.regret_lp
       full.Greedy.regret_lp)
    true
    (Float.abs (sky.Greedy.regret_lp -. full.Greedy.regret_lp) <= 0.2)

let expect_invalid_input what f =
  try
    ignore (f ());
    Alcotest.fail (Printf.sprintf "expected %s failure" what)
  with
  | Rrms_guard.Guard.Error.Guard_error
      (Rrms_guard.Guard.Error.Invalid_input _) ->
      ()

let test_invalid_args () =
  expect_invalid_input "hd_rrms r=0" (fun () ->
      Hd_rrms.solve [| [| 1.; 1. |] |] ~r:0);
  expect_invalid_input "hd_greedy empty" (fun () ->
      Hd_greedy.solve [||] ~r:1);
  expect_invalid_input "greedy r=0" (fun () ->
      Greedy.solve [| [| 1. |] |] ~r:0)

let suite =
  [
    Alcotest.test_case "hd-rrms budget+guarantee" `Slow
      test_hd_rrms_budget_and_guarantee;
    Alcotest.test_case "hd-rrms exact = grid optimum" `Slow
      test_hd_rrms_exact_solver_opt_on_grid;
    Alcotest.test_case "hd-rrms guarantee monotone in γ" `Quick
      test_hd_rrms_monotone_gamma_quality;
    Alcotest.test_case "hd-rrms vs exact 2D" `Slow test_hd_rrms_2d_against_exact;
    Alcotest.test_case "hd-rrms custom discretization" `Quick
      test_hd_rrms_with_random_discretization;
    Alcotest.test_case "hd-greedy basics" `Quick test_hd_greedy_basics;
    Alcotest.test_case "hd-greedy monotone in r" `Quick test_hd_greedy_monotone_in_r;
    Alcotest.test_case "hd-rrms <= hd-greedy on grid" `Slow
      test_hd_rrms_beats_or_ties_hd_greedy_on_grid;
    Alcotest.test_case "greedy LP basics" `Quick test_greedy_lp_basics;
    Alcotest.test_case "greedy pathological gadget" `Slow
      test_greedy_pathological_gadget;
    Alcotest.test_case "greedy skyline restriction" `Quick
      test_greedy_skyline_restriction;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
  ]

let test_budget_variants () =
  (* Inflated acceptance: eps_min can only improve (or tie), the output
     may exceed r but never the Chvátal bound. *)
  let rng = Rrms_rng.Rng.create 132 in
  for _ = 1 to 10 do
    let pts = random_points rng 60 3 in
    let r = 2 + Rrms_rng.Rng.int rng 3 in
    let gamma = 3 in
    let strict = Hd_rrms.solve ~gamma ~budget:Hd_rrms.Strict pts ~r in
    let inflated = Hd_rrms.solve ~gamma ~budget:Hd_rrms.Inflated pts ~r in
    Alcotest.(check bool)
      (Printf.sprintf "inflated eps %g <= strict eps %g"
         inflated.Hd_rrms.eps_min strict.Hd_rrms.eps_min)
      true
      (inflated.Hd_rrms.eps_min <= strict.Hd_rrms.eps_min +. 1e-12);
    let funcs = Discretize.grid ~gamma ~m:3 in
    let cap =
      int_of_float
        (ceil (float_of_int r *. (log (float_of_int (Array.length funcs)) +. 1.)))
    in
    Alcotest.(check bool) "inflated size within Chvátal cap" true
      (Array.length inflated.Hd_rrms.selected <= max r cap);
    Alcotest.(check bool) "strict size within r" true
      (Array.length strict.Hd_rrms.selected <= r)
  done

let test_inflated_reaches_grid_optimum () =
  (* Under Inflated, eps_min <= the grid optimum for r (brute-forced on
     tiny instances), because a size-r cover always passes. *)
  let rng = Rrms_rng.Rng.create 133 in
  for _ = 1 to 10 do
    let pts = random_points rng 8 3 in
    let r = 2 in
    let funcs = Discretize.grid ~gamma:2 ~m:3 in
    let sky = Rrms_skyline.Skyline.sfs pts in
    let sky_pts = Array.map (fun i -> pts.(i)) sky in
    let matrix = Regret_matrix.build ~funcs sky_pts in
    let s = Array.length sky in
    let grid_opt = ref infinity in
    for a = 0 to s - 1 do
      for b = a to s - 1 do
        let rows = if a = b then [| a |] else [| a; b |] in
        let v = Regret_matrix.regret_of_rows matrix rows in
        if v < !grid_opt then grid_opt := v
      done
    done;
    let inflated = Hd_rrms.solve ~gamma:2 ~budget:Hd_rrms.Inflated pts ~r in
    Alcotest.(check bool)
      (Printf.sprintf "inflated eps %g <= grid opt %g" inflated.Hd_rrms.eps_min
         !grid_opt)
      true
      (inflated.Hd_rrms.eps_min <= !grid_opt +. 1e-12)
  done

let budget_suite =
  [
    Alcotest.test_case "budget variants" `Quick test_budget_variants;
    Alcotest.test_case "inflated reaches grid optimum" `Quick
      test_inflated_reaches_grid_optimum;
  ]

let test_greedy_seed_strategies () =
  (* On the §4.1 gadget, better seeding repairs GREEDY: Best_singleton
     and All_seeds both find the near-optimal corner-based set. *)
  let epsilon = 0.1 in
  let rng = Rrms_rng.Rng.create 134 in
  let d = Rrms_dataset.Synthetic.greedy_pathological ~epsilon ~extra:20 rng in
  let pts = Rrms_dataset.Dataset.rows d in
  let published = Greedy.solve ~seed:Greedy.First_attribute pts ~r:3 in
  let singleton = Greedy.solve ~seed:Greedy.Best_singleton pts ~r:3 in
  let all = Greedy.solve ~seed:Greedy.All_seeds pts ~r:3 in
  Alcotest.(check bool)
    (Printf.sprintf "singleton (%g) repairs published (%g)"
       singleton.Greedy.regret_lp published.Greedy.regret_lp)
    true
    (singleton.Greedy.regret_lp < published.Greedy.regret_lp /. 2.);
  Alcotest.(check bool)
    (Printf.sprintf "all-seeds (%g) <= singleton (%g)" all.Greedy.regret_lp
       singleton.Greedy.regret_lp)
    true
    (all.Greedy.regret_lp <= singleton.Greedy.regret_lp +. 1e-9)

let test_greedy_all_seeds_never_worse () =
  let rng = Rrms_rng.Rng.create 135 in
  for _ = 1 to 5 do
    let pts = random_points rng 25 3 in
    let r = 2 + Rrms_rng.Rng.int rng 2 in
    let published = Greedy.solve pts ~r in
    let all = Greedy.solve ~seed:Greedy.All_seeds pts ~r in
    Alcotest.(check bool)
      (Printf.sprintf "all-seeds %g <= published %g" all.Greedy.regret_lp
         published.Greedy.regret_lp)
      true
      (all.Greedy.regret_lp <= published.Greedy.regret_lp +. 1e-9)
  done

let seed_suite =
  [
    Alcotest.test_case "seed strategies (gadget)" `Slow
      test_greedy_seed_strategies;
    Alcotest.test_case "all-seeds never worse" `Slow
      test_greedy_all_seeds_never_worse;
  ]
