(* Focused edge-case tests that the per-module suites don't hit:
   degenerate geometry (axis-aligned and zero-valued tuples), boundary
   parameter values, and numeric corner cases. *)

open Rrms_core

let feq ?(eps = 1e-9) msg expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" msg expected got)
    true
    (Float.abs (expected -. got) <= eps)

(* ------------------------- axis-degenerate 2D --------------------- *)

let test_points_on_axes () =
  (* Tuples with zero coordinates: regret denominators and tie angles
     must stay well-defined. *)
  let points = [| [| 1.; 0. |]; [| 0.; 1. |]; [| 0.; 0. |] |] in
  let res = Rrms2d.solve_exact points ~r:1 in
  (* Keeping a single axis point loses the whole other axis. *)
  feq "single-corner regret is 1" 1. res.Rrms2d.regret;
  let res2 = Rrms2d.solve_exact points ~r:2 in
  feq "both corners cover everything" 0. res2.Rrms2d.regret

let test_collinear_vertical_points () =
  (* Many tuples sharing one A₁ value: skyline keeps only the top one,
     ties must not confuse the hull chain. *)
  let points =
    [| [| 1.; 0.2 |]; [| 1.; 0.9 |]; [| 1.; 0.5 |]; [| 0.5; 1. |] |]
  in
  let ctx = Rrms2d.make_ctx points in
  Alcotest.(check int) "two skyline tuples" 2 (Rrms2d.skyline_size ctx);
  let res = Rrms2d.solve_exact points ~r:2 in
  feq "two tuples suffice" 0. res.Rrms2d.regret

let test_identical_points_everywhere () =
  let points = Array.make 10 [| 0.3; 0.7 |] in
  let res = Rrms2d.solve_exact points ~r:1 in
  feq "identical points: zero regret" 0. res.Rrms2d.regret;
  Alcotest.(check int) "one selected" 1 (Array.length res.Rrms2d.selected)

let test_single_point_hd () =
  let res = Hd_rrms.solve ~gamma:3 [| [| 0.5; 0.5; 0.5 |] |] ~r:3 in
  Alcotest.(check int) "single point selected" 1
    (Array.length res.Hd_rrms.selected);
  feq "zero eps" 0. res.Hd_rrms.eps_min

let test_all_zero_tuple () =
  (* A tuple of all zeros scores 0 under every function; regret ratios
     must not divide by zero. *)
  let points = [| [| 0.; 0. |]; [| 0.; 0. |] |] in
  let res = Rrms2d.solve_exact points ~r:1 in
  feq "all-zero database: zero regret" 0. res.Rrms2d.regret;
  feq "per-function regret 0" 0.
    (Regret.for_function ~points ~selected:[| 0 |] [| 1.; 1. |])

(* ----------------------- parameter boundaries --------------------- *)

let test_gamma_one_grid () =
  (* γ = 1: only the axis directions. *)
  let dirs = Discretize.grid ~gamma:1 ~m:2 in
  Alcotest.(check int) "two directions" 2 (Array.length dirs);
  let dirs3 = Discretize.grid ~gamma:1 ~m:3 in
  Alcotest.(check int) "four directions in 3D" 4 (Array.length dirs3)

let test_r_equals_skyline () =
  let rng = Rrms_rng.Rng.create 221 in
  let points =
    Array.init 30 (fun _ ->
        [| Rrms_rng.Rng.float rng 1.; Rrms_rng.Rng.float rng 1. |])
  in
  let s = Rrms2d.skyline_size (Rrms2d.make_ctx points) in
  let res = Rrms2d.solve_exact points ~r:s in
  feq "r = s: whole skyline, zero regret" 0. res.Rrms2d.regret

let test_setcover_single_set_covers_all () =
  let open Rrms_setcover in
  let s = Bitset.create 5 in
  for i = 0 to 4 do
    Bitset.set s i
  done;
  let inst = Setcover.of_bitsets ~universe:5 [| s |] in
  (match Setcover.greedy inst with
  | Some chosen -> Alcotest.(check int) "greedy picks one" 1 (Array.length chosen)
  | None -> Alcotest.fail "coverable");
  match Setcover.exact inst with
  | Some chosen -> Alcotest.(check int) "exact picks one" 1 (Array.length chosen)
  | None -> Alcotest.fail "coverable"

(* --------------------------- numeric edges ------------------------ *)

let test_tiny_coordinate_scales () =
  (* Values around 1e-9: ratios must stay stable. *)
  let points =
    [| [| 1e-9; 0. |]; [| 0.; 1e-9 |]; [| 0.7e-9; 0.7e-9 |] |]
  in
  let res = Rrms2d.solve_exact points ~r:2 in
  Alcotest.(check bool) "regret within [0,1]" true
    (res.Rrms2d.regret >= 0. && res.Rrms2d.regret <= 1.);
  (* The same instance scaled up must give the same regret (scale
     invariance of the ratio). *)
  let scaled = Array.map (Array.map (fun v -> v *. 1e9)) points in
  let res' = Rrms2d.solve_exact scaled ~r:2 in
  feq ~eps:1e-6 "scale invariance" res'.Rrms2d.regret res.Rrms2d.regret

let test_huge_coordinate_scales () =
  let points = [| [| 1e12; 1. |]; [| 1.; 1e12 |]; [| 8e11; 8e11 |] |] in
  let res = Rrms2d.solve_exact points ~r:2 in
  Alcotest.(check bool) "regret within [0,1]" true
    (res.Rrms2d.regret >= 0. && res.Rrms2d.regret <= 1.)

let test_simplex_equality_only_system () =
  (* A pure equality system solved through phase 1 alone. *)
  let open Rrms_lp in
  match
    Simplex.maximize ~c:[| 0.; 0. |]
      [
        Simplex.constraint_ [| 1.; 1. |] Simplex.Eq 2.;
        Simplex.constraint_ [| 1.; -1. |] Simplex.Eq 0.;
      ]
  with
  | Simplex.Optimal { solution; _ } ->
      feq "x = 1" 1. solution.(0);
      feq "y = 1" 1. solution.(1)
  | _ -> Alcotest.fail "expected optimal"

let suite =
  [
    Alcotest.test_case "points on axes" `Quick test_points_on_axes;
    Alcotest.test_case "collinear vertical points" `Quick
      test_collinear_vertical_points;
    Alcotest.test_case "identical points" `Quick test_identical_points_everywhere;
    Alcotest.test_case "single point HD" `Quick test_single_point_hd;
    Alcotest.test_case "all-zero tuples" `Quick test_all_zero_tuple;
    Alcotest.test_case "gamma = 1 grid" `Quick test_gamma_one_grid;
    Alcotest.test_case "r = skyline size" `Quick test_r_equals_skyline;
    Alcotest.test_case "set cover single set" `Quick
      test_setcover_single_set_covers_all;
    Alcotest.test_case "tiny coordinates" `Quick test_tiny_coordinate_scales;
    Alcotest.test_case "huge coordinates" `Quick test_huge_coordinate_scales;
    Alcotest.test_case "equality-only simplex" `Quick
      test_simplex_equality_only_system;
  ]
