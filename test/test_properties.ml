(* Cross-module property-based tests (qcheck, registered via
   QCheck_alcotest).  Each property states an invariant that ties two or
   more modules together; module-local properties live in the per-module
   suites. *)

open Rrms_core

(* --------------------------- generators --------------------------- *)

let point_gen m = QCheck.Gen.(array_size (return m) (float_range 0. 1.))

let points_gen ?(min_n = 1) ?(max_n = 60) m =
  QCheck.Gen.(
    let* n = int_range min_n max_n in
    array_size (return n) (point_gen m))

let arbitrary_points ?min_n ?max_n m =
  QCheck.make
    ~print:(fun pts ->
      String.concat ";"
        (Array.to_list (Array.map Rrms_geom.Vec.to_string pts)))
    (points_gen ?min_n ?max_n m)

let points2_and_r =
  QCheck.make
    ~print:(fun (pts, r) ->
      Printf.sprintf "r=%d pts=%s" r
        (String.concat ";"
           (Array.to_list (Array.map Rrms_geom.Vec.to_string pts))))
    QCheck.Gen.(
      let* pts = points_gen ~min_n:2 ~max_n:40 2 in
      let* r = int_range 1 5 in
      return (pts, r))

(* ------------------------------ skyline --------------------------- *)

let prop_skyline_algorithms_agree =
  QCheck.Test.make ~count:100 ~name:"bnl and sfs return the same point set"
    (arbitrary_points 3)
    (fun pts ->
      let key a =
        let l = Array.to_list (Array.map (fun i -> pts.(i)) a) in
        List.sort compare l
      in
      key (Rrms_skyline.Skyline.bnl pts) = key (Rrms_skyline.Skyline.sfs pts))

let prop_skyline_members_non_dominated =
  QCheck.Test.make ~count:100 ~name:"skyline members are non-dominated"
    (arbitrary_points 4)
    (fun pts ->
      Array.for_all
        (fun i -> Rrms_skyline.Skyline.is_skyline_point pts i)
        (Rrms_skyline.Skyline.sfs pts))

let prop_hull_subset_of_skyline =
  QCheck.Test.make ~count:100 ~name:"2D maxima hull ⊆ skyline"
    (arbitrary_points 2)
    (fun pts ->
      let sky = Array.to_list (Rrms_skyline.Skyline.two_d pts) in
      let sky_pts = List.map (fun i -> pts.(i)) sky in
      Array.for_all
        (fun v -> List.mem pts.(v) sky_pts)
        (Rrms_geom.Hull2d.vertices (Rrms_geom.Hull2d.build pts)))

(* ------------------------------ regret ---------------------------- *)

let prop_regret_monotone_in_selection =
  QCheck.Test.make ~count:100
    ~name:"adding a tuple never increases the regret" points2_and_r
    (fun (pts, _) ->
      let n = Array.length pts in
      n < 2
      ||
      let small = [| 0 |] in
      let large = [| 0; n - 1 |] in
      Regret.exact_2d ~selected:large pts
      <= Regret.exact_2d ~selected:small pts +. 1e-9)

let prop_single_function_bounded_by_exact =
  QCheck.Test.make ~count:100
    ~name:"per-function regret <= exact maximum regret" points2_and_r
    (fun (pts, _) ->
      let selected = [| 0 |] in
      let exact = Regret.exact_2d ~selected pts in
      List.for_all
        (fun phi ->
          let w = Rrms_geom.Polar.weight_of_angle_2d phi in
          Regret.for_function ~points:pts ~selected w <= exact +. 1e-9)
        [ 0.; 0.3; 0.7; 1.1; Float.pi /. 2. ])

let prop_regret_in_unit_interval =
  QCheck.Test.make ~count:100 ~name:"regret ratio lies in [0, 1]"
    points2_and_r
    (fun (pts, _) ->
      let e = Regret.exact_2d ~selected:[| 0 |] pts in
      e >= 0. && e <= 1. +. 1e-12)

(* ------------------------------ 2D DP ----------------------------- *)

let prop_published_never_beats_exact =
  QCheck.Test.make ~count:60
    ~name:"published 2D-RRMS regret >= exact variant's" points2_and_r
    (fun (pts, r) ->
      let a = (Rrms2d.solve pts ~r).Rrms2d.regret in
      let b = (Rrms2d.solve_exact pts ~r).Rrms2d.regret in
      a >= b -. 1e-9)

let prop_exact_weight_dominates =
  QCheck.Test.make ~count:60
    ~name:"corrected edge weight >= published edge weight"
    (arbitrary_points ~min_n:3 ~max_n:30 2)
    (fun pts ->
      let ctx = Rrms2d.make_ctx pts in
      let s = Rrms2d.skyline_size ctx in
      let ok = ref true in
      for i = -1 to s - 1 do
        for j = i + 1 to s do
          if Rrms2d.edge_weight_exact ctx i j < Rrms2d.edge_weight ctx i j -. 1e-12
          then ok := false
        done
      done;
      !ok)

let prop_dp_value_bounds_true_regret =
  QCheck.Test.make ~count:60
    ~name:"exact DP objective upper-bounds the selection's regret"
    points2_and_r
    (fun (pts, r) ->
      let res = Rrms2d.solve_exact pts ~r in
      res.Rrms2d.regret <= res.Rrms2d.dp_value +. 1e-9)

let prop_sweepline_agrees_with_exact =
  QCheck.Test.make ~count:40 ~name:"sweepline optimum = exact DP optimum"
    points2_and_r
    (fun (pts, r) ->
      let a = (Sweepline.solve pts ~r).Sweepline.regret in
      let b = (Rrms2d.solve_exact pts ~r).Rrms2d.regret in
      Float.abs (a -. b) <= 1e-9)

(* ------------------------------ HD -------------------------------- *)

let prop_hd_rrms_respects_budget_and_guarantee =
  QCheck.Test.make ~count:30
    ~name:"HD-RRMS: budget respected and regret within Theorem 4 bound"
    (QCheck.make
       QCheck.Gen.(
         let* pts = points_gen ~min_n:4 ~max_n:40 3 in
         let* r = int_range 1 4 in
         return (pts, r)))
    (fun (pts, r) ->
      let res = Hd_rrms.solve ~gamma:3 pts ~r in
      Array.length res.Hd_rrms.selected <= r
      && Array.length res.Hd_rrms.selected > 0
      && Regret.exact_lp ~selected:res.Hd_rrms.selected pts
         <= res.Hd_rrms.guarantee +. 1e-6)

let prop_discretized_regret_lower_bounds_exact =
  QCheck.Test.make ~count:30
    ~name:"grid regret of a set lower-bounds its exact regret"
    (arbitrary_points ~min_n:3 ~max_n:40 3)
    (fun pts ->
      let funcs = Discretize.grid ~gamma:3 ~m:3 in
      let matrix = Regret_matrix.build ~funcs pts in
      let selected = [| 0; Array.length pts - 1 |] in
      Regret_matrix.regret_of_rows matrix selected
      <= Regret.exact_lp ~selected pts +. 1e-9)

(* --------------------------- LP / simplex ------------------------- *)

let prop_point_regret_lp_bounds =
  QCheck.Test.make ~count:80
    ~name:"LP point regret lies in [0,1] and is 0 for dominated points"
    (arbitrary_points ~min_n:2 ~max_n:20 3)
    (fun pts ->
      let set = [| pts.(0) |] in
      let v = Regret.point_regret_lp ~set pts.(Array.length pts - 1) in
      v >= 0. && v <= 1.
      && Regret.point_regret_lp ~set:[| pts.(0) |]
           (Array.map (fun x -> x /. 2.) pts.(0))
         <= 1e-9)

(* --------------------------- discretize --------------------------- *)

let prop_grid_directions_unit_nonneg =
  QCheck.Test.make ~count:40 ~name:"grid directions are unit and non-negative"
    (QCheck.make QCheck.Gen.(pair (int_range 1 6) (int_range 2 5)))
    (fun (gamma, m) ->
      Array.for_all
        (fun v ->
          Float.abs (Rrms_geom.Vec.norm v -. 1.) < 1e-9
          && Array.for_all (fun x -> x >= -1e-12) v)
        (Discretize.grid ~gamma ~m))

let prop_theorem4_bound_shape =
  QCheck.Test.make ~count:60 ~name:"Theorem 4: 0 < c <= 1 and bound(eps)>=eps"
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 12) (int_range 2 8) (float_range 0. 1.)))
    (fun (gamma, m, eps) ->
      let c = Discretize.theorem4_c ~gamma ~m in
      let bound = Discretize.theorem4_bound ~gamma ~m ~eps in
      c > 0. && c <= 1. +. 1e-12 && bound >= eps -. 1e-12 && bound <= 1. +. 1e-12)

(* --------------------- maintenance / serving ---------------------- *)

let prop_store_2d_equals_scratch =
  QCheck.Test.make ~count:30
    ~name:"Store.mutate 2d-exact = scratch"
    (QCheck.make
       QCheck.Gen.(
         let* pts = points_gen ~min_n:3 ~max_n:40 2 in
         let* r = int_range 1 3 in
         return (pts, r)))
    (fun (pts, r) ->
      let open Test_maintenance in
      let store = open_table [| pts.(0) |] in
      Array.iteri
        (fun i p ->
          if i > 0 then begin
            (* A warm answer before each insert, so every batch runs the
               maintenance path against cached artifacts. *)
            ignore (ask store ~r : Rrms_serve.Store.outcome);
            ignore (mutate store [ Delta.Insert p ] : Rrms_serve.Store.mutated)
          end)
        pts;
      let scratch = (Rrms2d.solve_exact pts ~r).Rrms2d.regret in
      Float.abs (regret_of (ask store ~r) -. scratch) <= 1e-9)

let prop_onion_top1_exact =
  QCheck.Test.make ~count:50 ~name:"Onion top-1 equals the true maximum"
    (QCheck.make
       QCheck.Gen.(
         let* pts = points_gen ~min_n:1 ~max_n:80 2 in
         let* phi = float_range 0.01 1.55 in
         return (pts, phi)))
    (fun (pts, phi) ->
      let onion = Onion.build ~max_layers:1 pts in
      let w = Rrms_geom.Polar.weight_of_angle_2d phi in
      let got = Rrms_geom.Vec.dot w pts.(Onion.top1 onion w) in
      let want = Rrms_geom.Vec.max_score w pts in
      Float.abs (got -. want) <= 1e-9)

let prop_kernel_zero_on_grid =
  QCheck.Test.make ~count:30
    ~name:"ε-kernel answers every grid direction with zero regret"
    (QCheck.make
       QCheck.Gen.(
         let* pts = points_gen ~min_n:2 ~max_n:60 3 in
         let* gamma = int_range 1 4 in
         return (pts, gamma)))
    (fun (pts, gamma) ->
      let funcs = Discretize.grid ~gamma ~m:3 in
      let kernel = Eps_kernel.build ~funcs pts in
      Array.for_all
        (fun w -> Regret.for_function ~points:pts ~selected:kernel w <= 1e-12)
        funcs)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_skyline_algorithms_agree;
      prop_skyline_members_non_dominated;
      prop_hull_subset_of_skyline;
      prop_regret_monotone_in_selection;
      prop_single_function_bounded_by_exact;
      prop_regret_in_unit_interval;
      prop_published_never_beats_exact;
      prop_exact_weight_dominates;
      prop_dp_value_bounds_true_regret;
      prop_sweepline_agrees_with_exact;
      prop_hd_rrms_respects_budget_and_guarantee;
      prop_discretized_regret_lower_bounds_exact;
      prop_point_regret_lp_bounds;
      prop_grid_directions_unit_nonneg;
      prop_theorem4_bound_shape;
      prop_store_2d_equals_scratch;
      prop_onion_top1_exact;
      prop_kernel_zero_on_grid;
    ]
