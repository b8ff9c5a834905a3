(* Bechamel micro-benchmarks for the core kernels.

   These complement the figure harness: the figures time end-to-end
   algorithm runs with wall clocks, while these measure the hot inner
   kernels (dot products, skyline passes, hull construction, edge
   weights, matrix building, set cover, simplex) with proper OLS
   estimation. *)

open Bechamel
open Toolkit

let kernels () =
  let rng = Rrms_rng.Rng.create 1234 in
  let v1 = Array.init 8 (fun _ -> Rrms_rng.Rng.float rng 1.) in
  let v2 = Array.init 8 (fun _ -> Rrms_rng.Rng.float rng 1.) in
  let pts2d =
    Array.init 5_000 (fun _ ->
        [| Rrms_rng.Rng.float rng 1.; Rrms_rng.Rng.float rng 1. |])
  in
  let pts4d =
    Array.init 2_000 (fun _ ->
        Array.init 4 (fun _ -> Rrms_rng.Rng.float rng 1.))
  in
  let ctx2d = Rrms_core.Rrms2d.make_ctx pts2d in
  let s2d = Rrms_core.Rrms2d.skyline_size ctx2d in
  let funcs = Rrms_core.Discretize.grid ~gamma:4 ~m:4 in
  let sky4 = Rrms_skyline.Skyline.sfs pts4d in
  let sky4_pts = Array.map (fun i -> pts4d.(i)) sky4 in
  let matrix = Rrms_core.Regret_matrix.build ~funcs sky4_pts in
  (* 40 random sets over 125 items, as flat rows of two words each *)
  let cover =
    let w = Rrms_setcover.Bitset.nwords 125 in
    let words = Array.make (40 * w) 0 in
    for i = 0 to 39 do
      for item = 0 to 124 do
        if Rrms_rng.Rng.float rng 1. < 0.3 then
          Rrms_setcover.Bitset.row_set words (i * w) item
      done
    done;
    Rrms_setcover.Setcover.make_instance ~universe:125 ~sets:40 words
  in
  let lp_c = [| 3.; 5. |] in
  let lp_rows =
    [
      Rrms_lp.Simplex.constraint_ [| 1.; 0. |] Rrms_lp.Simplex.Le 4.;
      Rrms_lp.Simplex.constraint_ [| 0.; 2. |] Rrms_lp.Simplex.Le 12.;
      Rrms_lp.Simplex.constraint_ [| 3.; 2. |] Rrms_lp.Simplex.Le 18.;
    ]
  in
  [
    Test.make ~name:"vec-dot-8d" (Staged.stage (fun () -> Rrms_geom.Vec.dot v1 v2));
    Test.make ~name:"skyline-2d-5k"
      (Staged.stage (fun () -> Rrms_skyline.Skyline.two_d pts2d));
    Test.make ~name:"skyline-sfs-4d-2k"
      (Staged.stage (fun () -> Rrms_skyline.Skyline.sfs pts4d));
    Test.make ~name:"hull2d-5k"
      (Staged.stage (fun () -> Rrms_geom.Hull2d.build pts2d));
    Test.make ~name:"edge-weight"
      (Staged.stage (fun () -> Rrms_core.Rrms2d.edge_weight ctx2d 0 (s2d - 1)));
    Test.make ~name:"edge-weight-exact"
      (Staged.stage (fun () ->
           Rrms_core.Rrms2d.edge_weight_exact ctx2d 0 (s2d - 1)));
    Test.make ~name:"discretize-grid-g4-m4"
      (Staged.stage (fun () -> Rrms_core.Discretize.grid ~gamma:4 ~m:4));
    Test.make ~name:"regret-matrix-build"
      (Staged.stage (fun () ->
           Rrms_core.Regret_matrix.build ~funcs sky4_pts));
    Test.make ~name:"mrst-greedy"
      (Staged.stage (fun () -> Rrms_core.Mrst.solve matrix ~eps:0.1));
    Test.make ~name:"setcover-greedy"
      (Staged.stage (fun () -> Rrms_setcover.Setcover.greedy cover));
    Test.make ~name:"simplex-small"
      (Staged.stage (fun () -> Rrms_lp.Simplex.maximize ~c:lp_c lp_rows));
    Test.make ~name:"point-regret-lp"
      (Staged.stage (fun () ->
           Rrms_core.Regret.point_regret_lp
             ~set:(Array.sub sky4_pts 0 (min 5 (Array.length sky4_pts)))
             pts4d.(0)));
  ]

let run () =
  print_endline "\n== micro: Bechamel kernel benchmarks ==";
  let test = Test.make_grouped ~name:"rrms" ~fmt:"%s/%s" (kernels ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure per_test ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) per_test []
      in
      let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) ->
              Printf.printf "[micro] %s %s = %.1f ns/run\n" measure name est
          | Some [] | None ->
              Printf.printf "[micro] %s %s = (no estimate)\n" measure name)
        rows)
    merged
