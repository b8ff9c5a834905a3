(* Figure-reproduction harness: regenerates every figure of the paper's
   evaluation (§6) at a scaled-down size, plus the §4.1 gadget and the
   §6.3 negative results, plus a Bechamel kernel suite.

   Usage:
     dune exec bench/main.exe                      # all figures, small scale
     dune exec bench/main.exe -- --only fig8,fig13 # a subset
     dune exec bench/main.exe -- --scale paper     # closer to paper sizes
     dune exec bench/main.exe -- --micro           # kernel microbenchmarks
     dune exec bench/main.exe -- --list            # list figure ids

   Output rows are machine-readable:
     [fig8] n=20000 series=2DRRMS/anti time=0.1234 regret=0.0456 *)

let groups : (string list * string * (Bench_util.scale -> unit)) list =
  [
    ([ "fig1" ], "convex hull size vs m", Fig_hull.run);
    ([ "fig8" ], "2D time vs n", Fig_2d.fig8);
    ([ "fig9" ], "2D time vs r", Fig_2d.fig9);
    ([ "fig10" ], "2D skyline-only", Fig_2d.fig10);
    ([ "fig11" ], "2D NBA-sim", Fig_2d.fig11);
    ([ "fig12" ], "2D Airline-sim", Fig_2d.fig12);
    ( [ "fig13"; "fig14"; "fig15"; "fig16" ],
      "HD vs n (3 families) + skyline sizes",
      Fig_hd.fig_n );
    ( [ "fig17"; "fig18"; "fig19"; "fig20" ],
      "HD vs m (3 families) + skyline sizes",
      Fig_hd.fig_m );
    ([ "fig21"; "fig22"; "fig23" ], "HD vs r (3 families)", Fig_hd.fig_r);
    ([ "fig24"; "fig25"; "fig26" ], "HD impact of γ", Fig_hd.fig_gamma);
    ([ "fig27"; "fig28"; "fig29"; "fig30" ], "HD DOT/NBA sims", Fig_hd.fig_real);
    ([ "fig31" ], "k-dominant skyline adaptation", Fig_misc.fig31);
    ([ "ablation" ], "design-choice ablations", Fig_ablation.run);
    ([ "onion" ], "ONION index vs RRMS trade-off", Fig_onion.run);
    ([ "gadget" ], "§4.1 GREEDY pathological example", Fig_misc.gadget);
    ([ "ahull" ], "§6.3 approximate hull sizes", Fig_misc.ahull);
    ( [ "parallel" ],
      "domain-pool scaling (writes BENCH_parallel.json)",
      Fig_parallel.run );
    ( [ "robustness" ],
      "anytime degradation under budgets (writes BENCH_robustness.json)",
      Fig_robustness.run );
    ( [ "obs" ],
      "observability overhead by level (writes BENCH_obs.json)",
      Fig_obs.run );
    ( [ "serve" ],
      "serving-layer artifact reuse (writes BENCH_serve.json)",
      Fig_serve.run );
  ]

let () =
  (* RRMS_DOMAINS sets the default pool size for every kernel that is
     not timed at an explicit domain count. *)
  Rrms_parallel.Pool.configure_from_env ();
  Rrms_parallel.Fault.configure_from_env ();
  Rrms_obs.Obs.configure_from_env ();
  let scale = ref Bench_util.Small in
  let only : string list ref = ref [] in
  let micro = ref false in
  let list_only = ref false in
  let pool_stats = ref false in
  let args =
    [
      ( "--scale",
        Arg.String
          (fun s ->
            match Bench_util.scale_of_string s with
            | Ok v -> scale := v
            | Error msg ->
                prerr_endline msg;
                exit 2),
        "small|paper  experiment sizes (default small)" );
      ( "--only",
        Arg.String (fun s -> only := String.split_on_char ',' s),
        "fig8,fig13,...  run only the listed figure ids" );
      ("--micro", Arg.Set micro, " also run the Bechamel kernel suite");
      ( "--pool-stats",
        Arg.Set pool_stats,
        " dump the domain-pool scheduling counters (rrms_pool_*) after \
         the run" );
      ("--list", Arg.Set list_only, " list figure ids and exit");
    ]
  in
  Arg.parse args
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "bench/main.exe [--scale small|paper] [--only figN,...] [--micro]";
  if !list_only then begin
    List.iter
      (fun (ids, doc, _) ->
        Printf.printf "%-28s %s\n" (String.concat "," ids) doc)
      groups;
    exit 0
  end;
  let wanted ids =
    match !only with
    | [] -> true
    | sel -> List.exists (fun id -> List.mem id sel) ids
  in
  (* --pool-stats needs the counters live before any kernel runs; never
     downgrade a level the environment already raised (RRMS_OBS=full). *)
  if !pool_stats && Rrms_obs.Obs.level () = Rrms_obs.Obs.Disabled then
    Rrms_obs.Obs.set_level Rrms_obs.Obs.Counters;
  let t0 = Unix.gettimeofday () in
  List.iter (fun (ids, _, run) -> if wanted ids then run !scale) groups;
  if !micro then Micro.run ();
  if !pool_stats then begin
    (* How the adaptive pool actually scheduled the run: items executed
       in parallel vs kept serial by the cost model, batches, chunk
       sizing, and injected faults. *)
    Printf.printf "\n== pool stats ==\n";
    List.iter
      (fun (name, v) ->
        if String.starts_with ~prefix:"rrms_pool_" name then
          Printf.printf "%-42s %g\n" name v)
      (Rrms_obs.Obs.snapshot ())
  end;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0);
  match List.rev !Bench_util.failed_checks with
  | [] -> ()
  | failed ->
      List.iter (Printf.eprintf "check failed: %s\n") failed;
      exit 1
