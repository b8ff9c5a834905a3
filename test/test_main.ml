let () =
  (* RRMS_DOMAINS ∈ {1, 4, …} must leave every result unchanged; CI runs
     the whole suite under both.  RRMS_FAULT (e.g. stall@1:0.001) arms
     pool fault injection for the entire run — CI uses the stall
     variant, under which every test must still pass. *)
  Rrms_parallel.Pool.configure_from_env ();
  (* The determinism suites compare real multi-domain runs against
     serial ones; lift the hardware parallelism cap so requesting 4
     domains actually crosses domains even on a 1-core CI box.
     (RRMS_POOL_CAP, read above, still wins when set.) *)
  if Sys.getenv_opt "RRMS_POOL_CAP" = None then
    Rrms_parallel.Pool.set_parallel_cap 16;
  Rrms_parallel.Fault.configure_from_env ();
  (* RRMS_OBS=full must also leave every result unchanged; CI runs the
     suite with observability fully on. *)
  Rrms_obs.Obs.configure_from_env ();
  Alcotest.run "rrms"
    [
      ("rng", Test_rng.suite);
      ("vec", Test_vec.suite);
      ("polar", Test_polar.suite);
      ("hull2d", Test_hull2d.suite);
      ("simplex", Test_simplex.suite);
      ("dataset", Test_dataset.suite);
      ("synthetic", Test_synthetic.suite);
      ("realistic", Test_realistic.suite);
      ("skyline", Test_skyline.suite);
      ("setcover", Test_setcover.suite);
      ("regret", Test_regret.suite);
      ("rrms2d", Test_rrms2d.suite);
      ("findings", Test_findings.suite);
      ("sweepline", Test_sweepline.suite);
      ("discretize", Test_discretize.suite);
      ("matrix-mrst", Test_matrix_mrst.suite);
      ("warm-kernels", Test_warm_kernels.suite);
      ("hd", Test_hd.suite);
      ("hd-budget", Test_hd.budget_suite);
      ("greedy-seeds", Test_hd.seed_suite);
      ("extras", Test_extras.suite);
      ("onion", Test_onion.suite);
      ("eps-kernel", Test_eps_kernel.suite);
      ("report", Test_report.suite);
      ("cli", Test_cli.suite);
      ("robustness", Test_robustness.suite);
      ("edge-cases", Test_edge_cases.suite);
      (* Live maintenance through Store.mutate, in 2D and m-D. *)
      ("maintain-2d", Test_maintenance.suite_2d);
      ("maintain-hd", Test_maintenance.suite_hd);
      ("examples", Test_examples.suite);
      ("properties", Test_properties.suite);
      ("parallel", Test_parallel.suite);
      ("guard", Test_guard.suite);
      ("obs", Test_obs.suite);
      ("oracle", Test_oracle.suite);
      ("serve", Test_serve.suite);
      ("shard", Test_shard.suite);
      ("persist", Test_persist.suite);
      ("mutate", Test_mutate.suite);
      ("cell-order", Test_cell_order.suite);
      ("hit-path", Test_hit_path.suite);
    ]
