(* rrms: command-line front end for the regret-ratio minimizing set
   library.

   Subcommands:
     generate   synthesize a dataset (synthetic families or the
                simulated real-world tables) and write it as CSV
     skyline    compute the skyline of a CSV dataset
     hull       compute the maxima hull (2D) or LP hull size (any m)
     solve      run one of the RRMS algorithms and report the selection
     eval       evaluate the exact regret ratio of a given tuple subset *)

open Cmdliner
module Guard = Rrms_guard.Guard

(* Degraded-but-certified results exit 3; structured errors exit with
   their sysexits-style class code (65/69/70/75 — see
   docs/ROBUSTNESS.md).  Both are distinct from cmdliner's 124 usage
   errors, so scripts can tell "worse answer" from "no answer". *)
let exit_degraded = 3

let guard_error e =
  Printf.eprintf "rrms: error: %s\n%!" (Guard.Error.to_string e);
  exit (Guard.Error.exit_code e)

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Info)

let verbose_arg =
  let doc = "Enable verbose logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* Parallelism: the RRMS_DOMAINS environment variable sets the default
   worker-domain count for every parallel kernel (skyline, regret
   matrix, MRST probes); --domains overrides it per invocation.  All
   kernels return bit-identical results for every domain count. *)
let domains_arg =
  let doc =
    "Worker domains for the parallel kernels (default: \
     $(b,RRMS_DOMAINS) or 1 = serial)."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"D" ~doc)

let setup_domains = function
  | Some d when d >= 1 -> Rrms_parallel.Pool.set_default_size d
  | Some _ | None -> ()

(* Observability: --metrics prints a Prometheus-style report to stderr
   at exit, --trace FILE writes the JSON-lines span trace.  Both leave
   stdout byte-identical to an uninstrumented run, so output diffs
   across traced/untraced invocations stay empty (CI relies on this). *)
module Obs = Rrms_obs.Obs

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print a Prometheus-style metrics report to stderr at exit \
           (solver output on stdout is unchanged).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans and write a JSON-lines trace to $(docv) at exit \
           (implies full observability).")

let setup_obs metrics trace =
  (match trace with
  | Some path ->
      Obs.set_level Obs.Full;
      at_exit (fun () -> Obs.write_trace path)
  | None -> ());
  if metrics then begin
    if Obs.level () = Obs.Disabled then Obs.set_level Obs.Counters;
    at_exit (fun () -> prerr_string (Obs.prometheus ()))
  end

(* ------------------------------------------------------------------ *)
(* generate                                                            *)

let generate_cmd =
  let kind_arg =
    let doc =
      "Dataset family: correlated | independent | anticorrelated | nba | \
       dot | airline | disk | skyline-only."
    in
    Arg.(value & opt string "independent" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let n_arg =
    Arg.(value & opt int 10_000 & info [ "n" ] ~docv:"N" ~doc:"Number of tuples.")
  in
  let m_arg =
    Arg.(
      value & opt int 4
      & info [ "m" ] ~docv:"M" ~doc:"Number of attributes (synthetic families).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output CSV path.")
  in
  let run verbose kind n m seed out =
    setup_logs verbose;
    let rng = Rrms_rng.Rng.create seed in
    let dataset =
      match kind with
      | "correlated" -> Ok (Rrms_dataset.Synthetic.correlated rng ~n ~m)
      | "independent" -> Ok (Rrms_dataset.Synthetic.independent rng ~n ~m)
      | "anticorrelated" ->
          Ok (Rrms_dataset.Synthetic.anticorrelated rng ~n ~m)
      | "nba" -> Ok (Rrms_dataset.Realistic.nba rng ~n)
      | "dot" -> Ok (Rrms_dataset.Realistic.dot rng ~n)
      | "airline" -> Ok (Rrms_dataset.Realistic.airline rng ~n)
      | "disk" -> Ok (Rrms_dataset.Synthetic.in_quarter_disk rng ~n)
      | "skyline-only" ->
          Ok (Rrms_dataset.Synthetic.skyline_only_2d rng ~target:n)
      | other -> Error (Printf.sprintf "unknown dataset kind %S" other)
    in
    match dataset with
    | Error msg -> `Error (false, msg)
    | Ok d ->
        Rrms_dataset.Dataset.to_csv d out;
        Logs.info (fun f ->
            f "wrote %a to %s" Rrms_dataset.Dataset.pp d out);
        `Ok ()
  in
  let doc = "Generate a synthetic or simulated-real dataset as CSV." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(
      ret (const run $ verbose_arg $ kind_arg $ n_arg $ m_arg $ seed_arg $ out_arg))

(* ------------------------------------------------------------------ *)
(* shared dataset loading                                              *)

let input_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input CSV (header + rows).")

let normalize_arg =
  Arg.(
    value & flag
    & info [ "normalize" ] ~doc:"Scale every attribute to [0,1] first.")

let project_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "project" ] ~docv:"M"
        ~doc:
          "Keep only the first M attributes (the HD grid needs \
           (gamma+1)^(m-1) directions, so project wide tables first).")

let lenient_arg =
  Arg.(
    value & flag
    & info [ "lenient" ]
        ~doc:
          "Drop malformed / non-finite CSV rows with a warning instead of \
           rejecting the file (default: strict, exit 65 on the first bad \
           row).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget.  On expiry the solver returns its best \
           certified answer so far (exit 3, with a $(b,degraded:) report \
           line) rather than failing.")

let max_cells_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cells" ] ~docv:"N"
        ~doc:
          "Cap on regret-matrix cells s·(γ+1)^(m-1); the HD solvers \
           auto-shrink γ to fit (exit 3 when they had to; exit 69 when \
           even γ = 1 does not fit).")

let load ?project ?(lenient = false) path normalize =
  let mode =
    if lenient then Rrms_dataset.Dataset.Lenient else Rrms_dataset.Dataset.Strict
  in
  let d, warnings = Rrms_dataset.Dataset.of_csv_report ~mode path in
  List.iteri
    (fun i (w : Rrms_dataset.Dataset.load_warning) ->
      if i < 10 then
        Logs.warn (fun f ->
            f "%s:%d: dropped row (%s%s)" path w.line w.reason
              (match w.column with
              | Some c -> Printf.sprintf ", column %s" c
              | None -> "")))
    warnings;
  (match warnings with
  | [] -> ()
  | ws ->
      Logs.warn (fun f -> f "%s: dropped %d malformed row(s)" path
            (List.length ws)));
  let d =
    match project with
    | Some m when m < Rrms_dataset.Dataset.dim d ->
        Rrms_dataset.Dataset.project d (Array.init m Fun.id)
    | Some _ | None -> d
  in
  if normalize then Rrms_dataset.Dataset.normalize d else d

(* ------------------------------------------------------------------ *)
(* skyline                                                             *)

let skyline_cmd =
  let algo_arg =
    Arg.(
      value & opt string "sfs"
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:
            "Skyline algorithm: sfs (the served path) | bnl (reference) | 2d \
             (2-D sweep; the input must have exactly two attributes).")
  in
  let print_arg =
    Arg.(value & flag & info [ "print" ] ~doc:"Print the skyline row indices.")
  in
  let run verbose domains metrics trace input normalize algo print =
    setup_logs verbose;
    setup_domains domains;
    setup_obs metrics trace;
    let d = load input normalize in
    let rows = Rrms_dataset.Dataset.rows d in
    let result =
      try
        match algo with
        | "bnl" -> Ok (Rrms_skyline.Skyline.bnl rows)
        | "sfs" -> Ok (Rrms_skyline.Skyline.sfs rows)
        | "2d" -> Ok (Rrms_skyline.Skyline.two_d rows)
        | other -> Error (Printf.sprintf "unknown skyline algorithm %S" other)
      with Invalid_argument msg -> Error msg
    in
    match result with
    | Error msg -> `Error (false, msg)
    | Ok sky ->
        Printf.printf "n=%d skyline=%d\n" (Rrms_dataset.Dataset.size d)
          (Array.length sky);
        if print then
          Array.iter (fun i -> Printf.printf "%d\n" i) sky;
        `Ok ()
  in
  let doc = "Compute the skyline of a dataset." in
  Cmd.v
    (Cmd.info "skyline" ~doc)
    Term.(
      ret
        (const run $ verbose_arg $ domains_arg $ metrics_arg $ trace_arg
       $ input_arg $ normalize_arg $ algo_arg $ print_arg))

(* ------------------------------------------------------------------ *)
(* hull                                                                *)

let hull_cmd =
  let lp_arg =
    Arg.(
      value & flag
      & info [ "lp" ]
          ~doc:
            "Use the LP extreme-point test (any dimension; O(n) LPs) instead \
             of the 2D maxima hull.")
  in
  let run verbose metrics trace input normalize lp =
    setup_logs verbose;
    setup_obs metrics trace;
    let d = load input normalize in
    let rows = Rrms_dataset.Dataset.rows d in
    if lp then begin
      Printf.printf "n=%d hull=%d\n" (Array.length rows)
        (Rrms_core.Regret.convex_hull_size rows);
      `Ok ()
    end
    else if Rrms_dataset.Dataset.dim d <> 2 then
      `Error (false, "maxima hull requires m = 2 (use --lp for higher m)")
    else begin
      let hull = Rrms_geom.Hull2d.build rows in
      Printf.printf "n=%d maxima-hull=%d\n" (Array.length rows)
        (Rrms_geom.Hull2d.size hull);
      `Ok ()
    end
  in
  let doc = "Compute the convex (maxima) hull size of a dataset." in
  Cmd.v
    (Cmd.info "hull" ~doc)
    Term.(
      ret
        (const run $ verbose_arg $ metrics_arg $ trace_arg $ input_arg
       $ normalize_arg $ lp_arg))

(* ------------------------------------------------------------------ *)
(* solve                                                               *)

let exact_regret d selected =
  let rows = Rrms_dataset.Dataset.rows d in
  if Rrms_dataset.Dataset.dim d = 2 then
    Rrms_core.Regret.exact_2d ~selected rows
  else Rrms_core.Regret.exact_lp ~selected rows

let print_selection d selected =
  let attrs = Rrms_dataset.Dataset.attributes d in
  Printf.printf "# %s\n" (String.concat "," (Array.to_list attrs));
  Array.iter
    (fun i ->
      let cells =
        Array.to_list
          (Array.map (Printf.sprintf "%g") (Rrms_dataset.Dataset.row d i))
      in
      Printf.printf "%d,%s\n" i (String.concat "," cells))
    selected

let solve_cmd =
  let algo_arg =
    let doc =
      "Algorithm: 2d (published 2D-RRMS) | 2d-exact | sweepline | hd-rrms | \
       hd-greedy | greedy | cube."
    in
    Arg.(value & opt string "hd-rrms" & info [ "algo" ] ~docv:"ALGO" ~doc)
  in
  let r_arg =
    Arg.(value & opt int 5 & info [ "r" ] ~docv:"R" ~doc:"Output size budget.")
  in
  let gamma_arg =
    Arg.(
      value & opt int 4
      & info [ "gamma" ] ~docv:"G" ~doc:"Discretization parameter γ (HD).")
  in
  let budget_arg =
    Arg.(
      value & opt string "strict"
      & info [ "budget" ] ~docv:"B"
          ~doc:
            "hd-rrms cover acceptance: strict (≤ r output) | inflated \
             (§4.4.3: ε ≤ grid optimum, output may exceed r).")
  in
  let solver_arg =
    Arg.(
      value & opt string "greedy"
      & info [ "cover-solver" ] ~docv:"S"
          ~doc:"hd-rrms set-cover oracle: greedy | exact.")
  in
  let seed_arg =
    Arg.(
      value & opt string "first-attribute"
      & info [ "greedy-seed" ] ~docv:"SEED"
          ~doc:
            "greedy seeding: first-attribute (published) | best-singleton | \
             all-seeds.")
  in
  let run verbose domains metrics trace input normalize lenient project algo r
      gamma budget solver seed timeout max_cells =
    setup_logs verbose;
    setup_domains domains;
    setup_obs metrics trace;
    try
      let d = load ?project ~lenient input normalize in
      let rows = Rrms_dataset.Dataset.rows d in
      let guard =
        match (timeout, max_cells) with
        | None, None -> Guard.Budget.unlimited
        | _ -> Guard.Budget.create ?timeout ?max_cells ()
      in
      let budget =
        match budget with
        | "strict" -> Ok Rrms_core.Hd_rrms.Strict
        | "inflated" -> Ok Rrms_core.Hd_rrms.Inflated
        | other -> Error (Printf.sprintf "unknown budget %S" other)
      in
      let solver =
        match solver with
        | "greedy" -> Ok Rrms_core.Mrst.Greedy
        | "exact" -> Ok Rrms_core.Mrst.Exact
        | other -> Error (Printf.sprintf "unknown cover solver %S" other)
      in
      let seed =
        match seed with
        | "first-attribute" -> Ok Rrms_core.Greedy.First_attribute
        | "best-singleton" -> Ok Rrms_core.Greedy.Best_singleton
        | "all-seeds" -> Ok Rrms_core.Greedy.All_seeds
        | other -> Error (Printf.sprintf "unknown greedy seed %S" other)
      in
      let t0 = Unix.gettimeofday () in
      (* Each branch reports (selection, quality, certified bound).  The
         2D / cube algorithms predate the guard and always run exact. *)
      let result =
        try
          match (algo, budget, solver, seed) with
          | _, Error msg, _, _ | _, _, Error msg, _ | _, _, _, Error msg ->
              Error msg
          | "2d", _, _, _ ->
              Ok
                ( (Rrms_core.Rrms2d.solve rows ~r).Rrms_core.Rrms2d.selected,
                  Guard.Exact,
                  None )
          | "2d-exact", _, _, _ ->
              Ok
                ( (Rrms_core.Rrms2d.solve_exact rows ~r)
                    .Rrms_core.Rrms2d.selected,
                  Guard.Exact,
                  None )
          | "sweepline", _, _, _ ->
              Ok
                ( (Rrms_core.Sweepline.solve rows ~r)
                    .Rrms_core.Sweepline.selected,
                  Guard.Exact,
                  None )
          | "hd-rrms", Ok budget, Ok solver, _ ->
              let res =
                Rrms_core.Hd_rrms.solve ~gamma ~budget ~solver ~guard rows ~r
              in
              Ok
                ( res.Rrms_core.Hd_rrms.selected,
                  res.Rrms_core.Hd_rrms.quality,
                  Some res.Rrms_core.Hd_rrms.guarantee )
          | "hd-greedy", _, _, _ ->
              let res = Rrms_core.Hd_greedy.solve ~gamma ~guard rows ~r in
              let m = Rrms_dataset.Dataset.dim d in
              Ok
                ( res.Rrms_core.Hd_greedy.selected,
                  res.Rrms_core.Hd_greedy.quality,
                  Some
                    (Rrms_core.Discretize.theorem4_bound
                       ~gamma:res.Rrms_core.Hd_greedy.gamma_used ~m
                       ~eps:res.Rrms_core.Hd_greedy.discretized_regret) )
          | "greedy", _, _, Ok seed ->
              let res = Rrms_core.Greedy.solve ~seed ~guard rows ~r in
              Ok
                ( res.Rrms_core.Greedy.selected,
                  res.Rrms_core.Greedy.quality,
                  Some res.Rrms_core.Greedy.regret_lp )
          | "cube", _, _, _ ->
              Ok
                ( (Rrms_core.Cube.solve rows ~r).Rrms_core.Cube.selected,
                  Guard.Exact,
                  None )
          | other, _, _, _ ->
              Error (Printf.sprintf "unknown algorithm %S" other)
        with Invalid_argument msg -> Error msg
      in
      match result with
      | Error msg -> `Error (false, msg)
      | Ok (selected, quality, bound) ->
          let elapsed = Unix.gettimeofday () -. t0 in
          (* A deadline / probe stop means the budget is spent: re-running
             the exact LP evaluation could take arbitrarily longer than
             the user allowed, so report the solver's certified bound
             instead. *)
          let deadline_hit =
            match quality with
            | Guard.Exact -> false
            | Guard.Degraded reasons ->
                List.exists
                  (function
                    | Guard.Deadline _ | Guard.Probe_cap _ -> true
                    | Guard.Cell_cap _ | Guard.Numerical_skips _ -> false)
                  reasons
          in
          let regret_field =
            match (deadline_hit, bound) with
            | true, Some b -> Printf.sprintf "regret_bound=%.6f" b
            | true, None -> "regret_bound=nan"
            | false, _ ->
                Printf.sprintf "regret=%.6f" (exact_regret d selected)
          in
          Printf.printf "algo=%s r=%d selected=%d %s time=%.3fs\n" algo r
            (Array.length selected) regret_field elapsed;
          if not (Guard.is_exact quality) then
            Printf.printf "degraded: %s\n" (Guard.describe quality);
          print_selection d selected;
          if Guard.is_exact quality then `Ok () else exit exit_degraded
    with Guard.Error.Guard_error e -> guard_error e
  in
  let doc = "Find a regret-ratio minimizing set." in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      ret
        (const run $ verbose_arg $ domains_arg $ metrics_arg $ trace_arg
       $ input_arg $ normalize_arg $ lenient_arg $ project_arg $ algo_arg
       $ r_arg $ gamma_arg $ budget_arg $ solver_arg $ seed_arg $ timeout_arg
       $ max_cells_arg))

(* ------------------------------------------------------------------ *)
(* eval                                                                *)

let eval_cmd =
  let indices_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "rows" ] ~docv:"I,J,..."
          ~doc:"Comma-separated row indices of the compact set.")
  in
  let run verbose metrics trace input normalize lenient indices timeout =
    setup_logs verbose;
    setup_obs metrics trace;
    try
      let d = load ~lenient input normalize in
      let parse s =
        try
          Ok (Array.of_list (List.map int_of_string (String.split_on_char ',' s)))
        with Failure _ -> Error "rows must be a comma-separated list of integers"
      in
      match parse indices with
      | Error msg -> `Error (false, msg)
      | Ok selected ->
          let n = Rrms_dataset.Dataset.size d in
          if Array.exists (fun i -> i < 0 || i >= n) selected then
            `Error (false, "row index out of range")
          else if Rrms_dataset.Dataset.dim d = 2 || timeout = None then begin
            Printf.printf "regret=%.6f\n" (exact_regret d selected);
            `Ok ()
          end
          else begin
            (* Budgeted LP sweep: on expiry the max over the evaluated
               prefix is a certified lower bound on the true regret. *)
            let guard = Guard.Budget.create ?timeout () in
            let rows = Rrms_dataset.Dataset.rows d in
            let report = Rrms_core.Regret.exact_lp_guarded ~guard ~selected rows in
            let partial =
              report.Rrms_core.Regret.timed_out
              || report.Rrms_core.Regret.skipped_numerical > 0
            in
            Printf.printf "%s=%.6f evaluated=%d/%d\n"
              (if report.Rrms_core.Regret.timed_out then "regret_lower_bound"
               else "regret")
              report.Rrms_core.Regret.regret
              report.Rrms_core.Regret.evaluated report.Rrms_core.Regret.total;
            if partial then begin
              let reasons =
                (if report.Rrms_core.Regret.timed_out then
                   match Guard.Budget.deadline_expired guard with
                   | Some r -> [ r ]
                   | None -> []
                 else [])
                @
                match report.Rrms_core.Regret.skipped_numerical with
                | 0 -> []
                | k -> [ Guard.Numerical_skips k ]
              in
              Printf.printf "degraded: %s\n"
                (Guard.describe (Guard.Degraded reasons));
              exit exit_degraded
            end
            else `Ok ()
          end
    with Guard.Error.Guard_error e -> guard_error e
  in
  let doc = "Evaluate the exact maximum regret ratio of a tuple subset." in
  Cmd.v
    (Cmd.info "eval" ~doc)
    Term.(
      ret
        (const run $ verbose_arg $ metrics_arg $ trace_arg $ input_arg
       $ normalize_arg $ lenient_arg $ indices_arg $ timeout_arg))

(* ------------------------------------------------------------------ *)
(* profile                                                             *)

let profile_cmd =
  let indices_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "rows" ] ~docv:"I,J,..."
          ~doc:"Comma-separated row indices of the compact set.")
  in
  let steps_arg =
    Arg.(value & opt int 200 & info [ "steps" ] ~docv:"N" ~doc:"Angle samples.")
  in
  let run verbose input normalize project indices steps =
    setup_logs verbose;
    let d = load ?project input normalize in
    if Rrms_dataset.Dataset.dim d <> 2 then
      `Error (false, "profile requires m = 2 (project first)")
    else begin
      let parse s =
        try
          Ok (Array.of_list (List.map int_of_string (String.split_on_char ',' s)))
        with Failure _ ->
          Error "rows must be a comma-separated list of integers"
      in
      match parse indices with
      | Error msg -> `Error (false, msg)
      | Ok selected ->
          let rows = Rrms_dataset.Dataset.rows d in
          let profile =
            Rrms_core.Regret.profile_2d ~steps ~selected rows
          in
          print_endline "angle,regret";
          Array.iter
            (fun (phi, reg) -> Printf.printf "%.6f,%.6f
" phi reg)
            profile;
          `Ok ()
    end
  in
  let doc = "Trace the 2D regret-vs-angle profile of a compact set (CSV)." in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      ret
        (const run $ verbose_arg $ input_arg $ normalize_arg $ project_arg
       $ indices_arg $ steps_arg))

(* ------------------------------------------------------------------ *)
(* topk                                                                *)

let topk_cmd =
  let k_arg =
    Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"How many answers.")
  in
  let weights_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "weights" ] ~docv:"W1,W2,..."
          ~doc:"Comma-separated non-negative attribute weights.")
  in
  let run verbose input normalize project k weights =
    setup_logs verbose;
    let d = load ?project input normalize in
    let parse s =
      try Ok (Array.of_list (List.map float_of_string (String.split_on_char ',' s)))
      with Failure _ -> Error "weights must be a comma-separated list of numbers"
    in
    match parse weights with
    | Error msg -> `Error (false, msg)
    | Ok w when Array.length w <> Rrms_dataset.Dataset.dim d ->
        `Error (false, "weight count must match the attribute count")
    | Ok w ->
        let rows = Rrms_dataset.Dataset.rows d in
        if Rrms_dataset.Dataset.dim d = 2 then begin
          (* Exact top-k via the ONION layered index. *)
          let onion = Rrms_core.Onion.build ~max_layers:k rows in
          let answers = Rrms_core.Onion.topk onion w ~k in
          Printf.printf "top-%d (exact, ONION %d layers / %d tuples):
" k
            (Rrms_core.Onion.depth onion)
            (Rrms_core.Onion.size_upto onion k);
          print_selection d answers;
          `Ok ()
        end
        else begin
          (* Exact top-k by scan (the index path is 2D-only). *)
          let order = Array.init (Array.length rows) Fun.id in
          Array.sort
            (fun a b ->
              Float.compare
                (Rrms_geom.Vec.dot w rows.(b))
                (Rrms_geom.Vec.dot w rows.(a)))
            order;
          let answers = Array.sub order 0 (min k (Array.length order)) in
          Printf.printf "top-%d (exact, full scan):
" k;
          print_selection d answers;
          `Ok ()
        end
  in
  let doc = "Answer a top-k maxima query (2D: via the ONION index)." in
  Cmd.v
    (Cmd.info "topk" ~doc)
    Term.(
      ret
        (const run $ verbose_arg $ input_arg $ normalize_arg $ project_arg
       $ k_arg $ weights_arg))

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "regret-ratio minimizing sets (SIGMOD'17 reproduction)" in
  let info = Cmd.info "rrms" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      generate_cmd; skyline_cmd; hull_cmd; solve_cmd; eval_cmd; topk_cmd;
      profile_cmd;
    ]

let () =
  Rrms_parallel.Pool.configure_from_env ();
  Rrms_parallel.Fault.configure_from_env ();
  Obs.configure_from_env ();
  (* [~catch:false] so structured errors keep their class exit code in
     every subcommand, not just the ones that wrap their run. *)
  match Cmd.eval ~catch:false main_cmd with
  | code -> exit code
  | exception Guard.Error.Guard_error e -> guard_error e
  | exception exn ->
      Printf.eprintf "rrms: internal error: %s\n%!" (Printexc.to_string exn);
      exit Cmd.Exit.internal_error
