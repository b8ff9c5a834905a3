(* rrms-serve benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               --exe PATH [--work DIR]

   --trace 0: the socket run.  Spawns [PATH --socket … --domains 1],
   drives the workload closed-loop over one connection for S seconds,
   checks every answer and prints the end-to-end metrics.
   --trace 1: the traced run.  Drives a fixed-length stream over the
   socket (with explain records), replays it in-process with a span
   around every layer call, writes the spans as JSONL and prints the
   per-layer metrics.  The last stdout line is the JSON result. *)

open Perfbench_lib
module Json = Rrms_serve.Json
module Protocol = Rrms_serve.Protocol

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --exe PATH [--work DIR]";
  exit 2

let args = Hashtbl.create 8

let () =
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

let arg k = match Hashtbl.find_opt args k with Some v -> v | None -> usage ()

let wl =
  match List.assoc_opt (arg "workload") Work.all with Some w -> w | None -> usage ()

let seed = int_of_string (arg "seed")
let seconds = float_of_string (arg "seconds")
let traced = arg "trace" = "1"
let exe = arg "exe"
let work = Option.value ~default:"perfbench/_work" (Hashtbl.find_opt args "work")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

let metric name unit v = (name, Json.Obj [ ("value", Json.float v); ("unit", Json.Str unit) ])

let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.int attempted);
            ("failed", Json.int failed);
            ("metrics", Json.Obj metrics);
          ]))

let ms x = x *. 1000.

(* Human-readable lines: every class with its sample count, p90 only
   from 100 samples up. *)
let report_classes (d : Drive.t) =
  List.iter
    (fun cls ->
      let xs = Drive.samples d cls in
      let n = Array.length xs in
      if n > 0 then
        Printf.printf "  %s_ms_p50 %.4f ms (n=%d)%s\n" cls
          (ms (Drive.median xs))
          n
          (if n >= 100 then
             Printf.sprintf "  %s_ms_p90 %.4f ms (n=%d)" cls (ms (Drive.percentile 0.9 xs)) n
           else "  (no p90: n < 100)"))
    [ "solve"; "load"; "mutate"; "hit"; "evict" ]

let report_failures (d : Drive.t) =
  Printf.printf "  attempted %d  failed %d  error_rate %.6f ratio\n" d.attempted d.failed
    (float_of_int d.failed /. float_of_int (max 1 d.attempted));
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) (List.rev d.failures)

(* ------------------------------------------------------------------ *)
(* --trace 0                                                          *)
(* ------------------------------------------------------------------ *)

let e2e (w : Work.t) ~socket =
  let d = Drive.run ~exe ~socket ~setups:3 ~setups_after:2 ~explain:false ~seconds w in
  Drive.check d w;
  Printf.printf "%s seed %d: %.1f s timed, %d requests\n" (Work.name wl) seed d.wall d.attempted;
  report_classes d;
  let best, keys = Drive.best_p50 d in
  let setup_s = Drive.median (Array.of_list d.setup_s) in
  Printf.printf "  best_req_ms_p50 %.4f ms (%d distinct %s requests, n=%d)\n" (ms best) keys
    (if w.pipelined then "window" else Work.primary wl)
    (List.length d.trail);
  Printf.printf "  throughput_rps %.2f req/s (n=%d)  setup_s %.4f s (n=%d)  rss_peak_mb %.2f MB\n"
    (float_of_int d.completed /. d.wall)
    d.completed setup_s (List.length d.setup_s) d.rss_mb;
  report_failures d;
  print_result ~correct:(d.failed = 0) ~attempted:d.attempted ~failed:d.failed
    [
      metric "best_req_ms_p50" "ms" (ms best);
      metric "setup_s" "s" setup_s;
      metric "rss_peak_mb" "MB" d.rss_mb;
    ]

(* ------------------------------------------------------------------ *)
(* --trace 1                                                          *)
(* ------------------------------------------------------------------ *)

let counter stats name =
  match Option.bind (Json.member name stats) Json.num with Some v -> v | None -> 0.

let median_list = function [] -> 0. | l -> Drive.median (Array.of_list l)

let traced_run (w : Work.t) ~socket ~trace_path =
  let tr = Trace.create w in
  Trace.setup tr;
  let d =
    Drive.run ~exe ~socket ~setups:1 ~explain:true ~steps:w.trace_steps ~on_step:(Trace.step tr) w
  in
  ignore (Trace.finish tr);
  Drive.check d w;
  Printf.printf "%s seed %d: traced stream of %d requests\n" (Work.name wl) seed d.attempted;
  let st = tr.st in
  let primary = Work.primary wl in
  (* the socket round trip the in-process numbers are set against;
     pipelined windows use the window's round trip per request *)
  let socket_of cls = Drive.samples d (if w.pipelined then "window" else cls) in
  let socket_s = Drive.median (socket_of primary) in
  let handle_s = median_list (Option.value ~default:[] (Hashtbl.find_opt tr.hl primary)) in
  let log = List.rev st.log in
  let prim = List.filter (fun (c, _, _) -> c = primary) log in
  let parse_us = Trace.bulk_us Protocol.parse_request (Array.of_list (List.map (fun (_, l, _) -> l) prim)) in
  let encode_us =
    Trace.bulk_us
      (fun r -> Protocol.ok_response ~id:(Json.int 1) ~cached:(primary = "hit") ~elapsed_ms:0.05 r)
      (Array.of_list (List.map (fun (_, _, r) -> r) prim))
  in
  (* counts: from the server's explain records and stats, cross-checked
     against the replay *)
  let solved = List.filter (fun (_, c) -> Json.member "source" c = Some (Json.Str "solve")) d.costs in
  let sum_cost k =
    List.fold_left
      (fun a (_, c) -> a + Option.value ~default:0 (Option.bind (Json.member k c) Json.int_))
      0 solved
  in
  let delta k = counter d.stats1 k -. counter d.stats0 k in
  let total k = Option.value ~default:0 (Hashtbl.find_opt st.totals k) in
  let paths =
    [
      ("delta.path_merge", delta "rrms_delta_skyline_merges_total");
      ("delta.path_rebuild", delta "rrms_delta_skyline_rebuilds_total");
      ("delta.path_remap", delta "rrms_delta_skyline_remaps_total");
    ]
  in
  let probes = sum_cost "probes" and probes_fresh = sum_cost "probes_fresh" in
  (* a replay that took another path than the server measured another
     code path: the traced run fails *)
  List.iter
    (fun (k, v) ->
      if int_of_float v <> total k then
        Drive.fail d
          (Printf.sprintf "replay drift on %s: server %d, replay %d" k (int_of_float v) (total k))
          "" 1)
    (paths @ [ ("mrst.probes", float probes); ("mrst.probes_fresh", float probes_fresh) ]);
  report_failures d;
  let ratio a b = if a +. b = 0. then 0. else a /. (a +. b) in
  let attributed = Drive.median (Trace.attributed st.rc primary) in
  let per_call k = median_list (Option.value ~default:[] (Hashtbl.find_opt st.per_call k)) in
  (* unattributed share per class, for the human-readable report *)
  List.iter
    (fun cls ->
      let sock = socket_of cls in
      let att = Trace.attributed st.rc cls in
      if sock <> [||] && att <> [||] then
        Printf.printf "  unattributed_ratio[%s] %.4f (socket n=%d, replay n=%d)\n" cls
          (1. -. (Drive.median att /. Drive.median sock))
          (Array.length sock) (Array.length att))
    [ "solve"; "load"; "mutate"; "hit"; "evict" ];
  Trace.write_jsonl trace_path st.rc;
  Printf.printf "  spans: %s (%d)\n" trace_path (List.length st.rc.spans);
  let t name = Trace.median_ms st.rc name in
  print_result ~correct:(d.failed = 0) ~attempted:d.attempted ~failed:d.failed
    ([
       metric "dataset.parse_ms" "ms" (t "dataset.parse");
       metric "store.load_ms" "ms" (t "store.load");
       metric "skyline.sfs_ms" "ms" (t "skyline.sfs");
       metric "skyline.s" "count" (per_call "skyline.s");
       metric "discretize.grid_ms" "ms" (t "discretize.grid");
       metric "discretize.dirs" "count" (per_call "discretize.dirs");
       metric "regret_matrix.build_ms" "ms" (t "regret_matrix.build");
       metric "regret_matrix.cells" "count" (per_call "regret_matrix.cells");
       metric "regret_matrix.distinct_ms" "ms" (t "regret_matrix.distinct");
       metric "regret_matrix.distinct_values" "count" (per_call "regret_matrix.distinct_values");
       metric "mrst.index_build_ms" "ms" (t "mrst.index_build");
       metric "mrst.rebase_ms" "ms" (t "mrst.rebase");
       metric "mrst.search_ms" "ms" (t "mrst.search");
       metric "mrst.probes" "count" (float probes);
       metric "mrst.probes_fresh" "count" (float probes_fresh);
       metric "hd_greedy.solve_ms" "ms" (t "hd_greedy.solve");
       metric "regret_matrix.select_cols_ms" "ms" (t "regret_matrix.select_cols");
       metric "delta.update_skyline_ms" "ms" (t "delta.update_skyline");
       metric "regret_matrix.update_ms" "ms" (t "regret_matrix.update");
     ]
    @ List.map (fun (k, v) -> metric k "count" v) paths
    @ [
        metric "store.result_hit_ratio" "ratio"
          (ratio (delta "rrms_serve_result_hits_total") (delta "rrms_serve_result_misses_total"));
        metric "store.results_carried_ratio" "ratio"
          (ratio (delta "rrms_serve_results_carried_total")
             (delta "rrms_serve_results_invalidated_total"));
        metric "store.matrix_derived" "count" (counter d.stats1 "rrms_serve_matrix_derived_total");
        metric "protocol.parse_us" "us" parse_us;
        metric "json.encode_us" "us" encode_us;
        metric "server.handle_line_us" "us" (handle_s *. 1e6);
        metric "server.transport_share" "ratio" (1. -. (handle_s /. socket_s));
        metric "unattributed_ratio" "ratio" (1. -. (attributed /. socket_s));
      ])

let () =
  Rrms_parallel.Pool.set_default_size 1;
  Rrms_obs.Obs.set_level Rrms_obs.Obs.Counters;
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "perfbench: server executable %s not found\n" exe;
    exit 2
  end;
  let dir = Filename.concat work (Printf.sprintf "%s-%d-%d" (Work.name wl) seed (Unix.getpid ())) in
  mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w = Work.prepare ~dir ~size:Work.full ~seed wl in
      if traced then begin
        let traces = Filename.concat work "traces" in
        mkdir_p traces;
        traced_run w ~socket
          ~trace_path:(Filename.concat traces (Printf.sprintf "%s-%d.jsonl" (Work.name wl) seed))
      end
      else e2e w ~socket)
