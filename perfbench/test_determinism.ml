(* Exact-count determinism: a reduced-size traced run of every workload,
   twice with the same seed, must report identical counts — skyline
   sizes, matrix cells, distinct values, MRST probes, Delta paths and the
   store's hit / miss / carried counters.  In-process only (the replay
   plus Server.handle_line over the same lines); no server process. *)

open Perfbench_lib

let counters =
  [
    "rrms_serve_result_hits_total";
    "rrms_serve_result_misses_total";
    "rrms_serve_results_carried_total";
    "rrms_serve_results_invalidated_total";
    "rrms_serve_matrix_derived_total";
    "rrms_delta_skyline_merges_total";
    "rrms_delta_skyline_rebuilds_total";
    "rrms_delta_skyline_remaps_total";
    "rrms_hd_rrms_probes_total";
  ]

let counts wl =
  let dir = "_determinism" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let w = Work.prepare ~dir ~size:Work.reduced ~seed:7 wl in
  let tr = Trace.create w in
  Trace.setup tr;
  for i = 0 to w.trace_steps - 1 do
    Trace.step tr i
  done;
  let moved = Trace.finish tr in
  Array.iter Sys.remove (Array.map (Filename.concat dir) (Sys.readdir dir));
  let sorted h = List.sort compare (List.of_seq (Hashtbl.to_seq h)) in
  let per_call =
    List.map (fun (k, l) -> (k, List.sort compare l)) (sorted tr.st.per_call)
  in
  let totals = List.map (fun (k, v) -> (k, float_of_int v)) (sorted tr.st.totals) in
  let moved = List.map (fun k -> (k, Option.value ~default:0. (List.assoc_opt k moved))) counters in
  (per_call, totals @ moved)

let () =
  Rrms_parallel.Pool.set_default_size 1;
  Rrms_obs.Obs.set_level Rrms_obs.Obs.Counters;
  let failures = ref 0 in
  List.iter
    (fun (name, wl) ->
      let a = counts wl and b = counts wl in
      let same = a = b in
      let per_call, totals = a in
      Printf.printf "%-11s %s  %d per-call series, %s\n" name
        (if same then "identical" else "DIFFERENT")
        (List.length per_call)
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.0f" k v) totals));
      if not same then incr failures;
      if wl = Work.Mutate_mix
         && List.for_all
              (fun k -> List.assoc_opt k totals = None)
              [ "delta.path_merge"; "delta.path_rebuild"; "delta.path_remap" ]
      then begin
        Printf.printf "mutate-mix replay recorded no Delta path\n";
        incr failures
      end)
    Work.all;
  (try Sys.rmdir "_determinism" with Sys_error _ -> ());
  if !failures > 0 then exit 1
