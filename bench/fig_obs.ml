(* Observability-overhead benchmark: what does instrumentation cost on
   the HD-RRMS hot path at each recording level?

   The instrument calls are compiled in unconditionally, so "disabled"
   still pays one atomic load and a branch per call site.  We time the
   same solve at Disabled (twice, interleaved A/B), Counters, and Full,
   take the min over repeats, and record the ratios in BENCH_obs.json.
   The A/B pair runs identical code, so its ratio bounds measurement
   noise; checking it under 5% is the "disabled observability is free"
   check (a miss fails the run once every group has written its file)
   — a real regression (say a lock or allocation on the disabled path)
   would show up in the counters/full ratios tracked across PRs.

   A second section measures trace-propagation overhead: the same
   routed queries through a two-worker router, untraced (Counters) vs
   traced (Full — wire envelopes, worker span dumps, merged trace).
   The traced/untraced ratio lands in BENCH_obs.json as
   [ratio_vs_untraced], gated lower-is-better by check_regression. *)

open Bench_util
module Obs = Rrms_obs.Obs

let config = function
  | Small -> (20_000, 4, 5, 5, 5) (* n, m, gamma, r, repeats *)
  | Paper -> (50_000, 4, 6, 5, 7)

let write_json path ~n ~m ~gamma ~r ~repeats samples propagation =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"benchmark\": \"fig_obs\",\n";
  Printf.fprintf oc "  \"dataset\": \"anticorrelated\",\n";
  Printf.fprintf oc
    "  \"n\": %d,\n  \"m\": %d,\n  \"gamma\": %d,\n  \"r\": %d,\n\
    \  \"repeats\": %d,\n"
    n m gamma r repeats;
  Printf.fprintf oc "  \"cpu_cores_available\": %d,\n"
    (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"samples\": [\n";
  List.iteri
    (fun i (label, seconds, ratio) ->
      Printf.fprintf oc
        "    {\"level\": \"%s\", \"seconds\": %.6f, \
         \"ratio_vs_disabled\": %.4f}%s\n"
        label seconds ratio
        (if i = List.length samples - 1 then "" else ","))
    samples;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"propagation\": [\n";
  List.iteri
    (fun i (mode, seconds, ratio) ->
      Printf.fprintf oc
        "    {\"mode\": \"%s\", \"seconds\": %.6f, \
         \"ratio_vs_untraced\": %.4f}%s\n"
        mode seconds ratio
        (if i = List.length propagation - 1 then "" else ","))
    propagation;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Trace-propagation overhead: a routed query end to end, untraced
   (Counters — the service default) vs traced (Full: the router mints a
   wire envelope per request, workers return span dumps, the router
   splices them into a merged trace).  Router over two in-process
   worker daemons on Unix sockets; min over repeats; cache off so every
   repeat pays the solve, not a result-cache probe. *)
(* ------------------------------------------------------------------ *)

module Serve = Rrms_serve
module Store = Serve.Store
module Server = Serve.Server
module Shard = Serve.Shard

let temp_socket tag =
  let path = Filename.temp_file ("rrms_obs_" ^ tag) ".sock" in
  Sys.remove path;
  path

let propagation_bench fig ~repeats =
  let n, m = (8_000, 3) in
  let d = synthetic `Anticorrelated ~n ~m in
  let csv = Filename.temp_file "rrms_obs_prop" ".csv" in
  Rrms_dataset.Dataset.to_csv d csv;
  let sock_a = temp_socket "wa" and sock_b = temp_socket "wb" in
  let wa = Server.start (Store.create ()) ~socket:sock_a in
  let wb = Server.start (Store.create ()) ~socket:sock_b in
  let rt = Shard.Router.create ~workers:[ sock_a; sock_b ] () in
  Fun.protect
    ~finally:(fun () ->
      Shard.Router.close rt;
      Server.stop wa;
      Server.wait wa;
      Server.stop wb;
      Server.wait wb;
      if Sys.file_exists csv then Sys.remove csv)
    (fun () ->
      let session = Shard.Router.handler rt () in
      let rpc line =
        match session.Server.on_line line with
        | `Reply r | `Flush r -> r
        | `Shutdown _ -> failwith "unexpected shutdown"
      in
      let load =
        rpc (Printf.sprintf "{\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv)
      in
      if not (String.length load > 0 && String.sub load 0 1 = "{") then
        failwith "router load failed";
      let queries =
        List.concat_map
          (fun r ->
            [
              Printf.sprintf
                "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":%d,\"gamma\":4,\"cache\":false}"
                r;
              Printf.sprintf
                "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-greedy\",\"r\":%d,\"gamma\":4,\"cache\":false}"
                r;
            ])
          [ 3; 4; 5 ]
      in
      let run () = List.iter (fun q -> ignore (rpc q : string)) queries in
      (* Warm once at the untraced level so worker dials, dataset loads
         and merged artifacts are in place before any timed repeat. *)
      Obs.set_level Obs.Counters;
      run ();
      let best_untraced = ref infinity and best_traced = ref infinity in
      for _ = 1 to repeats do
        Obs.set_level Obs.Counters;
        let (), s = time run in
        if s < !best_untraced then best_untraced := s;
        Obs.set_level Obs.Full;
        Obs.Trace.clear ();
        let (), s = time run in
        if s < !best_traced then best_traced := s
      done;
      let ratio =
        if !best_untraced > 0. then !best_traced /. !best_untraced else 1.
      in
      row fig ~x:"untraced" ~x_name:"mode" ~series:"router-e2e"
        ~time:!best_untraced ();
      row fig ~x:"traced" ~x_name:"mode" ~series:"router-e2e"
        ~time:!best_traced ();
      Printf.printf
        "[%s] propagation ratio traced/untraced %.4f (gate: under 5%%)\n" fig
        ratio;
      [
        ("untraced", !best_untraced, 1.);
        ("traced", !best_traced, ratio);
      ])

let run scale =
  let n, m, gamma, r, repeats = config scale in
  let fig = "obs" in
  header fig
    (Printf.sprintf "observability overhead, anti n=%d m=%d gamma=%d r=%d" n m
       gamma r);
  let d = synthetic `Anticorrelated ~n ~m in
  let points = normalized_rows d in
  let saved_level = Obs.level () in
  let solve () = ignore (Rrms_core.Hd_rrms.solve ~gamma points ~r) in
  (* One warm-up solve so allocator and pool state are steady before any
     timed repeat. *)
  solve ();
  let cases =
    [
      ("disabled-a", Obs.Disabled);
      ("disabled-b", Obs.Disabled);
      ("counters", Obs.Counters);
      ("full", Obs.Full);
    ]
  in
  let best = Array.make (List.length cases) infinity in
  (* Interleave the repeats (round-robin over the cases) so slow drift
     of the machine hits every case equally. *)
  for _ = 1 to repeats do
    List.iteri
      (fun i (_, level) ->
        Obs.set_level level;
        Obs.reset ();
        let (), seconds = time solve in
        if seconds < best.(i) then best.(i) <- seconds)
      cases
  done;
  let disabled = best.(0) in
  let samples =
    List.mapi
      (fun i (label, _) ->
        let ratio = if disabled > 0. then best.(i) /. disabled else 1. in
        row fig ~x:label ~x_name:"level" ~series:"hd-rrms" ~time:best.(i) ();
        (label, best.(i), ratio))
      cases
  in
  let propagation = propagation_bench fig ~repeats in
  Obs.set_level saved_level;
  Obs.reset ();
  write_json "BENCH_obs.json" ~n ~m ~gamma ~r ~repeats samples propagation;
  (* disabled-b vs disabled-a runs byte-identical code: the ratio is
     pure measurement noise, and it bounds what "disabled observability
     costs nothing" can mean on this machine. *)
  let ab = best.(1) /. best.(0) in
  check fig
    (ab >= 1. /. 1.05 && ab <= 1.05)
    (Printf.sprintf "disabled A/B ratio %.4f outside 5%%" ab);
  Printf.printf "[%s] disabled A/B ratio %.4f (must stay within 5%%)\n" fig ab
