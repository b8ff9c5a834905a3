(* Serving-layer benchmark: what does the artifact store buy?

   Three measurements through an in-process [Rrms_serve.Store], all
   recorded in BENCH_serve.json:

   - cold vs warm latency per algorithm — the warm query is a
     result-cache hit, so its time is pure serving overhead (JSON
     lookup, no solver);
   - γ-subgrid derivation — a γ′-query served by column-selecting the
     cached γ-matrix vs a fresh store solving cold at γ′ (grid + matrix
     build included);
   - an r-sweep of result-cache speedups at fixed γ;
   - restart recovery — a fresh store over a --state-dir populated by a
     previous store (the moral equivalent of a restarted daemon) vs the
     cold solve that populated it, with the rehydrated answer's digest
     recorded as an identity gate;
   - one cached hit through a session's [on_line] — the whole serving
     path of a hit (decode, store lookup, request context, telemetry,
     reply envelope) at the serving default level, Counters; its minor
     words per hit are a machine-independent price of that path;
   - dynamic maintenance — a warm store absorbs a batch of mixed
     mutations through the incremental delta path (WAL journaling
     included) and answers the standing query again, vs a fresh store
     handed the post-mutation dataset that must build every artifact
     from scratch; the write-ahead log the batches produced is then
     replayed into a third store whose answer must match again.

   All reuse paths are bit-exact, which the run asserts by comparing
   serialized results before recording any timing.  Every cold or
   single-shot time (cold vs warm, γ derivation, the r-sweep, restart
   recovery, dynamic maintenance) is the fastest of five runs from
   fresh state. *)

open Bench_util
module Store = Rrms_serve.Store
module Protocol = Rrms_serve.Protocol
module Json = Rrms_serve.Json
module Persist = Rrms_serve.Persist
module Mutate = Rrms_serve.Mutate
module Delta = Rrms_core.Delta
module Server = Rrms_serve.Server
module Obs = Rrms_obs.Obs

let config = function
  | Small -> (5_000, 3, 8, 5, 5) (* n, m, gamma, r, repeats *)
  | Paper -> (20_000, 4, 8, 5, 7)

let q ?(algo = Protocol.Hd_rrms) ?(r = 5) ?(gamma = 4) ?(cache = true) dataset =
  {
    Protocol.dataset;
    algo;
    r;
    gamma;
    timeout = None;
    max_cells = None;
    max_probes = None;
    use_cache = cache;
    explain = false;
  }

let run_query store query =
  match Store.query store query with
  | Ok o -> o
  | Error `Overloaded -> failwith "fig_serve: overloaded"
  | Error `Unknown_dataset -> failwith "fig_serve: unknown dataset"
  | Error `Deadline_exceeded -> failwith "fig_serve: deadline exceeded"
  | Error `Draining -> failwith "fig_serve: draining"

(* Write a deterministic synthetic dataset to a temp CSV the store can
   load; returns the path. *)
let temp_csv ~n ~m =
  let d = synthetic `Anticorrelated ~n ~m in
  let path = Filename.temp_file "fig_serve" ".csv" in
  Rrms_dataset.Dataset.to_csv d path;
  path

(* Cache hits run in single-digit microseconds — below the wall-clock
   resolution of one call — so each timed sample executes [iters] calls
   and reports the per-call average; the min over [repeats] samples is
   the recorded figure. *)
let min_time ~repeats ~iters f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let _, s =
      time (fun () ->
          for _ = 1 to iters do
            f ()
          done)
    in
    let per_call = s /. float_of_int iters in
    if per_call < !best then best := per_call
  done;
  !best

(* The cold and single-shot times (cold vs warm, γ derivation, the
   r-sweep, restart recovery, dynamic maintenance) each time one query
   against fresh state, so one shot carries whatever heap the earlier
   phases left.  Each is run [shot_runs] times from scratch after one
   untimed warm-up, and every time recorded is the fastest of its runs,
   as [fig_parallel] does for its gated kernels. *)
let shot_runs = 5

let shots f =
  ignore (f ());
  List.init shot_runs (fun _ -> f ())

let fastest times = List.fold_left Float.min infinity times

let json_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let write_json path ~n ~m ~gamma ~r ~repeats ~cold_warm ~gamma_rows ~r_rows
    ~hit_line ~recovery ~dynamic =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"benchmark\": \"fig_serve\",\n";
  Printf.fprintf oc "  \"dataset\": \"anticorrelated\",\n";
  Printf.fprintf oc
    "  \"n\": %d,\n  \"m\": %d,\n  \"gamma\": %d,\n  \"r\": %d,\n\
    \  \"repeats\": %d,\n"
    n m gamma r repeats;
  Printf.fprintf oc "  \"cpu_cores_available\": %d,\n"
    (Domain.recommended_domain_count ());
  let section name rows fmt =
    Printf.fprintf oc "  \"%s\": [\n" name;
    List.iteri
      (fun i row ->
        Printf.fprintf oc "    %s%s\n" (fmt row)
          (if i = List.length rows - 1 then "" else ","))
      rows;
    Printf.fprintf oc "  ]"
  in
  section "cold_warm" cold_warm (fun (algo, cold, warm) ->
      Printf.sprintf
        "{\"algo\": \"%s\", \"cold_seconds\": %.9f, \"warm_seconds\": %.9f, \
         \"speedup\": %.1f}"
        algo cold warm (cold /. warm));
  Printf.fprintf oc ",\n";
  section "gamma_derivation" gamma_rows (fun (g, cold, derived) ->
      Printf.sprintf
        "{\"gamma\": %d, \"cold_seconds\": %.9f, \"derived_seconds\": %.9f, \
         \"speedup\": %.2f}"
        g cold derived (cold /. derived));
  Printf.fprintf oc ",\n";
  section "r_sweep" r_rows (fun (rv, cold, warm) ->
      Printf.sprintf
        "{\"r\": %d, \"cold_seconds\": %.9f, \"warm_seconds\": %.9f, \
         \"speedup\": %.1f}"
        rv cold warm (cold /. warm));
  Printf.fprintf oc ",\n";
  let hit_s, hit_words = hit_line in
  Printf.fprintf oc
    "  \"hit_line\": {\"algo\": \"hd-rrms\", \"hit_seconds\": %.9f, \
     \"hit_minor_words\": %d},\n"
    hit_s hit_words;
  let cold_s, rehydrated_s, digest, corrupt = recovery in
  Printf.fprintf oc
    "  \"restart_recovery\": {\"cold_seconds\": %.9f, \
     \"rehydrated_seconds\": %.9f, \"rehydrate_speedup\": %.1f, \
     \"answer_digest\": \"%s\", \"corrupt_blobs\": %d},\n"
    cold_s rehydrated_s (cold_s /. rehydrated_s) (json_escape digest) corrupt;
  let mut_ops, inc_s, major_words, reb_s, wal_records, wal_s, dyn_digest =
    dynamic
  in
  Printf.fprintf oc
    "  \"dynamic\": {\"mutation_ops\": %d, \"incremental_seconds\": %.9f, \
     \"mutate_major_words\": %d, \"rebuild_seconds\": %.9f, \"speedup\": \
     %.1f, \"wal_records\": %d, \"wal_replay_seconds\": %.9f, \
     \"answer_digest\": \"%s\"}\n"
    mut_ops inc_s major_words reb_s (reb_s /. inc_s) wal_records wal_s
    (json_escape dyn_digest);
  Printf.fprintf oc "}\n";
  close_out oc

let run scale =
  let n, m, gamma, r, repeats = config scale in
  let fig = "serve" in
  header fig
    (Printf.sprintf "serving-layer reuse, anti n=%d m=%d gamma=%d r=%d" n m
       gamma r);
  let hd_csv = temp_csv ~n ~m and csv_2d = temp_csv ~n ~m:2 in
  (* Cold vs warm per algorithm: a fresh store per cold run so every
     cold time includes its own artifact builds.  The cold time is the
     fastest of [shots]; the warm hits run on the last run's store. *)
  let algos =
    [
      (Protocol.A2d, csv_2d);
      (Protocol.A2d_exact, csv_2d);
      (Protocol.Sweepline, csv_2d);
      (Protocol.Hd_rrms, hd_csv);
      (Protocol.Hd_greedy, hd_csv);
      (Protocol.Greedy, hd_csv);
      (Protocol.Cube, hd_csv);
    ]
  in
  let cold_warm =
    List.map
      (fun (algo, csv) ->
        let query = q ~algo ~r ~gamma "bench" in
        let last = ref None in
        let cold =
          fastest
            (shots (fun () ->
                 let store = Store.create () in
                 ignore (Store.load store ~name:"bench" csv);
                 let o, s = time (fun () -> run_query store query) in
                 last := Some (store, o);
                 s))
        in
        let store, co = Option.get !last in
        let warm_out = ref None in
        let warm =
          min_time ~repeats ~iters:1000 (fun () ->
              warm_out := Some (run_query store query))
        in
        let wo = Option.get !warm_out in
        assert ((not co.Store.cached) && wo.Store.cached);
        assert (Json.to_string co.Store.result = Json.to_string wo.Store.result);
        let name = Protocol.algo_to_string algo in
        row fig ~x:name ~x_name:"algo" ~series:"cold" ~time:cold ();
        row fig ~x:name ~x_name:"algo" ~series:"warm" ~time:warm ();
        (name, cold, warm))
      algos
  in
  (* γ-subgrid derivation: one store holds the γ-matrix; each γ′ | γ
     query below is served by column selection, timed against a fresh
     store that must build grid and matrix at γ′ from scratch.  Single
     shots — the second derived query would be a matrix hit, which is
     the cold/warm story above, not the derivation story — so every run
     starts from a fresh warm store. *)
  let gammas = [ gamma / 2; gamma / 4; 1 ] in
  let gamma_shots =
    shots (fun () ->
        let warm_store = Store.create () in
        ignore (Store.load warm_store ~name:"bench" hd_csv);
        ignore (run_query warm_store (q ~gamma ~r "bench"));
        List.map
          (fun g ->
            let d, derived =
              time (fun () -> run_query warm_store (q ~gamma:g ~r "bench"))
            in
            let cold_store = Store.create () in
            ignore (Store.load cold_store ~name:"bench" hd_csv);
            let c, cold =
              time (fun () -> run_query cold_store (q ~gamma:g ~r "bench"))
            in
            assert (
              Json.to_string d.Store.result = Json.to_string c.Store.result);
            (cold, derived))
          gammas)
  in
  let gamma_rows =
    List.mapi
      (fun i g ->
        let at = List.map (fun run -> List.nth run i) gamma_shots in
        let cold = fastest (List.map fst at)
        and derived = fastest (List.map snd at) in
        row fig ~x:(string_of_int g) ~x_name:"gamma" ~series:"derived"
          ~time:derived ();
        row fig ~x:(string_of_int g) ~x_name:"gamma" ~series:"cold" ~time:cold
          ();
        (g, cold, derived))
      gammas
  in
  (* r-sweep of result-cache speedups on one shared store: artifacts are
     warm after the first r, so the cold times isolate the solver and
     the warm times the cache.  Each cold time is the fastest of [shots]
     sweeps, each over a fresh store; the warm hits run on the last
     sweep's store. *)
  let r_values = [ 2; 3; 4; 5; 6 ] in
  let r_last = ref None in
  let r_shots =
    shots (fun () ->
        let store = Store.create () in
        ignore (Store.load store ~name:"bench" hd_csv);
        r_last := Some store;
        List.map
          (fun rv ->
            snd (time (fun () -> run_query store (q ~gamma ~r:rv "bench"))))
          r_values)
  in
  let r_store = Option.get !r_last in
  let r_rows =
    List.mapi
      (fun i rv ->
        let query = q ~gamma ~r:rv "bench" in
        let cold = fastest (List.map (fun run -> List.nth run i) r_shots) in
        let warm =
          min_time ~repeats ~iters:1000 (fun () ->
              ignore (run_query r_store query))
        in
        row fig ~x:(string_of_int rv) ~x_name:"r" ~series:"cache-speedup"
          ~time:warm ();
        (rv, cold, warm))
      r_values
  in
  (* Restart recovery: store A solves cold and writes through to a
     state dir; a fresh store B over the same dir — empty memory, the
     restarted-daemon case — must answer the same query warm from the
     result blob alone.  Single shots: only the first warm query is a
     rehydration (after it the answer lives in B's memory again), so
     every run starts from a fresh state dir. *)
  let state_dirs = ref [] in
  let recovery =
    let runs =
      shots (fun () ->
          let state_dir = Filename.temp_file "fig_serve_state" "" in
          Sys.remove state_dir;
          state_dirs := state_dir :: !state_dirs;
          let store_a = Store.create ~persist:(Persist.open_dir state_dir) () in
          ignore (Store.load store_a ~name:"bench" hd_csv);
          let co, cold_s =
            time (fun () -> run_query store_a (q ~gamma ~r "bench"))
          in
          let persist_b = Persist.open_dir state_dir in
          let scan = Persist.last_scan persist_b in
          let store_b = Store.create ~persist:persist_b () in
          ignore (Store.load store_b ~name:"bench" hd_csv);
          let wo, rehydrated_s =
            time (fun () -> run_query store_b (q ~gamma ~r "bench"))
          in
          assert ((not co.Store.cached) && wo.Store.cached);
          let cold_str = Json.to_string co.Store.result in
          assert (cold_str = Json.to_string wo.Store.result);
          (cold_s, rehydrated_s, cold_str, scan.Persist.corrupt))
    in
    let _, _, cold_str, _ = List.hd runs in
    List.iter (fun (_, _, str, _) -> assert (str = cold_str)) runs;
    let cold_s = fastest (List.map (fun (c, _, _, _) -> c) runs)
    and rehydrated_s = fastest (List.map (fun (_, w, _, _) -> w) runs) in
    row fig ~x:"restart" ~x_name:"phase" ~series:"cold" ~time:cold_s ();
    row fig ~x:"restart" ~x_name:"phase" ~series:"rehydrated"
      ~time:rehydrated_s ();
    let digest = Digest.to_hex (Digest.string cold_str) in
    ( cold_s,
      rehydrated_s,
      digest,
      List.fold_left (fun a (_, _, _, c) -> max a c) 0 runs )
  in
  (* Dynamic maintenance: a warm store absorbs batches of mixed
     mutations through the incremental delta path and answers the
     standing query again; a fresh store handed the post-mutation
     dataset must rebuild skyline, grid and matrix from scratch to
     produce the same bytes.  The first batches are fully random; the
     timed batch is insert-below-skyline — the steady-state shape of
     point mutations against a large table — so the maintenance pass
     re-certifies the cached artifacts (merge path, matrices untouched,
     result kept with a proof of exactness) instead of rebuilding them;
     its major-heap words are recorded beside its time.
     Both sides are in-memory stores: durability is priced separately,
     by replaying the write-ahead log a persistent twin fed the same
     batches into a cold store, whose answer must match again.  Three
     answers, one digest, recorded as an identity gate. *)
  let dynamic =
    let n_dyn = 8 * n in
    let dyn_csv = temp_csv ~n:n_dyn ~m in
    let wal_dir = Filename.temp_file "fig_serve_wal" "" in
    Sys.remove wal_dir;
    let rng = Rrms_rng.Rng.create (seed_of ("serve", "dyn", m)) in
    let size = ref n_dyn in
    let fresh_tuple () = Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.) in
    let mixed_batch ops =
      List.init ops (fun _ ->
          match Rrms_rng.Rng.int rng 10 with
          | 0 | 1 | 2 | 3 | 4 ->
              incr size;
              Delta.Insert (fresh_tuple ())
          | (5 | 6 | 7) when !size > 2 ->
              let i = Rrms_rng.Rng.int rng !size in
              decr size;
              Delta.Delete i
          | _ -> Delta.Upsert (Rrms_rng.Rng.int rng !size, fresh_tuple ()))
    in
    let dominated_batch ops =
      List.init ops (fun _ ->
          incr size;
          Delta.Insert
            (Array.init m (fun _ -> 0.05 *. Rrms_rng.Rng.float rng 1.)))
    in
    let batches = 4 and ops_per_batch = 8 in
    let all_batches =
      List.init (batches - 1) (fun _ -> mixed_batch ops_per_batch)
      @ [ dominated_batch ops_per_batch ]
    in
    let must_mutate store ops =
      match Store.mutate store ~dataset:"dyn" ops with
      | Ok r -> r
      | Error _ -> failwith "fig_serve: mutate failed"
    in
    let rec split_last = function
      | [] -> failwith "fig_serve: no batches"
      | [ last ] -> ([], last)
      | b :: rest ->
          let init, last = split_last rest in
          (b :: init, last)
    in
    let warmup, last = split_last all_batches in
    (* Each run brings a fresh store through the same batches; only the
       last run's store is kept, for the rebuild below. *)
    let last_store = ref None in
    let runs =
      shots (fun () ->
          let store_a = Store.create () in
          ignore (Store.load store_a ~name:"dyn" dyn_csv);
          ignore (run_query store_a (q ~gamma ~r "dyn"));
          List.iter
            (fun b ->
              ignore (must_mutate store_a b);
              ignore (run_query store_a (q ~gamma ~r "dyn")))
            warmup;
          (* The timed batch's major-heap words ([Gc.counters] counts a
             direct major allocation at once): a machine-independent
             price of the write path, whose n-length arrays all land
             there.  Promotions add to it by chance, so the fewest of
             the runs is recorded. *)
          let _, _, major0 = Gc.counters () in
          let _, mutate_s = time (fun () -> must_mutate store_a last) in
          let _, _, major1 = Gc.counters () in
          let inc_o, query_s =
            time (fun () -> run_query store_a (q ~gamma ~r "dyn"))
          in
          last_store := Some store_a;
          ( mutate_s,
            mutate_s +. query_s,
            major1 -. major0,
            Json.to_string inc_o.Store.result ))
    in
    let _, _, _, inc_str = List.hd runs in
    List.iter (fun (_, _, _, str) -> assert (str = inc_str)) runs;
    let mutate_s = fastest (List.map (fun (t, _, _, _) -> t) runs)
    and incremental_s = fastest (List.map (fun (_, t, _, _) -> t) runs)
    and major_words = fastest (List.map (fun (_, _, w, _) -> w) runs) in
    let store_a = Option.get !last_store in
    (* From-scratch rebuild over the exact post-mutation dataset (taken
       from the store, not a CSV round-trip, so the bits agree). *)
    let h =
      match Store.pin store_a "dyn" with
      | Some h -> h
      | None -> failwith "fig_serve: mutated dataset vanished"
    in
    let d_final = Store.pinned_dataset h in
    Store.unpin store_a h;
    (* The timed rebuild starts from the raw rows: registering the
       dataset (hashing + transforms) is part of the from-scratch price
       a daemon without the mutation path would pay per update. *)
    let rebuild_s =
      fastest
        (shots (fun () ->
             let rebuild_store = Store.create () in
             let reb_o, rebuild_s =
               time (fun () ->
                   let final = Store.add rebuild_store d_final in
                   run_query rebuild_store (q ~gamma ~r final.Store.key))
             in
             assert (inc_str = Json.to_string reb_o.Store.result);
             rebuild_s))
    in
    (* Crash-recovery path: a persistent twin journals the same batches
       to the WAL, which is then replayed into a cold store. *)
    let store_w = Store.create ~persist:(Persist.open_dir wal_dir) () in
    ignore (Store.load store_w ~name:"dyn" dyn_csv);
    List.iter (fun b -> ignore (must_mutate store_w b)) all_batches;
    let persist_b = Persist.open_dir wal_dir in
    let store_b = Store.create ~persist:persist_b () in
    ignore (Store.load store_b ~name:"dyn" dyn_csv);
    let rep, wal_replay_s = time (fun () -> Mutate.replay store_b persist_b) in
    assert (rep.Mutate.applied = batches && rep.Mutate.skipped = 0);
    let replayed_o = run_query store_b (q ~gamma ~r "dyn") in
    assert (inc_str = Json.to_string replayed_o.Store.result);
    row fig ~x:"dynamic" ~x_name:"phase" ~series:"mutate" ~time:mutate_s ();
    row fig ~x:"dynamic" ~x_name:"phase" ~series:"incremental"
      ~time:incremental_s ();
    row fig ~x:"dynamic" ~x_name:"phase" ~series:"rebuild" ~time:rebuild_s ();
    row fig ~x:"dynamic" ~x_name:"phase" ~series:"wal-replay"
      ~time:wal_replay_s ();
    Array.iter
      (fun f -> try Sys.remove (Filename.concat wal_dir f) with Sys_error _ -> ())
      (Sys.readdir wal_dir);
    (try Unix.rmdir wal_dir with Unix.Unix_error _ -> ());
    Sys.remove dyn_csv;
    ( batches * ops_per_batch,
      incremental_s,
      int_of_float major_words,
      rebuild_s,
      rep.Mutate.records,
      wal_replay_s,
      Digest.to_hex (Digest.string inc_str) )
  in
  (* One cached hit through a session's [on_line], at Counters: the
     request line is the [hit-storm] shape.  Seconds are informational;
     the minor words per hit are what [check_regression] gates.  It
     runs last: its thousands of hits leave a heap that moves the
     single-shot timings above when they come after it. *)
  let hit_line =
    let prev = Obs.level () in
    Obs.set_level Obs.Counters;
    let store = Store.create () in
    ignore (Store.load store ~name:"bench" hd_csv);
    let session = Server.store_handler store () in
    let line =
      Printf.sprintf
        {|{"id":17,"req":"query","dataset":"bench","algo":"hd-rrms","r":%d,"gamma":%d}|}
        r gamma
    in
    let reply () =
      match session.Server.on_line line with
      | `Reply text -> text
      | `Flush _ | `Shutdown _ -> failwith "fig_serve: hit answered oddly"
    in
    let cold = reply () in
    let warm = reply () in
    let member key text =
      match Json.parse text with
      | Ok j -> Option.map Json.to_string (Json.member key j)
      | Error _ -> None
    in
    assert (Option.is_some (member "result" cold));
    assert (member "result" cold = member "result" warm);
    assert (member "cached" warm = Some "true");
    let hits = 1000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to hits do
      ignore (reply ())
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int hits in
    let seconds = min_time ~repeats ~iters:hits (fun () -> ignore (reply ())) in
    session.Server.on_close ();
    Obs.set_level prev;
    row fig ~x:"hit" ~x_name:"phase" ~series:"on_line" ~time:seconds ();
    (seconds, int_of_float (Float.round words))
  in
  write_json "BENCH_serve.json" ~n ~m ~gamma ~r ~repeats ~cold_warm ~gamma_rows
    ~r_rows ~hit_line ~recovery ~dynamic;
  List.iter
    (fun state_dir ->
      Array.iter
        (fun f ->
          try Sys.remove (Filename.concat state_dir f) with Sys_error _ -> ())
        (Sys.readdir state_dir);
      try Unix.rmdir state_dir with Unix.Unix_error _ -> ())
    !state_dirs;
  Sys.remove hd_csv;
  Sys.remove csv_2d
