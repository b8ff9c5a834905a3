(* The serving layer end to end: protocol parsing, the artifact store
   (content-addressed datasets, shared skylines/grids/matrices, the
   result cache), admission control, fault recovery, and the --stdio
   transport of the rrms-serve binary.

   The two load-bearing contracts, both asserted bitwise:

   - a warm (cached) answer is byte-identical to the cold solve that
     populated the cache, and recomputes nothing (Obs counters);
   - a γ'-query served by column-selection from a cached γ-matrix is
     byte-identical to a cold solve at γ'. *)

module Serve = Rrms_serve
module Json = Serve.Json
module Protocol = Serve.Protocol
module Store = Serve.Store
module Server = Serve.Server
module Obs = Rrms_obs.Obs
module Dataset = Rrms_dataset.Dataset
module Guard = Rrms_guard.Guard

(* Counter assertions need a recording registry; restore the entry
   level afterwards so the CI observability lane is unaffected. *)
let with_counters f =
  let prev = Obs.level () in
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_level prev)
    (fun () ->
      Obs.set_level Obs.Counters;
      Obs.reset ();
      f ())

let temp_csv ?(n = 300) ?(m = 3) ?(seed = 11) () =
  let rng = Rrms_rng.Rng.create seed in
  let rows =
    Array.init n (fun _ -> Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.))
  in
  let attributes = Array.init m (fun j -> Printf.sprintf "a%d" j) in
  let d = Dataset.create ~name:"serve_test" ~attributes rows in
  let path = Filename.temp_file "rrms_serve_test" ".csv" in
  Dataset.to_csv d path;
  path

let with_csv ?n ?m ?seed f =
  let path = temp_csv ?n ?m ?seed () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let query ?(algo = Protocol.Hd_rrms) ?(r = 4) ?(gamma = 4) ?timeout ?max_cells
    ?max_probes ?(cache = true) dataset =
  {
    Protocol.dataset;
    algo;
    r;
    gamma;
    timeout;
    max_cells;
    max_probes;
    use_cache = cache;
    explain = false;
  }

let result_string store q =
  match Store.query store q with
  | Ok { Store.result; cached; _ } -> (Json.to_string result, cached)
  | Error `Unknown_dataset -> Alcotest.fail "unexpected unknown_dataset"
  | Error `Overloaded -> Alcotest.fail "unexpected overloaded"
  | Error `Deadline_exceeded -> Alcotest.fail "unexpected deadline_exceeded"
  | Error `Draining -> Alcotest.fail "unexpected draining"

let counter = Obs.Counter.value

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2.5,-3]";
      "{\"a\":[{\"b\":\"c\\nd\"}],\"e\":{}}";
      "\"quote \\\" backslash \\\\ tab \\t\"";
      "0.095392799460475908";
      "[1e300,-0.5,0]";
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.fail (Printf.sprintf "parse %s: %s" s e)
      | Ok v -> (
          let printed = Json.to_string v in
          match Json.parse printed with
          | Error e ->
              Alcotest.fail (Printf.sprintf "reparse %s: %s" printed e)
          | Ok v' ->
              Alcotest.(check string)
                ("stable print of " ^ s) printed (Json.to_string v')))
    cases;
  (* Unicode escapes decode to UTF-8. *)
  (match Json.parse "\"\\u00e9\\ud83d\\ude00\"" with
  | Ok (Json.Str s) ->
      Alcotest.(check string) "utf8 escapes" "\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "unicode escape parse");
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "nul"; "\"open"; "1 2"; "{\"a\" 1}"; "" ]

let test_json_numbers () =
  Alcotest.(check string) "integral" "42" (Json.to_string (Json.int 42));
  Alcotest.(check string)
    "negative integral" "-7"
    (Json.to_string (Json.float (-7.)));
  Alcotest.(check string)
    "non-finite defensive" "null"
    (Json.to_string (Json.float Float.nan));
  (* %.17g round-trips doubles exactly. *)
  let v = 0.1 +. 0.2 in
  match Json.parse (Json.to_string (Json.float v)) with
  | Ok (Json.Num v') ->
      Alcotest.(check bool) "bit-exact float roundtrip" true
        (Int64.bits_of_float v = Int64.bits_of_float v')
  | _ -> Alcotest.fail "float roundtrip"

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)
(* ------------------------------------------------------------------ *)

let req_error line =
  match (Protocol.parse_request line).Protocol.req with
  | Error (code, _) -> code
  | Ok _ -> "ok"

let test_protocol_parse () =
  (match
     Protocol.parse_request
       "{\"id\":7,\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3}"
   with
  | { Protocol.id = Json.Num 7.; req = Ok (Protocol.Query q); _ } ->
      Alcotest.(check int) "default gamma" 4 q.Protocol.gamma;
      Alcotest.(check bool) "default cache" true q.Protocol.use_cache;
      Alcotest.(check int) "r" 3 q.Protocol.r
  | _ -> Alcotest.fail "query parse");
  Alcotest.(check string) "malformed json" "parse" (req_error "{nope");
  Alcotest.(check string) "non-object" "bad_request" (req_error "[1,2]");
  Alcotest.(check string)
    "unknown kind" "bad_request" (req_error "{\"req\":\"frobnicate\"}");
  Alcotest.(check string)
    "missing field" "bad_request" (req_error "{\"req\":\"query\"}");
  Alcotest.(check string)
    "bad r" "bad_request"
    (req_error "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"cube\",\"r\":0}");
  (* id survives a bad body, for correlation. *)
  (match Protocol.parse_request "{\"id\":\"x\",\"req\":\"nope\"}" with
  | { Protocol.id = Json.Str "x"; req = Error ("bad_request", _); _ } -> ()
  | _ -> Alcotest.fail "id recovered from bad request");
  (* Budgets never leak into the cache key; γ only for grid algos. *)
  let base = query ~algo:Protocol.Hd_rrms ~r:3 ~gamma:8 "d" in
  Alcotest.(check string)
    "budget-free key"
    (Protocol.cache_key base)
    (Protocol.cache_key { base with Protocol.max_probes = Some 2 });
  Alcotest.(check bool)
    "gamma in hd key" false
    (Protocol.cache_key base = Protocol.cache_key { base with Protocol.gamma = 4 });
  let c = query ~algo:Protocol.Cube ~r:5 ~gamma:8 "d" in
  Alcotest.(check string)
    "gamma ignored for cube"
    (Protocol.cache_key c)
    (Protocol.cache_key { c with Protocol.gamma = 2 })

(* ------------------------------------------------------------------ *)
(* Store: artifact reuse and the result cache                         *)
(* ------------------------------------------------------------------ *)

let test_store_cache_and_artifacts () =
  with_counters (fun () ->
      with_csv (fun csv ->
          let store = Store.create () in
          let l1 = Store.load store ~name:"serve_test" csv in
          Alcotest.(check bool) "first load is fresh" false
            l1.Store.already_loaded;
          let l2 = Store.load store csv in
          Alcotest.(check bool) "second load hits" true l2.Store.already_loaded;
          Alcotest.(check int) "refcount" 2 l2.Store.refs;
          Alcotest.(check string) "same key" l1.Store.key l2.Store.key;

          let m = Serve.Store.Metrics.matrix_misses in
          let sk = Serve.Store.Metrics.skyline_misses in
          let cold, cached_cold = result_string store (query l1.Store.key) in
          Alcotest.(check bool) "cold not cached" false cached_cold;
          let built_matrices = counter m and built_skylines = counter sk in
          Alcotest.(check int) "one skyline built" 1 built_skylines;
          Alcotest.(check int) "one matrix built" 1 built_matrices;

          (* Warm: byte-identical, zero recomputation. *)
          let warm, cached_warm = result_string store (query l1.Store.key) in
          Alcotest.(check bool) "warm is cached" true cached_warm;
          Alcotest.(check string) "warm bit-identical to cold" cold warm;
          Alcotest.(check int) "no new skyline" built_skylines (counter sk);
          Alcotest.(check int) "no new matrix" built_matrices (counter m);

          (* Alias and key both resolve. *)
          let via_name, _ = result_string store (query "serve_test") in
          Alcotest.(check string) "alias answers identically" cold via_name;

          (* γ=2 divides γ=4 with a power-of-two ratio: served by column
             selection, not a rebuild — and byte-identical to a cold γ=2
             solve in a fresh store. *)
          let g2, _ = result_string store (query ~gamma:2 l1.Store.key) in
          Alcotest.(check int) "no matrix rebuild for subgrid" built_matrices
            (counter m);
          Alcotest.(check int) "one derivation"
            1
            (counter Serve.Store.Metrics.matrix_derived);
          let fresh = Store.create () in
          let lf = Store.load fresh csv in
          let g2_cold, _ = result_string fresh (query ~gamma:2 lf.Store.key) in
          Alcotest.(check string) "derived == cold at gamma=2" g2_cold g2;

          (* Eviction frees the entry only when the last ref drops. *)
          (match Store.release store l1.Store.key with
          | Store.Released { remaining = 1; freed = false; _ } -> ()
          | _ -> Alcotest.fail "first release keeps the entry");
          (match Store.release store l1.Store.key with
          | Store.Released { remaining = 0; freed = true; _ } -> ()
          | _ -> Alcotest.fail "last release frees");
          match Store.query store (query l1.Store.key) with
          | Error `Unknown_dataset -> ()
          | _ -> Alcotest.fail "freed entry still answers"))

let all_algos_2d =
  [
    Protocol.A2d;
    Protocol.A2d_exact;
    Protocol.Sweepline;
    Protocol.Hd_rrms;
    Protocol.Hd_greedy;
    Protocol.Greedy;
    Protocol.Cube;
  ]

let test_warm_equals_cold_every_algo () =
  with_counters (fun () ->
      with_csv ~n:120 ~m:2 ~seed:3 (fun csv ->
          let store = Store.create () in
          let l = Store.load store csv in
          List.iter
            (fun algo ->
              let name = Protocol.algo_to_string algo in
              let cold, c0 =
                result_string store (query ~algo ~r:3 l.Store.key)
              in
              Alcotest.(check bool) (name ^ " cold") false c0;
              let warm, c1 =
                result_string store (query ~algo ~r:3 l.Store.key)
              in
              Alcotest.(check bool) (name ^ " warm hits") true c1;
              Alcotest.(check string) (name ^ " bit-identical") cold warm)
            all_algos_2d))

(* The per-request kernel work in the explain record is the library's
   own cost: [cells_crossed] of a first (fresh-index) HD-RRMS solve and
   [cells_read] of an HD-GREEDY solve, the same at every pool size. *)
let test_explain_kernel_work () =
  with_csv ~n:400 ~m:3 ~seed:17 (fun csv ->
      let points = Dataset.rows (Dataset.of_csv csv) in
      let rrms = Rrms_core.Hd_rrms.solve ~gamma:4 ~domains:1 points ~r:4 in
      let greedy = Rrms_core.Hd_greedy.solve ~gamma:4 ~domains:1 points ~r:4 in
      Alcotest.(check bool) "the probes crossed cells" true
        (rrms.Rrms_core.Hd_rrms.cost.Rrms_core.Hd_rrms.cells_crossed > 0);
      List.iter
        (fun domains ->
          let store = Store.create ~domains () in
          let l = Store.load store csv in
          let cost algo field =
            match
              Store.query store
                { (query ~algo ~r:4 ~cache:false l.Store.key) with explain = true }
            with
            | Ok { Store.cost; _ } ->
                Option.bind (List.assoc_opt field cost) Json.int_
            | Error _ -> Alcotest.fail "query refused"
          in
          Alcotest.(check (option int))
            (Printf.sprintf "hd-rrms cells_crossed (domains=%d)" domains)
            (Some rrms.Rrms_core.Hd_rrms.cost.Rrms_core.Hd_rrms.cells_crossed)
            (cost Protocol.Hd_rrms "cells_crossed");
          Alcotest.(check (option int))
            (Printf.sprintf "hd-greedy cells_read (domains=%d)" domains)
            (Some greedy.Rrms_core.Hd_greedy.cells_read)
            (cost Protocol.Hd_greedy "cells_read"))
        [ 1; 4 ])

let test_store_domain_counts_agree () =
  with_counters (fun () ->
      with_csv ~seed:5 (fun csv ->
          let answers =
            List.map
              (fun domains ->
                let store = Store.create ~domains () in
                let l = Store.load store csv in
                fst (result_string store (query ~r:5 l.Store.key)))
              [ 1; 2; 4 ]
          in
          match answers with
          | [ a1; a2; a4 ] ->
              Alcotest.(check string) "1 vs 2 domains" a1 a2;
              Alcotest.(check string) "1 vs 4 domains" a1 a4
          | _ -> assert false))

let test_degraded_never_cached () =
  with_counters (fun () ->
      with_csv (fun csv ->
          let store = Store.create () in
          let l = Store.load store csv in
          let budgeted = query ~max_probes:1 ~r:5 l.Store.key in
          let r1, c1 = result_string store budgeted in
          Alcotest.(check bool) "budgeted run is fresh" false c1;
          Alcotest.(check bool) "budgeted run degraded" true
            (Astring_contains.contains r1 "\"degraded\":true");
          let r2, c2 = result_string store budgeted in
          Alcotest.(check bool) "degraded result was not cached" false c2;
          Alcotest.(check string) "degradation is deterministic" r1 r2;
          (* The unbudgeted answer is exact, cacheable, and a later
             budgeted query may then be served from the cache. *)
          let exact, _ = result_string store (query ~r:5 l.Store.key) in
          Alcotest.(check bool) "unbudgeted exact" true
            (Astring_contains.contains exact "\"degraded\":false");
          let r3, c3 = result_string store budgeted in
          Alcotest.(check bool) "budgeted query now cache-served" true c3;
          Alcotest.(check string) "served the exact answer" exact r3))

(* ------------------------------------------------------------------ *)
(* Concurrency: artifact sharing, admission, fault recovery           *)
(* ------------------------------------------------------------------ *)

let test_concurrent_sessions_share_artifacts () =
  with_counters (fun () ->
      with_csv ~seed:7 (fun csv ->
          List.iter
            (fun domains ->
              Obs.reset ();
              let store = Store.create ~domains ~max_inflight:8 () in
              let l = Store.load store csv in
              (* Eight sessions race the same cold query; cache reads are
                 bypassed so every one must reach the artifact layer. *)
              let results = Array.make 8 "" in
              let threads =
                Array.init 8 (fun i ->
                    Thread.create
                      (fun () ->
                        let r, _ =
                          result_string store
                            (query ~cache:false ~r:4 l.Store.key)
                        in
                        results.(i) <- r)
                      ())
              in
              Array.iter Thread.join threads;
              Array.iter
                (fun r ->
                  Alcotest.(check string)
                    (Printf.sprintf "identical under %d domains" domains)
                    results.(0) r)
                results;
              Alcotest.(check int)
                (Printf.sprintf "one skyline at %d domains" domains)
                1
                (counter Serve.Store.Metrics.skyline_misses);
              Alcotest.(check int)
                (Printf.sprintf "one matrix at %d domains" domains)
                1
                (counter Serve.Store.Metrics.matrix_misses))
            [ 1; 2; 4 ]))

(* Hold the single admission slot from another thread, then check that
   a solve query is shed with `Overloaded (and the server answers the
   structured "overloaded" error), and that the store recovers once the
   slot frees. *)
let test_admission_overload () =
  with_counters (fun () ->
      with_csv ~n:80 (fun csv ->
          let store = Store.create ~max_inflight:1 ~max_queue:0 () in
          let l = Store.load store csv in
          let gate = Mutex.create () in
          let cv = Condition.create () in
          let state = ref `Idle in
          let holder =
            Thread.create
              (fun () ->
                ignore
                  (Store.with_admission store (fun () ->
                       Mutex.lock gate;
                       state := `Holding;
                       Condition.broadcast cv;
                       while !state <> `Release do
                         Condition.wait cv gate
                       done;
                       Mutex.unlock gate)))
              ()
          in
          Mutex.lock gate;
          while !state <> `Holding do
            Condition.wait cv gate
          done;
          Mutex.unlock gate;
          (match Store.query store (query l.Store.key) with
          | Error `Overloaded -> ()
          | _ -> Alcotest.fail "saturated store must shed");
          let resp =
            match Server.handle_line store
                    (Printf.sprintf
                       "{\"req\":\"query\",\"dataset\":%S,\"algo\":\"hd-rrms\",\"r\":4}"
                       l.Store.key)
            with
            | `Reply r -> r
            | `Shutdown _ -> Alcotest.fail "not a shutdown"
          in
          Alcotest.(check bool) "overloaded error code" true
            (Astring_contains.contains resp "\"code\":\"overloaded\"");
          Alcotest.(check bool) "shed counter" true
            (counter Serve.Store.Metrics.overloaded >= 2);
          Mutex.lock gate;
          state := `Release;
          Condition.broadcast cv;
          Mutex.unlock gate;
          Thread.join holder;
          let _, cached = result_string store (query l.Store.key) in
          Alcotest.(check bool) "recovers after the burst" false cached))

let test_fault_injection_recovery () =
  with_csv ~seed:13 (fun csv ->
      Fun.protect
        ~finally:(fun () ->
          Rrms_parallel.Fault.clear ();
          (* Re-arm whatever RRMS_FAULT the CI lane configured. *)
          Rrms_parallel.Fault.configure_from_env ())
        (fun () ->
          let store = Store.create ~domains:2 () in
          let l = Store.load store csv in
          (* Worker 0 is the submitting domain: it always executes chunk
             boundaries (even on the serial fallback), so the injection
             fires deterministically at every domain count — faulting a
             spawned worker is racy when the main domain can drain the
             whole batch first. *)
          Rrms_parallel.Fault.set ~worker:0 Rrms_parallel.Fault.Raise;
          let resp =
            match Server.handle_line store
                    (Printf.sprintf
                       "{\"id\":1,\"req\":\"query\",\"dataset\":%S,\"algo\":\"hd-rrms\",\"r\":4}"
                       l.Store.key)
            with
            | `Reply r -> r
            | `Shutdown _ -> Alcotest.fail "not a shutdown"
          in
          Alcotest.(check bool) "fault surfaces as internal error" true
            (Astring_contains.contains resp "\"code\":\"internal\"");
          Rrms_parallel.Fault.clear ();
          (* The store (and its pool) must be healthy afterwards. *)
          let _, cached = result_string store (query l.Store.key) in
          Alcotest.(check bool) "solves after the fault" false cached;
          let again, c2 = result_string store (query l.Store.key) in
          Alcotest.(check bool) "and caches" true c2;
          Alcotest.(check bool) "non-empty result" true
            (Astring_contains.contains again "\"selected\"")))

(* A session's load references die with the session. *)
let test_session_eof_releases_refs () =
  with_csv ~n:60 (fun csv ->
      let store = Store.create () in
      let to_session_r, to_session_w = Unix.pipe () in
      let from_session_r, from_session_w = Unix.pipe () in
      let outcome = ref `Eof in
      let th =
        Thread.create
          (fun () ->
            let ic = Unix.in_channel_of_descr to_session_r in
            let oc = Unix.out_channel_of_descr from_session_w in
            outcome := Server.run_session store ic oc;
            close_out_noerr oc)
          ()
      in
      let out = Unix.out_channel_of_descr to_session_w in
      let inp = Unix.in_channel_of_descr from_session_r in
      output_string out
        (Printf.sprintf "{\"req\":\"load\",\"path\":%S,\"name\":\"sess\"}\n" csv);
      flush out;
      let reply = input_line inp in
      Alcotest.(check bool) "load ok" true
        (Astring_contains.contains reply "\"ok\":true");
      (* While the session lives, the entry answers. *)
      (match Store.query store (query ~algo:Protocol.Cube ~r:4 "sess") with
      | Ok _ -> ()
      | _ -> Alcotest.fail "live session's dataset must answer");
      close_out out;
      Thread.join th;
      Alcotest.(check bool) "session saw EOF" true (!outcome = `Eof);
      (match Store.query store (query ~algo:Protocol.Cube ~r:4 "sess") with
      | Error `Unknown_dataset -> ()
      | _ -> Alcotest.fail "EOF must release the session's references");
      close_in_noerr inp;
      Unix.close to_session_r)

(* ------------------------------------------------------------------ *)
(* Request-scoped telemetry                                           *)
(* ------------------------------------------------------------------ *)

module Telemetry = Serve.Telemetry

let with_telemetry ?slow_ms f =
  let path = Filename.temp_file "rrms_access" ".jsonl" in
  let telemetry = Telemetry.create ~access_log:path ?slow_ms () in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.close telemetry;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f telemetry path)

let read_jsonl path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev_map
    (fun l ->
      match Json.parse l with
      | Ok j -> j
      | Error e -> Alcotest.fail (Printf.sprintf "bad log line %s: %s" l e))
    !lines
  |> List.rev

let log_type j =
  match Json.member "type" j with Some (Json.Str s) -> s | _ -> "?"

let str_member name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.fail (Printf.sprintf "missing string member %S" name)

(* Two sessions run concurrently against one store; the access log must
   attribute every line — and every span inside every slow-query line —
   to the session and request that produced it. *)
let test_request_scoped_attribution () =
  with_counters (fun () ->
      with_csv ~seed:23 (fun csv ->
          with_telemetry ~slow_ms:0. (fun telemetry path ->
              let store = Store.create ~max_inflight:8 () in
              let queries_per_session = 3 in
              let run_one tag =
                let to_r, to_w = Unix.pipe () in
                let from_r, from_w = Unix.pipe () in
                let th =
                  Thread.create
                    (fun () ->
                      let ic = Unix.in_channel_of_descr to_r in
                      let oc = Unix.out_channel_of_descr from_w in
                      ignore (Server.run_session ~telemetry store ic oc);
                      close_out_noerr oc)
                    ()
                in
                let out = Unix.out_channel_of_descr to_w in
                let inp = Unix.in_channel_of_descr from_r in
                output_string out
                  (Printf.sprintf
                     "{\"req\":\"load\",\"path\":%S,\"name\":%S}\n" csv tag);
                List.iter
                  (fun r ->
                    output_string out
                      (Printf.sprintf
                         "{\"req\":\"query\",\"dataset\":%S,\"algo\":\"hd-rrms\",\"r\":%d}\n"
                         tag r))
                  [ 3; 3; 4 ];
                flush out;
                (* Drain every reply, then EOF the session. *)
                for _ = 0 to queries_per_session do
                  ignore (input_line inp)
                done;
                close_out out;
                Thread.join th;
                close_in_noerr inp;
                Unix.close to_r
              in
              let threads =
                List.map
                  (fun tag -> Thread.create (fun () -> run_one tag) ())
                  [ "alpha"; "beta" ]
              in
              List.iter Thread.join threads;
              let lines = read_jsonl path in
              let access = List.filter (fun j -> log_type j = "access") lines in
              let slow = List.filter (fun j -> log_type j = "slow_query") lines in
              Alcotest.(check int) "one access line per query"
                (2 * queries_per_session)
                (List.length access);
              Alcotest.(check int) "slow_ms 0 captures every query"
                (2 * queries_per_session)
                (List.length slow);
              (* Session and request attribution. *)
              let sessions =
                List.sort_uniq compare
                  (List.map (fun j -> str_member "session_id" j) access)
              in
              Alcotest.(check int) "two distinct sessions" 2
                (List.length sessions);
              let request_ids = List.map (fun j -> str_member "request_id" j) access in
              Alcotest.(check int) "request ids globally unique"
                (List.length request_ids)
                (List.length (List.sort_uniq compare request_ids));
              List.iter
                (fun j ->
                  let sid = str_member "session_id" j in
                  let rid = str_member "request_id" j in
                  let prefix = sid ^ "-r" in
                  Alcotest.(check bool)
                    (Printf.sprintf "request %s belongs to session %s" rid sid)
                    true
                    (String.length rid > String.length prefix
                    && String.sub rid 0 (String.length prefix) = prefix))
                access;
              (* Every span inside a slow-query record is tagged with that
                 record's own request — concurrency must not cross wires. *)
              let tagged_spans = ref 0 in
              List.iter
                (fun j ->
                  let rid = str_member "request_id" j in
                  let sid = str_member "session_id" j in
                  match Json.member "spans" j with
                  | Some (Json.Arr spans) ->
                      List.iter
                        (fun sp ->
                          incr tagged_spans;
                          match Json.member "attrs" sp with
                          | Some attrs ->
                              Alcotest.(check string)
                                "span tagged with its own request" rid
                                (str_member "request_id" attrs);
                              Alcotest.(check string)
                                "span tagged with its own session" sid
                                (str_member "session_id" attrs)
                          | None -> Alcotest.fail "span without attrs")
                        spans
                  | _ -> Alcotest.fail "slow_query without spans")
                slow;
              Alcotest.(check bool) "cold queries produced spans" true
                (!tagged_spans > 0))))

(* The stats response's latency section must reconcile with the access
   log and with the store's own cache counters. *)
let test_stats_reconciles () =
  with_counters (fun () ->
      with_csv ~seed:29 (fun csv ->
          with_telemetry (fun telemetry path ->
              let store = Store.create () in
              let send line =
                match Server.handle_line ~telemetry store line with
                | `Reply r -> r
                | `Shutdown _ -> Alcotest.fail "unexpected shutdown"
              in
              ignore
                (send
                   (Printf.sprintf
                      "{\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv));
              let q gamma =
                Printf.sprintf
                  "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":4,\"gamma\":%d}"
                  gamma
              in
              ignore (send (q 4)) (* miss *);
              ignore (send (q 4)) (* hit *);
              ignore (send (q 2)) (* derived from the gamma=4 matrix *);
              let reply = send "{\"id\":9,\"req\":\"stats\"}" in
              let stats =
                match Json.parse reply with
                | Ok j -> j
                | Error e -> Alcotest.fail ("stats unparseable: " ^ e)
              in
              let result =
                match Json.member "result" stats with
                | Some r -> r
                | None -> Alcotest.fail "stats without result"
              in
              let latency =
                match Json.member "latency" result with
                | Some l -> l
                | None -> Alcotest.fail "stats without latency"
              in
              let hists =
                match Json.member "histograms" latency with
                | Some (Json.Arr hs) -> hs
                | _ -> Alcotest.fail "latency without histograms"
              in
              let count_of h =
                match Json.member "count" h with
                | Some (Json.Num n) -> int_of_float n
                | _ -> Alcotest.fail "histogram without count"
              in
              let total = List.fold_left (fun a h -> a + count_of h) 0 hists in
              Alcotest.(check int) "histogram counts cover every query" 3 total;
              let by_cache c =
                List.filter (fun h -> str_member "cache" h = c) hists
              in
              List.iter
                (fun c ->
                  match by_cache c with
                  | [ h ] ->
                      Alcotest.(check int) (c ^ " counted once") 1 (count_of h);
                      Alcotest.(check string) (c ^ " algo") "hd-rrms"
                        (str_member "algo" h);
                      Alcotest.(check string) (c ^ " status") "ok"
                        (str_member "status" h);
                      List.iter
                        (fun f ->
                          match Json.member f h with
                          | Some (Json.Num v) ->
                              Alcotest.(check bool) (c ^ " " ^ f ^ " finite")
                                true
                                (Float.is_finite v && v >= 0.)
                          | _ -> Alcotest.fail ("histogram missing " ^ f))
                        [ "p50_ms"; "p95_ms"; "p99_ms"; "max_ms"; "sum_ms" ]
                  | hs ->
                      Alcotest.fail
                        (Printf.sprintf "%d histograms for cache=%s"
                           (List.length hs) c))
                [ "hit"; "derived"; "miss" ];
              (* Quantile ordering within each key. *)
              List.iter
                (fun h ->
                  let f name =
                    match Json.member name h with
                    | Some (Json.Num v) -> v
                    | _ -> 0.
                  in
                  Alcotest.(check bool) "p50 <= p95 <= p99 <= max" true
                    (f "p50_ms" <= f "p95_ms"
                    && f "p95_ms" <= f "p99_ms"
                    && f "p99_ms" <= f "max_ms"))
                hists;
              (match Json.member "access_log_lines" latency with
              | Some (Json.Num n) ->
                  Alcotest.(check int) "access_log_lines matches queries" 3
                    (int_of_float n)
              | _ -> Alcotest.fail "latency without access_log_lines");
              (match Json.member "access_log" latency with
              | Some (Json.Str p) ->
                  Alcotest.(check string) "access_log path reported" path p
              | _ -> Alcotest.fail "latency without access_log path");
              (* The file agrees with the counters it reports. *)
              let access =
                List.filter
                  (fun j -> log_type j = "access")
                  (read_jsonl path)
              in
              Alcotest.(check int) "file has the three access lines" 3
                (List.length access);
              let hits =
                List.length
                  (List.filter (fun j -> str_member "cache" j = "hit") access)
              in
              Alcotest.(check int) "one hit in the log" 1 hits;
              Alcotest.(check int)
                "store's hit counter agrees with the histogram" hits
                (counter Serve.Store.Metrics.result_hits))))

(* Telemetry (contexts, histograms, access logging) must not perturb
   the answer: bit-identical results with it on and off, at every
   domain count. *)
let test_bit_identical_with_telemetry () =
  with_csv ~seed:31 (fun csv ->
      let answer ~domains ~telemetry_on =
        let store = Store.create ~domains () in
        let l = Store.load store csv in
        let line =
          Printf.sprintf
            "{\"req\":\"query\",\"dataset\":%S,\"algo\":\"hd-rrms\",\"r\":4}"
            l.Store.key
        in
        let reply =
          if telemetry_on then
            with_counters (fun () ->
                with_telemetry ~slow_ms:0. (fun telemetry _ ->
                    match Server.handle_line ~telemetry store line with
                    | `Reply r -> r
                    | `Shutdown _ -> Alcotest.fail "unexpected shutdown"))
          else
            match Server.handle_line store line with
            | `Reply r -> r
            | `Shutdown _ -> Alcotest.fail "unexpected shutdown"
        in
        match Json.parse reply with
        | Ok j -> (
            match Json.member "result" j with
            | Some r -> Json.to_string r
            | None -> Alcotest.fail ("no result in " ^ reply))
        | Error e -> Alcotest.fail ("unparseable reply: " ^ e)
      in
      List.iter
        (fun domains ->
          Alcotest.(check string)
            (Printf.sprintf "bit-identical at %d domains" domains)
            (answer ~domains ~telemetry_on:false)
            (answer ~domains ~telemetry_on:true))
        [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* The binary, over --stdio                                           *)
(* ------------------------------------------------------------------ *)

let serve_exe = Built.serve_exe

let run_stdio_session ?(env = "") requests =
  let ic, oc =
    Unix.open_process (Printf.sprintf "%s%s --stdio 2>/dev/null" env serve_exe)
  in
  List.iter
    (fun r ->
      output_string oc r;
      output_char oc '\n')
    requests;
  flush oc;
  close_out oc;
  let lines = ref [] in
  (try
     while true do
       match In_channel.input_line ic with
       | Some l -> lines := l :: !lines
       | None -> raise Exit
     done
   with Exit -> ());
  let status = Unix.close_process (ic, oc) in
  (status, List.rev !lines)

let member_string name line =
  match Json.parse line with
  | Ok j -> Option.map Json.to_string (Json.member name j)
  | Error e -> Alcotest.fail (Printf.sprintf "unparseable response %s: %s" line e)

let test_stdio_end_to_end () =
  with_csv ~n:150 ~m:3 ~seed:21 (fun csv ->
      let status, lines =
        run_stdio_session
          [
            Printf.sprintf "{\"id\":1,\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv;
            "{\"id\":2,\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3}";
            "{\"id\":3,\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3}";
            "this is not json";
            "{\"id\":4,\"req\":\"transmogrify\"}";
            "{\"id\":5,\"req\":\"query\",\"dataset\":\"ghost\",\"algo\":\"cube\",\"r\":4}";
            "{\"id\":6,\"req\":\"stats\"}";
            "{\"id\":7,\"req\":\"evict\",\"dataset\":\"d\"}";
            "{\"id\":8,\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"cube\",\"r\":4}";
            "{\"id\":9,\"req\":\"shutdown\"}";
          ]
      in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c ->
          Alcotest.fail (Printf.sprintf "rrms-serve exited %d" c)
      | _ -> Alcotest.fail "rrms-serve killed");
      Alcotest.(check int) "one response per request" 10 (List.length lines);
      let line i = List.nth lines i in
      Alcotest.(check bool) "load ok" true
        (Astring_contains.contains (line 0) "\"already_loaded\":false");
      (* Cold vs warm: identical result member, cached flag flips. *)
      let r2 = member_string "result" (line 1) in
      let r3 = member_string "result" (line 2) in
      Alcotest.(check bool) "cold uncached" true
        (Astring_contains.contains (line 1) "\"cached\":false");
      Alcotest.(check bool) "warm cached" true
        (Astring_contains.contains (line 2) "\"cached\":true");
      (match (r2, r3) with
      | Some a, Some b ->
          Alcotest.(check string) "warm result bit-identical" a b
      | _ -> Alcotest.fail "missing result member");
      Alcotest.(check bool) "parse error" true
        (Astring_contains.contains (line 3) "\"code\":\"parse\"");
      Alcotest.(check bool) "unknown request" true
        (Astring_contains.contains (line 4) "\"code\":\"bad_request\"");
      Alcotest.(check bool) "unknown dataset" true
        (Astring_contains.contains (line 5) "\"code\":\"unknown_dataset\"");
      Alcotest.(check bool) "stats sees the dataset" true
        (Astring_contains.contains (line 6) "\"name\":\"d\"");
      Alcotest.(check bool) "stats counts the hit" true
        (Astring_contains.contains (line 6) "\"rrms_serve_result_hits_total\":1");
      Alcotest.(check bool) "evict frees" true
        (Astring_contains.contains (line 7) "\"freed\":true");
      Alcotest.(check bool) "query after evict fails" true
        (Astring_contains.contains (line 8) "\"code\":\"unknown_dataset\"");
      Alcotest.(check bool) "shutdown acknowledged" true
        (Astring_contains.contains (line 9) "\"stopping\":true"))

(* The parser's nesting cap: depth [max_depth] parses, one more is a
   [parse] error — never a stack overflow. *)
let test_json_depth_cap () =
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Json.parse (nested Json.max_depth) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("depth = cap rejected: " ^ e));
  (match Json.parse (nested (Json.max_depth + 1)) with
  | Ok _ -> Alcotest.fail "depth = cap + 1 accepted"
  | Error _ -> ());
  match (Protocol.parse_request (nested (Json.max_depth + 1))).Protocol.req with
  | Error (code, _) -> Alcotest.(check string) "wire code" "parse" code
  | Ok _ -> Alcotest.fail "over-deep request parsed"

(* One hostile line of 300 000 '[' under a 1M-word stack must answer
   [parse] and leave the session serving: the next line's ping is
   answered. *)
let test_stdio_deep_nesting () =
  let status, lines =
    run_stdio_session ~env:"OCAMLRUNPARAM=l=1M "
      [ String.make 300_000 '['; "{\"id\":2,\"req\":\"ping\"}" ]
  in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "rrms-serve exited %d" c
  | _ -> Alcotest.fail "rrms-serve killed");
  Alcotest.(check int) "one response per request" 2 (List.length lines);
  Alcotest.(check bool) "deep line answers parse" true
    (Astring_contains.contains (List.nth lines 0) "\"code\":\"parse\"");
  Alcotest.(check bool) "next line answered" true
    (Astring_contains.contains (List.nth lines 1) "\"pong\":true")

(* The cache-key format has one owner: [Protocol.algo_of_cache_key]
   reads back the algorithm [Protocol.cache_key] printed. *)
let test_cache_key_algo_roundtrip () =
  List.iter
    (fun algo ->
      let name = Protocol.algo_to_string algo in
      List.iter
        (fun (r, gamma) ->
          let key = Protocol.cache_key (query ~algo ~r ~gamma "d") in
          Alcotest.(check bool)
            (Printf.sprintf "%s inverts (%s)" name key)
            true
            (Protocol.algo_of_cache_key key = Some algo))
        [ (1, 1); (5, 8); (12, 3) ])
    Protocol.[ A2d; A2d_exact; Sweepline; Hd_rrms; Hd_greedy; Greedy; Cube ];
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "malformed %S" key)
        true
        (Protocol.algo_of_cache_key key = None))
    [
      "";
      "algo=";
      "algo=;r=3";
      "algo=cube";
      "algo=frob;r=3";
      "algos=cube;r=3";
      "r=3;algo=cube";
      "ALGO=cube;r=3";
      "algo=hd-rrms r=3;gamma=4";
    ]

(* The [probe_state] explain member names whether an HD-RRMS solve ran
   on its matrix's pooled probe state: a first solve builds one, a
   repeat reuses it, a sequence-preserving mutation keeps it with the
   matrix, and a replaced or derived matrix starts without one.  Every
   answer equals a cold store's over the same rows. *)
let test_probe_state_explain () =
  with_csv ~n:300 ~m:3 ~seed:23 (fun csv ->
      let store = Store.create () in
      ignore (Store.load store ~name:"probe" csv);
      let solve ?(gamma = 4) ~cache () =
        let q = { (query ~r:4 ~gamma ~cache "probe") with explain = true } in
        match Store.query store q with
        | Ok { Store.result; cost; cached; _ } ->
            Alcotest.(check bool) "solved, not a cache hit" false cached;
            ( Json.to_string result,
              match List.assoc_opt "probe_state" cost with
              | Some (Json.Str s) -> Some s
              | _ -> None )
        | Error _ -> Alcotest.fail "query refused"
      in
      let cold_answer ~gamma =
        let h = Option.get (Store.pin store "probe") in
        let d = Store.pinned_dataset h in
        Store.unpin store h;
        let cold = Store.create () in
        let c = Store.add cold d in
        fst (result_string cold (query ~r:4 ~gamma c.Store.key))
      in
      let expect step ?(gamma = 4) ~cache state =
        let answer, probe_state = solve ~gamma ~cache () in
        Alcotest.(check (option string))
          (step ^ ": probe_state") (Some state) probe_state;
        Alcotest.(check string)
          (step ^ ": answer = cold store")
          (cold_answer ~gamma) answer
      in
      let mutate step ops =
        match Store.mutate store ~dataset:"probe" ops with
        | Ok _ -> ()
        | Error _ -> Alcotest.failf "%s: mutation refused" step
      in
      expect "cold" ~cache:true "fresh";
      expect "repeat, cache bypassed" ~cache:false "pooled";
      mutate "dominated row"
        [ Rrms_core.Delta.Insert [| 0.001; 0.001; 0.001 |] ];
      expect "after a dominated row" ~cache:false "pooled";
      mutate "skyline row" [ Rrms_core.Delta.Insert [| 2.; 0.; 0. |] ];
      expect "after a skyline row" ~cache:false "fresh";
      expect "derived gamma" ~gamma:2 ~cache:false "fresh")

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "protocol parse" `Quick test_protocol_parse;
    Alcotest.test_case "store cache and artifacts" `Quick
      test_store_cache_and_artifacts;
    Alcotest.test_case "warm equals cold for every algo" `Quick
      test_warm_equals_cold_every_algo;
    Alcotest.test_case "domain counts agree" `Quick
      test_store_domain_counts_agree;
    Alcotest.test_case "explain reports kernel work" `Quick
      test_explain_kernel_work;
    Alcotest.test_case "degraded never cached" `Quick
      test_degraded_never_cached;
    Alcotest.test_case "concurrent sessions share artifacts" `Quick
      test_concurrent_sessions_share_artifacts;
    Alcotest.test_case "admission overload" `Quick test_admission_overload;
    Alcotest.test_case "fault injection recovery" `Quick
      test_fault_injection_recovery;
    Alcotest.test_case "session EOF releases refs" `Quick
      test_session_eof_releases_refs;
    Alcotest.test_case "request-scoped attribution" `Quick
      test_request_scoped_attribution;
    Alcotest.test_case "stats reconciles with access log" `Quick
      test_stats_reconciles;
    Alcotest.test_case "bit-identical with telemetry on/off" `Quick
      test_bit_identical_with_telemetry;
    Alcotest.test_case "stdio end to end" `Quick test_stdio_end_to_end;
    Alcotest.test_case "json nesting depth cap" `Quick test_json_depth_cap;
    Alcotest.test_case "stdio survives deep nesting" `Quick
      test_stdio_deep_nesting;
    Alcotest.test_case "cache key names its algo" `Quick
      test_cache_key_algo_roundtrip;
    Alcotest.test_case "probe_state across reuse paths" `Quick
      test_probe_state_explain;
  ]
