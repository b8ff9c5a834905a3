(* The durability layer: blob atomicity and checksums, the corrupt-blob
   corpus, crash-mid-write recovery, deadline propagation through the
   admission queue, graceful drain, and stale-socket takeover.

   The load-bearing contract, asserted bitwise at several domain
   counts: an answer rehydrated from a --state-dir left by a previous
   process is byte-identical to the cold solve that produced it, and
   recomputes nothing.  Torn, truncated, version-skewed or bit-flipped
   blobs are never rehydrated — they are discarded and counted. *)

module Serve = Rrms_serve
module Json = Serve.Json
module Protocol = Serve.Protocol
module Store = Serve.Store
module Server = Serve.Server
module Persist = Serve.Persist
module Obs = Rrms_obs.Obs
module Dataset = Rrms_dataset.Dataset
module Guard = Rrms_guard.Guard

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

let counter = Obs.Counter.value

let temp_csv ?(n = 200) ?(m = 3) ?(seed = 11) () =
  let rng = Rrms_rng.Rng.create seed in
  let rows =
    Array.init n (fun _ -> Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.))
  in
  let attributes = Array.init m (fun j -> Printf.sprintf "a%d" j) in
  let d = Dataset.create ~name:"persist_test" ~attributes rows in
  let path = Filename.temp_file "rrms_persist_test" ".csv" in
  Dataset.to_csv d path;
  path

let with_csv ?n ?m ?seed f =
  let path = temp_csv ?n ?m ?seed () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let dir_seq = ref 0

let with_state_dir f =
  incr dir_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rrms_persist_%d_%d" (Unix.getpid ()) !dir_seq)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

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

(* ------------------------------------------------------------------ *)
(* Blob roundtrips                                                    *)
(* ------------------------------------------------------------------ *)

let test_blob_roundtrip () =
  with_state_dir (fun dir ->
      let p = Persist.open_dir dir in
      let key = "00deadbeef00cafe" in
      (* Skyline. *)
      let sky = [| 0; 7; 42; 1_000_000 |] in
      Persist.save_skyline p ~key sky;
      (match Persist.load_skyline p ~key with
      | Some got -> Alcotest.(check (array int)) "skyline" sky got
      | None -> Alcotest.fail "skyline did not roundtrip");
      (* Dataset. *)
      let rng = Rrms_rng.Rng.create 3 in
      let rows =
        Array.init 20 (fun _ ->
            Array.init 3 (fun _ -> Rrms_rng.Rng.float rng 1.))
      in
      let d =
        Dataset.create ~name:"rt" ~attributes:[| "x"; "y"; "z" |] rows
      in
      Persist.save_dataset p ~key d;
      (match Persist.load_dataset p ~key with
      | Some got ->
          Alcotest.(check string) "dataset name" "rt" (Dataset.name got);
          Alcotest.(check int) "dataset n" 20 (Dataset.size got);
          for i = 0 to 19 do
            for j = 0 to 2 do
              Alcotest.(check bool) "dataset cell bits" true
                (Int64.equal
                   (Int64.bits_of_float (Dataset.value got i j))
                   (Int64.bits_of_float (Dataset.value d i j)))
            done
          done
      | None -> Alcotest.fail "dataset did not roundtrip");
      (* Result, including the embedded cache-key guard. *)
      let r = Json.Obj [ ("algo", Json.Str "cube"); ("size", Json.int 3) ] in
      Persist.save_result p ~key ~cache_key:"algo=cube;r=3" r;
      (match Persist.load_result p ~key ~cache_key:"algo=cube;r=3" with
      | Some got ->
          Alcotest.(check string) "result" (Json.to_string r)
            (Json.to_string got)
      | None -> Alcotest.fail "result did not roundtrip");
      Alcotest.(check bool) "different cache key misses" true
        (Persist.load_result p ~key ~cache_key:"algo=cube;r=4" = None))

(* ------------------------------------------------------------------ *)
(* Corrupt-blob corpus                                                *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Every way a disk can lie: each corruption must be skipped AND
   counted, never decoded, and must not shadow the valid blobs. *)
let test_corrupt_blob_corpus () =
  with_counters (fun () ->
      with_state_dir (fun dir ->
          let p = Persist.open_dir dir in
          let keep = "1111111111111111" in
          Persist.save_skyline p ~key:keep [| 1; 2; 3 |];
          let blob key = Filename.concat dir ("skyline-" ^ key ^ ".blob") in
          let seed key =
            Persist.save_skyline p ~key [| 4; 5; 6 |];
            blob key
          in
          (* 1. Truncated: half the file is gone. *)
          let t = seed "2222222222222222" in
          let body = read_file t in
          write_file t (String.sub body 0 (String.length body / 2));
          (* 2. Bad checksum: one payload bit flipped. *)
          let t = seed "3333333333333333" in
          let body = read_file t in
          let b = Bytes.of_string body in
          Bytes.set b (String.length body - 1)
            (Char.chr (Char.code (Bytes.get b (String.length body - 1)) lxor 1));
          write_file t (Bytes.to_string b);
          (* 3. Wrong format version. *)
          let t = seed "4444444444444444" in
          let body = read_file t in
          let b = Bytes.of_string body in
          Bytes.set b 4 '\xee';
          write_file t (Bytes.to_string b);
          (* 4. Wrong magic (not our file at all). *)
          let t = seed "5555555555555555" in
          let body = read_file t in
          write_file t ("XXXX" ^ String.sub body 4 (String.length body - 4));
          (* 5. Partial rename: a leftover temp file. *)
          write_file
            (Filename.concat dir "skyline-6666666666666666.blob.tmp-1-0")
            "half a blob";
          (* 6. Shorter than the header. *)
          write_file (blob "7777777777777777") "RRMB";
          (* 7. Well-formed but of kind 4, the retired regret-matrix
             kind: header and checksum hold, the kind is unknown. *)
          let retire_kind path =
            let b = Bytes.of_string (read_file path) in
            Bytes.set b 5 '\x04';
            write_file path (Bytes.to_string b)
          in
          retire_kind (seed "aaaaaaaaaaaaaaaa");
          (* Load-time detection: each corrupt blob is a miss, unlinked
             and counted; the valid one still reads. *)
          let c0 = counter Persist.Metrics.corrupt in
          List.iter
            (fun key ->
              Alcotest.(check bool)
                (Printf.sprintf "corrupt %s not rehydrated" key)
                true
                (Persist.load_skyline p ~key = None))
            [
              "2222222222222222"; "3333333333333333"; "4444444444444444";
              "5555555555555555"; "7777777777777777"; "aaaaaaaaaaaaaaaa";
            ];
          Alcotest.(check int) "each counted once" 6
            (counter Persist.Metrics.corrupt - c0);
          List.iter
            (fun key ->
              Alcotest.(check bool)
                (Printf.sprintf "corrupt %s unlinked" key)
                false
                (Sys.file_exists (blob key)))
            [
              "2222222222222222"; "3333333333333333"; "4444444444444444";
              "aaaaaaaaaaaaaaaa";
            ];
          (match Persist.load_skyline p ~key:keep with
          | Some got -> Alcotest.(check (array int)) "survivor" [| 1; 2; 3 |] got
          | None -> Alcotest.fail "valid blob must survive the corpus");
          (* Startup-scan detection: recreate the corpus and open the
             directory fresh — the scan discards and tallies without
             decoding. *)
          let t = seed "8888888888888888" in
          let body = read_file t in
          write_file t (String.sub body 0 (String.length body - 3));
          write_file
            (Filename.concat dir "skyline-9999999999999999.blob.tmp-2-0")
            "torn";
          (* A regret-matrix blob as an older build wrote it. *)
          let old_matrix =
            Filename.concat dir "matrix-bbbbbbbbbbbbbbbb-g4.blob"
          in
          Sys.rename (seed "bbbbbbbbbbbbbbbb") old_matrix;
          retire_kind old_matrix;
          let c1 = counter Persist.Metrics.corrupt in
          let p2 = Persist.open_dir dir in
          let s = Persist.last_scan p2 in
          Alcotest.(check int) "scan keeps the valid blob" 1 s.Persist.valid;
          Alcotest.(check int) "scan discards the torn and kind-4 blobs" 2
            s.Persist.corrupt;
          Alcotest.(check int) "scan counts both" 2
            (counter Persist.Metrics.corrupt - c1);
          Alcotest.(check bool) "kind-4 blob gone from disk" false
            (Sys.file_exists old_matrix);
          (* Two leftovers: the fabricated one from case 5 above and the
             fresh one planted just before this reopen. *)
          Alcotest.(check int) "scan sweeps temp litter" 2 s.Persist.partial;
          Alcotest.(check bool) "torn blob gone from disk" false
            (Sys.file_exists t)))

(* The torn_write fault: the blob lands under its final name with a
   full-length header over a truncated payload — exactly what a lying
   disk produces — and the next load must refuse it. *)
let test_torn_write_fault () =
  with_counters (fun () ->
      with_state_dir (fun dir ->
          Fun.protect
            ~finally:(fun () ->
              Serve.Persist.Fault.clear ();
              Serve.Persist.Fault.configure_from_env ())
            (fun () ->
              let p = Persist.open_dir dir in
              Serve.Persist.Fault.set (Serve.Persist.Fault.Torn None);
              Persist.save_skyline p ~key:"aaaaaaaaaaaaaaaa" [| 9; 8; 7 |];
              Serve.Persist.Fault.clear ();
              let c0 = counter Persist.Metrics.corrupt in
              Alcotest.(check bool) "torn blob refused" true
                (Persist.load_skyline p ~key:"aaaaaaaaaaaaaaaa" = None);
              Alcotest.(check int) "and counted" 1
                (counter Persist.Metrics.corrupt - c0);
              (* The write path is healthy again afterwards. *)
              Persist.save_skyline p ~key:"aaaaaaaaaaaaaaaa" [| 9; 8; 7 |];
              match Persist.load_skyline p ~key:"aaaaaaaaaaaaaaaa" with
              | Some got ->
                  Alcotest.(check (array int)) "clean rewrite" [| 9; 8; 7 |] got
              | None -> Alcotest.fail "rewrite after torn fault failed")))

(* ------------------------------------------------------------------ *)
(* Restart recovery                                                   *)
(* ------------------------------------------------------------------ *)

(* A store over a directory another store populated answers warm —
   bit-identically — and recomputes nothing, at every domain count.
   This is the whole point of the tentpole. *)
let test_restart_warm_bit_identical () =
  with_csv ~n:250 ~m:3 ~seed:29 (fun csv ->
      with_state_dir (fun dir ->
          let cold =
            with_counters (fun () ->
                let store =
                  Store.create ~domains:1 ~persist:(Persist.open_dir dir) ()
                in
                let l = Store.load store csv in
                let r, cached = result_string store (query l.Store.key) in
                Alcotest.(check bool) "cold solve uncached" false cached;
                r)
          in
          List.iter
            (fun domains ->
              with_counters (fun () ->
                  (* A fresh store: empty memory, same directory — the
                     moral equivalent of a restarted process. *)
                  let store =
                    Store.create ~domains ~persist:(Persist.open_dir dir) ()
                  in
                  let w0 = counter Persist.Metrics.writes in
                  let l = Store.load store csv in
                  Alcotest.(check int)
                    (Printf.sprintf "reload writes no blob at %d domains"
                       domains)
                    0
                    (counter Persist.Metrics.writes - w0);
                  let warm, cached = result_string store (query l.Store.key) in
                  Alcotest.(check bool)
                    (Printf.sprintf "rehydrated hit at %d domains" domains)
                    true cached;
                  Alcotest.(check string)
                    (Printf.sprintf "bit-identical at %d domains" domains)
                    cold warm;
                  Alcotest.(check int) "no skyline recompute" 0
                    (counter Store.Metrics.skyline_misses);
                  Alcotest.(check int) "no matrix rebuild" 0
                    (counter Store.Metrics.matrix_misses);
                  Alcotest.(check int) "no grid rebuild" 0
                    (counter Store.Metrics.grid_misses);
                  (* And with the result blob gone, the rehydrated
                     skyline alone (the matrix is rebuilt from it) must
                     still reproduce the same bytes. *)
                  Array.iter
                    (fun f ->
                      if
                        String.length f >= 7 && String.sub f 0 7 = "result-"
                      then Sys.remove (Filename.concat dir f))
                    (Sys.readdir dir);
                  let store2 =
                    Store.create ~domains ~persist:(Persist.open_dir dir) ()
                  in
                  let l2 = Store.load store2 csv in
                  let resolved, c2 = result_string store2 (query l2.Store.key) in
                  Alcotest.(check bool) "solves without the result blob" false
                    c2;
                  Alcotest.(check string)
                    (Printf.sprintf
                       "artifact-rehydrated solve bit-identical at %d domains"
                       domains)
                    cold resolved))
            [ 1; 2; 4 ]))

(* crash@N: the process dies mid-write (SIGKILL semantics, temp litter
   on disk); a restart over the same directory scans clean, loads no
   corrupt blob, and still answers correctly. *)
let serve_exe = "../bin/rrms_serve_bin.exe"

let run_stdio ?(env = "") ?(args = "") requests =
  let ic, oc =
    Unix.open_process
      (Printf.sprintf "%s %s --stdio %s 2>/dev/null" env serve_exe args)
  in
  List.iter
    (fun r ->
      output_string oc r;
      output_char oc '\n')
    requests;
  flush oc;
  (try close_out oc with Sys_error _ -> ());
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

(* Response lines carry a wall-clock [elapsed_ms] member; splice it out
   so comparisons see only the deterministic payload. *)
let strip_elapsed line =
  match String.index_opt line 'e' with
  | None -> line
  | Some _ -> (
      let marker = "\"elapsed_ms\":" in
      let mlen = String.length marker in
      let rec find i =
        if i + mlen > String.length line then None
        else if String.sub line i mlen = marker then Some i
        else find (i + 1)
      in
      match find 0 with
      | None -> line
      | Some start ->
          let stop = String.index_from line (start + mlen) ',' in
          String.sub line 0 start
          ^ String.sub line (stop + 1) (String.length line - stop - 1))

let test_crash_mid_write_recovery () =
  with_csv ~n:150 ~m:3 ~seed:31 (fun csv ->
      with_state_dir (fun dir ->
          let load_line =
            Printf.sprintf "{\"id\":1,\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv
          in
          let query_line =
            "{\"id\":2,\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":4,\"gamma\":4}"
          in
          (* Reference answer from an unfaulted cold process. *)
          let _, ref_lines =
            run_stdio
              ~args:(Printf.sprintf "--state-dir %s" (Filename.quote dir))
              [ load_line; query_line ]
          in
          let ref_result =
            match List.nth_opt ref_lines 1 with
            | Some l -> l
            | None -> Alcotest.fail "reference session gave no answer"
          in
          rm_rf dir;
          (* The doomed process: killed by the injector on its 3rd blob
             write — mid-artifact-spill, after fsyncing half a temp
             file. *)
          let status, _ =
            run_stdio
              ~env:"RRMS_SERVE_FAULT=crash@3"
              ~args:(Printf.sprintf "--state-dir %s" (Filename.quote dir))
              [ load_line; query_line ]
          in
          (match status with
          | Unix.WEXITED 137 -> ()
          | Unix.WEXITED c ->
              Alcotest.fail
                (Printf.sprintf "crash@3 process exited %d, wanted 137" c)
          | _ -> Alcotest.fail "crash@3 process not an exit");
          Alcotest.(check bool) "crash left temp litter" true
            (Array.exists
               (fun f ->
                 Astring_contains.contains f ".tmp-"
                 || Filename.check_suffix f ".blob")
               (Sys.readdir dir));
          (* Restart over the crashed directory: the scan sweeps the
             litter, loads nothing corrupt, and the answer matches the
             unfaulted reference byte for byte. *)
          let status2, lines2 =
            run_stdio
              ~args:(Printf.sprintf "--state-dir %s" (Filename.quote dir))
              [ load_line; query_line; "{\"id\":3,\"req\":\"stats\"}" ]
          in
          (match status2 with
          | Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "restarted process did not exit cleanly");
          (match List.nth_opt lines2 1 with
          | Some l ->
              Alcotest.(check string) "answer identical after crash recovery"
                (strip_elapsed ref_result) (strip_elapsed l)
          | None -> Alcotest.fail "restarted session gave no answer");
          match List.nth_opt lines2 2 with
          | Some stats ->
              Alcotest.(check bool) "no corrupt blob loaded" true
                (Astring_contains.contains stats "\"scan_corrupt\":0");
              Alcotest.(check bool) "litter swept or absent" true
                (Astring_contains.contains stats "\"scan_partial\":1"
                || Astring_contains.contains stats "\"scan_partial\":0")
          | None -> Alcotest.fail "no stats line"))

(* ------------------------------------------------------------------ *)
(* Deadline propagation                                               *)
(* ------------------------------------------------------------------ *)

(* The protocol timeout is an end-to-end deadline: a request that
   spends it all waiting for an admission slot is refused with
   deadline_exceeded — distinct from the solver's own timeout — before
   any solver work runs. *)
let test_deadline_covers_queue_wait () =
  with_counters (fun () ->
      with_csv ~n:80 (fun csv ->
          let store = Store.create ~max_inflight:1 ~max_queue:4 () in
          let l = Store.load store csv in
          (* Prime the artifacts so the deadline run isn't paying
             build costs. *)
          ignore (result_string store (query ~cache:false l.Store.key));
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
          (* Release the slot only after the queued request's 20 ms
             budget is long gone. *)
          let releaser =
            Thread.create
              (fun () ->
                Thread.delay 0.15;
                Mutex.lock gate;
                state := `Release;
                Condition.broadcast cv;
                Mutex.unlock gate)
              ()
          in
          (match
             Store.query store (query ~cache:false ~timeout:0.02 l.Store.key)
           with
          | Error `Deadline_exceeded -> ()
          | Ok _ -> Alcotest.fail "queued past its deadline yet solved"
          | Error _ -> Alcotest.fail "wrong refusal for an expired deadline");
          Alcotest.(check bool) "counted" true
            (counter Store.Metrics.deadline_exceeded >= 1);
          Thread.join releaser;
          Thread.join holder;
          (* Uncontended, the same budget is ample. *)
          let _, cached =
            result_string store (query ~cache:false ~timeout:5. l.Store.key)
          in
          Alcotest.(check bool) "same query fine uncontended" false cached;
          (* And the error code reaches the wire as deadline_exceeded. *)
          let holder2 =
            Thread.create
              (fun () ->
                ignore
                  (Store.with_admission store (fun () -> Thread.delay 0.15)))
              ()
          in
          Thread.delay 0.02;
          let resp =
            match
              Server.handle_line store
                (Printf.sprintf
                   "{\"id\":1,\"req\":\"query\",\"dataset\":%S,\"algo\":\"hd-rrms\",\"r\":4,\"cache\":false,\"timeout\":0.01}"
                   l.Store.key)
            with
            | `Reply r -> r
            | `Shutdown _ -> Alcotest.fail "not a shutdown"
          in
          Alcotest.(check bool) "deadline_exceeded on the wire" true
            (Astring_contains.contains resp "\"code\":\"deadline_exceeded\"");
          Thread.join holder2))

(* ------------------------------------------------------------------ *)
(* Drain                                                              *)
(* ------------------------------------------------------------------ *)

let test_drain_refuses_new_solves () =
  with_counters (fun () ->
      with_csv ~n:80 (fun csv ->
          let store = Store.create () in
          let l = Store.load store csv in
          let cold, _ = result_string store (query l.Store.key) in
          Store.set_draining store;
          (* Cached answers still flow... *)
          let warm, cached = result_string store (query l.Store.key) in
          Alcotest.(check bool) "cache hits during drain" true cached;
          Alcotest.(check string) "and stay identical" cold warm;
          (* ...but new solves are refused with the draining code. *)
          (match Store.query store (query ~r:5 l.Store.key) with
          | Error `Draining -> ()
          | _ -> Alcotest.fail "draining store accepted a new solve");
          let resp =
            match
              Server.handle_line store
                (Printf.sprintf
                   "{\"id\":1,\"req\":\"query\",\"dataset\":%S,\"algo\":\"cube\",\"r\":3}"
                   l.Store.key)
            with
            | `Reply r -> r
            | `Shutdown _ -> Alcotest.fail "not a shutdown"
          in
          Alcotest.(check bool) "draining on the wire" true
            (Astring_contains.contains resp "\"code\":\"draining\"")))

(* Full socket drain: live sessions are EOFed after in-flight work
   settles, their references released, and the socket file removed. *)
let test_socket_drain_graceful () =
  with_csv ~n:80 (fun csv ->
      let sock =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "rrms_drain_%d.sock" (Unix.getpid ()))
      in
      if Sys.file_exists sock then Sys.remove sock;
      let store = Store.create () in
      let srv = Server.start store ~socket:sock in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists sock then Sys.remove sock)
        (fun () ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          output_string oc
            (Printf.sprintf "{\"id\":1,\"req\":\"load\",\"path\":%S,\"name\":\"d\"}\n"
               csv);
          flush oc;
          ignore (input_line ic);
          Server.drain ~grace:2. srv store;
          (* The drained server EOFs the session; its read side sees
             the connection close. *)
          (match input_line ic with
          | exception End_of_file -> ()
          | _line -> Alcotest.fail "session outlived the drain");
          Server.wait srv;
          Alcotest.(check bool) "socket file removed" false
            (Sys.file_exists sock);
          Alcotest.(check bool) "store is draining" true (Store.draining store);
          (try Unix.close fd with Unix.Unix_error _ -> ())))

(* ------------------------------------------------------------------ *)
(* Stale socket takeover                                              *)
(* ------------------------------------------------------------------ *)

let test_stale_socket_takeover () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rrms_stale_%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists sock then Sys.remove sock;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      (* Fabricate a SIGKILLed daemon: bind a listener, then close the
         descriptor without unlinking — the socket file stays behind
         with nothing accepting on it. *)
      let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind dead (Unix.ADDR_UNIX sock);
      Unix.listen dead 1;
      Unix.close dead;
      Alcotest.(check bool) "stale file present" true (Sys.file_exists sock);
      (* A restart must probe, detect the dead peer and take the path
         over. *)
      let store = Store.create () in
      let srv = Server.start store ~socket:sock in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      output_string oc "{\"id\":1,\"req\":\"ping\"}\n";
      flush oc;
      (match input_line ic with
      | line ->
          Alcotest.(check bool) "new daemon answers" true
            (Astring_contains.contains line "\"pong\":true")
      | exception End_of_file -> Alcotest.fail "no answer after takeover");
      (* A second server on the same, now-live path must refuse. *)
      (match Server.start (Store.create ()) ~socket:sock with
      | _ -> Alcotest.fail "double-bind on a live socket must fail"
      | exception Guard.Error.Guard_error (Guard.Error.Invalid_input _) -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Server.stop srv;
      Server.wait srv)

let suite =
  [
    Alcotest.test_case "blob roundtrip" `Quick test_blob_roundtrip;
    Alcotest.test_case "corrupt-blob corpus" `Quick test_corrupt_blob_corpus;
    Alcotest.test_case "torn-write fault" `Quick test_torn_write_fault;
    Alcotest.test_case "restart warm hit bit-identical (1/2/4 domains)"
      `Quick test_restart_warm_bit_identical;
    Alcotest.test_case "crash mid-write recovery" `Quick
      test_crash_mid_write_recovery;
    Alcotest.test_case "deadline covers queue wait" `Quick
      test_deadline_covers_queue_wait;
    Alcotest.test_case "drain refuses new solves" `Quick
      test_drain_refuses_new_solves;
    Alcotest.test_case "socket drain graceful" `Quick
      test_socket_drain_graceful;
    Alcotest.test_case "stale socket takeover" `Quick
      test_stale_socket_takeover;
  ]
