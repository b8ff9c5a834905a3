(* The shard layer end to end: partition arithmetic (and its agreement
   with Store.load ?shard), skyline decomposability over arbitrary
   partitions, the batch request (one dataset resolve amortized over
   many queries), a pin/release hammer for the refcount race, and the
   fan-out router over real worker sockets and scripted stub workers:
   certified-merge bit-identity against a single store for every
   algorithm, worker count and domain count, evict releasing the worker
   slices, crash mid-request, deadline propagation and tracing. *)

module Serve = Rrms_serve
module Json = Serve.Json
module Protocol = Serve.Protocol
module Store = Serve.Store
module Server = Serve.Server
module Shard = Serve.Shard
module Obs = Rrms_obs.Obs
module Dataset = Rrms_dataset.Dataset
module Skyline = Rrms_skyline.Skyline
module Guard = Rrms_guard.Guard

let contains = Astring_contains.contains
let counter = Obs.Counter.value
let with_counters = Test_serve.with_counters
let with_csv = Test_serve.with_csv
let query = Test_serve.query

let parse_json line =
  match Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.fail (Printf.sprintf "unparseable %s: %s" line e)

(* ------------------------------------------------------------------ *)
(* Partition arithmetic                                               *)
(* ------------------------------------------------------------------ *)

let partition ~shards n =
  Array.init shards (fun shard -> Store.shard_rows ~shard ~shards n)

let test_partition_roundrobin () =
  List.iter
    (fun shards ->
      List.iter
        (fun n ->
          let parts = partition ~shards n in
          Alcotest.(check int) "one member per shard" shards (Array.length parts);
          let seen = Array.make (max n 1) false in
          Array.iteri
            (fun s idxs ->
              Array.iteri
                (fun l g ->
                  Alcotest.(check int) "round-robin arithmetic" (s + (l * shards))
                    g;
                  Alcotest.(check int) "local to global" g
                    (Store.shard_global ~shard:s ~shards l);
                  Alcotest.(check bool) "in range" true (g >= 0 && g < n);
                  Alcotest.(check bool) "disjoint" false seen.(g);
                  seen.(g) <- true)
                idxs)
            parts;
          Alcotest.(check int) "covering" n
            (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen))
        [ 0; 1; 2; 7; 100 ])
    [ 1; 2; 3; 8 ];
  match Store.shard_rows ~shard:0 ~shards:0 5 with
  | exception Guard.Error.Guard_error (Guard.Error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "shards=0 must raise Invalid_input"

(* A worker process loading with ?shard and the in-process partition
   must own bit-identical slices — the certified merge depends on it. *)
let test_store_slice_agreement () =
  with_csv ~n:57 ~m:3 ~seed:5 (fun csv ->
      let full = Dataset.rows (Dataset.of_csv csv) in
      List.iter
        (fun shards ->
          let parts = partition ~shards (Array.length full) in
          for s = 0 to shards - 1 do
            let store = Store.create () in
            let l = Store.load store ~shard:(s, shards) csv in
            match Store.pin store l.Store.key with
            | None -> Alcotest.fail "worker slice must pin"
            | Some h ->
                let rows = Store.pinned_rows h in
                let expect = Array.map (fun g -> full.(g)) parts.(s) in
                Alcotest.(check int) "slice length" (Array.length expect)
                  (Array.length rows);
                Array.iteri
                  (fun i r ->
                    Alcotest.(check bool) "slice rows agree bitwise" true
                      (r = expect.(i)))
                  rows;
                Store.unpin store h
          done)
        [ 1; 2; 3; 8 ])

(* ------------------------------------------------------------------ *)
(* Skyline decomposability                                            *)
(* ------------------------------------------------------------------ *)

(* skyline(D) = skyline(∪ skyline(Dᵢ)) for random data, both the
   round-robin partition and a shuffled one, at N ∈ {1,2,3,8} — and the
   merged result is bit-identical (same order) to the direct sfs run. *)
let test_skyline_decomposability () =
  let rng = Rrms_rng.Rng.create 77 in
  List.iter
    (fun m ->
      let n = 180 in
      let pts =
        Array.init n (fun _ ->
            Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.))
      in
      let whole = Skyline.sfs pts in
      let check label members =
        let parts =
          Array.map
            (fun idxs ->
              if Array.length idxs = 0 then [||]
              else
                let sub = Array.map (fun g -> pts.(g)) idxs in
                Array.map (fun l -> idxs.(l)) (Skyline.sfs sub))
            members
        in
        Alcotest.(check (array int))
          label whole
          (Skyline.merge_partitions pts parts)
      in
      List.iter
        (fun shards ->
          check
            (Printf.sprintf "round-robin m=%d N=%d" m shards)
            (partition ~shards n);
          let perm = Array.init n Fun.id in
          for i = n - 1 downto 1 do
            let j = Rrms_rng.Rng.int rng (i + 1) in
            let t = perm.(i) in
            perm.(i) <- perm.(j);
            perm.(j) <- t
          done;
          let buckets = Array.make shards [] in
          Array.iteri
            (fun i g -> buckets.(i mod shards) <- g :: buckets.(i mod shards))
            perm;
          check
            (Printf.sprintf "random partition m=%d N=%d" m shards)
            (Array.map
               (fun l -> Array.of_list (List.sort compare l))
               buckets))
        [ 1; 2; 3; 8 ])
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Sessions over pipes                                                *)
(* ------------------------------------------------------------------ *)

let open_session handler =
  let to_r, to_w = Unix.pipe () in
  let from_r, from_w = Unix.pipe () in
  let th =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr to_r in
        let oc = Unix.out_channel_of_descr from_w in
        ignore (Server.run_handler_session handler ic oc : [ `Eof | `Shutdown ]);
        close_out_noerr oc)
      ()
  in
  let out = Unix.out_channel_of_descr to_w in
  let inp = Unix.in_channel_of_descr from_r in
  let rpc line =
    output_string out line;
    output_char out '\n';
    flush out;
    input_line inp
  in
  let close () =
    close_out_noerr out;
    Thread.join th;
    close_in_noerr inp;
    try Unix.close to_r with Unix.Unix_error _ -> ()
  in
  (rpc, close)

let batch_items line =
  let j = parse_json line in
  Alcotest.(check bool) "batch reply ok" true (contains line "\"ok\":true");
  match Option.bind (Json.member "result" j) (Json.member "results") with
  | Some (Json.Arr items) -> Array.of_list items
  | _ -> Alcotest.fail ("no results member in " ^ line)

let item_result item =
  match Json.member "result" item with
  | Some r -> Json.to_string r
  | None -> Alcotest.fail ("batch item without result: " ^ Json.to_string item)

let item_code item =
  match Option.bind (Json.member "error" item) (Json.member "code") with
  | Some (Json.Str c) -> c
  | _ -> "ok"

(* ------------------------------------------------------------------ *)
(* Batch protocol                                                     *)
(* ------------------------------------------------------------------ *)

(* One resolve amortizes the whole batch; items answer in order,
   byte-identically to single queries; a malformed item (or one that
   contradicts the batch dataset) is a per-item error and the rest
   still run. *)
let test_batch_protocol () =
  with_counters (fun () ->
      with_csv ~n:150 ~m:3 (fun csv ->
          let store = Store.create () in
          let rpc, close = open_session (Server.store_handler store) in
          Fun.protect ~finally:close (fun () ->
              let load =
                rpc
                  (Printf.sprintf "{\"req\":\"load\",\"path\":%S,\"name\":\"d\"}"
                     csv)
              in
              Alcotest.(check bool) "load ok" true (contains load "\"ok\":true");
              let r0 = counter Store.Metrics.resolves in
              let s1 =
                rpc "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"cube\",\"r\":3}"
              in
              let s2 =
                rpc
                  "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3,\"gamma\":4}"
              in
              let s3 =
                rpc
                  "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":4,\"gamma\":4}"
              in
              Alcotest.(check int) "k singles resolve k times" 3
                (counter Store.Metrics.resolves - r0);
              let r1 = counter Store.Metrics.resolves in
              let batch =
                rpc
                  (String.concat ""
                     [
                       "{\"id\":9,\"req\":\"batch\",\"dataset\":\"d\",\"items\":[";
                       "{\"algo\":\"cube\",\"r\":3},";
                       "{\"algo\":\"hd-rrms\",\"r\":3},";
                       "{\"algo\":\"nope\",\"r\":1},";
                       "{\"dataset\":\"other\",\"algo\":\"cube\",\"r\":3},";
                       "{\"algo\":\"hd-rrms\",\"r\":4}";
                       "]}";
                     ])
              in
              Alcotest.(check int) "a batch resolves once" 1
                (counter Store.Metrics.resolves - r1);
              let items = batch_items batch in
              Alcotest.(check int) "five items answered" 5 (Array.length items);
              Alcotest.(check bool) "count echoed" true
                (contains batch "\"count\":5");
              let single line =
                match Test_serve.member_string "result" line with
                | Some s -> s
                | None -> Alcotest.fail ("single reply without result: " ^ line)
              in
              Alcotest.(check string) "item 0 = single cube" (single s1)
                (item_result items.(0));
              Alcotest.(check string) "item 1 = single hd r=3" (single s2)
                (item_result items.(1));
              Alcotest.(check string) "item 4 = single hd r=4" (single s3)
                (item_result items.(4));
              Alcotest.(check bool) "warm items are cache hits" true
                (contains (Json.to_string items.(1)) "\"cached\":true");
              Alcotest.(check string) "item 2 is a per-item error"
                "bad_request" (item_code items.(2));
              Alcotest.(check bool) "error names the item" true
                (contains (Json.to_string items.(2)) "item 2");
              Alcotest.(check string) "contradicting dataset is per-item"
                "bad_request" (item_code items.(3));
              let ghost =
                rpc
                  "{\"req\":\"batch\",\"dataset\":\"ghost\",\"items\":[{\"algo\":\"cube\",\"r\":2}]}"
              in
              Alcotest.(check bool) "unknown dataset is batch-level" true
                (contains ghost "\"code\":\"unknown_dataset\"");
              let empty =
                rpc "{\"req\":\"batch\",\"dataset\":\"d\",\"items\":[]}"
              in
              Alcotest.(check bool) "empty items rejected" true
                (contains empty "\"code\":\"bad_request\""))))

(* ------------------------------------------------------------------ *)
(* Refcount hammer                                                    *)
(* ------------------------------------------------------------------ *)

(* Two query threads race two add/release churn threads over one entry.
   The pin discipline must keep the count ≥ 1 throughout (each churner
   releases only what it added), never underflow, and leave exactly the
   original reference at the end. *)
let test_pin_release_hammer () =
  with_csv ~n:40 ~m:2 (fun csv ->
      let store = Store.create () in
      let d = Dataset.of_csv ~name:"hammer" csv in
      let l = Store.add store d in
      let key = l.Store.key in
      let bad = Atomic.make 0 in
      let iters = 150 in
      let query_thread () =
        for _ = 1 to iters do
          match Store.query store (query ~algo:Protocol.Cube ~r:2 key) with
          | Ok _ -> ()
          | Error _ -> Atomic.incr bad
        done
      in
      let churn_thread () =
        for _ = 1 to iters do
          ignore (Store.add store d : Store.loaded);
          Thread.yield ();
          match Store.release store key with
          | Store.Released { remaining; _ } when remaining >= 0 -> ()
          | _ -> Atomic.incr bad
        done
      in
      let ths =
        [
          Thread.create query_thread ();
          Thread.create query_thread ();
          Thread.create churn_thread ();
          Thread.create churn_thread ();
        ]
      in
      List.iter Thread.join ths;
      Alcotest.(check int) "no underflow, no lost entry" 0 (Atomic.get bad);
      (match Store.release store key with
      | Store.Released { freed = true; remaining = 0; _ } -> ()
      | _ -> Alcotest.fail "final release must free cleanly");
      match Store.query store (query ~algo:Protocol.Cube ~r:2 key) with
      | Error `Unknown_dataset -> ()
      | _ -> Alcotest.fail "freed entry must be unknown")

(* ------------------------------------------------------------------ *)
(* Router end to end                                                  *)
(* ------------------------------------------------------------------ *)

let temp_socket tag =
  let path = Filename.temp_file ("rrms_" ^ tag) ".sock" in
  Sys.remove path;
  path

(* Real topology: two worker daemons on Unix sockets, a router fanning
   out over them.  The batch answers in order, amortizes the worker
   fan-out (one skyline merge for the whole batch), and every item is
   byte-identical to a single-process store. *)
let test_router_batch_e2e () =
  with_counters (fun () ->
      with_csv ~n:160 ~m:3 ~seed:17 (fun csv ->
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
              Server.wait wb)
            (fun () ->
              let rpc, close = open_session (Shard.Router.handler rt) in
              Fun.protect ~finally:close (fun () ->
                  let load =
                    rpc
                      (Printf.sprintf
                         "{\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv)
                  in
                  Alcotest.(check bool) "router load ok" true
                    (contains load "\"ok\":true");
                  let m0 = counter Shard.Metrics.skyline_merges in
                  let batch =
                    rpc
                      (String.concat ""
                         [
                           "{\"req\":\"batch\",\"dataset\":\"d\",\"items\":[";
                           "{\"algo\":\"hd-rrms\",\"r\":3},";
                           "{\"algo\":\"hd-rrms\",\"r\":4},";
                           "{\"algo\":\"cube\",\"r\":3},";
                           "{\"algo\":\"hd-rrms\"}";
                           "]}";
                         ])
                  in
                  Alcotest.(check int)
                    "one worker fan-out amortized over the batch" 1
                    (counter Shard.Metrics.skyline_merges - m0);
                  let items = batch_items batch in
                  Alcotest.(check int) "four items answered" 4
                    (Array.length items);
                  Alcotest.(check string) "malformed item is per-item"
                    "bad_request" (item_code items.(3));
                  let base = Store.create () in
                  ignore (Store.load base ~name:"d" csv : Store.loaded);
                  let expect q' = fst (Test_serve.result_string base q') in
                  Alcotest.(check string) "item 0 = single-process bytes"
                    (expect (query ~algo:Protocol.Hd_rrms ~r:3 "d"))
                    (item_result items.(0));
                  Alcotest.(check string) "item 1 = single-process bytes"
                    (expect (query ~algo:Protocol.Hd_rrms ~r:4 "d"))
                    (item_result items.(1));
                  Alcotest.(check string) "item 2 = single-process bytes"
                    (expect (query ~algo:Protocol.Cube ~r:3 "d"))
                    (item_result items.(2));
                  (* single query through the router: now a cache hit,
                     still the same bytes *)
                  let q1 =
                    rpc
                      "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3,\"gamma\":4}"
                  in
                  Alcotest.(check bool) "warm router query hits" true
                    (contains q1 "\"cached\":true");
                  (match Test_serve.member_string "result" q1 with
                  | Some r ->
                      Alcotest.(check string) "warm router bytes"
                        (expect (query ~algo:Protocol.Hd_rrms ~r:3 "d"))
                        r
                  | None -> Alcotest.fail "router query without result");
                  let st = rpc "{\"req\":\"stats\"}" in
                  Alcotest.(check bool) "stats lists the workers" true
                    (contains st "\"router\"");
                  Alcotest.(check bool) "workers are connected" true
                    (contains st "\"connected\":true")));
          Alcotest.(check bool) "worker sockets removed" false
            (Sys.file_exists sock_a || Sys.file_exists sock_b)))

(* ------------------------------------------------------------------ *)
(* Router: certified merge bit-identity                               *)
(* ------------------------------------------------------------------ *)

let all_algos =
  [
    Protocol.A2d;
    Protocol.A2d_exact;
    Protocol.Sweepline;
    Protocol.Hd_rrms;
    Protocol.Hd_greedy;
    Protocol.Greedy;
    Protocol.Cube;
  ]

(* [k] in-process worker daemons on fresh sockets; [f] gets the socket
   paths and the worker stores. *)
let with_workers k f =
  let socks = List.init k (fun i -> temp_socket (Printf.sprintf "w%d" i)) in
  let stores = List.map (fun _ -> Store.create ()) socks in
  let servers =
    List.map2 (fun st sock -> Server.start st ~socket:sock) stores socks
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun sv ->
          Server.stop sv;
          Server.wait sv)
        servers)
    (fun () -> f socks stores)

(* One session on a fresh router over [workers]. *)
let with_router ?domains workers f =
  let rt = Shard.Router.create ?domains ~workers () in
  Fun.protect
    ~finally:(fun () -> Shard.Router.close rt)
    (fun () ->
      let rpc, close = open_session (Shard.Router.handler rt) in
      Fun.protect ~finally:close (fun () -> f rpc))

let load_line csv = Printf.sprintf "{\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv

let query_line ?(extra = []) (q : Protocol.query) =
  Json.to_string
    (Json.Obj
       ([
          ("req", Json.Str "query");
          ("dataset", Json.Str q.Protocol.dataset);
          ("algo", Json.Str (Protocol.algo_to_string q.Protocol.algo));
          ("r", Json.int q.Protocol.r);
          ("gamma", Json.int q.Protocol.gamma);
          ("cache", Json.Bool q.Protocol.use_cache);
        ]
       @ (match q.Protocol.max_cells with
         | Some c -> [ ("max_cells", Json.int c) ]
         | None -> [])
       @ extra))

(* A routed query's [result] bytes and whether it was a cache hit. *)
let routed ?extra rpc q =
  let reply = rpc (query_line ?extra q) in
  match Test_serve.member_string "result" reply with
  | Some r -> (r, contains reply "\"cached\":true")
  | None -> Alcotest.fail ("routed query failed: " ^ reply)

let loaded_key load =
  match Option.bind (Json.member "result" (parse_json load)) (Json.member "key") with
  | Some (Json.Str k) -> k
  | _ -> Alcotest.fail ("load failed: " ^ load)

(* Every served algorithm, at every worker count × router domain count
   in the acceptance grid, answers byte-identically to a single store
   over the same dataset; and the warm repeat is a cache hit with the
   same bytes. *)
let test_certified_bit_identity () =
  with_csv ~n:220 ~m:2 ~seed:3 (fun csv ->
      List.iter
        (fun workers ->
          with_workers workers (fun socks _ ->
              List.iter
                (fun domains ->
                  let base = Store.create ~domains () in
                  let bl = Store.load base ~name:"d" csv in
                  with_router ~domains socks (fun rpc ->
                      Alcotest.(check string) "same content key" bl.Store.key
                        (loaded_key (rpc (load_line csv)));
                      List.iter
                        (fun algo ->
                          let q = query ~algo ~r:3 ~gamma:4 "d" in
                          let expect, _ = Test_serve.result_string base q in
                          let label =
                            Printf.sprintf "%s workers=%d domains=%d"
                              (Protocol.algo_to_string algo)
                              workers domains
                          in
                          let cold, cold_hit = routed rpc q in
                          Alcotest.(check bool)
                            ("cold not cached: " ^ label)
                            false cold_hit;
                          Alcotest.(check string)
                            ("bit-identical: " ^ label)
                            expect cold;
                          let warm, warm_hit = routed rpc q in
                          Alcotest.(check bool)
                            ("warm is a hit: " ^ label)
                            true warm_hit;
                          Alcotest.(check string)
                            ("warm bytes: " ^ label)
                            expect warm)
                        all_algos))
                [ 1; 2; 4 ]))
        [ 1; 2; 4 ])

(* The HD algorithms again in higher dimension, across γ, plus a
   cell-capped query whose auto-shrunk γ the router's store must
   reproduce over the merged skyline. *)
let test_certified_bit_identity_hd () =
  with_csv ~n:300 ~m:4 ~seed:9 (fun csv ->
      let base = Store.create ~domains:2 () in
      ignore (Store.load base ~name:"d" csv : Store.loaded);
      List.iter
        (fun workers ->
          with_workers workers (fun socks _ ->
              with_router ~domains:2 socks (fun rpc ->
                  ignore (loaded_key (rpc (load_line csv)) : string);
                  let check q label =
                    let expect, _ = Test_serve.result_string base q in
                    Alcotest.(check string)
                      (Printf.sprintf "%s workers=%d" label workers)
                      expect
                      (fst (routed rpc q))
                  in
                  List.iter
                    (fun algo ->
                      List.iter
                        (fun gamma ->
                          check
                            (query ~algo ~r:4 ~gamma "d")
                            (Printf.sprintf "m=4 %s gamma=%d"
                               (Protocol.algo_to_string algo)
                               gamma))
                        [ 3; 5 ])
                    [ Protocol.Hd_rrms; Protocol.Hd_greedy ];
                  check
                    (query ~algo:Protocol.Hd_rrms ~r:3 ~gamma:6 ~max_cells:400
                       ~cache:false "d")
                    "m=4 hd-rrms cell-capped")))
        [ 1; 2; 4 ])

let datasets_of stats =
  match Json.member "datasets" stats with
  | Some (Json.Arr l) -> l
  | _ -> Alcotest.fail "stats without a datasets member"

(* Evicting a dataset through the router frees the workers' slices too —
   the router's worker connections each hold one reference per slice,
   and nothing else would ever drop it while the router runs.  A reload
   after the evict fans out afresh; a session teardown that frees the
   entry releases the slices the same way; and a worker that is down by
   the time of the evict must not fail it. *)
let test_router_evict_releases_slices () =
  with_csv ~n:150 ~m:3 ~seed:19 (fun csv ->
      let base = Store.create () in
      ignore (Store.load base ~name:"d" csv : Store.loaded);
      let q = query ~algo:Protocol.Hd_rrms ~r:3 "d" in
      let expect, _ = Test_serve.result_string base q in
      let resident label n stores =
        List.iteri
          (fun i st ->
            Alcotest.(check int)
              (Printf.sprintf "worker %d: %s" i label)
              n
              (List.length (datasets_of (Store.stats st))))
          stores
      in
      with_workers 2 (fun socks stores ->
          let rt = Shard.Router.create ~workers:socks () in
          Fun.protect
            ~finally:(fun () -> Shard.Router.close rt)
            (fun () ->
              let rpc, close = open_session (Shard.Router.handler rt) in
              ignore (loaded_key (rpc (load_line csv)) : string);
              Alcotest.(check string) "routed answer" expect
                (fst (routed rpc q));
              resident "slice resident" 1 stores;
              let ev = rpc "{\"req\":\"evict\",\"dataset\":\"d\"}" in
              Alcotest.(check bool) "router evict frees" true
                (contains ev "\"freed\":true");
              resident "slice released by evict" 0 stores;
              (* reload: the workers are sent their slices again *)
              ignore (loaded_key (rpc (load_line csv)) : string);
              Alcotest.(check string) "answer after reload" expect
                (fst (routed rpc { q with Protocol.use_cache = false }));
              resident "slice reloaded" 1 stores;
              close ();
              (* the router (and its worker connections) live on *)
              resident "slice released at session teardown" 0 stores));
      (* one worker gone before the evict *)
      let sock_a = temp_socket "eva" and sock_b = temp_socket "evb" in
      let sa = Store.create () and sb = Store.create () in
      let wa = Server.start sa ~socket:sock_a in
      let wb = Server.start sb ~socket:sock_b in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun w ->
              Server.stop w;
              Server.wait w)
            [ wa; wb ])
        (fun () ->
          with_router [ sock_a; sock_b ] (fun rpc ->
              ignore (loaded_key (rpc (load_line csv)) : string);
              ignore (routed rpc q : string * bool);
              Server.drain ~grace:0. wb sb;
              let ev = rpc "{\"req\":\"evict\",\"dataset\":\"d\"}" in
              Alcotest.(check bool) "evict succeeds with a worker down" true
                (contains ev "\"ok\":true" && contains ev "\"freed\":true");
              resident "live slice released" 0 [ sa ])))

(* A stub worker that accepts, reads one line and slams the connection
   shut — the crash-mid-request shape.  Returns its kill switch. *)
let crash_stub path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  let stop = ref false in
  let th =
    Thread.create
      (fun () ->
        try
          while true do
            let c, _ = Unix.accept fd in
            if !stop then begin
              Unix.close c;
              raise Exit
            end;
            let ic = Unix.in_channel_of_descr c in
            (try ignore (input_line ic : string)
             with End_of_file | Sys_error _ -> ());
            Unix.close c
          done
        with _ -> ())
      ()
  in
  fun () ->
    stop := true;
    (try
       let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect s (Unix.ADDR_UNIX path) with Unix.Unix_error _ -> ());
       Unix.close s
     with Unix.Unix_error _ -> ());
    Thread.join th;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if Sys.file_exists path then Sys.remove path

(* One healthy worker, one that crashes mid-request: the fan-out leg
   fails (after its one redial), the query answers shard_failure, the
   session stays alive, and local algorithms are unaffected. *)
let test_router_worker_crash () =
  with_counters (fun () ->
      with_csv ~n:120 ~m:3 ~seed:23 (fun csv ->
          let sock_good = temp_socket "good" and sock_bad = temp_socket "bad" in
          let wg = Server.start (Store.create ()) ~socket:sock_good in
          let kill = crash_stub sock_bad in
          let rt = Shard.Router.create ~workers:[ sock_good; sock_bad ] () in
          Fun.protect
            ~finally:(fun () ->
              Shard.Router.close rt;
              kill ();
              Server.stop wg;
              Server.wait wg)
            (fun () ->
              let rpc, close = open_session (Shard.Router.handler rt) in
              Fun.protect ~finally:close (fun () ->
                  let load =
                    rpc
                      (Printf.sprintf
                         "{\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv)
                  in
                  Alcotest.(check bool) "load ok" true
                    (contains load "\"ok\":true");
                  let q1 =
                    rpc
                      "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3}"
                  in
                  Alcotest.(check bool) "crashed leg answers shard_failure"
                    true
                    (contains q1 "\"code\":\"shard_failure\"");
                  Alcotest.(check bool) "failure counted" true
                    (counter Shard.Metrics.worker_failures > 0);
                  (* the session is not hung: per-item errors in a batch,
                     local algorithms and ping all still answer *)
                  let batch =
                    rpc
                      "{\"req\":\"batch\",\"dataset\":\"d\",\"items\":[{\"algo\":\"hd-rrms\",\"r\":3},{\"algo\":\"cube\",\"r\":3}]}"
                  in
                  let items = batch_items batch in
                  Alcotest.(check string) "fanned item fails per-item"
                    "shard_failure" (item_code items.(0));
                  Alcotest.(check string) "local item still answers" "ok"
                    (item_code items.(1));
                  let ping = rpc "{\"req\":\"ping\"}" in
                  Alcotest.(check bool) "session survives the crash" true
                    (contains ping "\"ok\":true")))))

(* A scripted stub worker: replies per line via [on_line]. *)
let scripted_stub path on_line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  let stop = ref false in
  let th =
    Thread.create
      (fun () ->
        try
          while true do
            let c, _ = Unix.accept fd in
            if !stop then begin
              Unix.close c;
              raise Exit
            end;
            let ic = Unix.in_channel_of_descr c in
            let oc = Unix.out_channel_of_descr c in
            (try
               let rec pump () =
                 let line = input_line ic in
                 output_string oc (on_line line);
                 output_char oc '\n';
                 flush oc;
                 pump ()
               in
               pump ()
             with End_of_file | Sys_error _ -> ());
            (try Unix.close c with Unix.Unix_error _ -> ())
          done
        with _ -> ())
      ()
  in
  fun () ->
    stop := true;
    (try
       let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect s (Unix.ADDR_UNIX path) with Unix.Unix_error _ -> ());
       Unix.close s
     with Unix.Unix_error _ -> ());
    Thread.join th;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if Sys.file_exists path then Sys.remove path

(* The router must forward the *remaining* deadline to the workers, and
   a worker-side expiry must come back as deadline_exceeded (not
   shard_failure).  The stub records the forwarded skyline request so
   the timeout can be asserted directly. *)
let test_router_deadline_propagation () =
  with_csv ~n:80 ~m:3 ~seed:29 (fun csv ->
      let sock = temp_socket "ddl" in
      let recorded = ref [] in
      let rec_lock = Mutex.create () in
      let on_line line =
        if contains line "\"req\":\"load\"" then
          "{\"id\":\"router-load-0\",\"ok\":true,\"result\":{\"key\":\"w0slice\"}}"
        else begin
          Mutex.lock rec_lock;
          recorded := line :: !recorded;
          Mutex.unlock rec_lock;
          "{\"id\":\"router-skyline\",\"ok\":false,\"error\":{\"code\":\"deadline_exceeded\",\"message\":\"stub: worker deadline expired\"}}"
        end
      in
      let kill = scripted_stub sock on_line in
      let rt = Shard.Router.create ~workers:[ sock ] () in
      Fun.protect
        ~finally:(fun () ->
          Shard.Router.close rt;
          kill ())
        (fun () ->
          let rpc, close = open_session (Shard.Router.handler rt) in
          Fun.protect ~finally:close (fun () ->
              let load =
                rpc
                  (Printf.sprintf
                     "{\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv)
              in
              Alcotest.(check bool) "load ok" true
                (contains load "\"ok\":true");
              let q =
                rpc
                  "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3,\"timeout\":7.5}"
              in
              Alcotest.(check bool) "worker expiry propagates as deadline"
                true
                (contains q "\"code\":\"deadline_exceeded\"");
              let lines = Mutex.lock rec_lock;
                          let l = !recorded in
                          Mutex.unlock rec_lock;
                          l
              in
              Alcotest.(check int) "exactly one fan-out request" 1
                (List.length lines);
              let fanned = parse_json (List.hd lines) in
              (match Json.member "req" fanned with
              | Some (Json.Str "skyline") -> ()
              | _ -> Alcotest.fail "forwarded request must be a skyline");
              (match Json.member "dataset" fanned with
              | Some (Json.Str "w0slice") -> ()
              | _ -> Alcotest.fail "fan-out must target the worker's key");
              match Json.member "timeout" fanned with
              | Some (Json.Num tm) ->
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "forwarded deadline %.3f is the positive remainder of \
                        7.5" tm)
                    true
                    (tm > 0. && tm <= 7.5)
              | _ -> Alcotest.fail "forwarded request must carry a timeout")))

(* ------------------------------------------------------------------ *)
(* Cluster tracing                                                    *)
(* ------------------------------------------------------------------ *)

let with_full f =
  let prev = Obs.level () in
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_level prev)
    (fun () ->
      Obs.set_level Obs.Full;
      Obs.reset ();
      f ())

(* Spawn a real worker daemon (a separate OS process — the only honest
   way to test cross-process trace merging) and block until its socket
   accepts.  Returns the kill-and-reap closure. *)
let spawn_worker_process sock =
  let null_r = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_w = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process Test_serve.serve_exe
      [| Test_serve.serve_exe; "--socket"; sock |]
      null_r null_w null_w
  in
  Unix.close null_r;
  Unix.close null_w;
  let rec wait_ready tries =
    if tries = 0 then Alcotest.fail ("worker never came up on " ^ sock)
    else
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> Unix.close fd
      | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.05;
          wait_ready (tries - 1)
  in
  wait_ready 200;
  fun () ->
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
     with Unix.Unix_error _ -> ());
    if Sys.file_exists sock then Sys.remove sock

(* The acceptance scenario: a router over two real worker processes at
   Full tracing.  One routed query must leave one merged trace in the
   router's buffer — a single trace id, exactly one root, every span
   (router admission, both workers' skyline solves, certified merge)
   reachable from the root over parent edges — while the answer stays
   byte-identical to a single-process store, with and without the
   explain cost echo. *)
let test_router_merged_trace () =
  with_csv ~n:140 ~m:3 ~seed:37 (fun csv ->
      let sock_a = temp_socket "tra" and sock_b = temp_socket "trb" in
      let kill_a = spawn_worker_process sock_a in
      let kill_b = spawn_worker_process sock_b in
      with_full (fun () ->
          let rt = Shard.Router.create ~workers:[ sock_a; sock_b ] () in
          Fun.protect
            ~finally:(fun () ->
              Shard.Router.close rt;
              kill_a ();
              kill_b ())
            (fun () ->
              let rpc, close = open_session (Shard.Router.handler rt) in
              Fun.protect ~finally:close (fun () ->
                  let load =
                    rpc
                      (Printf.sprintf
                         "{\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv)
                  in
                  Alcotest.(check bool) "router load ok" true
                    (contains load "\"ok\":true");
                  let q1 =
                    rpc
                      "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3,\"gamma\":4}"
                  in
                  Alcotest.(check bool) "routed query ok" true
                    (contains q1 "\"ok\":true");
                  (* --- the merged trace --- *)
                  let traced =
                    List.filter
                      (fun (e : Obs.Trace.event) -> e.trace_id <> "")
                      (Obs.Trace.events ())
                  in
                  Alcotest.(check bool) "traced spans recorded" true
                    (List.length traced >= 4);
                  let tid = (List.hd traced).Obs.Trace.trace_id in
                  List.iter
                    (fun (e : Obs.Trace.event) ->
                      Alcotest.(check string) "single trace id" tid e.trace_id)
                    traced;
                  let roots =
                    List.filter
                      (fun (e : Obs.Trace.event) -> e.parent_id = "")
                      traced
                  in
                  Alcotest.(check int) "exactly one root" 1 (List.length roots);
                  (* Globally unique ids: two workers mint under the same
                     fan-out parent, so this holds only because the router
                     namespaces ingested dumps per shard. *)
                  let ids =
                    List.sort compare
                      (List.map
                         (fun (e : Obs.Trace.event) -> e.span_id)
                         traced)
                  in
                  Alcotest.(check int) "merged span ids unique"
                    (List.length ids)
                    (List.length (List.sort_uniq compare ids));
                  let root = List.hd roots in
                  let find id =
                    List.find_opt
                      (fun (e : Obs.Trace.event) -> e.span_id = id)
                      traced
                  in
                  List.iter
                    (fun (e : Obs.Trace.event) ->
                      let rec climb (e : Obs.Trace.event) hops =
                        Alcotest.(check bool) "no parent cycle" true (hops < 20);
                        if e.span_id = root.Obs.Trace.span_id then ()
                        else
                          match find e.parent_id with
                          | Some p -> climb p (hops + 1)
                          | None ->
                              Alcotest.failf
                                "span %s (%s) dangling parent %s" e.span_id
                                e.name e.parent_id
                      in
                      climb e 0)
                    traced;
                  let has_span name shard =
                    List.exists
                      (fun (e : Obs.Trace.event) ->
                        e.name = name
                        &&
                        match shard with
                        | None -> true
                        | Some s ->
                            List.assoc_opt "shard" e.attrs
                            = Some (string_of_int s))
                      traced
                  in
                  Alcotest.(check bool) "router admission span" true
                    (has_span "serve.query" None);
                  Alcotest.(check bool) "router fan-out span" true
                    (has_span "router.fanout" None);
                  Alcotest.(check bool) "certified merge span" true
                    (has_span "router.certified_merge" None);
                  Alcotest.(check bool) "worker 0 solve ingested" true
                    (has_span "serve.skyline" (Some 0));
                  Alcotest.(check bool) "worker 1 solve ingested" true
                    (has_span "serve.skyline" (Some 1));
                  (* --- bytes: traced, explained, and reference --- *)
                  let base = Store.create () in
                  ignore (Store.load base ~name:"d" csv : Store.loaded);
                  let expect =
                    fst
                      (Test_serve.result_string base
                         (query ~algo:Protocol.Hd_rrms ~r:3 ~gamma:4 "d"))
                  in
                  (match Test_serve.member_string "result" q1 with
                  | Some r ->
                      Alcotest.(check string)
                        "traced routed answer = single-process bytes" expect r
                  | None -> Alcotest.fail "routed query without result");
                  let q2 =
                    rpc
                      "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3,\"gamma\":4,\"explain\":true}"
                  in
                  (match Test_serve.member_string "result" q2 with
                  | Some r ->
                      Alcotest.(check string)
                        "explain leaves result bytes unchanged" expect r
                  | None -> Alcotest.fail "explain query without result");
                  Alcotest.(check bool) "cost echo present under explain" true
                    (contains q2 "\"cost\":");
                  Alcotest.(check bool) "cost names the merge path" true
                    (contains q2 "\"merge\":\"certified\"");
                  Alcotest.(check bool)
                    "plain response carries no cost member" false
                    (contains q1 "\"cost\":");
                  (* --- cluster-aggregated stats --- *)
                  let st = rpc "{\"req\":\"stats\"}" in
                  Alcotest.(check bool) "stats has the cluster view" true
                    (contains st "\"cluster\":");
                  Alcotest.(check bool) "cluster counts processes" true
                    (contains st "\"processes\":3");
                  Alcotest.(check bool) "cluster merges latency rows" true
                    (contains st "\"shard\":\"all\"");
                  Alcotest.(check bool) "cluster reports skew" true
                    (contains st "\"straggler_gap_seconds\":");
                  (* Client-facing counts are the router's own: the
                     four client lines (load, two queries, this stats)
                     read 4, whatever fan-out legs the workers saw. *)
                  let cluster_counter name =
                    let ( let* ) = Option.bind in
                    let* j = Result.to_option (Json.parse st) in
                    let* res = Json.member "result" j in
                    let* cl = Json.member "cluster" res in
                    let* counters = Json.member "counters" cl in
                    let* v = Json.member name counters in
                    Json.num v
                  in
                  Alcotest.(check (option (float 0.)))
                    "cluster requests = client lines" (Some 4.)
                    (cluster_counter "rrms_serve_requests_total");
                  Alcotest.(check (option (float 0.)))
                    "cluster errors = client errors" (Some 0.)
                    (cluster_counter "rrms_serve_errors_total")))))

(* Routed answers are bit-identical with tracing off (Disabled) and
   fully on (Full + a client trace envelope, so every fan-out leg is
   traced and its worker spans spliced in) at 1 / 2 / 4 workers. *)
let test_trace_onoff_bit_identity () =
  with_csv ~n:180 ~m:3 ~seed:41 (fun csv ->
      List.iter
        (fun workers ->
          let solve level extra =
            let prev = Obs.level () in
            Fun.protect
              ~finally:(fun () ->
                Obs.reset ();
                Obs.set_level prev)
              (fun () ->
                Obs.set_level level;
                Obs.reset ();
                with_workers workers (fun socks _ ->
                    with_router socks (fun rpc ->
                        ignore (loaded_key (rpc (load_line csv)) : string);
                        fst
                          (routed ~extra rpc
                             (query ~algo:Protocol.Hd_rrms ~r:3 ~gamma:4 "d")))))
          in
          let off = solve Obs.Disabled [] in
          let on =
            solve Obs.Full
              [
                ( "trace",
                  Json.Obj
                    [ ("id", Json.Str "t-bits"); ("request_id", Json.Str "rq") ]
                );
              ]
          in
          Alcotest.(check string)
            (Printf.sprintf "bytes identical traced vs untraced, %d workers"
               workers)
            off on)
        [ 1; 2; 4 ])

(* Trace-id propagation: a client envelope rides every fan-out leg of a
   batch request (stub worker records the forwarded lines), and a
   mutation binds the envelope's trace id to its [serve.mutate] span. *)
let test_trace_propagation_batch_mutation () =
  with_csv ~n:90 ~m:3 ~seed:43 (fun csv ->
      (* batch → forwarded skyline requests carry the client's id.
         Counters level (the service default): the parent span id in
         the envelope is minted by the traced context, no global Full
         buffer needed. *)
      with_counters (fun () ->
      let sock = temp_socket "tprop" in
      let recorded = ref [] in
      let rec_lock = Mutex.create () in
      let on_line line =
        if contains line "\"req\":\"load\"" then
          "{\"id\":\"router-load-0\",\"ok\":true,\"result\":{\"key\":\"w0slice\"}}"
        else begin
          Mutex.lock rec_lock;
          recorded := line :: !recorded;
          Mutex.unlock rec_lock;
          "{\"id\":\"router-skyline\",\"ok\":false,\"error\":{\"code\":\"deadline_exceeded\",\"message\":\"stub\"}}"
        end
      in
      let kill = scripted_stub sock on_line in
      let rt = Shard.Router.create ~workers:[ sock ] () in
      Fun.protect
        ~finally:(fun () ->
          Shard.Router.close rt;
          kill ())
        (fun () ->
          let rpc, close = open_session (Shard.Router.handler rt) in
          Fun.protect ~finally:close (fun () ->
              let load =
                rpc
                  (Printf.sprintf
                     "{\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv)
              in
              Alcotest.(check bool) "load ok" true
                (contains load "\"ok\":true");
              ignore
                (rpc
                   "{\"req\":\"batch\",\"dataset\":\"d\",\"trace\":{\"id\":\"t-client\",\"request_id\":\"creq\"},\"items\":[{\"algo\":\"hd-rrms\",\"r\":3},{\"algo\":\"cube\",\"r\":3}]}"
                  : string);
              let lines =
                Mutex.lock rec_lock;
                let l = !recorded in
                Mutex.unlock rec_lock;
                l
              in
              Alcotest.(check int) "one fan-out for the batch" 1
                (List.length lines);
              let fanned = parse_json (List.hd lines) in
              match Json.member "trace" fanned with
              | Some t -> (
                  (match Json.member "id" t with
                  | Some (Json.Str "t-client") -> ()
                  | _ -> Alcotest.fail "client trace id not forwarded");
                  match Json.member "parent" t with
                  | Some (Json.Str p) ->
                      Alcotest.(check bool)
                        "fan-out carries a parent span id" true (p <> "")
                  | _ -> Alcotest.fail "forwarded envelope without parent")
              | None -> Alcotest.fail "fan-out leg lost the trace envelope")));
      (* mutation → the serve.mutate span carries the envelope's id *)
      with_full (fun () ->
          let store = Store.create () in
          let rpc, close = open_session (Server.store_handler store) in
          Fun.protect ~finally:close (fun () ->
              let load =
                rpc
                  (Printf.sprintf
                     "{\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv)
              in
              Alcotest.(check bool) "load ok" true
                (contains load "\"ok\":true");
              let m =
                rpc
                  "{\"req\":\"insert\",\"dataset\":\"d\",\"values\":[0.5,0.5,0.5],\"trace\":{\"id\":\"t-mut\"}}"
              in
              Alcotest.(check bool) "mutation ok" true
                (contains m "\"ok\":true");
              let spans =
                List.filter
                  (fun (e : Obs.Trace.event) -> e.name = "serve.mutate")
                  (Obs.Trace.events ())
              in
              Alcotest.(check bool) "mutate span recorded" true (spans <> []);
              List.iter
                (fun (e : Obs.Trace.event) ->
                  Alcotest.(check string)
                    "mutation routed under the client's trace id" "t-mut"
                    e.trace_id;
                  Alcotest.(check bool) "mutate span has an id" true
                    (e.span_id <> ""))
                spans;
              (* The write path's own layers hang under the same trace. *)
              List.iter
                (fun name ->
                  Alcotest.(check bool)
                    (name ^ " span under the mutation's trace") true
                    (List.exists
                       (fun (e : Obs.Trace.event) ->
                         e.name = name && e.trace_id = "t-mut")
                       (Obs.Trace.events ())))
                [ "delta.apply"; "dataset.with_rows"; "store.content_key" ])))

(* The router answers through the same dispatcher as a plain store, so
   its own request, error and batch counters move exactly as a plain
   store's do for the same lines: load, an HD query, a query on an
   unknown dataset, a 2-item batch, stats.  The in-process workers share
   the counter registry, so the lines they receive (slice loads,
   skyline legs, the stats fan-out) are counted and taken off. *)
let test_router_counts_like_store () =
  with_counters (fun () ->
      with_csv ~n:120 ~m:3 ~seed:47 (fun csv ->
          let lines =
            [
              load_line csv;
              "{\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3,\"gamma\":4}";
              "{\"req\":\"query\",\"dataset\":\"ghost\",\"algo\":\"cube\",\"r\":3}";
              "{\"req\":\"batch\",\"dataset\":\"d\",\"items\":[{\"algo\":\"hd-rrms\",\"r\":4,\"gamma\":4},{\"algo\":\"cube\",\"r\":3}]}";
              "{\"req\":\"stats\"}";
            ]
          in
          let names =
            [
              "rrms_serve_requests_total";
              "rrms_serve_errors_total";
              "rrms_serve_batch_requests_total";
              "rrms_serve_batch_items_total";
            ]
          in
          let snapshot () =
            let snap = Obs.snapshot () in
            List.map
              (fun n -> Option.value ~default:0. (List.assoc_opt n snap))
              names
          in
          (* Counter deltas over one session's lines, less [offset]
             requests answered elsewhere in the process. *)
          let deltas handler ~offset =
            let before = snapshot () in
            let rpc, close = open_session handler in
            Fun.protect ~finally:close (fun () ->
                List.iter (fun l -> ignore (rpc l : string)) lines);
            List.map2
              (fun n (b, a) ->
                let d = int_of_float (a -. b) in
                if n = "rrms_serve_requests_total" then d - offset () else d)
              names
              (List.combine before (snapshot ()))
          in
          let plain =
            deltas
              (Server.store_handler (Store.create ()))
              ~offset:(fun () -> 0)
          in
          let socks =
            List.init 2 (fun i -> temp_socket (Printf.sprintf "cnt%d" i))
          in
          let worker_lines = Atomic.make 0 in
          let counting h () =
            let s = h () in
            {
              s with
              Server.on_line =
                (fun l ->
                  Atomic.incr worker_lines;
                  s.Server.on_line l);
            }
          in
          let servers =
            List.map
              (fun sock ->
                Server.start_handler
                  (counting (Server.store_handler (Store.create ())))
                  ~socket:sock)
              socks
          in
          let routed =
            Fun.protect
              ~finally:(fun () ->
                List.iter
                  (fun sv ->
                    Server.stop sv;
                    Server.wait sv)
                  servers)
              (fun () ->
                let rt = Shard.Router.create ~workers:socks () in
                Fun.protect
                  ~finally:(fun () -> Shard.Router.close rt)
                  (fun () ->
                    deltas (Shard.Router.handler rt) ~offset:(fun () ->
                        Atomic.get worker_lines)))
          in
          Alcotest.(check bool) "the workers were reached" true
            (Atomic.get worker_lines > 0);
          Alcotest.(check (list int))
            "plain store counts" [ 5; 1; 1; 2 ] plain;
          List.iter2
            (fun n (p, r) -> Alcotest.(check int) ("router " ^ n) p r)
            names (List.combine plain routed)))

(* The binary refuses inconsistent router flags. *)
let test_router_flag_validation () =
  let dev_null = " >/dev/null 2>&1" in
  Alcotest.(check bool) "--router requires --shard-socket" true
    (Sys.command (Test_serve.serve_exe ^ " --router --stdio" ^ dev_null) <> 0);
  Alcotest.(check bool) "--shard-socket requires --router" true
    (Sys.command
       (Test_serve.serve_exe ^ " --shard-socket /tmp/rrms_none.sock --stdio"
      ^ dev_null)
    <> 0)

let suite =
  [
    Alcotest.test_case "partition round-robin" `Quick test_partition_roundrobin;
    Alcotest.test_case "partition agrees with Store.load ?shard" `Quick
      test_store_slice_agreement;
    Alcotest.test_case "skyline decomposability" `Quick
      test_skyline_decomposability;
    Alcotest.test_case "certified merge bit-identity (all algos)" `Quick
      test_certified_bit_identity;
    Alcotest.test_case "certified merge bit-identity (HD, m=4)" `Quick
      test_certified_bit_identity_hd;
    Alcotest.test_case "batch protocol" `Quick test_batch_protocol;
    Alcotest.test_case "pin/release hammer" `Quick test_pin_release_hammer;
    Alcotest.test_case "router batch end to end" `Quick test_router_batch_e2e;
    Alcotest.test_case "router evict releases worker slices" `Quick
      test_router_evict_releases_slices;
    Alcotest.test_case "router worker crash" `Quick test_router_worker_crash;
    Alcotest.test_case "router deadline propagation" `Quick
      test_router_deadline_propagation;
    Alcotest.test_case "router flag validation" `Quick
      test_router_flag_validation;
    Alcotest.test_case "router merged trace (real workers)" `Quick
      test_router_merged_trace;
    Alcotest.test_case "tracing on/off bit-identity (1/2/4 shards)" `Quick
      test_trace_onoff_bit_identity;
    Alcotest.test_case "trace propagation: batch and mutation" `Quick
      test_trace_propagation_batch_mutation;
    Alcotest.test_case "router counts requests like a plain store" `Quick
      test_router_counts_like_store;
  ]
