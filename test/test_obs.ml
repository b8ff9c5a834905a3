(* Observability invariants (the tentpole's correctness contract):

   1. a Disabled registry records nothing — counters, gauges, timers and
      the trace buffer all stay empty through a real solve;
   2. the deterministic metric subset is identical across domain counts
      1 / 2 / 4 for the same workload;
   3. span (name, depth) sequences are identical across domain counts;
   4. solver outputs are bit-identical (Int64.bits_of_float) with
      observability Disabled vs Full. *)

open Rrms_core
module Obs = Rrms_obs.Obs

(* Every obs test mutates the global level; run the body with a chosen
   level and always restore Disabled + a clean registry afterwards so
   the rest of the suite is unaffected. *)
let with_level level f =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_level Obs.Disabled;
      Obs.reset ())
    (fun () ->
      Obs.set_level level;
      Obs.reset ();
      f ())

let dataset seed ~n ~m =
  let rng = Rrms_rng.Rng.create seed in
  Array.init n (fun _ -> Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.))

(* A workload touching every instrumented layer: skyline, grid, matrix,
   MRST (incremental + fresh), set cover, LP, guard probes. *)
let workload ?domains () =
  let points = dataset 7 ~n:300 ~m:3 in
  let hd = Hd_rrms.solve ~gamma:3 ?domains points ~r:4 in
  let hg = Hd_greedy.solve ~gamma:3 ?domains points ~r:4 in
  let g = Greedy.solve points ~r:3 in
  (hd, hg, g)

(* ------------------------------------------------------------------ *)

let test_counter_primitives () =
  with_level Obs.Counters (fun () ->
      let c = Obs.Counter.make "rrms_test_counter_total" in
      Obs.Counter.incr c;
      Obs.Counter.add c 41;
      Alcotest.(check int) "counter accumulates" 42 (Obs.Counter.value c);
      let g = Obs.Gauge.make "rrms_test_gauge" in
      Obs.Gauge.set_int g 7;
      Obs.Gauge.set g 3.5;
      Alcotest.(check (float 0.)) "gauge last-write-wins" 3.5 (Obs.Gauge.value g);
      let f = Obs.Floatc.make "rrms_test_float_total" in
      Obs.Floatc.add f 0.25;
      Obs.Floatc.add f 0.25;
      Alcotest.(check (float 1e-12)) "float counter sums" 0.5 (Obs.Floatc.value f);
      let t = Obs.Timer.make "rrms_test_seconds" in
      Obs.Timer.observe t 0.003;
      let v = Obs.Timer.time t (fun () -> 42) in
      Alcotest.(check int) "Timer.time returns the value" 42 v;
      Alcotest.(check int) "timer observed both" 2 (Obs.Timer.count t);
      Obs.reset ();
      Alcotest.(check int) "reset zeroes counters" 0 (Obs.Counter.value c);
      Alcotest.(check int) "reset zeroes timers" 0 (Obs.Timer.count t))

let test_disabled_records_nothing () =
  with_level Obs.Disabled (fun () ->
      let c = Obs.Counter.make "rrms_test_disabled_total" in
      Obs.Counter.incr c;
      Obs.Counter.add c 10;
      Alcotest.(check int) "disabled counter stays 0" 0 (Obs.Counter.value c);
      ignore (workload ());
      List.iter
        (fun (name, v) ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "disabled metric %s stays 0" name)
            0. v)
        (Obs.snapshot ());
      Alcotest.(check int) "disabled trace stays empty" 0 (Obs.Trace.count ()))

let test_deterministic_across_domains () =
  let snapshot_at domains =
    with_level Obs.Counters (fun () ->
        ignore (workload ~domains ());
        Obs.deterministic_snapshot ())
  in
  let base = snapshot_at 1 in
  Alcotest.(check bool)
    "deterministic snapshot is non-trivial" true
    (List.exists (fun (_, v) -> v > 0.) base);
  List.iter
    (fun domains ->
      let other = snapshot_at domains in
      Alcotest.(check int)
        "same metric count" (List.length base) (List.length other);
      List.iter2
        (fun (n1, v1) (n2, v2) ->
          Alcotest.(check string) "same metric name" n1 n2;
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s identical at %d domains" n1 domains)
            v1 v2)
        base other)
    [ 2; 4 ]

let test_spans_deterministic_across_domains () =
  let spans_at domains =
    with_level Obs.Full (fun () ->
        ignore (workload ~domains ());
        List.map
          (fun (e : Obs.Trace.event) -> (e.name, e.depth))
          (Obs.Trace.events ()))
  in
  let base = spans_at 1 in
  Alcotest.(check bool) "spans recorded" true (base <> []);
  List.iter
    (fun domains ->
      let other = spans_at domains in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "span (name, depth) sequence identical at %d domains"
           domains)
        base other)
    [ 2; 4 ]

(* Bit-identity: run each solver with obs Disabled, then again at Full
   with tracing live, and compare every output float bit for bit. *)
let test_results_bit_identical () =
  let bits = Int64.bits_of_float in
  let run () =
    let points = dataset 11 ~n:250 ~m:2 in
    let r2 = Rrms2d.solve_exact points ~r:3 in
    let sw = Sweepline.solve points ~r:3 in
    let hd_pts = dataset 13 ~n:250 ~m:3 in
    let hd = Hd_rrms.solve ~gamma:3 hd_pts ~r:4 in
    let hg = Hd_greedy.solve ~gamma:3 hd_pts ~r:4 in
    let g = Greedy.solve hd_pts ~r:3 in
    ( (r2.Rrms2d.selected, bits r2.Rrms2d.dp_value, bits r2.Rrms2d.regret),
      (sw.Sweepline.selected, bits sw.Sweepline.dp_value, bits sw.Sweepline.regret),
      ( hd.Hd_rrms.selected,
        bits hd.Hd_rrms.eps_min,
        bits hd.Hd_rrms.guarantee,
        bits hd.Hd_rrms.discretized_regret ),
      (hg.Hd_greedy.selected, bits hg.Hd_greedy.discretized_regret),
      (g.Greedy.selected, bits g.Greedy.regret_lp) )
  in
  let off = with_level Obs.Disabled run in
  let on = with_level Obs.Full run in
  let (r2o, swo, hdo, hgo, go) = off and (r2n, swn, hdn, hgn, gn) = on in
  let check_sel msg a b = Alcotest.(check (array int)) msg a b in
  let check_bits msg a b = Alcotest.(check int64) msg a b in
  let (s1, d1, e1) = r2o and (s2, d2, e2) = r2n in
  check_sel "2d selected" s1 s2;
  check_bits "2d dp bits" d1 d2;
  check_bits "2d regret bits" e1 e2;
  let (s1, d1, e1) = swo and (s2, d2, e2) = swn in
  check_sel "sweepline selected" s1 s2;
  check_bits "sweepline dp bits" d1 d2;
  check_bits "sweepline regret bits" e1 e2;
  let (s1, a1, b1, c1) = hdo and (s2, a2, b2, c2) = hdn in
  check_sel "hd-rrms selected" s1 s2;
  check_bits "hd-rrms eps bits" a1 a2;
  check_bits "hd-rrms guarantee bits" b1 b2;
  check_bits "hd-rrms grid-regret bits" c1 c2;
  let (s1, a1) = hgo and (s2, a2) = hgn in
  check_sel "hd-greedy selected" s1 s2;
  check_bits "hd-greedy grid-regret bits" a1 a2;
  let (s1, a1) = go and (s2, a2) = gn in
  check_sel "greedy selected" s1 s2;
  check_bits "greedy regret bits" a1 a2

let test_sinks () =
  with_level Obs.Full (fun () ->
      ignore (workload ());
      let prom = Obs.prometheus () in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "prometheus exposes %s" name)
            true (contains prom name))
        [
          "rrms_skyline_size";
          "rrms_matrix_cells_total";
          "rrms_mrst_incremental_solves_total";
          "rrms_hd_rrms_probes_total";
          "rrms_lp_pivots_total";
          "rrms_setcover_greedy_iterations_total";
          "rrms_span_seconds_bucket";
          "# TYPE rrms_span_seconds histogram";
        ];
      let sum = Obs.summary () in
      Alcotest.(check bool) "summary mentions probes" true
        (contains sum "rrms_hd_rrms_probes_total");
      let path = Filename.temp_file "rrms_obs" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Obs.write_trace path;
          let ic = open_in path in
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> close_in ic);
          let lines = List.rev !lines in
          Alcotest.(check bool) "trace file non-empty" true (lines <> []);
          List.iter
            (fun l ->
              Alcotest.(check bool) "every trace line is a JSON object" true
                (String.length l > 2 && l.[0] = '{'
                && l.[String.length l - 1] = '}'))
            lines;
          Alcotest.(check bool) "trace has span events" true
            (List.exists (fun l -> contains l "\"type\":\"span\"") lines);
          Alcotest.(check bool) "trace ends with a metric snapshot" true
            (List.exists (fun l -> contains l "\"type\":\"metric\"") lines)))

(* Every [*_seconds] timer series in the Prometheus text: its [le]
   labels are exactly [Obs.Hist.bounds] then +Inf, its cumulative
   buckets never decrease, and the +Inf bucket equals [_count]. *)
let test_timer_exposition () =
  with_level Obs.Full (fun () ->
      ignore (workload ());
      let t = Obs.Timer.make "rrms_test_exposition_seconds" in
      (* Below the first bound, on a bound, mid-range, past the last. *)
      List.iter (Obs.Timer.observe t) [ 0.; 1e-6; 0.5; 5000. ];
      let prom = Obs.prometheus () in
      let lines = String.split_on_char '\n' prom in
      let split_on sub s =
        let ns = String.length s and nb = String.length sub in
        let rec go i =
          if i + nb > ns then None
          else if String.sub s i nb = sub then
            Some (String.sub s 0 i, String.sub s (i + nb) (ns - i - nb))
          else go (i + 1)
        in
        go 0
      in
      (* (base, labels before le) -> (le, cumulative count) in order. *)
      let series = Hashtbl.create 16 and order = ref [] in
      List.iter
        (fun line ->
          match split_on "_seconds_bucket{" line with
          | None -> ()
          | Some (stem, rest) -> (
              match split_on "le=\"" rest with
              | None -> Alcotest.fail ("bucket without le: " ^ line)
              | Some (inner, tail) ->
                  let le, count =
                    Scanf.sscanf tail "%[^\"]\"} %d" (fun le c -> (le, c))
                  in
                  let key = (stem ^ "_seconds", inner) in
                  if not (Hashtbl.mem series key) then order := key :: !order;
                  Hashtbl.replace series key
                    ((le, count)
                    :: Option.value ~default:[] (Hashtbl.find_opt series key))))
        lines;
      let keys = List.rev !order in
      Alcotest.(check bool) "span timers exposed" true
        (List.exists (fun (b, _) -> b = "rrms_span_seconds") keys);
      Alcotest.(check bool) "test timer exposed" true
        (List.mem ("rrms_test_exposition_seconds", "") keys);
      let expected_le =
        Array.to_list (Array.map (Printf.sprintf "%g") Obs.Hist.bounds)
        @ [ "+Inf" ]
      in
      List.iter
        (fun ((base, inner) as key) ->
          let name = base ^ "{" ^ inner ^ "}" in
          let buckets = List.rev (Hashtbl.find series key) in
          Alcotest.(check (list string))
            (name ^ ": le = Hist.bounds + +Inf")
            expected_le (List.map fst buckets);
          ignore
            (List.fold_left
               (fun prev (le, c) ->
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: bucket le=%s is cumulative" name le)
                   true (c >= prev);
                 c)
               0 buckets);
          let inf = snd (List.nth buckets (List.length buckets - 1)) in
          let labels =
            if inner = "" then ""
            else "{" ^ String.sub inner 0 (String.length inner - 1) ^ "}"
          in
          let count_prefix = base ^ "_count" ^ labels ^ " " in
          let count =
            List.find_map
              (fun l ->
                if String.starts_with ~prefix:count_prefix l then
                  int_of_string_opt
                    (String.sub l (String.length count_prefix)
                       (String.length l - String.length count_prefix))
                else None)
              lines
          in
          Alcotest.(check (option int))
            (name ^ ": +Inf bucket = _count")
            (Some inf) count)
        keys;
      let test_buckets =
        List.rev (Hashtbl.find series ("rrms_test_exposition_seconds", ""))
      in
      Alcotest.(check int) "first bucket holds 0 and 1e-6" 2
        (snd (List.hd test_buckets));
      Alcotest.(check int) "+Inf holds all four" 4
        (snd (List.nth test_buckets (List.length test_buckets - 1))))

let test_probes_are_incremental_solves () =
  (* No threshold is probed twice, so every binary-search probe of a
     search that never stopped early is exactly one incremental MRST
     solve. *)
  with_level Obs.Counters (fun () ->
      let points = dataset 17 ~n:120 ~m:3 in
      ignore (Hd_rrms.solve ~gamma:3 points ~r:3);
      let snap = Obs.deterministic_snapshot () in
      Alcotest.(check (float 0.))
        "every probe is one incremental MRST solve"
        (List.assoc "rrms_hd_rrms_probes_total" snap)
        (List.assoc "rrms_mrst_incremental_solves_total" snap))

(* ------------------------------------------------------------------ *)
(* Latency histograms                                                  *)

let test_hist_bounds () =
  let b = Obs.Hist.bounds in
  Alcotest.(check int) "46 finite bounds" 46 (Array.length b);
  Alcotest.(check (float 1e-12)) "first bound is 1 microsecond" 1e-6 b.(0);
  Alcotest.(check (float 1e-6)) "last bound is 1000 seconds" 1000. b.(45);
  for i = 0 to Array.length b - 2 do
    Alcotest.(check bool)
      (Printf.sprintf "bounds strictly increase at %d" i)
      true
      (b.(i) < b.(i + 1))
  done;
  (* Five buckets per decade: each bound is 10x the one five back. *)
  for i = 0 to Array.length b - 6 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "log spacing at %d" i)
      10.
      (b.(i + 5) /. b.(i))
  done;
  let b2 = Obs.Hist.bounds in
  Alcotest.(check (array (float 0.))) "bounds are deterministic" b b2

(* Quantiles are exact when every observation sits on a bucket bound:
   the answer is the bound holding the ceil(q*n)-th smallest value. *)
let test_hist_quantiles_exact () =
  let b = Obs.Hist.bounds in
  let h = Obs.Hist.create () in
  Alcotest.(check (float 0.)) "empty histogram answers 0" 0.
    (Obs.Hist.quantile h 0.5);
  for _ = 1 to 50 do Obs.Hist.observe h b.(5) done;
  for _ = 1 to 45 do Obs.Hist.observe h b.(10) done;
  for _ = 1 to 5 do Obs.Hist.observe h b.(20) done;
  Alcotest.(check int) "count" 100 (Obs.Hist.count h);
  Alcotest.(check (float 0.)) "p50 exact" b.(5) (Obs.Hist.quantile h 0.50);
  Alcotest.(check (float 0.)) "p95 exact" b.(10) (Obs.Hist.quantile h 0.95);
  Alcotest.(check (float 0.)) "p99 exact" b.(20) (Obs.Hist.quantile h 0.99);
  Alcotest.(check (float 0.)) "p100 is the max" b.(20) (Obs.Hist.quantile h 1.);
  Alcotest.(check (float 0.)) "max tracked" b.(20) (Obs.Hist.max_value h);
  (* Overflow: a value past the last bound answers the observed max. *)
  let o = Obs.Hist.create () in
  Obs.Hist.observe o 5000.;
  Alcotest.(check (float 0.)) "overflow answers max" 5000.
    (Obs.Hist.quantile o 0.99);
  (* Clamp: quantile never exceeds the observed max even when the
     bucket's upper bound does. *)
  let c = Obs.Hist.create () in
  Obs.Hist.observe c (b.(7) *. 1.5);
  Alcotest.(check (float 0.)) "quantile clamped by max" (b.(7) *. 1.5)
    (Obs.Hist.quantile c 0.5)

let test_hist_merge_associative () =
  let b = Obs.Hist.bounds in
  (* Dyadic-ish observation sets so sums compare exactly in float. *)
  let mk values =
    let h = Obs.Hist.create () in
    List.iter (fun (v, times) -> for _ = 1 to times do Obs.Hist.observe h v done)
      values;
    h
  in
  let ha = mk [ (b.(3), 7); (b.(12), 2) ]
  and hb = mk [ (b.(8), 5); (b.(30), 1) ]
  and hc = mk [ (b.(3), 4); (b.(40), 3) ] in
  let left = Obs.Hist.merge (Obs.Hist.merge ha hb) hc in
  let right = Obs.Hist.merge ha (Obs.Hist.merge hb hc) in
  Alcotest.(check (array int)) "merge buckets associative"
    (Obs.Hist.buckets left) (Obs.Hist.buckets right);
  Alcotest.(check int) "merge count associative" (Obs.Hist.count left)
    (Obs.Hist.count right);
  Alcotest.(check (float 0.)) "merge max associative"
    (Obs.Hist.max_value left) (Obs.Hist.max_value right);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "quantile %.2f associative" q)
        (Obs.Hist.quantile left q) (Obs.Hist.quantile right q))
    [ 0.5; 0.95; 0.99; 1. ];
  (* Empty is an identity for the bucket counts. *)
  let e = Obs.Hist.create () in
  Alcotest.(check (array int)) "empty is merge identity"
    (Obs.Hist.buckets ha)
    (Obs.Hist.buckets (Obs.Hist.merge ha e));
  Alcotest.(check int) "order of observation is irrelevant"
    (Obs.Hist.count left)
    (Array.fold_left ( + ) 0 (Obs.Hist.buckets left))

(* ------------------------------------------------------------------ *)
(* Request-scoped contexts                                             *)

let test_ctx_deterministic_across_domains () =
  let counters_at domains =
    with_level Obs.Counters (fun () ->
        let ctx = Obs.Ctx.create ~request_id:"r" ~session_id:"s" () in
        Obs.Ctx.with_ctx ctx (fun () -> ignore (workload ~domains ()));
        Obs.Ctx.deterministic_counters ctx)
  in
  let base = counters_at 1 in
  Alcotest.(check bool)
    "ctx deterministic counters are non-trivial" true
    (List.exists (fun (_, v) -> v > 0.) base);
  List.iter
    (fun domains ->
      Alcotest.(check (list (pair string (float 0.))))
        (Printf.sprintf "ctx counters identical at %d domains" domains)
        base (counters_at domains))
    [ 2; 4 ]

(* Two contexts live at once on separate threads: each must see only
   its own work, and captured spans must carry its own request_id. *)
let test_ctx_disjoint_under_concurrency () =
  with_level Obs.Counters (fun () ->
      let run rid =
        let ctx =
          Obs.Ctx.create ~request_id:rid ~session_id:"shared"
            ~capture_spans:true ()
        in
        Obs.Ctx.with_ctx ctx (fun () -> ignore (workload ~domains:2 ()));
        ctx
      in
      let result = Array.make 2 None in
      let threads =
        Array.init 2 (fun i ->
            Thread.create
              (fun () -> result.(i) <- Some (run (Printf.sprintf "req-%d" i)))
              ())
      in
      Array.iter Thread.join threads;
      let ctxs = Array.map Option.get result in
      Array.iteri
        (fun i ctx ->
          let rid = Printf.sprintf "req-%d" i in
          Alcotest.(check string) "request id kept" rid
            (Obs.Ctx.request_id ctx);
          Alcotest.(check bool)
            (Printf.sprintf "%s recorded counters" rid)
            true
            (List.exists (fun (_, v) -> v > 0.) (Obs.Ctx.counters ctx));
          let spans = Obs.Ctx.spans ctx in
          Alcotest.(check bool)
            (Printf.sprintf "%s captured spans at Counters level" rid)
            true (spans <> []);
          List.iter
            (fun (e : Obs.Trace.event) ->
              Alcotest.(check (option string))
                "span tagged with own request_id" (Some rid)
                (List.assoc_opt "request_id" e.attrs))
            spans)
        ctxs;
      (* Both ran the same workload: the deterministic view agrees. *)
      Alcotest.(check (list (pair string (float 0.))))
        "both contexts saw identical deterministic work"
        (Obs.Ctx.deterministic_counters ctxs.(0))
        (Obs.Ctx.deterministic_counters ctxs.(1)))

(* ------------------------------------------------------------------ *)
(* Trace-buffer drop accounting                                       *)

let test_trace_drop_accounting () =
  with_level Obs.Full (fun () ->
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_max_events Obs.Trace.default_max_events)
        (fun () ->
          Obs.Trace.set_max_events 50;
          Obs.Trace.clear ();
          for i = 1 to 80 do
            Obs.Span.with_ (Printf.sprintf "drop_test_%d" i) (fun () -> ())
          done;
          Alcotest.(check int) "buffer capped at 50" 50 (Obs.Trace.count ());
          Alcotest.(check int) "30 spans dropped" 30 (Obs.Trace.dropped ());
          Alcotest.(check (float 0.))
            "drop counter registered as rrms_trace_dropped_total" 30.
            (List.assoc "rrms_trace_dropped_total" (Obs.snapshot ()));
          let path = Filename.temp_file "rrms_obs_drop" ".jsonl" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Obs.write_trace path;
              let ic = open_in path in
              let n = in_channel_length ic in
              let body = really_input_string ic n in
              close_in ic;
              let contains needle =
                let nh = String.length body and nn = String.length needle in
                let rec go i =
                  i + nn <= nh && (String.sub body i nn = needle || go (i + 1))
                in
                go 0
              in
              Alcotest.(check bool) "footer present" true
                (contains "\"type\":\"trace_footer\"");
              Alcotest.(check bool) "footer counts events" true
                (contains "\"events\":50");
              Alcotest.(check bool) "footer counts drops" true
                (contains "\"dropped\":30"));
          Obs.Trace.clear ();
          Alcotest.(check int) "clear resets the drop count" 0
            (Obs.Trace.dropped ())))

(* ------------------------------------------------------------------ *)
(* Distributed span identity                                           *)

(* A traced context assigns hierarchical span ids: every captured span
   carries the context's trace id, exactly one span is the root, and
   every other span reaches the root over parent edges. *)
let test_span_ids_single_root_reachable () =
  with_level Obs.Counters (fun () ->
      let ctx =
        Obs.Ctx.create ~request_id:"rq-1" ~session_id:"s" ~capture_spans:true
          ~trace_id:"t-alpha" ()
      in
      Obs.Ctx.with_ctx ctx (fun () ->
          Obs.Span.with_ "outer" (fun () ->
              Obs.Span.with_ "mid" (fun () ->
                  Obs.Span.with_ "leaf_a" (fun () -> ()));
              Obs.Span.with_ "leaf_b" (fun () -> ())));
      let spans = Obs.Ctx.spans ctx in
      Alcotest.(check int) "four spans captured" 4 (List.length spans);
      List.iter
        (fun (e : Obs.Trace.event) ->
          Alcotest.(check string) "trace id stamped" "t-alpha" e.trace_id;
          Alcotest.(check bool) "span id minted" true (e.span_id <> ""))
        spans;
      let ids =
        List.map (fun (e : Obs.Trace.event) -> e.span_id) spans
      in
      Alcotest.(check int) "span ids unique" (List.length ids)
        (List.length (List.sort_uniq compare ids));
      let roots =
        List.filter (fun (e : Obs.Trace.event) -> e.parent_id = "") spans
      in
      Alcotest.(check int) "exactly one root" 1 (List.length roots);
      let root = List.hd roots in
      let parent_of id =
        List.find_opt (fun (e : Obs.Trace.event) -> e.span_id = id) spans
      in
      List.iter
        (fun (e : Obs.Trace.event) ->
          let rec climb (e : Obs.Trace.event) hops =
            Alcotest.(check bool) "no parent cycle" true (hops < 10);
            if e.span_id = root.Obs.Trace.span_id then ()
            else
              match parent_of e.parent_id with
              | Some p -> climb p (hops + 1)
              | None ->
                  Alcotest.failf "span %s has dangling parent %s" e.span_id
                    e.parent_id
          in
          climb e 0)
        spans)

(* An untraced context mints no identity: span events keep empty ids,
   so the JSON encoding (and any byte-compared output) is unchanged. *)
let test_span_ids_absent_untraced () =
  with_level Obs.Counters (fun () ->
      let ctx =
        Obs.Ctx.create ~request_id:"rq-2" ~session_id:"s" ~capture_spans:true ()
      in
      Obs.Ctx.with_ctx ctx (fun () ->
          Obs.Span.with_ "outer" (fun () ->
              Obs.Span.with_ "inner" (fun () -> ())));
      List.iter
        (fun (e : Obs.Trace.event) ->
          Alcotest.(check string) "no span id" "" e.span_id;
          Alcotest.(check string) "no parent id" "" e.parent_id;
          Alcotest.(check string) "no trace id" "" e.trace_id)
        (Obs.Ctx.spans ctx))

(* The cross-process edge: a context created with [parent_span] (the
   wire envelope's [parent]) hangs its root from that foreign id, and
   [Span.current_id] exposes the innermost open span for the next hop's
   envelope. *)
let test_span_ids_cross_process_edge () =
  with_level Obs.Counters (fun () ->
      Alcotest.(check string) "current_id empty outside spans" ""
        (Obs.Span.current_id ());
      let ctx =
        Obs.Ctx.create ~request_id:"rq-3" ~session_id:"s" ~capture_spans:true
          ~trace_id:"t-beta" ~parent_span:"router-span.7" ()
      in
      let inner_id = ref "" in
      Obs.Ctx.with_ctx ctx (fun () ->
          Obs.Span.with_ "worker.solve" (fun () ->
              inner_id := Obs.Span.current_id ()));
      Alcotest.(check bool) "current_id non-empty inside traced span" true
        (!inner_id <> "");
      Alcotest.(check string) "current_id closed again" ""
        (Obs.Span.current_id ());
      match Obs.Ctx.spans ctx with
      | [ e ] ->
          Alcotest.(check string) "root hangs from the wire parent"
            "router-span.7" e.Obs.Trace.parent_id;
          Alcotest.(check string) "current_id was the span's own id"
            e.Obs.Trace.span_id !inner_id
      | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans))

(* span_json / span_of_json round-trip — the wire form of a worker span
   dump must reconstruct the event the router splices into its merged
   trace. *)
let test_span_json_roundtrip () =
  let module Telemetry = Rrms_serve.Telemetry in
  let e =
    {
      Obs.Trace.name = "serve.skyline";
      domain = 2;
      depth = 1;
      start = 0.125;
      dur = 0.0625;
      attrs = [ ("dataset", "k1"); ("request_id", "rq") ];
      span_id = "rq.3";
      parent_id = "rq.1";
      trace_id = "t-gamma";
    }
  in
  let e' = Telemetry.span_of_json (Telemetry.span_json e) in
  Alcotest.(check string) "name" e.Obs.Trace.name e'.Obs.Trace.name;
  Alcotest.(check int) "domain" e.Obs.Trace.domain e'.Obs.Trace.domain;
  Alcotest.(check int) "depth" e.Obs.Trace.depth e'.Obs.Trace.depth;
  Alcotest.(check (float 0.)) "start" e.Obs.Trace.start e'.Obs.Trace.start;
  Alcotest.(check (float 0.)) "dur" e.Obs.Trace.dur e'.Obs.Trace.dur;
  Alcotest.(check (list (pair string string))) "attrs" e.Obs.Trace.attrs
    e'.Obs.Trace.attrs;
  Alcotest.(check string) "span_id" e.Obs.Trace.span_id e'.Obs.Trace.span_id;
  Alcotest.(check string) "parent_id" e.Obs.Trace.parent_id
    e'.Obs.Trace.parent_id;
  Alcotest.(check string) "trace_id" e.Obs.Trace.trace_id
    e'.Obs.Trace.trace_id;
  (* Untraced events omit the ids on the wire and come back empty. *)
  let plain = { e with Obs.Trace.span_id = ""; parent_id = ""; trace_id = "" } in
  let plain' = Telemetry.span_of_json (Telemetry.span_json plain) in
  Alcotest.(check string) "empty span_id survives" "" plain'.Obs.Trace.span_id;
  Alcotest.(check string) "empty trace_id survives" "" plain'.Obs.Trace.trace_id

(* Hist raw export → import round-trip: the wire [metrics] op ships
   count/sum/max/buckets; the rebuilt histogram must merge and answer
   quantiles exactly like the original. *)
let test_hist_import_roundtrip () =
  let b = Obs.Hist.bounds in
  let h = Obs.Hist.create () in
  List.iter
    (fun (v, times) -> for _ = 1 to times do Obs.Hist.observe h v done)
    [ (b.(4), 12); (b.(13), 6); (b.(33), 2); (5000., 1) ];
  let h' =
    Obs.Hist.import ~count:(Obs.Hist.count h) ~sum:(Obs.Hist.sum h)
      ~max_value:(Obs.Hist.max_value h) ~buckets:(Obs.Hist.buckets h)
  in
  Alcotest.(check int) "count" (Obs.Hist.count h) (Obs.Hist.count h');
  Alcotest.(check (float 0.)) "sum" (Obs.Hist.sum h) (Obs.Hist.sum h');
  Alcotest.(check (float 0.)) "max" (Obs.Hist.max_value h)
    (Obs.Hist.max_value h');
  Alcotest.(check (array int)) "buckets" (Obs.Hist.buckets h)
    (Obs.Hist.buckets h');
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "quantile %.2f" q)
        (Obs.Hist.quantile h q) (Obs.Hist.quantile h' q))
    [ 0.5; 0.95; 0.99; 1. ];
  (* Merging an imported copy doubles the bucket counts exactly. *)
  let doubled = Obs.Hist.merge h h' in
  Alcotest.(check int) "merge of import doubles count"
    (2 * Obs.Hist.count h)
    (Obs.Hist.count doubled);
  (* A short (pre-resize) bucket array zero-pads. *)
  let short = Obs.Hist.import ~count:3 ~sum:1. ~max_value:0.5 ~buckets:[| 3 |] in
  Alcotest.(check int) "short import keeps count" 3 (Obs.Hist.count short)

let suite =
  [
    Alcotest.test_case "instrument primitives" `Quick test_counter_primitives;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "deterministic across domains" `Quick
      test_deterministic_across_domains;
    Alcotest.test_case "spans deterministic across domains" `Quick
      test_spans_deterministic_across_domains;
    Alcotest.test_case "results bit-identical on/off" `Quick
      test_results_bit_identical;
    Alcotest.test_case "sinks (prometheus, summary, trace)" `Quick test_sinks;
    Alcotest.test_case "timer histogram exposition" `Quick
      test_timer_exposition;
    Alcotest.test_case "probe cache counters consistent" `Quick
      test_probes_are_incremental_solves;
    Alcotest.test_case "hist bounds deterministic" `Quick test_hist_bounds;
    Alcotest.test_case "hist quantiles exact on bounds" `Quick
      test_hist_quantiles_exact;
    Alcotest.test_case "hist merge associative" `Quick
      test_hist_merge_associative;
    Alcotest.test_case "ctx deterministic across domains" `Quick
      test_ctx_deterministic_across_domains;
    Alcotest.test_case "ctx disjoint under concurrency" `Quick
      test_ctx_disjoint_under_concurrency;
    Alcotest.test_case "trace drop accounting" `Quick
      test_trace_drop_accounting;
    Alcotest.test_case "span ids: single root, all reachable" `Quick
      test_span_ids_single_root_reachable;
    Alcotest.test_case "span ids absent untraced" `Quick
      test_span_ids_absent_untraced;
    Alcotest.test_case "span ids: cross-process edge" `Quick
      test_span_ids_cross_process_edge;
    Alcotest.test_case "span json roundtrip" `Quick test_span_json_roundtrip;
    Alcotest.test_case "hist import roundtrip" `Quick
      test_hist_import_roundtrip;
  ]
