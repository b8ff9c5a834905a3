(* Determinism of the domain-pool kernels and correctness of the
   incremental MRST probe path.

   The contract under test: every parallel kernel returns bit-identical
   results with [domains = 1] (serial fallback) and [domains = 4]
   (three spawned workers plus the caller), and
   [Mrst.Incremental.solve] matches from-scratch [Mrst.solve] at every
   threshold, however the probe sequence moves. *)

open Rrms_core

let random_points rng ~n ~m =
  Array.init n (fun _ -> Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.))

let anti_points rng ~n ~m =
  Rrms_dataset.Dataset.rows
    (Rrms_dataset.Dataset.normalize
       (Rrms_dataset.Synthetic.anticorrelated rng ~n ~m))

(* --- pool combinators ------------------------------------------------ *)

let test_parallel_for_covers () =
  List.iter
    (fun domains ->
      let n = 1000 in
      let hits = Array.make n 0 in
      Rrms_parallel.parallel_for ~domains ~min_chunk:16 n (fun i ->
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "every index ran exactly once (domains=%d)" domains)
        true
        (Array.for_all (fun h -> h = 1) hits))
    [ 1; 2; 4 ]

let test_parallel_for_with_matches_serial () =
  (* Each iteration fills a domain-local scratch row before reading it,
     so the result must not depend on how iterations share a row. *)
  let n = 777 in
  let row i buf =
    for j = 0 to Array.length buf - 1 do
      buf.(j) <- (i * 7919 + j) mod 1013
    done;
    Array.fold_left ( + ) 0 buf
  in
  let expected = Array.init n (fun i -> row i (Array.make 8 0)) in
  List.iter
    (fun domains ->
      let got = Array.make n (-1) in
      Rrms_parallel.parallel_for_with ~domains ~min_chunk:16
        ~scratch:(fun () -> Array.make 8 0)
        n
        (fun buf i -> got.(i) <- row i buf);
      Alcotest.(check (array int))
        (Printf.sprintf "parallel_for_with (domains=%d)" domains)
        expected got)
    [ 1; 4 ]

let test_reduce_deterministic_floats () =
  (* Float addition is not associative, so identical results across
     domain counts prove the chunk layout is pool-size independent. *)
  let n = 5000 in
  let f i = 1. /. float_of_int (i + 1) in
  let run domains =
    Rrms_parallel.reduce ~domains ~min_chunk:64 ~neutral:0.
      ~combine:( +. ) n f
  in
  let serial = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "reduce bit-identical (domains=%d)" domains)
        serial (run domains))
    [ 2; 4 ]

let test_pool_exception_propagates () =
  Alcotest.check_raises "exception crosses the pool boundary"
    (Invalid_argument "boom") (fun () ->
      Rrms_parallel.parallel_for ~domains:4 ~min_chunk:1 64 (fun i ->
          if i = 63 then invalid_arg "boom"))

(* --- kernel determinism: serial vs 4 domains ------------------------- *)

let test_sfs_deterministic () =
  let rng = Rrms_rng.Rng.create 2024 in
  List.iter
    (fun (n, m) ->
      let pts = anti_points rng ~n ~m in
      let serial = Rrms_skyline.Skyline.sfs ~domains:1 pts in
      let parallel = Rrms_skyline.Skyline.sfs ~domains:4 pts in
      Alcotest.(check (array int))
        (Printf.sprintf "sfs identical (n=%d m=%d)" n m)
        serial parallel)
    [ (300, 3); (1500, 4); (997, 5) ]

let test_matrix_build_deterministic () =
  let rng = Rrms_rng.Rng.create 7 in
  let pts = random_points rng ~n:400 ~m:4 in
  let funcs = Discretize.grid ~gamma:3 ~m:4 in
  let m1 = Regret_matrix.build ~domains:1 ~funcs pts in
  let m4 = Regret_matrix.build ~domains:4 ~funcs pts in
  Alcotest.(check int) "rows" (Regret_matrix.rows m1) (Regret_matrix.rows m4);
  Alcotest.(check int) "cols" (Regret_matrix.cols m1) (Regret_matrix.cols m4);
  let identical = ref true in
  for i = 0 to Regret_matrix.rows m1 - 1 do
    for f = 0 to Regret_matrix.cols m1 - 1 do
      if Regret_matrix.get m1 i f <> Regret_matrix.get m4 i f then
        identical := false
    done
  done;
  Alcotest.(check bool) "every cell bit-identical" true !identical;
  Alcotest.(check (array (float 0.)))
    "distinct values identical"
    (Regret_matrix.distinct_values m1)
    (Regret_matrix.distinct_values m4)

let test_hd_rrms_deterministic () =
  let rng = Rrms_rng.Rng.create 99 in
  let pts = anti_points rng ~n:1200 ~m:4 in
  let r1 = Hd_rrms.solve ~gamma:3 ~domains:1 pts ~r:4 in
  let r4 = Hd_rrms.solve ~gamma:3 ~domains:4 pts ~r:4 in
  Alcotest.(check (array int))
    "selected identical" r1.Hd_rrms.selected r4.Hd_rrms.selected;
  Alcotest.(check (float 0.)) "eps_min identical" r1.Hd_rrms.eps_min
    r4.Hd_rrms.eps_min;
  Alcotest.(check (float 0.))
    "discretized regret identical" r1.Hd_rrms.discretized_regret
    r4.Hd_rrms.discretized_regret

let test_hd_greedy_deterministic () =
  let rng = Rrms_rng.Rng.create 123 in
  let pts = anti_points rng ~n:900 ~m:4 in
  let r1 = Hd_greedy.solve ~gamma:3 ~domains:1 pts ~r:5 in
  let r4 = Hd_greedy.solve ~gamma:3 ~domains:4 pts ~r:5 in
  Alcotest.(check (array int))
    "selected identical" r1.Hd_greedy.selected r4.Hd_greedy.selected;
  Alcotest.(check (float 0.))
    "regret identical" r1.Hd_greedy.discretized_regret
    r4.Hd_greedy.discretized_regret

let test_mrst_solve_deterministic () =
  let rng = Rrms_rng.Rng.create 5 in
  let pts = random_points rng ~n:200 ~m:3 in
  let funcs = Discretize.grid ~gamma:4 ~m:3 in
  let m = Regret_matrix.build ~funcs pts in
  List.iter
    (fun eps ->
      let opt_rows = Alcotest.(option (array int)) in
      Alcotest.check opt_rows
        (Printf.sprintf "Mrst.solve identical (eps=%g)" eps)
        (Mrst.solve ~domains:1 m ~eps)
        (Mrst.solve ~domains:4 m ~eps))
    [ 0.; 0.05; 0.2; 0.5; 1. ]

(* --- incremental MRST vs from-scratch -------------------------------- *)

(* Probe a zig-zag threshold sequence so the incremental prefix pointers
   both advance and retreat, including repeats and off-grid values. *)
let probe_sequence values rng =
  let nv = Array.length values in
  let probes = ref [] in
  for _ = 1 to 40 do
    let v = values.(Rrms_rng.Rng.int rng nv) in
    let jitter =
      match Rrms_rng.Rng.int rng 3 with
      | 0 -> v
      | 1 -> v +. 1e-9
      | _ -> Float.max 0. (v -. 1e-9)
    in
    probes := jitter :: !probes
  done;
  (* Make sure the extremes and an exact repeat are present. *)
  values.(0) :: values.(nv - 1) :: values.(nv - 1) :: !probes

let test_incremental_matches_scratch () =
  let rng = Rrms_rng.Rng.create 31337 in
  for trial = 1 to 8 do
    let n = 20 + Rrms_rng.Rng.int rng 80 in
    let m = 2 + Rrms_rng.Rng.int rng 2 in
    let pts = random_points rng ~n ~m in
    let funcs = Discretize.grid ~gamma:(2 + Rrms_rng.Rng.int rng 2) ~m in
    let matrix = Regret_matrix.build ~funcs pts in
    let inc = Mrst.Incremental.create matrix in
    let values = Regret_matrix.distinct_values matrix in
    List.iter
      (fun eps ->
        let scratch = Mrst.solve matrix ~eps in
        let incremental = Mrst.Incremental.solve inc ~eps in
        Alcotest.check
          Alcotest.(option (array int))
          (Printf.sprintf "trial %d eps=%g incremental = scratch" trial eps)
          scratch incremental)
      (probe_sequence values rng)
  done

let test_incremental_parallel_deterministic () =
  let rng = Rrms_rng.Rng.create 8080 in
  let pts = random_points rng ~n:150 ~m:3 in
  let funcs = Discretize.grid ~gamma:3 ~m:3 in
  let matrix = Regret_matrix.build ~funcs pts in
  let inc1 = Mrst.Incremental.create ~domains:1 matrix in
  let inc4 = Mrst.Incremental.create ~domains:4 matrix in
  let values = Regret_matrix.distinct_values matrix in
  Array.iter
    (fun eps ->
      Alcotest.check
        Alcotest.(option (array int))
        (Printf.sprintf "incremental domains 1 vs 4 (eps=%g)" eps)
        (Mrst.Incremental.solve ~domains:1 inc1 ~eps)
        (Mrst.Incremental.solve ~domains:4 inc4 ~eps))
    values

let test_search_on_matrix_uses_incremental () =
  (* The binary search must agree with a hand-rolled search that only
     uses from-scratch probes — on matrices small enough to enumerate —
     in answer and in probe count.  A second search over the same
     probe state, left at the first search's last threshold (the
     pooled-state reuse of the serve layer), must repeat it exactly. *)
  let rng = Rrms_rng.Rng.create 4242 in
  for _ = 1 to 6 do
    let n = 10 + Rrms_rng.Rng.int rng 40 in
    let pts = random_points rng ~n ~m:3 in
    let funcs = Discretize.grid ~gamma:2 ~m:3 in
    let matrix = Regret_matrix.build ~funcs pts in
    let r = 1 + Rrms_rng.Rng.int rng 3 in
    let values = Regret_matrix.distinct_values matrix in
    let scratch_best = ref None in
    let scratch_probes = ref 0 in
    let low = ref 0 and high = ref (Array.length values - 1) in
    while !low <= !high do
      let mid = (!low + !high) / 2 in
      incr scratch_probes;
      (match Mrst.solve matrix ~eps:values.(mid) with
      | Some rows when Array.length rows <= r ->
          scratch_best := Some (rows, values.(mid));
          high := mid - 1
      | Some _ | None -> low := mid + 1)
    done;
    let inc = Mrst.Incremental.create matrix in
    let first = Hd_rrms.search_on_matrix ~inc matrix ~r in
    let answer = Alcotest.(option (pair (array int) (float 0.))) in
    Alcotest.check answer
      "binary search: incremental probes = from-scratch probes"
      !scratch_best first.found;
    Alcotest.(check int) "probe count = from-scratch loop" !scratch_probes
      first.probes;
    let again = Hd_rrms.search_on_matrix ~inc matrix ~r in
    Alcotest.check answer "reused probe state: same answer" first.found
      again.found;
    Alcotest.(check int) "reused probe state: same probe count" first.probes
      again.probes
  done

(* --- flat layout vs boxed reference ---------------------------------- *)

(* Every accessor of the flat row-major matrix must agree bit-for-bit
   with the obvious boxed (row-of-arrays) implementation, on the full
   matrix, on a permuted column view, and on the view's materialized
   copy. *)
let test_flat_matrix_matches_boxed () =
  let rng = Rrms_rng.Rng.create 606 in
  let pts = random_points rng ~n:120 ~m:3 in
  let funcs = Discretize.grid ~gamma:3 ~m:3 in
  let matrix = Regret_matrix.build ~funcs pts in
  let s = Regret_matrix.rows matrix and k = Regret_matrix.cols matrix in
  let boxed =
    Array.init s (fun i ->
        Array.init k (fun f -> Regret_matrix.get matrix i f))
  in
  (* blit_row = the boxed row, bit-for-bit. *)
  let row = Array.make k nan in
  let blit_ok = ref true in
  for i = 0 to s - 1 do
    Regret_matrix.blit_row matrix i row;
    if row <> boxed.(i) then blit_ok := false
  done;
  Alcotest.(check bool) "blit_row = boxed rows" true !blit_ok;
  (* regret_of_rows = boxed column-mins then max. *)
  let some_rows = [| 0; 2; 5; s - 1 |] in
  let mins = Array.make k infinity in
  Array.iter
    (fun i ->
      for f = 0 to k - 1 do
        if boxed.(i).(f) < mins.(f) then mins.(f) <- boxed.(i).(f)
      done)
    some_rows;
  let expected = Array.fold_left Float.max neg_infinity mins in
  Alcotest.(check (float 0.))
    "regret_of_rows = boxed reference" expected
    (Regret_matrix.regret_of_rows matrix some_rows);
  (* row_worst_against / row_update_mins = their boxed references. *)
  let current = Array.copy mins in
  let worst_ok = ref true in
  for i = 0 to s - 1 do
    let w = ref neg_infinity in
    for f = 0 to k - 1 do
      let v = Float.min current.(f) boxed.(i).(f) in
      if v > !w then w := v
    done;
    if Regret_matrix.row_worst_against matrix i current <> !w then
      worst_ok := false
  done;
  Alcotest.(check bool) "row_worst_against = boxed reference" true !worst_ok;
  let updated = Array.copy current in
  Regret_matrix.row_update_mins matrix 3 updated;
  let expected_mins =
    Array.init k (fun f ->
        if boxed.(3).(f) < current.(f) then boxed.(3).(f) else current.(f))
  in
  Alcotest.(check (array (float 0.)))
    "row_update_mins = boxed reference" expected_mins updated;
  (* A permuted column subset, and its materialized copy. *)
  let cols = [| k - 1; 0; k / 2 |] in
  let view = Regret_matrix.select_cols matrix cols in
  let mat = Regret_matrix.materialize view in
  let view_ok = ref true in
  for i = 0 to s - 1 do
    Array.iteri
      (fun f' f ->
        if
          Regret_matrix.get view i f' <> boxed.(i).(f)
          || Regret_matrix.get mat i f' <> boxed.(i).(f)
        then view_ok := false)
      cols
  done;
  Alcotest.(check bool) "view and materialized cells = boxed subset" true
    !view_ok;
  (* distinct_values = sort + dedup of every cell, and the result is
     cached (same physical array on the second call). *)
  let all = Array.concat (Array.to_list boxed) in
  Array.sort Float.compare all;
  let dedup = ref [] in
  Array.iter
    (fun v ->
      match !dedup with
      | w :: _ when Float.compare w v = 0 -> ()
      | _ -> dedup := v :: !dedup)
    all;
  let expected_distinct = Array.of_list (List.rev !dedup) in
  Alcotest.(check (array (float 0.)))
    "distinct_values = sorted dedup of boxed cells" expected_distinct
    (Regret_matrix.distinct_values matrix);
  Alcotest.(check bool) "distinct_values cached" true
    (Regret_matrix.distinct_values matrix
    == Regret_matrix.distinct_values matrix)

let test_select_cols_guard_errors () =
  let rng = Rrms_rng.Rng.create 607 in
  let pts = random_points rng ~n:30 ~m:3 in
  let funcs = Discretize.grid ~gamma:2 ~m:3 in
  let matrix = Regret_matrix.build ~funcs pts in
  let expect_invalid label f =
    match f () with
    | exception Rrms_guard.Guard.Error.Guard_error
        (Rrms_guard.Guard.Error.Invalid_input _) ->
        ()
    | _ -> Alcotest.failf "%s: expected Guard_error Invalid_input" label
  in
  expect_invalid "empty column set" (fun () ->
      Regret_matrix.select_cols matrix [||]);
  expect_invalid "column out of range" (fun () ->
      Regret_matrix.select_cols matrix [| Regret_matrix.cols matrix |]);
  expect_invalid "negative column" (fun () ->
      Regret_matrix.select_cols matrix [| -1 |])

(* --- Fsort vs Array.sort Float.compare -------------------------------- *)

let bits x = Int64.bits_of_float x

let test_fsort_matches_reference () =
  let rng = Rrms_rng.Rng.create 51 in
  (* [Float.compare] calls -0. and +0. equal, so [Array.sort] (unstable)
     leaves signed zeros in unspecified order; any valid output agrees
     with the reference under [Float.compare] elementwise and preserves
     the input bit patterns as a multiset. *)
  let check_one label a =
    let b = Array.copy a in
    let in_bits = Array.map bits a in
    Fsort.sort a;
    Array.sort Float.compare b;
    Alcotest.(check bool)
      (label ^ ": Float.compare order")
      true
      (Array.for_all2 (fun x y -> Float.compare x y = 0) a b);
    let out_bits = Array.map bits a in
    Array.sort Int64.compare in_bits;
    Array.sort Int64.compare out_bits;
    Alcotest.(check bool)
      (label ^ ": permutation of the input bits")
      true (in_bits = out_bits)
  in
  check_one "empty" [||];
  check_one "singleton" [| 0.7 |];
  check_one "signed zeros interleaved" [| 0.; -0.; 1.; -0.; 0.; -0. |];
  check_one "fallback: negatives and >= 2" [| 3.; -1.; 0.5; 2.; 1.9999 |];
  check_one "fallback: infinities and nan" [| infinity; 0.1; nan; 0. |];
  for trial = 1 to 20 do
    let n = 1 + Rrms_rng.Rng.int rng 400 in
    let a =
      Array.init n (fun _ ->
          (* In-range values with heavy duplication and some zeros. *)
          match Rrms_rng.Rng.int rng 10 with
          | 0 -> 0.
          | 1 -> -0.
          | 2 -> float_of_int (Rrms_rng.Rng.int rng 4) /. 2.
          | _ -> Rrms_rng.Rng.float rng 2.)
    in
    check_one (Printf.sprintf "random trial %d" trial) a
  done

let test_fsort_pairs_matches_reference () =
  let rng = Rrms_rng.Rng.create 52 in
  for trial = 1 to 20 do
    let n = 1 + Rrms_rng.Rng.int rng 300 in
    (* Duplicate-heavy values so the index tie-break is exercised. *)
    let vals =
      Array.init n (fun _ -> float_of_int (Rrms_rng.Rng.int rng 8) /. 4.)
    in
    let idx = Array.init n Fun.id in
    let pairs = Array.init n (fun q -> (vals.(q), idx.(q))) in
    Array.sort
      (fun (v1, i1) (v2, i2) ->
        let c = Float.compare v1 v2 in
        if c <> 0 then c else compare i1 i2)
      pairs;
    Fsort.sort_pairs vals idx;
    Alcotest.(check bool)
      (Printf.sprintf "sort_pairs trial %d" trial)
      true
      (Array.for_all2
         (fun (v, i) q -> bits vals.(q) = bits v && idx.(q) = i)
         pairs
         (Array.init n Fun.id))
  done

(* --- satellite regressions ------------------------------------------- *)

let test_bitset_inter_count () =
  let open Rrms_setcover in
  let a = Bitset.of_list 200 [ 0; 1; 62; 63; 64; 126; 199 ] in
  let b = Bitset.of_list 200 [ 1; 63; 100; 126; 198 ] in
  Alcotest.(check int) "inter_count" 3 (Bitset.inter_count a b);
  Alcotest.(check int) "inter_count symmetric" 3 (Bitset.inter_count b a);
  Alcotest.(check int)
    "inter + diff = count" (Bitset.count a)
    (Bitset.inter_count a b + Bitset.diff_count a ~minus:b);
  Alcotest.(check int) "empty inter" 0
    (Bitset.inter_count (Bitset.create 200) b)

(* A probe state must belong to the matrix it searches.  States built
   for the γ=6 and γ=2 matrices over one skyline have the same row count;
   a search once accepted the γ=6 state for the γ=2 matrix and returned
   a worse answer still marked Exact. *)
let test_search_rejects_foreign_inc () =
  let rng = Rrms_rng.Rng.create 77 in
  let pts = anti_points rng ~n:400 ~m:3 in
  let sky = Rrms_skyline.Skyline.sfs pts in
  let sky_pts = Array.map (fun i -> pts.(i)) sky in
  let matrix gamma =
    Regret_matrix.build ~funcs:(Discretize.grid ~gamma ~m:3) sky_pts
  in
  let m6 = matrix 6 and m2 = matrix 2 in
  let inc6 = Mrst.Incremental.create m6 in
  ignore (Hd_rrms.search_on_matrix ~inc:inc6 m6 ~r:4 : Hd_rrms.search);
  (match Hd_rrms.search_on_matrix ~inc:inc6 m2 ~r:4 with
  | (_ : Hd_rrms.search) ->
      Alcotest.fail "a γ=6 probe state was accepted for the γ=2 matrix"
  | exception
      Rrms_guard.Guard.Error.Guard_error
        (Rrms_guard.Guard.Error.Invalid_input _) ->
      ());
  let inc2 = Mrst.Incremental.create m2 in
  Alcotest.(check (option (pair (array int) (float 0.))))
    "a matching probe state gives the fresh answer"
    (Hd_rrms.search_on_matrix m2 ~r:4).found
    (Hd_rrms.search_on_matrix ~inc:inc2 m2 ~r:4).found

let test_distinct_values_duplicates () =
  (* A duplicate-heavy matrix: every point tied, so one distinct value
     per column pattern — the single-pass dedup must collapse them. *)
  let pts = Array.make 50 [| 0.5; 0.5 |] in
  let funcs = Discretize.grid ~gamma:3 ~m:2 in
  let matrix = Regret_matrix.build ~funcs pts in
  let v = Regret_matrix.distinct_values matrix in
  Alcotest.(check bool) "non-empty" true (Array.length v > 0);
  for i = 0 to Array.length v - 2 do
    Alcotest.(check bool) "strictly ascending" true (v.(i) < v.(i + 1))
  done;
  (* All rows are identical, so the distinct set is one value per
     column at most. *)
  Alcotest.(check bool)
    "collapsed duplicates" true
    (Array.length v <= Regret_matrix.cols matrix)

let suite =
  [
    Alcotest.test_case "parallel_for covers every index" `Quick
      test_parallel_for_covers;
    Alcotest.test_case "parallel_for_with matches serial" `Quick
      test_parallel_for_with_matches_serial;
    Alcotest.test_case "reduce is pool-size independent" `Quick
      test_reduce_deterministic_floats;
    Alcotest.test_case "pool propagates exceptions" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "sfs: domains 1 = domains 4" `Quick
      test_sfs_deterministic;
    Alcotest.test_case "matrix build: domains 1 = domains 4" `Quick
      test_matrix_build_deterministic;
    Alcotest.test_case "hd-rrms: domains 1 = domains 4" `Quick
      test_hd_rrms_deterministic;
    Alcotest.test_case "hd-greedy: domains 1 = domains 4" `Quick
      test_hd_greedy_deterministic;
    Alcotest.test_case "mrst solve: domains 1 = domains 4" `Quick
      test_mrst_solve_deterministic;
    Alcotest.test_case "incremental probes = from-scratch (property)" `Quick
      test_incremental_matches_scratch;
    Alcotest.test_case "incremental: domains 1 = domains 4" `Quick
      test_incremental_parallel_deterministic;
    Alcotest.test_case "search_on_matrix = scratch search" `Quick
      test_search_on_matrix_uses_incremental;
    Alcotest.test_case "search_on_matrix rejects a foreign inc" `Quick
      test_search_rejects_foreign_inc;
    Alcotest.test_case "bitset inter_count" `Quick test_bitset_inter_count;
    Alcotest.test_case "distinct_values on duplicate-heavy matrix" `Quick
      test_distinct_values_duplicates;
    Alcotest.test_case "flat matrix = boxed reference" `Quick
      test_flat_matrix_matches_boxed;
    Alcotest.test_case "select_cols guard errors" `Quick
      test_select_cols_guard_errors;
    Alcotest.test_case "fsort = Array.sort Float.compare" `Quick
      test_fsort_matches_reference;
    Alcotest.test_case "fsort pairs = comparator sort" `Quick
      test_fsort_pairs_matches_reference;
  ]
