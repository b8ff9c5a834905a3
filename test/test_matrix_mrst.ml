(* Tests for the discretized regret matrix and the MRST oracle. *)

open Rrms_core

let feq ?(eps = 1e-9) msg expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" msg expected got)
    true
    (Float.abs (expected -. got) <= eps)

let points = [| [| 1.; 0. |]; [| 0.; 1. |]; [| 0.6; 0.6 |] |]
let funcs = [| [| 1.; 0. |]; [| 0.; 1. |]; [| 0.70710678; 0.70710678 |] |]

let test_build_basics () =
  let m = Regret_matrix.build ~funcs points in
  Alcotest.(check int) "rows" 3 (Regret_matrix.rows m);
  Alcotest.(check int) "cols" 3 (Regret_matrix.cols m);
  (* Winner of each column has zero regret. *)
  feq "winner col 0" 0. (Regret_matrix.get m 0 0);
  feq "winner col 1" 0. (Regret_matrix.get m 1 1);
  feq "winner col 2" 0. (Regret_matrix.get m 2 2);
  (* Cross entries: (0,1) scores 0 under pure-x after best 1. *)
  feq "corner loses other axis" 1. (Regret_matrix.get m 1 0);
  feq "middle under pure-x" 0.4 (Regret_matrix.get m 2 0);
  (* Column best scores. *)
  feq "best col 0" 1. (Regret_matrix.column_best_score m 0);
  feq ~eps:1e-6 "best col 2" (1.2 *. 0.70710678) (Regret_matrix.column_best_score m 2)

let test_distinct_values () =
  let m = Regret_matrix.build ~funcs points in
  let v = Regret_matrix.distinct_values m in
  (* Sorted ascending, unique, contains 0 and 1. *)
  Alcotest.(check bool) "contains 0" true (Array.exists (fun x -> x = 0.) v);
  Alcotest.(check bool) "contains 1" true (Array.exists (fun x -> x = 1.) v);
  for i = 0 to Array.length v - 2 do
    Alcotest.(check bool) "strictly ascending" true (v.(i) < v.(i + 1))
  done

let test_regret_of_rows () =
  let m = Regret_matrix.build ~funcs points in
  (* Keeping everything: zero. *)
  feq "all rows" 0. (Regret_matrix.regret_of_rows m [| 0; 1; 2 |]);
  (* Keeping only the middle point: worst column is an axis. *)
  feq "middle only" 0.4 (Regret_matrix.regret_of_rows m [| 2 |]);
  (* Keeping the two corners: diagonal column suffers. *)
  let expected = ((1.2 -. 1.) /. 1.2) in
  feq ~eps:1e-6 "corners only" expected (Regret_matrix.regret_of_rows m [| 0; 1 |])

let test_mrst_exact_minimal () =
  let m = Regret_matrix.build ~funcs points in
  (* eps = 0: need winners of all three columns = all three rows. *)
  (match Mrst.solve ~solver:Mrst.Exact m ~eps:0. with
  | Some rows -> Alcotest.(check int) "eps=0 needs 3 rows" 3 (Array.length rows)
  | None -> Alcotest.fail "eps=0 should be satisfiable");
  (* eps = 0.41: the middle point alone satisfies every column
     (0.4, 0.4, 0). *)
  match Mrst.solve ~solver:Mrst.Exact m ~eps:0.41 with
  | Some rows ->
      Alcotest.(check int) "one row suffices" 1 (Array.length rows);
      Alcotest.(check int) "it is the middle point" 2 rows.(0)
  | None -> Alcotest.fail "eps=0.41 should be satisfiable"

let test_mrst_greedy_covers () =
  let m = Regret_matrix.build ~funcs points in
  match Mrst.solve ~solver:Mrst.Greedy m ~eps:0.2 with
  | Some rows ->
      feq "greedy cover satisfies threshold within eps" 0.
        (Float.max 0. (Regret_matrix.regret_of_rows m rows -. 0.2))
  | None -> Alcotest.fail "eps=0.2 should be satisfiable"

let test_mrst_greedy_vs_exact_random () =
  let rng = Rrms_rng.Rng.create 111 in
  for _ = 1 to 20 do
    let n = 3 + Rrms_rng.Rng.int rng 12 in
    let pts =
      Array.init n (fun _ ->
          Array.init 3 (fun _ -> Rrms_rng.Rng.float rng 1.))
    in
    let fs = Discretize.grid ~gamma:2 ~m:3 in
    let m = Regret_matrix.build ~funcs:fs pts in
    let eps = Rrms_rng.Rng.float rng 0.5 in
    match (Mrst.solve ~solver:Mrst.Exact m ~eps, Mrst.solve ~solver:Mrst.Greedy m ~eps) with
    | None, None -> ()
    | Some e, Some g ->
        Alcotest.(check bool) "exact <= greedy size" true
          (Array.length e <= Array.length g);
        Alcotest.(check bool) "exact satisfies" true
          (Regret_matrix.regret_of_rows m e <= eps +. 1e-12);
        Alcotest.(check bool) "greedy satisfies" true
          (Regret_matrix.regret_of_rows m g <= eps +. 1e-12)
    | Some _, None | None, Some _ ->
        Alcotest.fail "solvers disagree on satisfiability"
  done

let test_mrst_always_satisfiable_on_built_matrix () =
  (* A matrix built over its own rows always contains each column's
     winner (a zero cell), so MRST succeeds at any eps >= 0 — the
     interesting question is only the cover's size. *)
  let pts = [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let fs = [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let m = Regret_matrix.build ~funcs:fs pts in
  (match Mrst.solve m ~eps:0.5 with
  | Some rows -> Alcotest.(check int) "needs both corners" 2 (Array.length rows)
  | None -> Alcotest.fail "two corners satisfy 0.5");
  (* With a single row, that row is the winner of every column. *)
  let m1 = Regret_matrix.build ~funcs:fs [| [| 1.; 0. |] |] in
  match Mrst.solve m1 ~eps:0. with
  | Some rows -> Alcotest.(check int) "single row covers" 1 (Array.length rows)
  | None -> Alcotest.fail "single-row matrix is satisfiable at eps=0"

(* Regression: an incremental probe after any threshold change — up,
   down, repeated, or to an exact cell value — must equal Mrst.solve
   from scratch at the same threshold.  (Thresholds move both ways; a
   stale bit after a downward move once produced covers smaller than
   the from-scratch answer.) *)
let test_incremental_matches_scratch_after_threshold_changes () =
  let rng = Rrms_rng.Rng.create 2024 in
  for _ = 1 to 10 do
    let n = 4 + Rrms_rng.Rng.int rng 16 in
    let pts =
      Array.init n (fun _ -> Array.init 3 (fun _ -> Rrms_rng.Rng.float rng 1.))
    in
    let fs = Discretize.grid ~gamma:3 ~m:3 in
    let m = Regret_matrix.build ~funcs:fs pts in
    let inc = Mrst.Incremental.create m in
    let values = Regret_matrix.distinct_values m in
    let nv = Array.length values in
    (* A deliberately oscillating probe schedule: up to the top, down to
       the bottom, then binary-search-like jumps, plus exact cell values
       (threshold equality is the edgiest comparison in a probe). *)
    let schedule =
      [
        values.(nv - 1);
        values.(0);
        values.(nv / 2);
        values.(nv / 4);
        values.((3 * nv) / 4);
        values.(nv / 2);
        0.05;
        0.9;
        0.05;
        values.(0);
      ]
    in
    List.iter
      (fun eps ->
        let fresh = Mrst.solve ~solver:Mrst.Exact m ~eps in
        let incr = Mrst.Incremental.solve ~solver:Mrst.Exact inc ~eps in
        match (fresh, incr) with
        | None, None -> ()
        | Some f, Some i ->
            (* Exact covers of the same instance: identical size, and
               both must satisfy the threshold. *)
            Alcotest.(check int)
              (Printf.sprintf "cover size equal at eps=%g" eps)
              (Array.length f) (Array.length i);
            Alcotest.(check bool)
              (Printf.sprintf "incremental cover satisfies eps=%g" eps)
              true
              (Regret_matrix.regret_of_rows m i <= eps +. 1e-12)
        | Some _, None | None, Some _ ->
            Alcotest.fail
              (Printf.sprintf
                 "incremental and from-scratch disagree on satisfiability \
                  at eps=%g"
                 eps))
      schedule
  done

let expect_invalid_input what f =
  try
    ignore (f ());
    Alcotest.fail (Printf.sprintf "expected %s failure" what)
  with
  | Rrms_guard.Guard.Error.Guard_error
      (Rrms_guard.Guard.Error.Invalid_input _) ->
      ()

let test_build_invalid () =
  expect_invalid_input "no points" (fun () ->
      Regret_matrix.build ~funcs [||]);
  expect_invalid_input "no funcs" (fun () ->
      Regret_matrix.build ~funcs:[||] points)

(* Wide thresholded rows that agree on their first 640 columns (all
   ten leading 63-bit words) and differ only in the last 60.  Every row
   scores 1 on the first coordinate, so the 640 copies of (1, 0, 0) are
   zero-regret for all of them; the last 60 columns sweep (0, cos θ,
   sin θ) over points on the anti-diagonal a + b = 1, each appearing
   twice so the exact solver's dedup has true duplicates to collapse. *)
let wide_matrix () =
  let early = 640 and late = 60 in
  let funcs =
    Array.init (early + late) (fun j ->
        if j < early then [| 1.; 0.; 0. |]
        else
          let t = Float.pi /. 2. *. float_of_int (j - early) /. float_of_int (late - 1) in
          [| 0.; cos t; sin t |])
  in
  let pts =
    Array.init 24 (fun i ->
        let a = float_of_int (i mod 12) /. 11. in
        [| 1.; a; 1. -. a |])
  in
  Regret_matrix.build ~funcs pts

(* Algorithm 5 as written, deduplicating on the list of set elements:
   collapse equal non-empty rows keeping the first, exact cover over
   the distinct sets. *)
let exact_reference m ~eps =
  let open Rrms_setcover in
  let k = Regret_matrix.cols m in
  let seen = Hashtbl.create 16 and reps = ref [] in
  for i = 0 to Regret_matrix.rows m - 1 do
    let b = Bitset.create k in
    for f = 0 to k - 1 do
      if Regret_matrix.get m i f <= eps then Bitset.set b f
    done;
    let key = Bitset.elements b in
    if key <> [] && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      reps := (i, b) :: !reps
    end
  done;
  let reps = Array.of_list (List.rev !reps) in
  Setcover.exact (Setcover.of_bitsets ~universe:k (Array.map snd reps))
  |> Option.map (Array.map (fun j -> fst reps.(j)))

let test_exact_wide_rows () =
  let open Rrms_setcover in
  (* The dedup key reads every word: sets that differ in one bit past
     word ten hash apart. *)
  let hashes =
    List.init 60 (fun j -> Bitset.hash (Bitset.of_list 700 [ 0; 640 + j ]))
  in
  Alcotest.(check int) "late bits separate hashes" 60
    (List.length (List.sort_uniq compare hashes));
  let m = wide_matrix () in
  let inc = Mrst.Incremental.create m in
  let values = Regret_matrix.distinct_values m in
  let checked = ref 0 in
  Array.iteri
    (fun j eps ->
      if j mod 7 = 0 then begin
        incr checked;
        let want = exact_reference m ~eps in
        Alcotest.(check (option (array int)))
          (Printf.sprintf "exact cover at eps=%g" eps)
          want
          (Mrst.solve ~solver:Mrst.Exact m ~eps);
        Alcotest.(check (option (array int)))
          (Printf.sprintf "incremental exact cover at eps=%g" eps)
          want
          (Mrst.Incremental.solve ~solver:Mrst.Exact inc ~eps)
      end)
    values;
  Alcotest.(check bool) "several thresholds" true (!checked >= 5)

let suite =
  [
    Alcotest.test_case "build basics" `Quick test_build_basics;
    Alcotest.test_case "distinct values" `Quick test_distinct_values;
    Alcotest.test_case "regret of rows" `Quick test_regret_of_rows;
    Alcotest.test_case "mrst exact minimal" `Quick test_mrst_exact_minimal;
    Alcotest.test_case "mrst greedy covers" `Quick test_mrst_greedy_covers;
    Alcotest.test_case "mrst greedy vs exact" `Quick test_mrst_greedy_vs_exact_random;
    Alcotest.test_case "mrst satisfiable on built matrix" `Quick
      test_mrst_always_satisfiable_on_built_matrix;
    Alcotest.test_case "incremental = from-scratch after threshold changes"
      `Quick test_incremental_matches_scratch_after_threshold_changes;
    Alcotest.test_case "build invalid" `Quick test_build_invalid;
    Alcotest.test_case "exact dedup on wide rows differing late" `Quick
      test_exact_wide_rows;
  ]
