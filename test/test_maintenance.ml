(* Live maintenance of RRMS answers under inserts and deletes, in 2D
   ([suite_2d], the exact 2D DP) and in m dimensions ([suite_hd],
   HD-RRMS).

   The one maintenance path is the served one: {!Rrms_core.Delta} plus
   {!Rrms_serve.Store.mutate}.  Every maintained answer must equal a
   from-scratch solve over the live rows, and a mutation that cannot
   change the answer (a dominated insert, an interior delete) must keep
   the cached result instead of solving again. *)

module Store = Rrms_serve.Store
module Json = Rrms_serve.Json
module Protocol = Rrms_serve.Protocol
module Dataset = Rrms_dataset.Dataset
module Guard = Rrms_guard.Guard
module Rng = Rrms_rng.Rng
module Skyline = Rrms_skyline.Skyline
open Rrms_core

let table = "live"

let with_pin store f =
  match Store.pin store table with
  | None -> Alcotest.fail "table not resident"
  | Some h ->
      Fun.protect ~finally:(fun () -> Store.unpin store h) (fun () -> f h)

(* A one-table store whose skyline is materialized up front, so every
   batch maintains it (and the answers built on it) incrementally. *)
let open_table rows =
  let m = Array.length rows.(0) in
  let store = Store.create ~domains:1 () in
  ignore
    (Store.add store
       (Dataset.create ~name:table
          ~attributes:(Array.init m (Printf.sprintf "a%d"))
          rows)
      : Store.loaded);
  ignore (with_pin store (Store.skyline_of store) : int array);
  store

let mutate store ops =
  match Store.mutate store ~dataset:table ops with
  | Ok r ->
      if r.skyline_path = None then Alcotest.fail "skyline was not maintained";
      r
  | Error _ -> Alcotest.fail "mutation unexpectedly refused"

let ask ?(algo = Protocol.A2d_exact) ?(gamma = 4) store ~r =
  match Store.query store (Test_serve.query ~algo ~r ~gamma table) with
  | Ok o -> o
  | Error _ -> Alcotest.fail "query unexpectedly refused"

let regret_of (o : Store.outcome) =
  Option.get (Option.bind (Json.member "regret" o.result) Json.num)

let selected_of (o : Store.outcome) =
  match Json.member "selected" o.result with
  | Some (Json.Arr l) ->
      Array.of_list (List.map (fun j -> Option.get (Json.int_ j)) l)
  | _ -> Alcotest.fail "answer without a selected member"

let live_rows store = with_pin store Store.pinned_rows

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected Invalid_input")
  | exception Guard.Error.Guard_error (Guard.Error.Invalid_input _) -> ()

let point rng m = Array.init m (fun _ -> Rng.float rng 1.)

(* ------------------------------------------------------------------ *)
(* 2D                                                                 *)
(* ------------------------------------------------------------------ *)

let scratch_2d rows r = (Rrms2d.solve_exact rows ~r).Rrms2d.regret

let test_matches_from_scratch_under_inserts () =
  let rng = Rng.create 201 in
  let r = 3 in
  let store = open_table [| point rng 2 |] in
  for step = 2 to 60 do
    ignore (mutate store [ Delta.Insert (point rng 2) ] : Store.mutated);
    if step mod 10 = 0 then
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "regret matches at step %d" step)
        (scratch_2d (live_rows store) r)
        (regret_of (ask store ~r))
  done

let test_dominated_inserts_skip_recompute () =
  let store = open_table [| [| 1.; 1. |]; [| 0.5; 1.5 |] |] in
  let cold = ask store ~r:2 in
  (* All dominated by (1,1): the cached answer survives every batch. *)
  for _ = 1 to 20 do
    let res = mutate store [ Delta.Insert [| 0.3; 0.4 |] ] in
    Alcotest.(check int) "answer kept" 1 res.results_kept;
    let warm = ask store ~r:2 in
    Alcotest.(check bool) "answered from the cache" true warm.cached;
    Alcotest.(check string) "same answer" (Json.to_string cold.result)
      (Json.to_string warm.result)
  done;
  (* A new skyline point invalidates it. *)
  let res = mutate store [ Delta.Insert [| 2.; 0.1 |] ] in
  Alcotest.(check int) "answer evicted" 0 res.results_kept;
  Alcotest.(check bool) "solved again" false (ask store ~r:2).cached

let test_random_insert_recompute_rate () =
  (* Under random insertion order the expected number of skyline-touching
     inserts is O(log² n); fresh solves must be a small fraction. *)
  let rng = Rng.create 202 in
  let store = open_table [| point rng 2 |] in
  let n = 1_000 in
  let solves = ref 0 in
  for _ = 1 to n do
    ignore (mutate store [ Delta.Insert (point rng 2) ] : Store.mutated);
    (* Query after every insert, so each eviction costs one solve. *)
    if not (ask store ~r:3).cached then incr solves
  done;
  Alcotest.(check bool)
    (Printf.sprintf "solves (%d) << inserts (%d)" !solves n)
    true
    (!solves < n / 5)

let test_remove () =
  let store = open_table [| [| 0.; 1. |]; [| 0.7; 0.7 |]; [| 1.; 0. |] |] in
  Alcotest.(check bool) "three points, r=2: positive regret" true
    (regret_of (ask store ~r:2) > 0.);
  (* Removing a non-skyline point keeps the answer. *)
  ignore (mutate store [ Delta.Insert [| 0.1; 0.1 |] ] : Store.mutated);
  ignore (ask store ~r:2 : Store.outcome);
  let res = mutate store [ Delta.Delete 3 ] in
  Alcotest.(check int) "interior removal keeps the answer" 1 res.results_kept;
  Alcotest.(check bool) "answered from the cache" true (ask store ~r:2).cached;
  (* Removing a skyline member solves again; with two points left the
     regret drops to 0. *)
  ignore (mutate store [ Delta.Delete 1 ] : Store.mutated);
  Alcotest.(check (float 1e-9)) "regret after removing the middle" 0.
    (regret_of (ask store ~r:2));
  Alcotest.(check int) "two live tuples" 2 (Array.length (live_rows store));
  (* A delete past the end is refused and changes nothing. *)
  expect_invalid "delete past the end" (fun () ->
      mutate store [ Delta.Delete 5 ]);
  Alcotest.(check int) "size unchanged" 2 (Array.length (live_rows store))

let test_remove_matches_from_scratch () =
  let rng = Rng.create 203 in
  let store = open_table (Array.init 40 (fun _ -> point rng 2)) in
  ignore (ask store ~r:3 : Store.outcome);
  for left = 40 downto 21 do
    ignore (mutate store [ Delta.Delete (Rng.int rng left) ] : Store.mutated);
    Alcotest.(check (float 1e-9)) "regret matches after removal"
      (scratch_2d (live_rows store) 3)
      (regret_of (ask store ~r:3))
  done

let test_handles_stable () =
  (* Rows are addressed by position: a delete shifts every later row
     down by one.  An answer kept across it has its indices renamed with
     the rows (HD-RRMS cites skyline points, so it survives the shift),
     and the 2D answer solved again names the tuples a fresh solve
     selects. *)
  let rows = [| [| 0.2; 0.1 |]; [| 0.; 1. |]; [| 0.7; 0.7 |]; [| 1.; 0. |] |] in
  let store = open_table rows in
  let hd = ask ~algo:Protocol.Hd_rrms store ~r:2 in
  ignore (ask store ~r:2 : Store.outcome);
  let res = mutate store [ Delta.Delete 0 ] in
  Alcotest.(check int) "the HD answer is kept" 1 res.results_kept;
  let live = live_rows store in
  Alcotest.(check (array (array (float 0.)))) "later rows shift down"
    (Array.sub rows 1 3) live;
  let kept = ask ~algo:Protocol.Hd_rrms store ~r:2 in
  Alcotest.(check bool) "answered from the cache" true kept.cached;
  Alcotest.(check (array int)) "indices renamed with the rows"
    (Array.map (fun i -> i - 1) (selected_of hd))
    (selected_of kept);
  Alcotest.(check (array int)) "renamed indices = fresh solve"
    (Hd_rrms.solve ~gamma:4 live ~r:2).Hd_rrms.selected
    (selected_of kept);
  Alcotest.(check (array int)) "2D answer = fresh solve"
    (Rrms2d.solve_exact live ~r:2).Rrms2d.selected
    (selected_of (ask store ~r:2))

let test_empty_table () =
  (* A batch may not empty a dataset: it is refused whole. *)
  let store = open_table [| [| 0.4; 0.6 |] |] in
  expect_invalid "delete the only row" (fun () ->
      mutate store [ Delta.Delete 0 ]);
  expect_invalid "insert, then delete both" (fun () ->
      mutate store
        [ Delta.Insert [| 1.; 1. |]; Delta.Delete 0; Delta.Delete 0 ]);
  let one = ask store ~r:2 in
  Alcotest.(check (array int)) "one-row selection" [| 0 |] (selected_of one);
  Alcotest.(check (float 0.)) "zero regret" 0. (regret_of one)

let test_invalid () =
  let store = open_table [| [| 1.; 2. |] |] in
  expect_invalid "3D tuple" (fun () ->
      mutate store [ Delta.Insert [| 1.; 2.; 3. |] ]);
  expect_invalid "unknown row" (fun () -> mutate store [ Delta.Delete 99 ]);
  expect_invalid "negative value" (fun () ->
      mutate store [ Delta.Insert [| -1.; 2. |] ]);
  Alcotest.(check int) "nothing applied" 1 (Array.length (live_rows store))

(* Property: over any interleaving of inserts and deletes, the skyline
   the store maintains is Skyline.sfs of the live rows — the exact index
   sequence — and every batch took the incremental path. *)
let arbitrary_schedule m =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (fun (t, p) ->
             Printf.sprintf "%d:%s" t (Rrms_geom.Vec.to_string p))
           ops))
    QCheck.Gen.(
      list_size (int_range 5 60)
        (pair small_nat (array_size (return m) (float_range 0. 1.))))

let maintained_skyline_is_sfs m ops =
  let store = open_table [| Array.make m 0.5 |] in
  let len = ref 1 in
  List.iter
    (fun (tag, p) ->
      let n = !len in
      let op =
        if tag mod 3 = 0 && n > 1 then begin
          len := n - 1;
          Delta.Delete (tag / 3 mod n)
        end
        else begin
          len := n + 1;
          Delta.Insert p
        end
      in
      ignore (mutate store [ op ] : Store.mutated))
    ops;
  with_pin store (fun h ->
      Store.skyline_of store h = Skyline.sfs (Store.pinned_rows h))

let prop_skyline_matches_sfs_2d =
  QCheck.Test.make ~count:80
    ~name:"dynamic 2d skyline ≡ sfs over interleaved insert/delete"
    (arbitrary_schedule 2) (maintained_skyline_is_sfs 2)

let suite_2d =
  [
    Alcotest.test_case "matches from-scratch (inserts)" `Quick
      test_matches_from_scratch_under_inserts;
    Alcotest.test_case "dominated inserts skip work" `Quick
      test_dominated_inserts_skip_recompute;
    Alcotest.test_case "recompute rate" `Slow test_random_insert_recompute_rate;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "remove matches from-scratch" `Quick
      test_remove_matches_from_scratch;
    Alcotest.test_case "handles stable" `Quick test_handles_stable;
    Alcotest.test_case "empty table" `Quick test_empty_table;
    Alcotest.test_case "invalid" `Quick test_invalid;
    QCheck_alcotest.to_alcotest prop_skyline_matches_sfs_2d;
  ]

(* ------------------------------------------------------------------ *)
(* m dimensions                                                       *)
(* ------------------------------------------------------------------ *)

let ask_hd ?(gamma = 3) store ~r = ask ~algo:Protocol.Hd_rrms ~gamma store ~r

let test_matches_from_scratch_hd () =
  let rng = Rng.create 211 in
  let store = open_table [| point rng 3 |] in
  for step = 2 to 40 do
    ignore (mutate store [ Delta.Insert (point rng 3) ] : Store.mutated);
    if step mod 10 = 0 then
      Alcotest.(check (array int))
        (Printf.sprintf "selection matches at step %d" step)
        (Hd_rrms.solve ~gamma:3 (live_rows store) ~r:3).Hd_rrms.selected
        (selected_of (ask_hd store ~r:3))
  done

let test_dominated_absorbed () =
  let store = open_table [| [| 1.; 1.; 1. |]; [| 0.5; 0.9; 0.2 |] |] in
  ignore (ask_hd store ~r:2 : Store.outcome);
  for _ = 1 to 10 do
    let res = mutate store [ Delta.Insert [| 0.2; 0.3; 0.4 |] ] in
    Alcotest.(check int) "dominated insert keeps the answer" 1
      res.results_kept;
    Alcotest.(check bool) "answered from the cache" true
      (ask_hd store ~r:2).cached
  done;
  let res = mutate store [ Delta.Insert [| 2.; 0.; 0. |] ] in
  Alcotest.(check int) "skyline insert evicts" 0 res.results_kept

let test_remove_skyline () =
  let store =
    open_table [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.5; 0.; 0. |] |]
  in
  ignore (ask_hd store ~r:2 : Store.outcome);
  (* Interior removal: the answer is kept. *)
  let res = mutate store [ Delta.Delete 2 ] in
  Alcotest.(check int) "interior removal free" 1 res.results_kept;
  Alcotest.(check bool) "answered from the cache" true
    (ask_hd store ~r:2).cached;
  (* Skyline removal: solved again, and the answer reflects it. *)
  ignore (mutate store [ Delta.Delete 0 ] : Store.mutated);
  let sel = selected_of (ask_hd store ~r:2) in
  Alcotest.(check int) "one live skyline tuple selected" 1 (Array.length sel);
  Alcotest.(check (array (float 0.))) "it is the remaining corner"
    [| 0.; 1.; 0. |]
    (live_rows store).(sel.(0))

let test_dimension_consistency () =
  let store = open_table [| [| 1.; 2.; 3. |] |] in
  expect_invalid "dimension mismatch rejected" (fun () ->
      mutate store [ Delta.Insert [| 1.; 2. |] ])

(* Regression (the hazard behind the former per-direction maxima
   buffer): deleting the tuple that holds a direction's best score must
   move that column's normalizer.  Delete, one after another, the
   skyline tuple with the most best-score cells; the maintained matrix
   must report changed columns and equal a from-scratch build bit for
   bit. *)
let test_direction_maxima_after_removal () =
  let rng = Rng.create 217 in
  let funcs = Discretize.grid ~gamma:4 ~m:3 in
  let rows = ref (Array.init 30 (fun _ -> point rng 3)) in
  let sky = ref (Skyline.sfs !rows) in
  let sky_points rows sky = Array.map (fun i -> rows.(i)) sky in
  let matrix = ref (Regret_matrix.build ~funcs (sky_points !rows !sky)) in
  for round = 1 to 4 do
    let best_cells i =
      let c = ref 0 in
      for f = 0 to Regret_matrix.cols !matrix - 1 do
        if Regret_matrix.get !matrix i f = 0. then incr c
      done;
      !c
    in
    let victim = ref 0 in
    for i = 1 to Array.length !sky - 1 do
      if best_cells i > best_cells !victim then victim := i
    done;
    let plan = Delta.apply !rows [ Delta.Delete !sky.(!victim) ] in
    let new_sky, _ = Delta.update_skyline plan ~old_sky:!sky in
    let carried = Delta.carried_rows plan ~old_sky:!sky ~new_sky in
    let points = sky_points plan.rows new_sky in
    let updated, changed =
      Regret_matrix.update !matrix ~funcs ~points ~carried
    in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: a best score moved" round)
      true
      (Array.length changed > 0);
    let fresh = Regret_matrix.build ~funcs points in
    let bits m =
      Array.init (Regret_matrix.rows m) (fun i ->
          Array.init (Regret_matrix.cols m) (fun f ->
              Int64.bits_of_float (Regret_matrix.get m i f)))
    in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: equals from-scratch build" round)
      true
      (bits updated = bits fresh);
    rows := plan.rows;
    sky := new_sky;
    matrix := updated
  done

let prop_skyline_matches_sfs_hd =
  QCheck.Test.make ~count:60
    ~name:"dynamic hd skyline ≡ sfs over interleaved insert/delete"
    (arbitrary_schedule 3) (maintained_skyline_is_sfs 3)

let suite_hd =
  [
    Alcotest.test_case "matches from-scratch" `Quick
      test_matches_from_scratch_hd;
    Alcotest.test_case "dominated absorbed" `Quick test_dominated_absorbed;
    Alcotest.test_case "skyline removal" `Quick test_remove_skyline;
    Alcotest.test_case "dimension consistency" `Quick
      test_dimension_consistency;
    Alcotest.test_case "direction maxima after removal" `Quick
      test_direction_maxima_after_removal;
    QCheck_alcotest.to_alcotest prop_skyline_matches_sfs_hd;
  ]
