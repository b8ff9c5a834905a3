(* The one sort per regret matrix: [Fsort.order] against a comparator
   sort, the cell order and distinct values of built, column-selected
   and updated matrices against sort-then-dedup, the MRST probe state
   over that order against from-scratch probes on random threshold
   walks and probes by run index against probes by value, the cell
   order's size, and a served cold query paying the sort exactly once.

   Points sit on a coarse grid that reaches below zero, so tied cells
   are frequent and some cells land at or above 2 — outside the radix
   path, on the kept comparator fallback. *)

open Rrms_core

let bits = Int64.bits_of_float

(* The [(Float.compare value, index)] permutation, by a comparator sort. *)
let reference_order a =
  let ids = Array.init (Array.length a) Fun.id in
  Array.sort
    (fun i j ->
      let c = Float.compare a.(i) a.(j) in
      if c <> 0 then c else compare i j)
    ids;
  ids

(* Sort every value, then drop each one equal to its predecessor.  The
   sort is stable, so a run of [-0.] and [+0.] starts with whichever
   comes first in [a]. *)
let sort_then_dedup a =
  let s = Array.copy a in
  Array.stable_sort Float.compare s;
  let out = ref [] in
  Array.iteri (fun q v -> if q = 0 || v <> s.(q - 1) then out := v :: !out) s;
  Array.of_list (List.rev !out)

(* An int32 [Bigarray] of ids as an [int array]. *)
let ints (b : Fsort.ids) =
  Array.init (Bigarray.Array1.dim b) (fun q -> Int32.to_int b.{q})

(* Run [r]'s value is the value of its first cell. *)
let run_values a ~ids ~starts =
  Array.init (Array.length starts - 1) (fun r -> a.(ids.(starts.(r))))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> bits x = bits y) a b

(* ---- Fsort.order ------------------------------------------------------ *)

(* Mostly in-range values with heavy ties and both zeros; a [wide] array
   also draws negatives, values >= 2, infinities and NaN. *)
let values_gen =
  QCheck.Gen.(
    bool >>= fun wide ->
    let in_range =
      frequency
        [
          (2, return 0.);
          (1, return (-0.));
          (3, map (fun q -> float_of_int q /. 4.) (int_bound 7));
          (3, float_bound_exclusive 2.);
        ]
    in
    let cell =
      if wide then
        frequency
          [
            (8, in_range);
            (1, map (fun q -> -.float_of_int q /. 4.) (int_range 1 4));
            (1, map (fun q -> 2. +. (float_of_int q /. 4.)) (int_bound 4));
            (1, oneofl [ infinity; neg_infinity; nan ]);
          ]
      else in_range
    in
    array_size (int_bound 300) cell)

let print_values a =
  String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))

let prop_order_kernel =
  QCheck.Test.make ~count:500
    ~name:"Fsort.order = (Float.compare value, id) comparator sort"
    (QCheck.make ~print:print_values values_gen)
    (fun a ->
      let ids, starts = Fsort.order a in
      let ids = ints ids and starts = ints starts in
      let values = run_values a ~ids ~starts in
      ids = reference_order a
      && Array.length starts = Array.length values + 1
      && starts.(Array.length values) = Array.length a
      && starts.(0) = 0
      && same_bits values (sort_then_dedup a)
      && Array.for_all2
           (fun lo v -> bits a.(ids.(lo)) = bits v)
           (Array.sub starts 0 (Array.length values))
           values)

(* ---- cell order and distinct values ----------------------------------- *)

let m = 3
let funcs = Discretize.grid ~gamma:2 ~m

let point_gen =
  QCheck.Gen.(
    array_size (return m)
      (map (fun q -> float_of_int (q - 2) /. 4.) (int_bound 6)))

let points_gen = QCheck.Gen.(array_size (int_range 1 40) point_gen)

let cells_of matrix =
  let k = Regret_matrix.cols matrix in
  Array.init (Regret_matrix.rows matrix * k) (fun c ->
      Regret_matrix.get matrix (c / k) (c mod k))

(* The cached order of [matrix] is the comparator order of its cells,
   its runs are the maximal runs of equal values, and its values are
   the sort-then-dedup distinct values. *)
let order_is_consistent matrix =
  let cells = cells_of matrix in
  let o = Regret_matrix.cell_order matrix in
  let ids = ints o.Regret_matrix.cells and starts = ints o.starts in
  let runs = Array.length starts - 1 in
  let values = run_values cells ~ids ~starts in
  let starts_ok =
    ref (runs >= 0 && starts.(0) = 0 && starts.(runs) = Array.length cells)
  in
  for r = 0 to runs - 1 do
    for q = starts.(r) to starts.(r + 1) - 1 do
      if cells.(ids.(q)) <> values.(r) then starts_ok := false
    done
  done;
  ids = reference_order cells
  && Regret_matrix.distinct_count matrix = runs
  && !starts_ok
  && same_bits values (sort_then_dedup cells)
  && same_bits (Regret_matrix.distinct_values matrix) values

(* A mutation's new row set: the kept old rows, in order, then the fresh
   points; [carried] names each new row's old index. *)
let mutated_gen =
  QCheck.Gen.(
    points_gen >>= fun pts ->
    array_size (return (Array.length pts)) bool >>= fun keep ->
    array_size (int_bound 6) point_gen >|= fun fresh -> (pts, keep, fresh))

let show_points a =
  String.concat "; " (Array.to_list (Array.map Rrms_geom.Vec.to_string a))

let print_mutated (pts, keep, fresh) =
  Printf.sprintf "pts=[%s] keep=[%s] fresh=[%s]" (show_points pts)
    (String.concat "," (Array.to_list (Array.map string_of_bool keep)))
    (show_points fresh)

let prop_distinct_values =
  QCheck.Test.make ~count:300
    ~name:"distinct_values = sort-then-dedup on build, select_cols, update"
    (QCheck.make ~print:print_mutated mutated_gen)
    (fun (pts, keep, fresh) ->
      let matrix = Regret_matrix.build ~domains:1 ~funcs pts in
      let k = Regret_matrix.cols matrix in
      let sub = Regret_matrix.select_cols matrix [| k - 1; 0; k / 2; 0 |] in
      let kept =
        List.filter (fun i -> keep.(i)) (List.init (Array.length pts) Fun.id)
      in
      let carried =
        Array.append (Array.of_list kept) (Array.map (fun _ -> -1) fresh)
      in
      let points =
        Array.append (Array.of_list (List.map (fun i -> pts.(i)) kept)) fresh
      in
      let updated =
        if Array.length points = 0 then []
        else
          [
            fst
              (Regret_matrix.update ~domains:1 matrix ~funcs ~points ~carried);
          ]
      in
      List.for_all order_is_consistent (matrix :: sub :: updated))

(* ---- MRST probe state on threshold walks ------------------------------ *)

type step = At of int | Above of int | Below of int | Bottom | Top | Repeat

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> At i) nat);
        (2, map (fun i -> Above i) nat);
        (2, map (fun i -> Below i) nat);
        (1, return Bottom);
        (1, return Top);
        (1, return Repeat);
      ])

let print_step = function
  | At i -> Printf.sprintf "At %d" i
  | Above i -> Printf.sprintf "Above %d" i
  | Below i -> Printf.sprintf "Below %d" i
  | Bottom -> "Bottom"
  | Top -> "Top"
  | Repeat -> "Repeat"

let walk_gen =
  QCheck.Gen.(pair points_gen (list_size (int_range 1 25) step_gen))

let print_walk (pts, steps) =
  Printf.sprintf "pts=[%s] steps=[%s]" (show_points pts)
    (String.concat "; " (List.map print_step steps))

(* Σ over rows of |#cells <= eps' − #cells <= eps|. *)
let crossed_between matrix eps eps' =
  let total = ref 0 in
  for i = 0 to Regret_matrix.rows matrix - 1 do
    let c = ref 0 in
    for f = 0 to Regret_matrix.cols matrix - 1 do
      let v = Regret_matrix.get matrix i f in
      if v <= eps' then incr c;
      if v <= eps then decr c
    done;
    total := !total + abs !c
  done;
  !total

let prop_walk =
  QCheck.Test.make ~count:300
    ~name:
      "Incremental.solve = Mrst.solve, last_crossed = brute force on eps walks"
    (QCheck.make ~print:print_walk walk_gen)
    (fun (pts, steps) ->
      let matrix = Regret_matrix.build ~domains:1 ~funcs pts in
      let values = Regret_matrix.distinct_values matrix in
      let d = Array.length values in
      let inc = Mrst.Incremental.create matrix in
      let prev = ref neg_infinity in
      List.for_all
        (fun step ->
          let eps =
            match step with
            | At i -> values.(i mod d)
            | Above i -> values.(i mod d) +. 1e-9
            | Below i -> values.(i mod d) -. 1e-9
            | Bottom -> values.(0) -. 1.
            | Top -> values.(d - 1) +. 1.
            | Repeat -> !prev
          in
          let ok =
            Mrst.Incremental.solve inc ~eps = Mrst.solve matrix ~eps
            && Mrst.Incremental.last_crossed inc
               = crossed_between matrix !prev eps
          in
          prev := eps;
          ok)
        steps)

(* ---- probes by run index ---------------------------------------------- *)

(* Two states over one matrix, walked through the same run indices: one
   probes by index, the other by that run's value.  Every answer and
   every crossed and toggled count must agree, saved states included.
   The points reach below zero, so some matrices hold cells >= 2 and
   take the comparator sort. *)
let run_walk_gen =
  QCheck.Gen.(
    pair points_gen (list_size (int_range 1 25) (pair nat (int_bound 3))))

let print_run_walk (pts, steps) =
  Printf.sprintf "pts=[%s] steps=[%s]" (show_points pts)
    (String.concat "; "
       (List.map (fun (i, l) -> Printf.sprintf "%d/%d" i l) steps))

let prop_run_walk =
  QCheck.Test.make ~count:300
    ~name:"Incremental.solve_run r = Incremental.solve ~eps:(distinct_value r)"
    (QCheck.make ~print:print_run_walk run_walk_gen)
    (fun (pts, steps) ->
      let matrix = Regret_matrix.build ~domains:1 ~funcs pts in
      let d = Regret_matrix.distinct_count matrix in
      let by_run = Mrst.Incremental.create matrix in
      let by_eps = Mrst.Incremental.create matrix in
      List.for_all
        (fun (i, limit) ->
          let r = i mod d and limit = if limit = 0 then None else Some limit in
          let eps = Regret_matrix.distinct_value matrix r in
          let a = Mrst.Incremental.solve_run ?limit by_run r in
          let b = Mrst.Incremental.solve ?limit by_eps ~eps in
          if i mod 3 = 0 then begin
            Mrst.Incremental.save by_run;
            Mrst.Incremental.save by_eps
          end;
          a = b
          && Mrst.Incremental.last_crossed by_run
             = Mrst.Incremental.last_crossed by_eps
          && Mrst.Incremental.last_toggled by_run
             = Mrst.Incremental.last_toggled by_eps)
        steps)

(* Algorithm 4's search by value, as it ran before the probes went by
   run index: each probe a [solve ~eps] over a fresh state. *)
let search_by_value ?(guard = Rrms_guard.Guard.Budget.unlimited) matrix ~r =
  let values = Regret_matrix.distinct_values matrix in
  let inc = Mrst.Incremental.create matrix in
  let best = ref None and stopped = ref false in
  let low = ref 0 and high = ref (Array.length values - 1) in
  while (not !stopped) && !low <= !high do
    if Rrms_guard.Guard.Budget.stop_reason guard <> None then stopped := true
    else begin
      Rrms_guard.Guard.Budget.note_probe guard;
      let mid = (!low + !high) / 2 in
      match Mrst.Incremental.solve ~limit:r inc ~eps:values.(mid) with
      | Some rows ->
          best := Some (rows, values.(mid));
          high := mid - 1
      | None -> low := mid + 1
    end
  done;
  (if !best = None && !stopped then
     let top = Array.length values - 1 in
     match Mrst.Incremental.solve ~limit:r inc ~eps:values.(top) with
     | Some rows -> best := Some (rows, values.(top))
     | None -> ());
  !best

let found = Alcotest.(option (pair (array int) (float 0.)))

let test_search_edge_cases () =
  (* One run: every point equal, so every cell is 0. *)
  let flat = Regret_matrix.build ~domains:1 ~funcs (Array.make 5 [| 0.5; 0.5; 0.5 |]) in
  Alcotest.(check int) "one run" 1 (Regret_matrix.distinct_count flat);
  let s = Hd_rrms.search_on_matrix flat ~r:2 in
  Alcotest.check found "1-run matrix: the search = by value"
    (search_by_value flat ~r:2) s.found;
  Alcotest.(check int) "1-run matrix: one probe" 1 s.probes;
  (* The anytime fallback: a probe cap of 0 stops the search before its
     first probe, and the one fallback probe is at the top run. *)
  let rng = Rrms_rng.Rng.create 5 in
  let pts =
    Array.init 60 (fun _ -> Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.))
  in
  let matrix = Regret_matrix.build ~domains:1 ~funcs pts in
  let capped () = Rrms_guard.Guard.Budget.create ~max_probes:0 () in
  let s = Hd_rrms.search_on_matrix ~guard:(capped ()) matrix ~r:2 in
  Alcotest.check found "anytime top fallback = by value"
    (search_by_value ~guard:(capped ()) matrix ~r:2) s.found;
  Alcotest.(check (float 0.)) "the fallback probes the top value"
    (Regret_matrix.distinct_value matrix
       (Regret_matrix.distinct_count matrix - 1))
    (snd (Option.get s.found));
  Alcotest.(check int) "no bisection probe, one fallback solve" 1
    (s.probes_fresh - s.probes);
  (* The comparator fallback: a point far below the others' small
     scores gives cells >= 2. *)
  let wide =
    Array.append
      (Array.map (Array.map (fun x -> x *. 0.2)) pts)
      [| Array.make m (-0.5) |]
  in
  let matrix = Regret_matrix.build ~domains:1 ~funcs wide in
  Alcotest.(check bool) "some cell >= 2" true
    (Array.exists (fun v -> v >= 2.) (cells_of matrix));
  List.iter
    (fun r ->
      Alcotest.check found
        (Printf.sprintf "comparator-sorted matrix, r = %d: the search = by value" r)
        (search_by_value matrix ~r)
        (Hd_rrms.search_on_matrix matrix ~r).found)
    [ 1; 2; 4 ];
  match Mrst.Incremental.solve_run (Mrst.Incremental.create matrix)
          (Regret_matrix.distinct_count matrix) with
  | _ -> Alcotest.fail "a run index past the last run was accepted"
  | exception Invalid_argument _ -> ()

(* ---- the cell order's size -------------------------------------------- *)

(* 4 bytes per cell and per run start, off the OCaml heap, and a
   constant number of heap words whatever the matrix's size. *)
let test_cell_order_size () =
  let rng = Rrms_rng.Rng.create 11 in
  List.iter
    (fun n ->
      let pts =
        Array.init n (fun _ -> Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.))
      in
      let matrix = Regret_matrix.build ~domains:1 ~funcs pts in
      let o = Regret_matrix.cell_order matrix in
      let cells = Regret_matrix.rows matrix * Regret_matrix.cols matrix in
      let runs = Regret_matrix.distinct_count matrix in
      let bytes =
        Bigarray.Array1.size_in_bytes o.Regret_matrix.cells
        + Bigarray.Array1.size_in_bytes o.starts
      in
      Alcotest.(check bool)
        (Printf.sprintf "n = %d: %d bytes <= 4 per cell and per run + 4" n bytes)
        true
        (bytes <= (4 * cells) + (4 * (runs + 1)));
      let words = Obj.reachable_words (Obj.repr o) in
      Alcotest.(check bool)
        (Printf.sprintf "n = %d: %d heap words, at most 24" n words)
        true (words <= 24))
    [ 10; 400 ];
  (* Ids are int32: more cells than that is refused, never wrapped. *)
  Alcotest.(check int) "max_length = 2^31 - 1" ((1 lsl 31) - 1) Fsort.max_length;
  Fsort.check_length Fsort.max_length;
  match Fsort.check_length (Fsort.max_length + 1) with
  | () -> Alcotest.fail "2^31 cells were accepted"
  | exception
      Rrms_guard.Guard.Error.Guard_error
        (Rrms_guard.Guard.Error.Resource_limit _) ->
      ()

(* ---- one sort per served cold query ----------------------------------- *)

module Serve = Rrms_serve
module Obs = Rrms_obs.Obs

let cell_orders () =
  List.assoc "rrms_matrix_cell_orders_total" (Obs.deterministic_snapshot ())

let test_served_cold_query_sorts_once () =
  let prev = Obs.level () in
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_level prev)
    (fun () ->
      Obs.set_level Obs.Counters;
      Obs.reset ();
      let rng = Rrms_rng.Rng.create 21 in
      let rows =
        Array.init 400 (fun _ ->
            Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.))
      in
      let d =
        Rrms_dataset.Dataset.create ~name:"cells"
          ~attributes:[| "a"; "b"; "c" |] rows
      in
      let store = Serve.Store.create ~domains:1 () in
      let key = (Serve.Store.add store d).Serve.Store.key in
      let query algo =
        match
          Serve.Store.query store
            {
              Serve.Protocol.dataset = key;
              algo;
              r = 4;
              gamma = 4;
              timeout = None;
              max_cells = None;
              max_probes = None;
              use_cache = false;
              explain = false;
            }
        with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "query refused"
      in
      let check label expected =
        Alcotest.(check (float 0.)) label expected (cell_orders ())
      in
      query Serve.Protocol.Hd_rrms;
      check "a cold hd-rrms query sorts the matrix's cells once" 1.;
      query Serve.Protocol.Hd_rrms;
      check "a warm hd-rrms query sorts nothing" 1.;
      query Serve.Protocol.Hd_greedy;
      check "hd-greedy never sorts cells" 1.;
      (match
         Serve.Store.mutate store ~dataset:key
           [ Delta.Insert [| 0.99; 0.99; 0.01 |]; Delta.Delete 0 ]
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "mutation refused");
      query Serve.Protocol.Hd_rrms;
      check "the replaced matrix is sorted once, on its first query" 2.)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_order_kernel;
    QCheck_alcotest.to_alcotest prop_distinct_values;
    QCheck_alcotest.to_alcotest prop_walk;
    Alcotest.test_case "served cold hd-rrms query sorts its cells once" `Quick
      test_served_cold_query_sorts_once;
    QCheck_alcotest.to_alcotest prop_run_walk;
    Alcotest.test_case "search by run index: 1 run, anytime top, comparator"
      `Quick test_search_edge_cases;
    Alcotest.test_case "cell order: 4 bytes per cell and run, O(1) heap words"
      `Quick test_cell_order_size;
  ]
