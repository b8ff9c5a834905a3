(* The one sort per regret matrix: [Fsort.order] against a comparator
   sort, the cell order and distinct values of built, column-selected
   and updated matrices against sort-then-dedup, the MRST probe state
   over that order against from-scratch probes on random threshold
   walks, and a served cold query paying the sort exactly once.

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
      let ids, starts, values = Fsort.order a in
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
  let runs = Array.length o.Regret_matrix.values in
  let starts_ok =
    ref (o.starts.(0) = 0 && o.starts.(runs) = Array.length cells)
  in
  for r = 0 to runs - 1 do
    for q = o.starts.(r) to o.starts.(r + 1) - 1 do
      if cells.(o.cells.(q)) <> o.values.(r) then starts_ok := false
    done
  done;
  o.cells = reference_order cells
  && Array.length o.starts = runs + 1
  && !starts_ok
  && same_bits (Regret_matrix.distinct_values matrix) (sort_then_dedup cells)

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
            Mrst.Incremental.solve inc ~eps = Mrst.solve ~domains:1 matrix ~eps
            && Mrst.Incremental.last_crossed inc
               = crossed_between matrix !prev eps
          in
          prev := eps;
          ok)
        steps)

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
  ]
