(* Properties of the warm-solve kernels against test-local references
   that skip every shortcut: the flat-row and the capped greedy set
   cover, the dedup-free MRST cover, the limited incremental probe, the
   pruned HD-GREEDY argmin and the constant-time popcount.  Inputs are
   coarse on purpose — coordinates on a quarter grid, duplicated rows,
   small grids — so ties, duplicate rows and empty rows are frequent. *)

open Rrms_core
open Rrms_setcover

(* ---- Setcover.greedy ~limit ------------------------------------------- *)

let instance_gen =
  QCheck.Gen.(
    int_range 0 70 >>= fun universe ->
    list_size (int_range 0 20)
      (list_size (int_range 0 12) (int_bound (max 0 (universe - 1))))
    >>= fun sets ->
    int_range 0 6 >|= fun limit -> (universe, sets, limit))

let print_instance (universe, sets, limit) =
  Printf.sprintf "universe=%d limit=%d sets=[%s]" universe limit
    (String.concat "; "
       (List.map
          (fun l -> String.concat "," (List.map string_of_int l))
          sets))

let prop_greedy_limit =
  QCheck.Test.make ~count:500
    ~name:"Setcover.greedy ~limit = unlimited cover if it fits, else None"
    (QCheck.make ~print:print_instance instance_gen)
    (fun (universe, sets, limit) ->
      let sets =
        if universe = 0 then [] else List.map (Bitset.of_list universe) sets
      in
      let inst = Setcover.of_bitsets ~universe (Array.of_list sets) in
      let expected =
        match Setcover.greedy inst with
        | Some c when Array.length c <= limit -> Some c
        | _ -> None
      in
      Setcover.greedy ~limit inst = expected)

(* ---- Setcover.greedy over flat rows ----------------------------------- *)

(* The greedy as it was written over one [Bitset.t] per set: the same
   lazy-bound scan and lowest-index tie rule, reading each set through
   its own record.  The flat instance must choose exactly what it
   chooses. *)
let reference_greedy ?(limit = max_int) ~universe sets =
  let covered = Bitset.create universe in
  let chosen = ref [] and nchosen = ref 0 in
  let remaining = ref universe and progress = ref true in
  let bound = Array.map Bitset.count sets in
  while !remaining > 0 && !progress && !nchosen < limit do
    let best = ref (-1) and best_gain = ref 0 in
    Array.iteri
      (fun i set ->
        if bound.(i) > !best_gain then begin
          let gain = Bitset.diff_count set ~minus:covered in
          bound.(i) <- gain;
          if gain > !best_gain then begin
            best := i;
            best_gain := gain
          end
        end)
      sets;
    if !best < 0 then progress := false
    else begin
      Bitset.union_into sets.(!best) ~into:covered;
      chosen := !best :: !chosen;
      incr nchosen;
      remaining := !remaining - !best_gain
    end
  done;
  if !remaining > 0 then None else Some (Array.of_list (List.rev !chosen))

(* Universes on both sides of the 63-bit word boundaries, sets of a
   random density, some of them copies of an earlier set. *)
let flat_gen =
  QCheck.Gen.(
    frequency
      [ (3, oneofl [ 62; 63; 64; 126; 127 ]); (1, int_range 0 130) ]
    >>= fun universe ->
    oneofl [ 0.05; 0.2; 0.4 ] >>= fun density ->
    list_size (int_range 0 24)
      (pair (int_bound 3)
         (list_repeat universe (map (fun x -> x < density) (float_bound_exclusive 1.))))
    >>= fun sets ->
    int_range 0 8 >|= fun limit -> (universe, sets, limit))

let flat_sets (universe, sets, _) =
  let out = Array.make (List.length sets) (Bitset.create universe) in
  List.iteri
    (fun i (copy, bits) ->
      (* one set in four repeats an earlier one *)
      if copy = 0 && i > 0 then out.(i) <- out.(i / 2)
      else
        out.(i) <-
          Bitset.of_list universe
            (List.concat (List.mapi (fun j b -> if b then [ j ] else []) bits)))
    sets;
  out

let print_flat ((universe, _, limit) as c) =
  Printf.sprintf "universe=%d limit=%d sets=[%s]" universe limit
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun b -> String.concat "," (List.map string_of_int (Bitset.elements b)))
             (flat_sets c))))

let prop_flat_greedy =
  QCheck.Test.make ~count:400
    ~name:"flat Setcover.greedy = Bitset.t-array reference, any limit and bounds"
    (QCheck.make ~print:print_flat flat_gen)
    (fun ((universe, _, limit) as c) ->
      let sets = flat_sets c in
      let inst = Setcover.of_bitsets ~universe sets in
      let bounds () = Array.map Bitset.count sets in
      let want = reference_greedy ~universe sets
      and want_limited = reference_greedy ~limit ~universe sets in
      Array.for_all Fun.id
        (Array.mapi (fun i b -> Bitset.equal (Setcover.set inst i) b) sets)
      && Setcover.greedy inst = want
      && Setcover.greedy ~bounds:(bounds ()) inst = want
      && Setcover.greedy ~limit inst = want_limited
      && Setcover.greedy ~limit ~bounds:(bounds ()) inst = want_limited
      && Setcover.coverable inst = Option.is_some want)

(* ---- coarse matrices -------------------------------------------------- *)

(* Rows drawn from a small pool of quarter-grid points, so a matrix has
   many duplicate rows and many tied cells. *)
let coarse_gen =
  QCheck.Gen.(
    int_range 1 8 >>= fun pool ->
    list_size (return pool)
      (array_size (return 3) (map (fun q -> float_of_int q /. 4.) (int_bound 4)))
    >>= fun pool_pts ->
    int_range 1 400 >>= fun n ->
    list_size (return n) (int_bound (pool - 1)) >>= fun picks ->
    int_range 1 6 >>= fun r ->
    int_bound 1_000_000 >|= fun salt ->
    let pool_pts = Array.of_list pool_pts in
    (* keep every row non-zero so every column has a positive best *)
    let pts =
      Array.of_list
        (List.map
           (fun j ->
             let p = Array.copy pool_pts.(j) in
             if Array.for_all (fun x -> x = 0.) p then p.(0) <- 0.25;
             p)
           picks)
    in
    (pts, r, salt))

let print_coarse (pts, r, salt) =
  Printf.sprintf "n=%d r=%d salt=%d rows=[%s]" (Array.length pts) r salt
    (String.concat "; " (Array.to_list (Array.map Rrms_geom.Vec.to_string pts)))

let coarse = QCheck.make ~print:print_coarse coarse_gen
let matrix_of ?(gamma = 2) pts =
  Regret_matrix.build ~funcs:(Discretize.grid ~gamma ~m:3) pts

(* Algorithm 5 as written: threshold, collapse duplicate non-empty rows
   keeping the first, greedy cover over the distinct sets. *)
let dedup_then_greedy matrix ~eps =
  let k = Regret_matrix.cols matrix in
  let seen = Hashtbl.create 16 and reps = ref [] in
  for i = 0 to Regret_matrix.rows matrix - 1 do
    let b = Bitset.create k in
    for f = 0 to k - 1 do
      if Regret_matrix.get matrix i f <= eps then Bitset.set b f
    done;
    let key = Bitset.elements b in
    if key <> [] && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      reps := (i, b) :: !reps
    end
  done;
  let reps = Array.of_list (List.rev !reps) in
  Setcover.greedy (Setcover.of_bitsets ~universe:k (Array.map snd reps))
  |> Option.map (Array.map (fun j -> fst reps.(j)))

(* A few thresholds of the matrix, in an order that slides both ways. *)
let thresholds matrix salt =
  let values = Regret_matrix.distinct_values matrix in
  let d = Array.length values in
  List.init 6 (fun j -> values.((salt + (j * 7919)) mod d))

let prop_mrst_dedup_free =
  QCheck.Test.make ~count:200
    ~name:"dedup-free greedy MRST cover = dedup-then-greedy reference" coarse
    (fun (pts, _, salt) ->
      let matrix = matrix_of pts in
      let inc = Mrst.Incremental.create matrix in
      List.for_all
        (fun eps ->
          let expected = dedup_then_greedy matrix ~eps in
          Mrst.solve matrix ~eps = expected
          && Mrst.Incremental.solve inc ~eps = expected)
        (thresholds matrix salt))

let prop_incremental_limit =
  QCheck.Test.make ~count:200
    ~name:"Mrst.Incremental.solve ~limit = Mrst.solve when the cover fits"
    coarse
    (fun (pts, r, salt) ->
      let matrix = matrix_of pts in
      let inc = Mrst.Incremental.create matrix in
      List.for_all
        (fun eps ->
          let expected =
            match Mrst.solve matrix ~eps with
            | Some c when Array.length c <= r -> Some c
            | _ -> None
          in
          Mrst.Incremental.solve ~limit:r inc ~eps = expected)
        (thresholds matrix salt))

(* ---- pooled probe state ---------------------------------------------- *)

(* Cells <= eps, by brute force over the matrix. *)
let count_le matrix eps =
  let c = ref 0 in
  for i = 0 to Regret_matrix.rows matrix - 1 do
    for f = 0 to Regret_matrix.cols matrix - 1 do
      if Regret_matrix.get matrix i f <= eps then incr c
    done
  done;
  !c

(* Every row bitset of [inc] is the brute-force threshold at [eps]. *)
let rows_match inc matrix ~eps =
  let k = Regret_matrix.cols matrix in
  let ok = ref true in
  for i = 0 to Regret_matrix.rows matrix - 1 do
    let b = Bitset.create k in
    for f = 0 to k - 1 do
      if Regret_matrix.get matrix i f <= eps then Bitset.set b f
    done;
    if not (Bitset.equal b (Mrst.Incremental.row inc i)) then ok := false
  done;
  !ok

(* One state, random thresholds in both directions, random saves: after
   every probe each row is the brute-force threshold, the answer is the
   from-scratch one, the crossed count is the distance from the previous
   threshold and the toggled count never exceeds it.  The grid has 9, 64
   or 144 columns, so a row is one, two (the second holding one bit) or
   three words of the flat probe state. *)
let prop_saved_states =
  QCheck.Test.make ~count:150
    ~name:"Incremental with saved states: rows, answers and counts exact"
    QCheck.(
      triple coarse
        (make ~print:(Printf.sprintf "gamma=%d") Gen.(oneofl [ 2; 7; 11 ]))
        (make Gen.(list_size (int_range 1 30) (pair (int_bound 1_000_000) bool))))
    (fun ((pts, r, _), gamma, steps) ->
      let matrix = matrix_of ~gamma pts in
      let values = Regret_matrix.distinct_values matrix in
      let inc = Mrst.Incremental.create matrix in
      let prev = ref 0 in
      List.for_all
        (fun (pick, save) ->
          let eps = values.(pick mod Array.length values) in
          let got = Mrst.Incremental.solve ~limit:r inc ~eps in
          if save then Mrst.Incremental.save inc;
          let now = count_le matrix eps in
          let crossed = abs (now - !prev) in
          prev := now;
          let expected =
            match Mrst.solve matrix ~eps with
            | Some c when Array.length c <= r -> Some c
            | _ -> None
          in
          got = expected
          && rows_match inc matrix ~eps
          && Mrst.Incremental.last_crossed inc = crossed
          && Mrst.Incremental.last_toggled inc <= crossed)
        steps)

type mode = Strict | Max_size of int | Inflated

let mode_gen r =
  QCheck.Gen.(
    frequency
      [
        (2, return Strict);
        (2, map (fun e -> Max_size (r + e)) (int_bound (2 * r)));
        (1, return Inflated);
      ])

let print_mode = function
  | Strict -> "strict"
  | Max_size s -> Printf.sprintf "max_size=%d" s
  | Inflated -> "inflated"

(* Algorithm 4 by hand on from-scratch probes: the bisection over the
   distinct values, each probe a fresh [Mrst.solve] capped at
   [max_size], and the crossed cells counted from the threshold the
   previous probe (of this or an earlier query) left. *)
let reference_search matrix ~max_size ~prev =
  let values = Regret_matrix.distinct_values matrix in
  let low = ref 0 and high = ref (Array.length values - 1) in
  let best = ref None and probes = ref 0 and crossed = ref 0 in
  while !low <= !high do
    incr probes;
    let mid = (!low + !high) / 2 in
    let eps = values.(mid) in
    let now = count_le matrix eps in
    crossed := !crossed + abs (now - !prev);
    prev := now;
    match Mrst.solve matrix ~eps with
    | Some rows when Array.length rows <= max_size ->
        best := Some (rows, eps);
        high := mid - 1
    | _ -> low := mid + 1
  done;
  (!best, !probes, !crossed)

let inflated_size matrix r =
  let h = log (float_of_int (Regret_matrix.cols matrix)) +. 1. in
  max r (int_of_float (ceil (float_of_int r *. h)))

(* A search on the pooled state, as (found, probes, cells_crossed). *)
let pooled_search ?inc matrix ~r = function
  | Strict ->
      let s = Hd_rrms.search_on_matrix ?inc matrix ~r in
      (s.Hd_rrms.found, s.Hd_rrms.probes, s.Hd_rrms.cells_crossed)
  | Max_size max_size ->
      let s = Hd_rrms.search_on_matrix ~max_size ?inc matrix ~r in
      (s.Hd_rrms.found, s.Hd_rrms.probes, s.Hd_rrms.cells_crossed)
  | Inflated ->
      let skyline = Array.init (Regret_matrix.rows matrix) Fun.id in
      let res =
        Hd_rrms.solve_prepared ~budget:Hd_rrms.Inflated ?inc ~skyline
          ~gamma_used:2 ~m:3 matrix ~r
      in
      ( Some (res.Hd_rrms.selected, res.Hd_rrms.eps_min),
        res.Hd_rrms.cost.Hd_rrms.probes,
        res.Hd_rrms.cost.Hd_rrms.cells_crossed )

let prop_pooled_state =
  QCheck.Test.make ~count:100
    ~name:"pooled Incremental across queries = fresh state and from-scratch search"
    QCheck.(
      pair coarse
        (make
           ~print:(fun qs ->
             String.concat "; "
               (List.map (fun (r, m) -> Printf.sprintf "r=%d %s" r (print_mode m)) qs))
           Gen.(list_size (int_range 1 8) (int_range 1 6 >>= fun r -> mode_gen r >|= fun m -> (r, m)))))
    (fun ((pts, _, _), queries) ->
      let matrix = matrix_of pts in
      let inc = Mrst.Incremental.create matrix in
      let prev = ref 0 in
      List.for_all
        (fun (r, mode) ->
          let max_size =
            match mode with
            | Strict -> r
            | Max_size s -> s
            | Inflated -> inflated_size matrix r
          in
          let found, probes, crossed = pooled_search ~inc matrix ~r mode in
          let fresh_found, fresh_probes, _ = pooled_search matrix ~r mode in
          let want_found, want_probes, want_crossed =
            reference_search matrix ~max_size ~prev
          in
          found = fresh_found && probes = fresh_probes
          && found = want_found && probes = want_probes
          && crossed = want_crossed)
        queries)

(* ---- HD-GREEDY -------------------------------------------------------- *)

(* The unpruned argmin: every row's full max over every column, the
   leftmost row winning ties. *)
let greedy_reference matrix ~r =
  let s = Regret_matrix.rows matrix and k = Regret_matrix.cols matrix in
  let current = Array.make k infinity and chosen = Array.make s false in
  let picked = ref [] in
  for _ = 1 to min r s do
    let best = ref (-1) and best_v = ref infinity in
    for i = 0 to s - 1 do
      if not chosen.(i) then begin
        let v = ref neg_infinity in
        for f = 0 to k - 1 do
          v := Float.max !v (Float.min current.(f) (Regret_matrix.get matrix i f))
        done;
        if !v < !best_v then begin
          best := i;
          best_v := !v
        end
      end
    done;
    chosen.(!best) <- true;
    picked := !best :: !picked;
    for f = 0 to k - 1 do
      let c = Regret_matrix.get matrix !best f in
      if c < current.(f) then current.(f) <- c
    done
  done;
  Array.of_list (List.rev !picked)

let prop_hd_greedy_pruned =
  QCheck.Test.make ~count:150
    ~name:"Hd_greedy.solve_prepared = unpruned argmin at 1, 2 and 4 domains"
    coarse
    (fun (pts, r, _) ->
      let matrix = matrix_of pts in
      let skyline = Array.init (Array.length pts) Fun.id in
      let expected = greedy_reference matrix ~r in
      List.for_all
        (fun domains ->
          let res =
            Hd_greedy.solve_prepared ~domains ~skyline ~gamma_used:2 matrix ~r
          in
          res.Hd_greedy.selected = expected)
        [ 1; 2; 4 ])

(* Coarse rows, in half the cases with the last coordinate zero in every
   row, so the grid's columns that weigh only it are all zero; and a
   query sequence whose r runs past s now and then, each query perhaps
   under a probe cap.  It always ends with a query stopped after one
   step and the same query unbudgeted. *)
let pooled_greedy_gen =
  QCheck.Gen.(
    coarse_gen >>= fun (pts, _, _) ->
    bool >>= fun zero_last ->
    let pts =
      if not zero_last then pts
      else
        Array.map
          (fun p ->
            let p = Array.copy p in
            p.(2) <- 0.;
            if p.(0) = 0. && p.(1) = 0. then p.(0) <- 0.25;
            p)
          pts
    in
    let s = Array.length pts in
    list_size (int_range 1 6)
      (pair
         (frequency [ (4, int_range 1 8); (1, int_range s (s + 2)) ])
         (opt (int_range 1 3)))
    >|= fun qs -> (pts, qs @ [ (3, Some 1); (3, None) ]))

let print_pooled_greedy (pts, qs) =
  Printf.sprintf "%s queries=[%s]"
    (print_coarse (pts, 0, 0))
    (String.concat "; "
       (List.map
          (fun (r, p) ->
            Printf.sprintf "r=%d%s" r
              (match p with Some p -> Printf.sprintf " max_probes=%d" p | None -> ""))
          qs))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_pooled_greedy =
  QCheck.Test.make ~count:100 ~name:"pooled HD-GREEDY scratch across queries"
    (QCheck.make ~print:print_pooled_greedy pooled_greedy_gen)
    (fun (pts, queries) ->
      let matrix = matrix_of pts in
      let s = Array.length pts in
      let skyline = Array.init s Fun.id in
      let wants = List.map (fun (r, _) -> greedy_reference matrix ~r) queries in
      let guard = function
        | None -> Rrms_guard.Guard.Budget.unlimited
        | Some p -> Rrms_guard.Guard.Budget.create ~max_probes:p ()
      in
      List.for_all
        (fun domains ->
          let scratch = Hd_greedy.scratch ~domains matrix in
          List.for_all2
            (fun (r, probes) want ->
              let res =
                Hd_greedy.solve_prepared ~domains ~guard:(guard probes) ~scratch
                  ~skyline ~gamma_used:2 matrix ~r
              and fresh =
                Hd_greedy.solve_prepared ~domains ~guard:(guard probes) ~skyline
                  ~gamma_used:2 matrix ~r
              in
              let n = Array.length res.Hd_greedy.selected in
              (* a pooled answer is a fresh one, cells read included *)
              res = fresh && n >= 1
              && res.Hd_greedy.selected = Array.sub want 0 n
              && (match probes with
                 | None -> n = min r s
                 | Some p -> n = min p (min r s))
              && same_bits res.Hd_greedy.discretized_regret
                   (Regret_matrix.regret_of_rows matrix res.Hd_greedy.selected))
            queries wants)
        [ 1; 2; 4 ])

(* ---- Regret_matrix.fmin ----------------------------------------------- *)

let prop_fmin =
  let specials =
    [ nan; -.nan; 0.; -0.; infinity; neg_infinity; 1.; -1.; 0.25; min_float ]
  in
  let value =
    QCheck.make ~print:string_of_float
      QCheck.Gen.(frequency [ (3, oneofl specials); (1, float) ])
  in
  QCheck.Test.make ~count:2000
    ~name:"Regret_matrix.fmin = Float.min on NaN, ±0 and ±∞"
    (QCheck.pair value value)
    (fun (x, y) -> same_bits (Regret_matrix.fmin x y) (Float.min x y))

(* ---- Bitset.popcount -------------------------------------------------- *)

let bit_loop w =
  let c = ref 0 in
  for b = 0 to 62 do
    if w land (1 lsl b) <> 0 then incr c
  done;
  !c

let test_popcount_edges () =
  List.iter
    (fun (name, w, expected) ->
      Alcotest.(check int) name expected (Bitset.popcount w);
      Alcotest.(check int) (name ^ " = bit loop") (bit_loop w) (Bitset.popcount w))
    [
      ("zero", 0, 0);
      ("full word", -1, 63);
      ("max_int", max_int, 62);
      ("min_int", min_int, 1);
    ]

let prop_popcount =
  QCheck.Test.make ~count:2000 ~name:"Bitset.popcount = bit loop on random words"
    QCheck.(make ~print:string_of_int Gen.(map2 (fun a b -> a lxor (b lsl 31)) int int))
    (fun w -> Bitset.popcount w = bit_loop w)

(* ---- warm queries through the server --------------------------------- *)

module Server = Rrms_serve.Server
module Store = Rrms_serve.Store
module Obs = Rrms_obs.Obs

let counter name =
  Option.value ~default:0. (List.assoc_opt name (Obs.snapshot ()))

(* Words one warm, cache-bypassing query allocates through
   [Server.handle_line] at the serving default observability level
   (Counters), on an anticorrelated table whose γ = 6 matrix has
   s ≈ 700 rows and 343 columns.  A warm query's per-query arrays are
   O(s + |F|) words at most; the ceiling allows four times that, in the
   major heap and in the minor heap alike, and nothing per row of a
   probe or a greedy step: a copy of the s popcounts per MRST probe
   came to about 18 of them per query, and a tuple per row per greedy
   step to several.  A warm HD-GREEDY query runs on its matrix's pooled
   scratch and must allocate fewer than |F| major words: per-solve
   coverage, chosen flags and regret minima came to s + 2·|F| or more.  [Gc.counters], unlike [Gc.quick_stat], counts a direct
   major allocation at once.  The same warm γ = 6 queries must toggle
   at most a quarter of the matrix's cells. *)
let test_warm_allocation () =
  let prev = Obs.level () in
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_level prev)
    (fun () ->
      Obs.set_level Obs.Counters;
      let path = Filename.temp_file "rrms_warm_alloc" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let rng = Rrms_rng.Rng.create 5 in
          Rrms_dataset.Dataset.to_csv
            (Rrms_dataset.Synthetic.anticorrelated rng ~n:3000 ~m:4)
            path;
          let store = Store.create ~domains:1 () in
          let reply line =
            match Server.handle_line store line with
            | `Reply r | `Shutdown r -> r
          in
          ignore
            (reply
               (Printf.sprintf {|{"id":1,"req":"load","path":%S,"name":"a"}|}
                  path));
          let query ?(extra = "") algo r =
            Printf.sprintf
              {|{"id":2,"req":"query","dataset":"a","algo":%S,"r":%d,"gamma":6,"cache":false%s}|}
              algo r extra
          in
          let cost name resp =
            let open Rrms_serve.Json in
            match
              Result.to_option (parse resp)
              |> Fun.flip Option.bind (member "cost")
              |> Fun.flip Option.bind (member name)
              |> Fun.flip Option.bind int_
            with
            | Some x -> x
            | None -> Alcotest.failf "no cost %s in %s" name resp
          in
          (* cold: the matrix, its cell order and the pooled state *)
          let explain = {|,"explain":true|} in
          let cold = reply (query ~extra:explain "hd-rrms" 4) in
          let cells = cost "cells" cold and s = cost "s" cold in
          ignore (reply (query "hd-greedy" 4));
          let ceiling = 4 * (s + 343) in
          List.iter
            (fun algo ->
              List.iter
                (fun r ->
                  let toggled0 = counter "rrms_mrst_cells_toggled_total" in
                  (* [Gc.counters]' major words include promotions: a
                     minor collection landing inside the query would
                     promote what earlier queries left live (their
                     cached answers), which is no allocation of this
                     query.  Start each query on an empty minor heap. *)
                  Gc.minor ();
                  let minor0, _, major0 = Gc.counters () in
                  let resp = reply (query algo r) in
                  let minor1, _, major1 = Gc.counters () in
                  let words = int_of_float (major1 -. major0)
                  and minor = int_of_float (minor1 -. minor0) in
                  let toggled =
                    int_of_float (counter "rrms_mrst_cells_toggled_total" -. toggled0)
                  in
                  if not (Astring_contains.contains resp {|"selected":|}) then
                    Alcotest.failf "warm %s r=%d: no answer in %s" algo r resp;
                  if words > ceiling then
                    Alcotest.failf
                      "warm %s r=%d allocated %d major words (ceiling %d)" algo
                      r words ceiling;
                  if algo = "hd-greedy" && words >= 343 then
                    Alcotest.failf
                      "warm hd-greedy r=%d allocated %d major words (|F| = 343)"
                      r words;
                  if minor > ceiling then
                    Alcotest.failf
                      "warm %s r=%d allocated %d minor words (ceiling %d)" algo
                      r minor ceiling;
                  if 4 * toggled > cells then
                    Alcotest.failf "warm %s r=%d toggled %d of %d cells" algo r
                      toggled cells)
                [ 5; 9; 13; 7; 20; 11; 30 ])
            [ "hd-rrms"; "hd-greedy" ]))

let suite =
  [
    Alcotest.test_case "popcount edge words" `Quick test_popcount_edges;
    QCheck_alcotest.to_alcotest prop_popcount;
    QCheck_alcotest.to_alcotest prop_greedy_limit;
    QCheck_alcotest.to_alcotest prop_flat_greedy;
    QCheck_alcotest.to_alcotest prop_mrst_dedup_free;
    QCheck_alcotest.to_alcotest prop_incremental_limit;
    QCheck_alcotest.to_alcotest prop_hd_greedy_pruned;
    QCheck_alcotest.to_alcotest prop_saved_states;
    QCheck_alcotest.to_alcotest prop_pooled_state;
    QCheck_alcotest.to_alcotest prop_pooled_greedy;
    QCheck_alcotest.to_alcotest prop_fmin;
    Alcotest.test_case "warm query allocation" `Quick test_warm_allocation;
  ]
