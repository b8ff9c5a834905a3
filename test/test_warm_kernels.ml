(* Properties of the warm-solve kernels against test-local references
   that skip every shortcut: the capped greedy set cover, the
   dedup-free MRST cover, the limited incremental probe, the pruned
   HD-GREEDY argmin and the constant-time popcount.  Inputs are coarse
   on purpose — coordinates on a quarter grid, duplicated rows, a
   γ = 2 grid — so ties, duplicate rows and empty rows are frequent. *)

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
      let inst = Setcover.make_instance ~universe (Array.of_list sets) in
      let expected =
        match Setcover.greedy inst with
        | Some c when Array.length c <= limit -> Some c
        | _ -> None
      in
      Setcover.greedy ~limit inst = expected)

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
let matrix_of pts = Regret_matrix.build ~funcs:(Discretize.grid ~gamma:2 ~m:3) pts

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
  Setcover.greedy (Setcover.make_instance ~universe:k (Array.map snd reps))
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

let suite =
  [
    Alcotest.test_case "popcount edge words" `Quick test_popcount_edges;
    QCheck_alcotest.to_alcotest prop_popcount;
    QCheck_alcotest.to_alcotest prop_greedy_limit;
    QCheck_alcotest.to_alcotest prop_mrst_dedup_free;
    QCheck_alcotest.to_alcotest prop_incremental_limit;
    QCheck_alcotest.to_alcotest prop_hd_greedy_pruned;
  ]
