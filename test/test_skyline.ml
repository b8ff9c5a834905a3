(* Tests for dominance and the three skyline algorithms. *)

open Rrms_skyline

let test_dominates () =
  Alcotest.(check bool) "strictly better" true
    (Dominance.dominates [| 2.; 3. |] [| 1.; 2. |]);
  Alcotest.(check bool) "better on one, equal other" true
    (Dominance.dominates [| 2.; 2. |] [| 1.; 2. |]);
  Alcotest.(check bool) "equal does not dominate" false
    (Dominance.dominates [| 1.; 2. |] [| 1.; 2. |]);
  Alcotest.(check bool) "incomparable" false
    (Dominance.dominates [| 2.; 1. |] [| 1.; 2. |]);
  Alcotest.(check bool) "worse" false
    (Dominance.dominates [| 0.; 0. |] [| 1.; 2. |])

let test_strict () =
  Alcotest.(check bool) "strict" true
    (Dominance.strictly_dominates [| 2.; 3. |] [| 1.; 2. |]);
  Alcotest.(check bool) "equal component fails" false
    (Dominance.strictly_dominates [| 2.; 2. |] [| 1.; 2. |])

let test_compare () =
  Alcotest.(check bool) "left" true
    (Dominance.compare [| 2.; 3. |] [| 1.; 2. |] = `Left);
  Alcotest.(check bool) "right" true
    (Dominance.compare [| 1.; 2. |] [| 2.; 3. |] = `Right);
  Alcotest.(check bool) "equal" true
    (Dominance.compare [| 1.; 2. |] [| 1.; 2. |] = `Equal);
  Alcotest.(check bool) "incomparable" true
    (Dominance.compare [| 2.; 1. |] [| 1.; 2. |] = `Incomparable)

let test_k_dominates () =
  (* m = 3: t = (3,3,0), t' = (1,1,5). t 2-dominates t' but does not
     3-dominate it. *)
  let t = [| 3.; 3.; 0. |] and t' = [| 1.; 1.; 5. |] in
  Alcotest.(check bool) "2-dominates" true (Dominance.k_dominates 2 t t');
  Alcotest.(check bool) "not 3-dominates" false (Dominance.k_dominates 3 t t');
  (* m-dominance coincides with ordinary dominance. *)
  Alcotest.(check bool) "m-dominance = dominance (pos)" true
    (Dominance.k_dominates 2 [| 2.; 2. |] [| 1.; 2. |]);
  Alcotest.(check bool) "m-dominance = dominance (neg)" false
    (Dominance.k_dominates 2 [| 2.; 1. |] [| 1.; 2. |]);
  Alcotest.check_raises "k out of range"
    (Invalid_argument "Dominance.k_dominates: k out of range") (fun () ->
      ignore (Dominance.k_dominates 4 t t'))

let sorted a =
  let c = Array.copy a in
  Array.sort compare c;
  c

let points_small =
  [|
    [| 1.; 5. |];
    (* skyline *)
    [| 3.; 3. |];
    (* skyline *)
    [| 2.; 2. |];
    (* dominated by (3,3) *)
    [| 5.; 1. |];
    (* skyline *)
    [| 0.; 0. |];
    (* dominated *)
  |]

let test_bnl_small () =
  Alcotest.(check (array int)) "bnl" [| 0; 1; 3 |] (sorted (Skyline.bnl points_small))

let test_sfs_small () =
  Alcotest.(check (array int)) "sfs" [| 0; 1; 3 |] (sorted (Skyline.sfs points_small))

let test_two_d_small () =
  (* two_d returns top-left → bottom-right order. *)
  Alcotest.(check (array int)) "2d order" [| 0; 1; 3 |] (Skyline.two_d points_small)

let test_duplicates_collapse () =
  let pts = [| [| 1.; 1. |]; [| 1.; 1. |]; [| 0.; 0. |] |] in
  Alcotest.(check int) "bnl collapses duplicates" 1 (Array.length (Skyline.bnl pts));
  Alcotest.(check int) "sfs collapses duplicates" 1 (Array.length (Skyline.sfs pts));
  Alcotest.(check int) "two_d collapses duplicates" 1 (Array.length (Skyline.two_d pts))

let test_empty_and_single () =
  Alcotest.(check (array int)) "bnl empty" [||] (Skyline.bnl [||]);
  Alcotest.(check (array int)) "sfs empty" [||] (Skyline.sfs [||]);
  Alcotest.(check (array int)) "two_d empty" [||] (Skyline.two_d [||]);
  Alcotest.(check (array int)) "single" [| 0 |] (Skyline.bnl [| [| 1.; 2.; 3. |] |])

(* Property: all three algorithms agree (as sets) on random 2D data, and
   each returned point is verified non-dominated. *)
let test_algorithms_agree_2d () =
  let rng = Rrms_rng.Rng.create 51 in
  for _ = 1 to 30 do
    let n = 1 + Rrms_rng.Rng.int rng 200 in
    let pts =
      Array.init n (fun _ ->
          (* A small grid of values produces many duplicates and ties. *)
          [|
            float_of_int (Rrms_rng.Rng.int rng 20);
            float_of_int (Rrms_rng.Rng.int rng 20);
          |])
    in
    let b = Skyline.bnl pts and s = Skyline.sfs pts and t = Skyline.two_d pts in
    let key i = (pts.(i).(0), pts.(i).(1)) in
    let keys a = sorted (Array.map key a) in
    Alcotest.(check bool) "bnl = sfs (as point sets)" true (keys b = keys s);
    Alcotest.(check bool) "bnl = two_d (as point sets)" true (keys b = keys t);
    Array.iter
      (fun i ->
        Alcotest.(check bool) "member is non-dominated" true
          (Skyline.is_skyline_point pts i))
      b
  done

let test_algorithms_agree_hd () =
  let rng = Rrms_rng.Rng.create 52 in
  for _ = 1 to 20 do
    let n = 1 + Rrms_rng.Rng.int rng 150 in
    let m = 3 + Rrms_rng.Rng.int rng 3 in
    let pts =
      Array.init n (fun _ -> Array.init m (fun _ -> Rrms_rng.Rng.float rng 1.))
    in
    let b = sorted (Skyline.bnl pts) and s = sorted (Skyline.sfs pts) in
    Alcotest.(check (array int)) "bnl = sfs in HD" b s;
    Array.iter
      (fun i ->
        Alcotest.(check bool) "member is non-dominated" true
          (Skyline.is_skyline_point pts i))
      b
  done

let test_two_d_sorted_order () =
  let rng = Rrms_rng.Rng.create 53 in
  let pts =
    Array.init 500 (fun _ ->
        [| Rrms_rng.Rng.float rng 1.; Rrms_rng.Rng.float rng 1. |])
  in
  let sky = Skyline.two_d pts in
  for k = 0 to Array.length sky - 2 do
    Alcotest.(check bool) "A1 ascending" true
      (pts.(sky.(k)).(0) < pts.(sky.(k + 1)).(0));
    Alcotest.(check bool) "A2 descending" true
      (pts.(sky.(k)).(1) > pts.(sky.(k + 1)).(1))
  done

let test_completeness () =
  (* Every point not returned must be dominated by some returned point. *)
  let rng = Rrms_rng.Rng.create 54 in
  let pts =
    Array.init 300 (fun _ ->
        Array.init 3 (fun _ -> float_of_int (Rrms_rng.Rng.int rng 10)))
  in
  let sky = Skyline.sfs pts in
  let in_sky = Array.make 300 false in
  Array.iter (fun i -> in_sky.(i) <- true) sky;
  Array.iteri
    (fun i p ->
      if not in_sky.(i) then begin
        let covered =
          Array.exists
            (fun j -> Dominance.dominates pts.(j) p || pts.(j) = p)
            sky
        in
        Alcotest.(check bool) "excluded point is dominated or duplicate" true covered
      end)
    pts

(* Regression: the two sums below round to the same float although the
   second row strictly dominates the first, and the index tie-break put
   the dominated row first, so sfs kept both. *)
let test_sfs_float_sum_tie () =
  let pts = [| [| 1.0; 1e-17 |]; [| 1.0; 2e-17 |] |] in
  Alcotest.(check (array int)) "bnl" [| 1 |] (Skyline.bnl pts);
  Alcotest.(check (array int)) "sfs drops the dominated tie" [| 1 |]
    (Skyline.sfs pts);
  Alcotest.(check bool) "row 1 beats row 0" true (Skyline.beats pts 1 0);
  Alcotest.(check bool) "row 0 does not beat row 1" false
    (Skyline.beats pts 0 1)

(* Property: split the rows in two parts P and Q; the skyline of P, in
   SFS order or reversed, extended by all of Q is exactly sfs of the
   whole set. *)
let test_extend_matches_sfs () =
  let rng = Rrms_rng.Rng.create 61 in
  for _ = 1 to 300 do
    let n = 1 + Rrms_rng.Rng.int rng 40 in
    let m = 2 + Rrms_rng.Rng.int rng 3 in
    let levels = 1 + Rrms_rng.Rng.int rng 5 in
    let pts =
      Array.init n (fun _ ->
          Array.init m (fun _ ->
              float_of_int (Rrms_rng.Rng.int rng levels) /. 4.))
    in
    let in_p = Array.init n (fun _ -> Rrms_rng.Rng.int rng 3 > 0) in
    let part want =
      Array.of_seq
        (Seq.filter (fun i -> in_p.(i) = want) (Seq.init n Fun.id))
    in
    let p = part true and q = part false in
    let sky_p =
      Array.map (fun l -> p.(l)) (Skyline.sfs (Array.map (fun g -> pts.(g)) p))
    in
    let sky_p =
      if Rrms_rng.Rng.int rng 2 = 0 then sky_p
      else Array.of_list (List.rev (Array.to_list sky_p))
    in
    Alcotest.(check (array int)) "extend = sfs" (Skyline.sfs pts)
      (Skyline.extend pts ~sky:sky_p ~extra:q)
  done

let test_kdom_skyline () =
  (* With k = m the k-dominant skyline is the ordinary skyline. *)
  let rng = Rrms_rng.Rng.create 55 in
  let pts =
    Array.init 100 (fun _ ->
        Array.init 3 (fun _ -> Rrms_rng.Rng.float rng 1.))
  in
  let full = sorted (Skyline.sfs pts) in
  let kd = sorted (Kdom.k_dominant_skyline ~k:3 pts) in
  Alcotest.(check (array int)) "k=m equals skyline" full kd

let test_kdom_shrinks () =
  let rng = Rrms_rng.Rng.create 56 in
  let pts =
    Array.init 200 (fun _ ->
        Array.init 4 (fun _ -> Rrms_rng.Rng.float rng 1.))
  in
  let s4 = Array.length (Kdom.k_dominant_skyline ~k:4 pts) in
  let s3 = Array.length (Kdom.k_dominant_skyline ~k:3 pts) in
  let s2 = Array.length (Kdom.k_dominant_skyline ~k:2 pts) in
  Alcotest.(check bool)
    (Printf.sprintf "monotone in k: %d <= %d <= %d" s2 s3 s4)
    true
    (s2 <= s3 && s3 <= s4)

let test_kdom_collapse_to_empty () =
  (* The paper's Figure 31 observation: on continuous independent data
     the (m-1)-dominant skyline is very likely empty. *)
  let rng = Rrms_rng.Rng.create 57 in
  let pts =
    Array.init 2000 (fun _ ->
        Array.init 4 (fun _ -> Rrms_rng.Rng.float rng 1.))
  in
  let s3 = Array.length (Kdom.k_dominant_skyline ~k:3 pts) in
  Alcotest.(check bool)
    (Printf.sprintf "3-dominant skyline tiny or empty (got %d)" s3)
    true (s3 <= 2)

let test_kdom_adapt () =
  let rng = Rrms_rng.Rng.create 58 in
  let pts =
    Array.init 500 (fun _ ->
        Array.init 4 (fun _ -> Rrms_rng.Rng.float rng 1.))
  in
  let result = Kdom.adapt_for_size ~r:5 pts in
  Alcotest.(check bool) "within budget" true (Array.length result <= 5)

let suite =
  [
    Alcotest.test_case "dominates" `Quick test_dominates;
    Alcotest.test_case "strictly dominates" `Quick test_strict;
    Alcotest.test_case "compare" `Quick test_compare;
    Alcotest.test_case "k-dominates" `Quick test_k_dominates;
    Alcotest.test_case "bnl small" `Quick test_bnl_small;
    Alcotest.test_case "sfs small" `Quick test_sfs_small;
    Alcotest.test_case "two_d small" `Quick test_two_d_small;
    Alcotest.test_case "duplicates collapse" `Quick test_duplicates_collapse;
    Alcotest.test_case "empty and single" `Quick test_empty_and_single;
    Alcotest.test_case "algorithms agree (2D)" `Quick test_algorithms_agree_2d;
    Alcotest.test_case "algorithms agree (HD)" `Quick test_algorithms_agree_hd;
    Alcotest.test_case "two_d sorted" `Quick test_two_d_sorted_order;
    Alcotest.test_case "completeness" `Quick test_completeness;
    Alcotest.test_case "sfs float-sum tie" `Quick test_sfs_float_sum_tie;
    Alcotest.test_case "extend = sfs" `Quick test_extend_matches_sfs;
    Alcotest.test_case "k-dom = skyline at k=m" `Quick test_kdom_skyline;
    Alcotest.test_case "k-dom shrinks" `Quick test_kdom_shrinks;
    Alcotest.test_case "k-dom collapses empty" `Quick test_kdom_collapse_to_empty;
    Alcotest.test_case "k-dom adaptation" `Quick test_kdom_adapt;
  ]
