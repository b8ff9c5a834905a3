(* Robustness and stress tests: malformed-input handling, randomized
   round-trips, 3-variable LP cross-checks, and larger-scale smoke runs
   that guard against stack overflows and quadratic blowups sneaking
   into the linearithmic paths. *)

open Rrms_dataset

(* ------------------------- CSV round-trips ------------------------ *)

let dataset_gen =
  QCheck.Gen.(
    let* m = int_range 1 5 in
    (* n >= 1: of_csv structurally rejects a header-only file, so an
       empty dataset cannot round-trip through CSV by design. *)
    let* n = int_range 1 40 in
    let* rows =
      list_size (return n)
        (array_size (return m) (float_range 0. 1000.))
    in
    return
      (Dataset.create
         ~attributes:(Array.init m (fun j -> Printf.sprintf "c%d" j))
         (Array.of_list rows)))

let prop_csv_roundtrip =
  QCheck.Test.make ~count:50 ~name:"CSV round-trip preserves every value"
    (QCheck.make dataset_gen)
    (fun d ->
      let path = Filename.temp_file "rrms_prop" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Dataset.to_csv d path;
          let d' = Dataset.of_csv path in
          Dataset.size d = Dataset.size d'
          && Dataset.attributes d = Dataset.attributes d'
          && List.for_all
               (fun i -> Dataset.row d i = Dataset.row d' i)
               (List.init (Dataset.size d) Fun.id)))

let test_csv_fuzz_no_crash () =
  (* Random junk must produce a structured Invalid_input (not a crash
     or a bogus accept of non-numeric rows). *)
  let rng = Rrms_rng.Rng.create 191 in
  let junk_line () =
    String.init
      (1 + Rrms_rng.Rng.int rng 20)
      (fun _ ->
        let alphabet = "abc,;0.19-xyz " in
        alphabet.[Rrms_rng.Rng.int rng (String.length alphabet)])
  in
  for _ = 1 to 50 do
    let path = Filename.temp_file "rrms_fuzz" ".csv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc "x,y\n";
        for _ = 1 to 5 do
          output_string oc (junk_line ());
          output_char oc '\n'
        done;
        close_out oc;
        match Dataset.of_csv path with
        | _ -> () (* junk may coincidentally parse; that's fine *)
        | exception Rrms_guard.Guard.Error.Guard_error
            (Rrms_guard.Guard.Error.Invalid_input _) ->
            ())
  done

(* --------------------- 3-variable LP cross-check ------------------ *)

(* Enumerate candidate vertices of a 3-variable LP as intersections of
   three tight constraints (from rows and coordinate planes) and return
   the best feasible objective. *)
let brute_force_3var c rows =
  let planes =
    ([| 1.; 0.; 0. |], 0.) :: ([| 0.; 1.; 0. |], 0.) :: ([| 0.; 0.; 1. |], 0.)
    :: List.map (fun (a, _, b) -> (a, b)) rows
  in
  let solve3 (a1, b1) (a2, b2) (a3, b3) =
    let det =
      a1.(0) *. ((a2.(1) *. a3.(2)) -. (a2.(2) *. a3.(1)))
      -. (a1.(1) *. ((a2.(0) *. a3.(2)) -. (a2.(2) *. a3.(0))))
      +. (a1.(2) *. ((a2.(0) *. a3.(1)) -. (a2.(1) *. a3.(0))))
    in
    if Float.abs det < 1e-9 then None
    else begin
      (* Cramer's rule. *)
      let col k b =
        let m = Array.map Array.copy [| a1; a2; a3 |] in
        m.(0).(k) <- b.(0);
        m.(1).(k) <- b.(1);
        m.(2).(k) <- b.(2);
        m
      in
      let det3 m =
        m.(0).(0) *. ((m.(1).(1) *. m.(2).(2)) -. (m.(1).(2) *. m.(2).(1)))
        -. (m.(0).(1) *. ((m.(1).(0) *. m.(2).(2)) -. (m.(1).(2) *. m.(2).(0))))
        +. (m.(0).(2) *. ((m.(1).(0) *. m.(2).(1)) -. (m.(1).(1) *. m.(2).(0))))
      in
      let b = [| b1; b2; b3 |] in
      Some
        [|
          det3 (col 0 b) /. det; det3 (col 1 b) /. det; det3 (col 2 b) /. det;
        |]
    end
  in
  let feasible x =
    Array.for_all (fun v -> v >= -1e-7) x
    && List.for_all
         (fun (a, rel, b) ->
           let v = (a.(0) *. x.(0)) +. (a.(1) *. x.(1)) +. (a.(2) *. x.(2)) in
           match rel with
           | Rrms_lp.Simplex.Le -> v <= b +. 1e-6
           | Rrms_lp.Simplex.Ge -> v >= b -. 1e-6
           | Rrms_lp.Simplex.Eq -> Float.abs (v -. b) <= 1e-6)
         rows
  in
  let best = ref None in
  let arr = Array.of_list planes in
  let k = Array.length arr in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      for l = j + 1 to k - 1 do
        match solve3 arr.(i) arr.(j) arr.(l) with
        | None -> ()
        | Some x ->
            if feasible x then begin
              let v =
                (c.(0) *. x.(0)) +. (c.(1) *. x.(1)) +. (c.(2) *. x.(2))
              in
              match !best with
              | Some b when b >= v -> ()
              | _ -> best := Some v
            end
      done
    done
  done;
  !best

let test_simplex_3var_vs_brute_force () =
  let rng = Rrms_rng.Rng.create 192 in
  let disagreements = ref 0 in
  for _ = 1 to 150 do
    let c = Array.init 3 (fun _ -> Rrms_rng.Rng.uniform rng (-4.) 4.) in
    let nrows = 1 + Rrms_rng.Rng.int rng 4 in
    let rows =
      List.init nrows (fun _ ->
          let a = Array.init 3 (fun _ -> Rrms_rng.Rng.uniform rng (-2.) 2.) in
          let rel =
            if Rrms_rng.Rng.bool rng then Rrms_lp.Simplex.Le
            else Rrms_lp.Simplex.Ge
          in
          (a, rel, Rrms_rng.Rng.uniform rng (-3.) 6.))
    in
    let constraints =
      List.map (fun (a, rel, b) -> Rrms_lp.Simplex.constraint_ a rel b) rows
    in
    match Rrms_lp.Simplex.maximize ~c constraints with
    | Rrms_lp.Simplex.Optimal { objective; solution } -> (
        Array.iter
          (fun v -> Alcotest.(check bool) "x >= 0" true (v >= -1e-7))
          solution;
        match brute_force_3var c rows with
        | Some best ->
            if Float.abs (best -. objective) > 1e-4 then incr disagreements
        | None -> incr disagreements)
    | Rrms_lp.Simplex.Infeasible ->
        if brute_force_3var c rows <> None then incr disagreements
    | Rrms_lp.Simplex.Unbounded -> ()
    | Rrms_lp.Simplex.Degenerate _ -> ()
  done;
  Alcotest.(check int) "no disagreements with 3-var brute force" 0 !disagreements

(* ----------------------------- stress ----------------------------- *)

let test_large_2d_pipeline () =
  (* 200K tuples end to end through the linearithmic path: guards
     against accidental recursion depth and quadratic regressions. *)
  let rng = Rrms_rng.Rng.create 193 in
  let d = Synthetic.anticorrelated rng ~n:200_000 ~m:2 in
  let points = Dataset.rows d in
  let t0 = Unix.gettimeofday () in
  let res = Rrms_core.Rrms2d.solve points ~r:8 in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "finished quickly" true (elapsed < 10.);
  Alcotest.(check bool) "sane regret" true
    (res.Rrms_core.Rrms2d.regret >= 0. && res.Rrms_core.Rrms2d.regret <= 1.);
  Alcotest.(check bool) "within budget" true
    (Array.length res.Rrms_core.Rrms2d.selected <= 8)

let test_large_sfs_skyline () =
  let rng = Rrms_rng.Rng.create 194 in
  let d = Synthetic.independent rng ~n:100_000 ~m:3 in
  let points = Dataset.rows d in
  let sorted a =
    let a = Array.copy a in
    Array.sort compare a;
    a
  in
  let bnl = sorted (Rrms_skyline.Skyline.bnl points) in
  let sfs = sorted (Rrms_skyline.Skyline.sfs points) in
  Alcotest.(check (array int)) "sfs = bnl at scale" bnl sfs

let test_deep_onion () =
  (* Fully peeling a few thousand points must terminate and partition. *)
  let rng = Rrms_rng.Rng.create 195 in
  let points =
    Array.init 3_000 (fun _ ->
        [| Rrms_rng.Rng.float rng 1.; Rrms_rng.Rng.float rng 1. |])
  in
  let onion = Rrms_core.Onion.build points in
  Alcotest.(check bool) "exhaustive" true (Rrms_core.Onion.exhaustive onion);
  Alcotest.(check int) "partition size" 3_000
    (Rrms_core.Onion.size_upto onion (Rrms_core.Onion.depth onion))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_csv_roundtrip;
    Alcotest.test_case "csv fuzz no crash" `Quick test_csv_fuzz_no_crash;
    Alcotest.test_case "simplex 3-var vs brute force" `Slow
      test_simplex_3var_vs_brute_force;
    Alcotest.test_case "large 2D pipeline" `Slow test_large_2d_pipeline;
    Alcotest.test_case "large sfs skyline" `Slow test_large_sfs_skyline;
    Alcotest.test_case "deep onion" `Slow test_deep_onion;
  ]
