(* Tests for dataset storage, projection and CSV round-trips. *)

open Rrms_dataset

let mk () =
  Dataset.create ~name:"t"
    ~attributes:[| "x"; "y" |]
    [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 0. |] |]

let test_accessors () =
  let d = mk () in
  Alcotest.(check string) "name" "t" (Dataset.name d);
  Alcotest.(check int) "size" 3 (Dataset.size d);
  Alcotest.(check int) "dim" 2 (Dataset.dim d);
  Alcotest.(check (float 0.)) "value" 4. (Dataset.value d 1 1);
  Alcotest.(check (array (float 0.))) "row" [| 5.; 0. |] (Dataset.row d 2)

let expect_invalid_input what f =
  try
    ignore (f ());
    Alcotest.fail (Printf.sprintf "expected %s failure" what)
  with
  | Rrms_guard.Guard.Error.Guard_error
      (Rrms_guard.Guard.Error.Invalid_input _) ->
      ()

let test_create_validation () =
  expect_invalid_input "no-attributes" (fun () ->
      Dataset.create ~attributes:[||] [||]);
  expect_invalid_input "row-length" (fun () ->
      Dataset.create ~attributes:[| "x" |] [| [| 1.; 2. |] |]);
  expect_invalid_input "negative-value" (fun () ->
      Dataset.create ~attributes:[| "x" |] [| [| -1. |] |]);
  expect_invalid_input "nan" (fun () ->
      Dataset.create ~attributes:[| "x" |] [| [| Float.nan |] |])

(* [with_rows] applies [create]'s check to the fresh positions only and
   keeps the given array as the dataset's own. *)
let test_with_rows () =
  let d = mk () in
  let rows = [| [| 1.; 2. |]; [| 7.; 8. |]; [| 5.; 0. |] |] in
  let d' = Dataset.with_rows d ~fresh:[| 1 |] rows in
  Alcotest.(check string) "name kept" "t" (Dataset.name d');
  Alcotest.(check (array string)) "attributes kept" [| "x"; "y" |]
    (Dataset.attributes d');
  Alcotest.(check bool) "rows not copied" true (Dataset.shared_rows d' == rows);
  expect_invalid_input "fresh nan" (fun () ->
      Dataset.with_rows d ~fresh:[| 0 |] [| [| Float.nan; 1. |] |]);
  expect_invalid_input "fresh row-length" (fun () ->
      Dataset.with_rows d ~fresh:[| 1 |] [| [| 1.; 2. |]; [| 1. |] |])

let test_project () =
  let d = mk () in
  let p = Dataset.project d [| 1 |] in
  Alcotest.(check int) "projected dim" 1 (Dataset.dim p);
  Alcotest.(check (array string)) "projected attrs" [| "y" |] (Dataset.attributes p);
  Alcotest.(check (float 0.)) "projected value" 2. (Dataset.value p 0 0);
  (* Reordering projection. *)
  let p2 = Dataset.project d [| 1; 0 |] in
  Alcotest.(check (array (float 0.))) "reordered row" [| 2.; 1. |] (Dataset.row p2 0)

let test_take_select () =
  let d = mk () in
  Alcotest.(check int) "take 2" 2 (Dataset.size (Dataset.take d 2));
  Alcotest.(check int) "take beyond" 3 (Dataset.size (Dataset.take d 10));
  let s = Dataset.select d [| 2; 0 |] in
  Alcotest.(check (array (float 0.))) "select order" [| 5.; 0. |] (Dataset.row s 0);
  Alcotest.(check (array (float 0.))) "select order 2" [| 1.; 2. |] (Dataset.row s 1)

let test_normalize () =
  let d = mk () in
  let n = Dataset.normalize d in
  Alcotest.(check (float 1e-12)) "max scaled to 1" 1. (Dataset.value n 2 0);
  Alcotest.(check (float 1e-12)) "proportions kept" 0.2 (Dataset.value n 0 0);
  Alcotest.(check (float 1e-12)) "second column" 1. (Dataset.value n 1 1);
  (* Zero column untouched. *)
  let z =
    Dataset.create ~attributes:[| "x"; "y" |] [| [| 0.; 1. |]; [| 0.; 3. |] |]
  in
  let nz = Dataset.normalize z in
  Alcotest.(check (float 0.)) "zero column unchanged" 0. (Dataset.value nz 1 0)

let test_csv_roundtrip () =
  let d = mk () in
  let path = Filename.temp_file "rrms_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset.to_csv d path;
      let d' = Dataset.of_csv path in
      Alcotest.(check int) "size" (Dataset.size d) (Dataset.size d');
      Alcotest.(check (array string))
        "attributes" (Dataset.attributes d) (Dataset.attributes d');
      for i = 0 to Dataset.size d - 1 do
        Alcotest.(check (array (float 0.)))
          "row" (Dataset.row d i) (Dataset.row d' i)
      done)

let test_csv_malformed () =
  let path = Filename.temp_file "rrms_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "x,y\n1.0\n";
      close_out oc;
      expect_invalid_input "malformed-csv" (fun () -> Dataset.of_csv path))

let suite =
  [
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "with_rows validates fresh rows" `Quick test_with_rows;
    Alcotest.test_case "project" `Quick test_project;
    Alcotest.test_case "take/select" `Quick test_take_select;
    Alcotest.test_case "normalize" `Quick test_normalize;
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv malformed" `Quick test_csv_malformed;
  ]
