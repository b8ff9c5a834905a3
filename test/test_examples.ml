(* Smoke tests: every example binary must run to completion and print
   its headline output (guards the examples against bit-rot). *)

let run_example name expect =
  let cmd = Built.example_exe name ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       match In_channel.input_line ic with
       | Some l ->
           Buffer.add_string buf l;
           Buffer.add_char buf '\n'
       | None -> raise Exit
     done
   with Exit -> ());
  let status = Unix.close_process_in ic in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c ->
      Alcotest.fail (Printf.sprintf "%s exited with %d" name c)
  | _ -> Alcotest.fail (name ^ " killed/stopped"));
  let out = Buffer.contents buf in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s output mentions %S" name needle)
        true
        (Astring_contains.contains out needle))
    expect

let suite =
  [
    Alcotest.test_case "quickstart" `Slow (fun () ->
        run_example "quickstart"
          [ "2D-RRMS"; "HD-RRMS"; "Theorem-4 guarantee" ]);
    Alcotest.test_case "real_estate" `Slow (fun () ->
        run_example "real_estate"
          [ "Pareto-optimal"; "simulated 100k visitors"; "naive" ]);
    Alcotest.test_case "nba_scout" `Slow (fun () ->
        run_example "nba_scout" [ "HD-RRMS"; "GREEDY"; "per-coach check" ]);
    Alcotest.test_case "flight_dashboard" `Slow (fun () ->
        run_example "flight_dashboard" [ "layer 1"; "layer-1 exact max regret" ]);
    Alcotest.test_case "live_catalog" `Slow (fun () ->
        run_example "live_catalog" [ "from-scratch check"; "amortization" ]);
  ]
