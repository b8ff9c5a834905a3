(* Integration tests: drive the rrms command-line binary end to end
   (generate → skyline → hull → solve → eval → topk) through a shell,
   checking exit codes and parsing its output. *)

let cli = Built.cli_exe

let read_process cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 256 in
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
  (status, Buffer.contents buf)

let run_capture cmd = read_process (cmd ^ " 2>/dev/null")

(* Like [run_capture], but keeps stderr in the output. *)
let run_capture_all cmd = read_process (cmd ^ " 2>&1")

let check_exit_ok msg status =
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.fail (Printf.sprintf "%s: exit code %d" msg c)
  | _ -> Alcotest.fail (msg ^ ": killed/stopped")

let with_temp_csv f =
  let path = Filename.temp_file "rrms_cli_test" ".csv" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_generate_and_skyline () =
  with_temp_csv (fun csv ->
      let status, _ =
        run_capture
          (Printf.sprintf "%s generate --kind anticorrelated -n 500 -m 2 --seed 7 -o %s" cli csv)
      in
      check_exit_ok "generate" status;
      Alcotest.(check bool) "csv written" true (Sys.file_exists csv);
      let status, out = run_capture (Printf.sprintf "%s skyline -i %s" cli csv) in
      check_exit_ok "skyline" status;
      Alcotest.(check bool) "reports n=500" true
        (Astring_contains.contains out "n=500");
      Alcotest.(check bool) "reports skyline size" true
        (Astring_contains.contains out "skyline="))

let test_skyline_algorithms_agree_via_cli () =
  let agree ~m a b =
    with_temp_csv (fun csv ->
        let status, _ =
          run_capture
            (Printf.sprintf
               "%s generate --kind independent -n 300 -m %d --seed 9 -o %s" cli
               m csv)
        in
        check_exit_ok "generate" status;
        let size algo =
          let status, out =
            run_capture (Printf.sprintf "%s skyline -i %s --algo %s" cli csv algo)
          in
          check_exit_ok ("skyline " ^ algo) status;
          Scanf.sscanf (String.trim out) "n=%d skyline=%d" (fun _ s -> s)
        in
        Alcotest.(check int) (Printf.sprintf "%s = %s (m=%d)" a b m) (size a)
          (size b))
  in
  agree ~m:3 "bnl" "sfs";
  agree ~m:2 "sfs" "2d"

let test_solve_and_eval_roundtrip () =
  with_temp_csv (fun csv ->
      let status, _ =
        run_capture
          (Printf.sprintf "%s generate --kind anticorrelated -n 400 -m 2 --seed 3 -o %s" cli csv)
      in
      check_exit_ok "generate" status;
      let status, out =
        run_capture
          (Printf.sprintf "%s solve -i %s --normalize --algo 2d-exact -r 4" cli csv)
      in
      check_exit_ok "solve" status;
      (* First line: algo=... regret=R ...; following lines: idx,vals. *)
      let lines = String.split_on_char '\n' (String.trim out) in
      let header = List.hd lines in
      Alcotest.(check bool) "solve header" true
        (Astring_contains.contains header "algo=2d-exact");
      let regret =
        Scanf.sscanf header "algo=%s@ r=%d selected=%d regret=%f"
          (fun _ _ _ e -> e)
      in
      let rows =
        List.filter_map
          (fun l ->
            match String.split_on_char ',' l with
            | idx :: _ :: _ -> int_of_string_opt idx
            | _ -> None)
          (List.tl lines)
      in
      Alcotest.(check bool) "selected rows parsed" true (List.length rows > 0);
      (* Re-evaluating the same rows must reproduce the regret. *)
      let rows_arg = String.concat "," (List.map string_of_int rows) in
      let status, out =
        run_capture
          (Printf.sprintf "%s eval -i %s --normalize --rows %s" cli csv rows_arg)
      in
      check_exit_ok "eval" status;
      let regret' = Scanf.sscanf (String.trim out) "regret=%f" Fun.id in
      Alcotest.(check (float 1e-6)) "eval matches solve" regret regret')

let test_topk_cli () =
  with_temp_csv (fun csv ->
      let status, _ =
        run_capture
          (Printf.sprintf "%s generate --kind anticorrelated -n 300 -m 2 --seed 5 -o %s" cli csv)
      in
      check_exit_ok "generate" status;
      let status, out =
        run_capture (Printf.sprintf "%s topk -i %s -k 2 --weights 0.5,0.5" cli csv)
      in
      check_exit_ok "topk" status;
      Alcotest.(check bool) "reports exact top-k" true
        (Astring_contains.contains out "top-2 (exact"))

let test_error_reporting () =
  (* Unknown algorithm must fail with a non-zero exit. *)
  with_temp_csv (fun csv ->
      let status, _ =
        run_capture
          (Printf.sprintf "%s generate --kind independent -n 50 -m 2 --seed 1 -o %s" cli csv)
      in
      check_exit_ok "generate" status;
      let status, _ =
        run_capture (Printf.sprintf "%s solve -i %s --algo nonsense -r 3" cli csv)
      in
      match status with
      | Unix.WEXITED 0 -> Alcotest.fail "bad algo should fail"
      | _ -> ())

let check_exit msg expected status =
  match status with
  | Unix.WEXITED c when c = expected -> ()
  | Unix.WEXITED c ->
      Alcotest.fail (Printf.sprintf "%s: exit code %d, expected %d" msg c expected)
  | _ -> Alcotest.fail (msg ^ ": killed/stopped")

let test_skyline_input_errors () =
  with_temp_csv (fun csv ->
      let status, _ =
        run_capture
          (Printf.sprintf
             "%s generate --kind anticorrelated -n 200 -m 3 --seed 5 -o %s" cli
             csv)
      in
      check_exit_ok "generate" status;
      (* The 2-D sweep on a 3-D table is invalid input, reported like
         [solve --algo 2d] does: a usage error, not an internal one. *)
      let status, out =
        run_capture_all (Printf.sprintf "%s skyline -i %s --algo 2d" cli csv)
      in
      check_exit "skyline 2d on 3-D data" 124 status;
      Alcotest.(check bool) "names the dimension" true
        (Astring_contains.contains out "dimension <> 2");
      Alcotest.(check bool) "not an internal error" false
        (Astring_contains.contains out "internal error");
      let status, out =
        run_capture_all (Printf.sprintf "%s skyline -i %s --algo dnc" cli csv)
      in
      check_exit "skyline dnc" 124 status;
      Alcotest.(check bool) "dnc is unknown" true
        (Astring_contains.contains out "unknown skyline algorithm"))

let test_guard_exit_codes () =
  with_temp_csv (fun csv ->
      let status, _ =
        run_capture
          (Printf.sprintf
             "%s generate --kind anticorrelated -n 2000 -m 3 --seed 21 -o %s"
             cli csv)
      in
      check_exit_ok "generate" status;
      (* Deadline expiry: degraded success, exit 3, with the report line
         and a non-empty selection. *)
      let status, out =
        run_capture
          (Printf.sprintf
             "%s solve -i %s --algo hd-rrms -r 4 --gamma 5 --timeout 0" cli csv)
      in
      check_exit "timeout solve" 3 status;
      Alcotest.(check bool) "degraded line" true
        (Astring_contains.contains out "degraded:");
      Alcotest.(check bool) "bound reported" true
        (Astring_contains.contains out "regret_bound=");
      Alcotest.(check bool) "non-empty selection" true
        (Astring_contains.contains out "selected=1"
        || Astring_contains.contains out "selected=2"
        || Astring_contains.contains out "selected=3"
        || Astring_contains.contains out "selected=4");
      (* Cell-cap shrink: still exit 3, γ recorded in the report. *)
      let status, out =
        run_capture
          (Printf.sprintf
             "%s solve -i %s --algo hd-rrms -r 4 --gamma 8 --max-cells 3000"
             cli csv)
      in
      check_exit "cell-cap solve" 3 status;
      Alcotest.(check bool) "cell-cap reason" true
        (Astring_contains.contains out "cell-cap");
      (* Impossible cap: structured Resource_limit, exit 69. *)
      let status, _ =
        run_capture
          (Printf.sprintf "%s solve -i %s --algo hd-rrms -r 4 --max-cells 10"
             cli csv)
      in
      check_exit "impossible cap" 69 status)

let test_strict_lenient_cli () =
  with_temp_csv (fun csv ->
      let oc = open_out csv in
      output_string oc "x,y\n1,2\n3,nan\n5,6\n";
      close_out oc;
      (* Strict (default): Invalid_input, exit 65. *)
      let status, _ =
        run_capture (Printf.sprintf "%s solve -i %s --algo 2d -r 2" cli csv)
      in
      check_exit "strict bad row" 65 status;
      (* Lenient: the bad row is dropped and the solve succeeds. *)
      let status, out =
        run_capture
          (Printf.sprintf "%s solve -i %s --lenient --algo 2d -r 2" cli csv)
      in
      check_exit_ok "lenient solve" status;
      Alcotest.(check bool) "solved on surviving rows" true
        (Astring_contains.contains out "algo=2d"))

let suite =
  [
    Alcotest.test_case "generate + skyline" `Quick test_generate_and_skyline;
    Alcotest.test_case "skyline algos agree" `Quick
      test_skyline_algorithms_agree_via_cli;
    Alcotest.test_case "solve/eval roundtrip" `Quick test_solve_and_eval_roundtrip;
    Alcotest.test_case "topk" `Quick test_topk_cli;
    Alcotest.test_case "error reporting" `Quick test_error_reporting;
    Alcotest.test_case "skyline input errors" `Quick test_skyline_input_errors;
    Alcotest.test_case "guard exit codes" `Quick test_guard_exit_codes;
    Alcotest.test_case "strict/lenient loading" `Quick test_strict_lenient_cli;
  ]
