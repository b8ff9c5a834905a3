(* The executables the suite drives, resolved against the directory of
   the running test binary rather than the working directory: the suite
   then passes under [dune runtest] and under
   [dune exec test/test_main.exe] from the repository root alike. *)

let exe rel = Filename.concat (Filename.dirname Sys.executable_name) rel
let serve_exe = exe "../bin/rrms_serve_bin.exe"
let cli_exe = exe "../bin/rrms_cli.exe"
let example_exe name = exe (Printf.sprintf "../examples/%s.exe" name)
