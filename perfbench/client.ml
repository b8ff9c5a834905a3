(* One rrms-serve process and the single Unix-socket connection the
   benchmark drives it through. *)

type t = {
  pid : int;
  socket : string;
  ic : in_channel;
  oc : out_channel;
}

let now = Unix.gettimeofday

(* The server must not inherit settings that change what it records. *)
let clean_env () =
  Array.of_list
    (List.filter
       (fun kv ->
         not (String.length kv >= 5 && String.sub kv 0 5 = "RRMS_"))
       (Array.to_list (Unix.environment ())))

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Start the server with its stdio on [log]; wait until it accepts. *)
let spawn ~exe ~socket ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env exe
      [| exe; "--socket"; socket; "--domains"; "1" |]
      (clean_env ()) out out out
  in
  Unix.close out;
  let deadline = now () +. 60. in
  let rec wait_up () =
    match connect socket with
    | Some fd -> fd
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "rrms-serve exited during start-up");
        if now () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "rrms-serve did not accept connections within 60 s"
        end;
        Unix.sleepf 0.001;
        wait_up ()
  in
  let fd = wait_up () in
  { pid; socket; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send t line =
  output_string t.oc line;
  output_char t.oc '\n'

let flush t = Stdlib.flush t.oc
let recv t = input_line t.ic

(* One closed-loop round trip: the response and its latency in
   seconds, from writing the line to reading the answer. *)
let call t line =
  let t0 = now () in
  send t line;
  flush t;
  let resp = recv t in
  (resp, now () -. t0)

(* Peak resident set of the server, in MB (VmHWM). *)
let rss_peak_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Ask the server to stop and wait for the process; kill it if it does
   not exit within 30 s. *)
let shutdown t =
  (try
     send t {|{"req":"shutdown"}|};
     flush t;
     ignore (recv t)
   with _ -> ());
  (try close_out t.oc with _ -> ());
  let deadline = now () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        Unix.kill t.pid Sys.sigkill;
        ignore (Unix.waitpid [] t.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  try Sys.remove t.socket with Sys_error _ -> ()

(* [find s sub from]: index of the first [sub] in [s] at or after
   [from], or -1. *)
let find s sub from =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then -1
    else if String.unsafe_get s i = String.unsafe_get sub 0 && String.sub s i k = sub
    then i
    else go (i + 1)
  in
  go from

(* Cheap envelope reads used inside the timed loop. *)
let is_ok resp = find resp {|"ok":true|} 0 >= 0
let is_cached resp = find resp {|"cached":true|} 0 >= 0

let id_matches resp id =
  let p = Printf.sprintf {|{"id":%d,|} id in
  String.length resp >= String.length p && String.sub resp 0 (String.length p) = p

(* The text from the ["result"] member to the end of the line. *)
let result_suffix resp =
  let i = find resp {|"result":|} 0 in
  if i < 0 then "" else String.sub resp i (String.length resp - i)
