(* A scripted protocol session whose response lines are pinned byte for
   byte in golden/hit_path_session.jsonl: a miss, its hits (plain,
   [explain], in a batch), a mutation that carries an hd result under
   renamed indices, and a rehydrated hit after a [--state-dir]
   restart, plus request lines that exercise the decoder's error
   messages and the number printer.  [elapsed_ms] is the one field
   that varies between runs; {!lines} masks it to 0. *)

module Serve = Rrms_serve
module Dataset = Rrms_dataset.Dataset

(* Row 0 is dominated by every other row, so deleting it keeps the
   skyline sequence and shifts every surviving index down by one. *)
let write_csv path ~m ~n ~seed =
  let rng = Rrms_rng.Rng.create seed in
  let rows =
    Array.init n (fun i ->
        Array.init m (fun _ ->
            if i = 0 then 0.001 else 0.01 +. Rrms_rng.Rng.float rng 1.))
  in
  let attributes = Array.init m (fun j -> Printf.sprintf "a%d" j) in
  Dataset.to_csv (Dataset.create ~name:"golden" ~attributes rows) path

let query ?(extra = "") id ds algo r gamma =
  Printf.sprintf
    {|{"id":%d,"req":"query","dataset":%S,"algo":%S,"r":%d,"gamma":%d%s}|} id
    ds algo r gamma extra

let first_session ~csv ~csv2 =
  [
    Printf.sprintf {|{"id":1,"req":"load","path":%S,"name":"g"}|} csv;
    query 2 "g" "hd-rrms" 4 4;
    query 3 "g" "hd-rrms" 4 4;
    query 4 "g" "hd-rrms" 4 4 ~extra:{|,"explain":true|};
    query 5 "g" "hd-greedy" 5 3;
    query 6 "g" "cube" 4 4;
    {|{"id":7,"req":"batch","dataset":"g","items":[{"algo":"hd-rrms","r":4,"gamma":4},{"algo":"hd-greedy","r":5,"gamma":3},{"algo":"cube","r":4},{"algo":"hd-rrms","r":0}]}|};
    {|{"id":8,"req":"mutate","dataset":"g","ops":[{"op":"delete","index":0}]}|};
    query 9 "g" "hd-rrms" 4 4;
    query 10 "g" "hd-greedy" 5 3 ~extra:{|,"explain":true|};
    query 11 "g" "cube" 4 4;
    Printf.sprintf {|{"id":12,"req":"load","path":%S,"name":"p"}|} csv2;
    query 13 "p" "2d" 3 4;
    query 14 "p" "2d" 3 4;
    (* decoder and printer corners *)
    {|{"id":-0,"req":"ping"}|};
    {|{"id":1.5e3,"req":"ping"}|};
    {|{"id":12345678901234567890,"req":"ping"}|};
    {|{"id":0.1,"req":"ping"}|};
    {|{"id":"café 😀 \"q\" \\ \/","req":"ping"}|};
    {|{"id":"tab	here","req":"ping"}|};
    {|{"id":1,"req":"query","r":}|};
    {|{"id":2,"req":"nope"}|};
    {|[1,2|};
    {|{"id":"\x"}|};
    {|{"id":007,"req":"ping"} x|};
    "";
    "   ";
  ]

let second_session ~csv =
  [
    Printf.sprintf {|{"id":21,"req":"load","path":%S,"name":"g"}|} csv;
    query 22 "g" "hd-rrms" 4 4 ~extra:{|,"explain":true|};
    query 23 "g" "hd-rrms" 4 4;
    query 24 "g" "hd-greedy" 5 3;
  ]

let mask line =
  let tag = {|"elapsed_ms":|} in
  let tl = String.length tag in
  let n = String.length line in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then ()
    else if i + tl <= n && String.sub line i tl = tag then begin
      Buffer.add_string b tag;
      Buffer.add_char b '0';
      let j = ref (i + tl) in
      while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      go !j
    end
    else begin
      Buffer.add_char b line.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let run_session store lines =
  let h = Serve.Server.store_handler store () in
  let out =
    List.filter_map
      (fun l ->
        if String.trim l = "" then None
        else
          match h.Serve.Server.on_line l with
          | `Reply r | `Flush r | `Shutdown r -> Some (mask r))
      lines
  in
  h.Serve.Server.on_close ();
  out

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let lines () =
  let csv = Filename.temp_file "rrms_golden" ".csv" in
  let csv2 = Filename.temp_file "rrms_golden2d" ".csv" in
  let dir = Filename.temp_file "rrms_golden_state" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ csv; csv2 ];
      if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      write_csv csv ~m:3 ~n:400 ~seed:5;
      write_csv csv2 ~m:2 ~n:300 ~seed:6;
      let store () =
        Serve.Store.create ~domains:1 ~persist:(Serve.Persist.open_dir dir) ()
      in
      let a = run_session (store ()) (first_session ~csv ~csv2) in
      (* a restart: a fresh store over the same state directory *)
      let b = run_session (store ()) (second_session ~csv) in
      a @ b)
