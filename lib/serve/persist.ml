module Guard = Rrms_guard.Guard
module Obs = Rrms_obs.Obs
module Dataset = Rrms_dataset.Dataset

module Metrics = struct
  (* Everything here depends on what an earlier process left on disk,
     never on the workload alone. *)
  let c name help = Obs.Counter.make ~deterministic:false ~help name

  let writes =
    c "rrms_serve_persist_writes_total"
      "artifact blobs written (write-once saves of an existing blob excluded)"

  let write_errors =
    c "rrms_serve_persist_write_errors_total"
      "artifact spills abandoned on an I/O error (service degrades to \
       memory-only)"

  let rehydrated =
    c "rrms_serve_persist_rehydrated_total"
      "artifacts rehydrated from the state directory"

  let blobs_scanned =
    c "rrms_serve_persist_blobs_scanned_total"
      "blob files examined by the startup scan"

  let rehydrate_seconds =
    Obs.Timer.make ~help:"blob load + decode latency (hits and misses alike)"
      "rrms_serve_persist_rehydrate_seconds"

  let corrupt =
    c "rrms_serve_persist_corrupt_blobs_total"
      "blobs discarded as torn, corrupt or version-mismatched"

  let partial_cleaned =
    c "rrms_serve_persist_partial_writes_cleaned_total"
      "leftover temp files removed by the startup scan"

  let wal_appends =
    c "rrms_serve_persist_wal_appends_total"
      "mutation records appended to the write-ahead delta log"

  let wal_replayed =
    c "rrms_serve_persist_wal_replayed_total"
      "mutation records replayed from the write-ahead delta log"

  let wal_torn =
    c "rrms_serve_persist_wal_torn_total"
      "write-ahead log tails discarded as torn or corrupt"
end

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

module Fault = struct
  type mode = Crash of int | Torn of int option | Stall of float

  let current : mode option Atomic.t = Atomic.make None

  (* Process-wide 1-based write ordinal, so crash@N / torn_write@N are
     deterministic for a scripted sequence of requests. *)
  let write_ordinal = Atomic.make 0

  let set m = Atomic.set current (Some m)
  let clear () = Atomic.set current None
  let active () = Atomic.get current <> None

  (* "crash@N" | "torn_write" | "torn_write@N" | "stall@MS". *)
  let parse s =
    match String.split_on_char '@' (String.trim s) with
    | [ "torn_write" ] -> Some (Torn None)
    | [ "torn_write"; n ] ->
        Option.map (fun n -> Torn (Some n)) (int_of_string_opt n)
    | [ "crash"; n ] -> Option.map (fun n -> Crash n) (int_of_string_opt n)
    | [ "stall"; ms ] -> (
        match float_of_string_opt ms with
        | Some ms when ms >= 0. -> Some (Stall ms)
        | _ -> None)
    | _ -> None

  let configure_from_env () =
    match Sys.getenv_opt "RRMS_SERVE_FAULT" with
    | None -> ()
    | Some s -> ( match parse s with Some m -> set m | None -> ())

  (* What the fault layer decides for one blob write. *)
  type action = Write_ok | Write_torn | Write_crash

  let on_write () =
    match Atomic.get current with
    | None -> Write_ok
    | Some m -> (
        let n = 1 + Atomic.fetch_and_add write_ordinal 1 in
        match m with
        | Stall ms ->
            if ms > 0. then Unix.sleepf (ms /. 1000.);
            Write_ok
        | Torn None -> Write_torn
        | Torn (Some at) -> if n = at then Write_torn else Write_ok
        | Crash at -> if n = at then Write_crash else Write_ok)
end

(* ------------------------------------------------------------------ *)
(* Blob format                                                        *)
(* ------------------------------------------------------------------ *)

(* Header (22 bytes): magic "RRMB" | format version u8 | kind u8 |
   payload length u64le | FNV-1a-64 payload checksum u64le, then the
   payload.  Everything multi-byte is little-endian via Bytes.set_*;
   floats travel as their IEEE bits, so decode is bit-exact. *)

let magic = "RRMB"
let version = 1
let header_len = 22

(* Kind bytes 3 and 4 held direction grids and regret matrices, which
   are cheaper to recompute than to read back; they are never reused,
   so such a blob left by an older build fails validation as an unknown
   kind and is discarded once. *)
type kind = Dataset_blob | Skyline_blob | Result_blob | Wal_record

let kind_byte = function
  | Dataset_blob -> 1
  | Skyline_blob -> 2
  | Result_blob -> 5
  | Wal_record -> 6

let kind_of_byte = function
  | 1 -> Some Dataset_blob
  | 2 -> Some Skyline_blob
  | 5 -> Some Result_blob
  | 6 -> Some Wal_record
  | _ -> None

let fnv_prime = 0x100000001b3L

let checksum s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let header ~kind payload =
  let b = Bytes.create header_len in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_uint8 b 5 (kind_byte kind);
  Bytes.set_int64_le b 6 (Int64.of_int (String.length payload));
  Bytes.set_int64_le b 14 (checksum payload);
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* Payload codec                                                      *)
(* ------------------------------------------------------------------ *)

module Codec = struct
  let u64 buf v = Buffer.add_int64_le buf (Int64.of_int v)
  let f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

  let str buf s =
    u64 buf (String.length s);
    Buffer.add_string buf s

  let floats buf a =
    u64 buf (Array.length a);
    Array.iter (f64 buf) a

  exception Truncated

  type reader = { payload : string; mutable pos : int }

  let reader payload = { payload; pos = 0 }

  let need r n =
    if n < 0 || r.pos + n > String.length r.payload then raise Truncated

  let ru64 r =
    need r 8;
    let v = Int64.to_int (String.get_int64_le r.payload r.pos) in
    r.pos <- r.pos + 8;
    if v < 0 then raise Truncated;
    v

  let rf64 r =
    need r 8;
    let v = Int64.float_of_bits (String.get_int64_le r.payload r.pos) in
    r.pos <- r.pos + 8;
    v

  let rstr r =
    let n = ru64 r in
    need r n;
    let s = String.sub r.payload r.pos n in
    r.pos <- r.pos + n;
    s

  let rfloats r =
    let n = ru64 r in
    need r (n * 8);
    Array.init n (fun _ -> rf64 r)

  let finished r = r.pos = String.length r.payload
end

(* ------------------------------------------------------------------ *)
(* Store                                                              *)
(* ------------------------------------------------------------------ *)

type scan = { valid : int; corrupt : int; partial : int }

type t = {
  root : string;
  mutable scan : scan;
  (* Validated length of the write-ahead log's good prefix, computed
     lazily on first WAL touch.  Appends write at this offset (after
     truncating any torn tail) so a torn record never strands the
     records appended after it. *)
  mutable wal_end : int option;
}

let root t = t.root
let last_scan t = t.scan

let tmp_marker = ".tmp-"
let tmp_seq = Atomic.make 0

let is_tmp name =
  let m = String.length tmp_marker and n = String.length name in
  let rec scan i = i + m <= n && (String.sub name i m = tmp_marker || scan (i + 1)) in
  scan 0

(* Read and validate one blob file.  [Ok (kind, payload)] when every
   header field and the checksum hold; [Error `Missing] when the file
   does not exist; [Error `Corrupt] for anything else — short file, bad
   magic, unknown version or kind, length or checksum mismatch.  Both
   the startup scan and every load go through here. *)
let read_blob path =
  match open_in_bin path with
  | exception Sys_error _ -> Error `Missing
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            let size = in_channel_length ic in
            if size < header_len then Error `Corrupt
            else begin
              let h = really_input_string ic header_len in
              let plen = Int64.to_int (String.get_int64_le h 6) in
              let sum = String.get_int64_le h 14 in
              match kind_of_byte (String.get_uint8 h 5) with
              | Some kind
                when String.sub h 0 4 = magic
                     && String.get_uint8 h 4 = version
                     && plen >= 0
                     && size = header_len + plen ->
                  let payload = really_input_string ic plen in
                  if checksum payload <> sum then Error `Corrupt
                  else Ok (kind, payload)
              | _ -> Error `Corrupt
            end
          with End_of_file | Sys_error _ -> Error `Corrupt)

let scan_dir root =
  let names = try Sys.readdir root with Sys_error _ -> [||] in
  Array.sort compare names;
  let tally = ref { valid = 0; corrupt = 0; partial = 0 } in
  Array.iter
    (fun name ->
      let path = Filename.concat root name in
      if is_tmp name then begin
        (try Sys.remove path with Sys_error _ -> ());
        Obs.Counter.incr Metrics.partial_cleaned;
        tally := { !tally with partial = !tally.partial + 1 }
      end
      else if Filename.check_suffix name ".blob" then begin
        Obs.Counter.incr Metrics.blobs_scanned;
        if Result.is_ok (read_blob path) then
          tally := { !tally with valid = !tally.valid + 1 }
        else begin
          (try Sys.remove path with Sys_error _ -> ());
          Obs.Counter.incr Metrics.corrupt;
          tally := { !tally with corrupt = !tally.corrupt + 1 }
        end
      end)
    names;
  !tally

let open_dir path =
  Fault.configure_from_env ();
  (try
     if not (Sys.file_exists path) then Unix.mkdir path 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
   | Unix.Unix_error (e, _, _) ->
       Guard.Error.invalid_input
         (Printf.sprintf "Persist.open_dir: cannot create %s: %s" path
            (Unix.error_message e)));
  if not (Sys.is_directory path) then
    Guard.Error.invalid_input
      (Printf.sprintf "Persist.open_dir: %s is not a directory" path);
  { root = path; scan = scan_dir path; wal_end = None }

(* ------------------------------------------------------------------ *)
(* Atomic write                                                       *)
(* ------------------------------------------------------------------ *)

let fsync_dir root =
  match Unix.openfile root [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let write_raw ~fsync path (chunks : string list) =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun s ->
          let b = Bytes.unsafe_of_string s in
          let n = Bytes.length b in
          let off = ref 0 in
          while !off < n do
            off := !off + Unix.write fd b !off (n - !off)
          done)
        chunks;
      if fsync then Unix.fsync fd)

let half s = String.sub s 0 (String.length s / 2)

(* The one write path: temp file in the same directory, fsync, atomic
   rename over the final name, directory fsync.  Blobs are write-once:
   every name is a content hash, so a blob already under its final name
   holds the same bytes (and every load validates them anyway).  Such a
   save is skipped before [encode] fills the payload, and is neither
   counted as a write nor given a fault ordinal.  The injected faults
   land here — [Write_crash] dies with SIGKILL's exit code leaving only
   temp litter, [Write_torn] renames a truncated payload into place so
   the final name holds a checksummed-as-full but short blob. *)
let write_blob t ~kind ~name encode =
  let final = Filename.concat t.root name in
  if not (Sys.file_exists final) then begin
    let tmp =
      Printf.sprintf "%s%s%d-%d" final tmp_marker (Unix.getpid ())
        (Atomic.fetch_and_add tmp_seq 1)
    in
    let payload =
      let buf = Buffer.create 4096 in
      encode buf;
      Buffer.contents buf
    in
    let hdr = header ~kind payload in
    match Fault.on_write () with
    | Fault.Write_crash ->
        (* Half-written temp file, then die as if SIGKILLed: no rename,
           no cleanup, no at_exit — the startup scan must cope. *)
        (try write_raw ~fsync:true tmp [ hdr; half payload ]
         with Unix.Unix_error _ -> ());
        Unix._exit 137
    | (Fault.Write_ok | Fault.Write_torn) as action -> (
        let body =
          if action = Fault.Write_torn then [ hdr; half payload ]
          else [ hdr; payload ]
        in
        try
          write_raw ~fsync:true tmp body;
          Unix.rename tmp final;
          fsync_dir t.root;
          Obs.Counter.incr Metrics.writes
        with Unix.Unix_error _ | Sys_error _ ->
          Obs.Counter.incr Metrics.write_errors;
          try Sys.remove tmp with Sys_error _ -> ())
  end

(* Load one blob and decode it.  A blob that exists but fails any check
   — header, checksum, or decode — is unlinked and counted corrupt, and
   the caller proceeds as on a miss. *)
let load_blob t ~kind ~name decode =
  Obs.Timer.time Metrics.rehydrate_seconds (fun () ->
      let path = Filename.concat t.root name in
      let discard () =
        Obs.Counter.incr Metrics.corrupt;
        (try Sys.remove path with Sys_error _ -> ());
        None
      in
      match read_blob path with
      | Error `Missing -> None
      | Ok (k, payload) when k = kind -> (
          match decode (Codec.reader payload) with
          | v ->
              Obs.Counter.incr Metrics.rehydrated;
              Some v
          | exception _ -> discard ())
      | Ok _ | Error `Corrupt -> discard ())

(* ------------------------------------------------------------------ *)
(* Artifact codecs                                                    *)
(* ------------------------------------------------------------------ *)

let dataset_name key = Printf.sprintf "dataset-%s.blob" key
let skyline_name key = Printf.sprintf "skyline-%s.blob" key

(* The result file name carries only a hash of the cache key; the full
   key lives in the payload and is compared on load, so a hash collision
   degrades to a miss instead of a wrong answer. *)
let result_name key ckey =
  Printf.sprintf "result-%s-%016Lx.blob" key (checksum ckey)

let save_dataset t ~key d =
  write_blob t ~kind:Dataset_blob ~name:(dataset_name key) (fun buf ->
      Codec.str buf (Dataset.name d);
      let attrs = Dataset.attributes d in
      Codec.u64 buf (Array.length attrs);
      Array.iter (Codec.str buf) attrs;
      let n = Dataset.size d and m = Dataset.dim d in
      Codec.u64 buf n;
      Codec.u64 buf m;
      for i = 0 to n - 1 do
        for j = 0 to m - 1 do
          Codec.f64 buf (Dataset.value d i j)
        done
      done)

let load_dataset t ~key =
  load_blob t ~kind:Dataset_blob ~name:(dataset_name key) (fun r ->
      let name = Codec.rstr r in
      let na = Codec.ru64 r in
      let attrs = Array.init na (fun _ -> Codec.rstr r) in
      let n = Codec.ru64 r in
      let m = Codec.ru64 r in
      if m <> na then raise Codec.Truncated;
      Codec.need r (n * m * 8);
      let rows =
        Array.init n (fun _ -> Array.init m (fun _ -> Codec.rf64 r))
      in
      if not (Codec.finished r) then raise Codec.Truncated;
      Dataset.create ~name ~attributes:attrs rows)

let save_skyline t ~key sky =
  write_blob t ~kind:Skyline_blob ~name:(skyline_name key) (fun buf ->
      Codec.u64 buf (Array.length sky);
      Array.iter (Codec.u64 buf) sky)

let load_skyline t ~key =
  load_blob t ~kind:Skyline_blob ~name:(skyline_name key) (fun r ->
      let n = Codec.ru64 r in
      Codec.need r (n * 8);
      let sky = Array.init n (fun _ -> Codec.ru64 r) in
      if not (Codec.finished r) then raise Codec.Truncated;
      sky)

let save_result t ~key ~cache_key result =
  write_blob t ~kind:Result_blob ~name:(result_name key cache_key) (fun buf ->
      Codec.str buf cache_key;
      Codec.str buf (Json.to_string result))

let load_result t ~key ~cache_key =
  Option.join
    (load_blob t ~kind:Result_blob ~name:(result_name key cache_key) (fun r ->
         let stored_key = Codec.rstr r in
         let body = Codec.rstr r in
         if not (Codec.finished r) then raise Codec.Truncated;
         if stored_key <> cache_key then None
         else
           match Json.parse body with
           | Ok j -> Some j
           | Error _ -> raise Codec.Truncated))

(* ------------------------------------------------------------------ *)
(* Write-ahead delta log                                               *)
(* ------------------------------------------------------------------ *)

module Wal = struct
  let file = "mutations.wal"

  type record = {
    base_key : string;
    new_key : string;
    ops : Rrms_core.Delta.mutation list;
  }

  let path t = Filename.concat t.root file

  let encode { base_key; new_key; ops } =
    let buf = Buffer.create 256 in
    Codec.str buf base_key;
    Codec.str buf new_key;
    Codec.u64 buf (List.length ops);
    List.iter
      (fun op ->
        match op with
        | Rrms_core.Delta.Insert p ->
            Codec.u64 buf 1;
            Codec.floats buf p
        | Rrms_core.Delta.Delete i ->
            Codec.u64 buf 2;
            Codec.u64 buf i
        | Rrms_core.Delta.Upsert (i, p) ->
            Codec.u64 buf 3;
            Codec.u64 buf i;
            Codec.floats buf p)
      ops;
    Buffer.contents buf

  let decode r =
    let base_key = Codec.rstr r in
    let new_key = Codec.rstr r in
    let n = Codec.ru64 r in
    let ops =
      List.init n (fun _ ->
          match Codec.ru64 r with
          | 1 -> Rrms_core.Delta.Insert (Codec.rfloats r)
          | 2 -> Rrms_core.Delta.Delete (Codec.ru64 r)
          | 3 ->
              let i = Codec.ru64 r in
              Rrms_core.Delta.Upsert (i, Codec.rfloats r)
          | _ -> raise Codec.Truncated)
    in
    if not (Codec.finished r) then raise Codec.Truncated;
    { base_key; new_key; ops }

  (* Sequential scan of the log: call [f] on every valid record, stop at
     the first torn / corrupt one.  Returns the byte offset after the
     last valid record, the record count, and whether a bad tail was
     seen. *)
  let scan_records path f =
    match open_in_bin path with
    | exception Sys_error _ -> (0, 0, false)
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let size = in_channel_length ic in
            let ok_end = ref 0 and count = ref 0 and torn = ref false in
            (try
               let continue_ = ref true in
               while !continue_ do
                 let pos = pos_in ic in
                 if pos = size then continue_ := false
                 else if pos + header_len > size then begin
                   torn := true;
                   continue_ := false
                 end
                 else begin
                   let h = really_input_string ic header_len in
                   let plen = Int64.to_int (String.get_int64_le h 6) in
                   if
                     String.sub h 0 4 <> magic
                     || String.get_uint8 h 4 <> version
                     || String.get_uint8 h 5 <> kind_byte Wal_record
                     || plen < 0
                     || pos + header_len + plen > size
                   then begin
                     torn := true;
                     continue_ := false
                   end
                   else begin
                     let payload = really_input_string ic plen in
                     if checksum payload <> String.get_int64_le h 14 then begin
                       torn := true;
                       continue_ := false
                     end
                     else
                       match decode (Codec.reader payload) with
                       | record ->
                           f record;
                           ok_end := pos_in ic;
                           incr count
                       | exception Codec.Truncated ->
                           torn := true;
                           continue_ := false
                   end
                 end
               done
             with End_of_file | Sys_error _ -> torn := true);
            (!ok_end, !count, !torn))

  let valid_end t =
    match t.wal_end with
    | Some e -> e
    | None ->
        let e, _, torn = scan_records (path t) (fun _ -> ()) in
        if torn then Obs.Counter.incr Metrics.wal_torn;
        t.wal_end <- Some e;
        e

  (* Append one checksummed record at the validated end of the log,
     fsync'd before the caller proceeds to install the mutation.  Like
     every persist write this never raises: an I/O failure is counted
     and the service degrades to memory-only durability for that
     mutation.  The injected faults land here exactly as on the blob
     path: a crash dies mid-record with SIGKILL's exit code, a torn
     write leaves a half record that the next append (or the startup
     scan) truncates away. *)
  let append t record =
    let payload = encode record in
    let hdr = header ~kind:Wal_record payload in
    let e = valid_end t in
    let write chunks =
      let fd =
        Unix.openfile (path t) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (try Unix.ftruncate fd e with Unix.Unix_error _ -> ());
          ignore (Unix.lseek fd e Unix.SEEK_SET);
          List.iter
            (fun s ->
              let b = Bytes.unsafe_of_string s in
              let n = Bytes.length b in
              let off = ref 0 in
              while !off < n do
                off := !off + Unix.write fd b !off (n - !off)
              done)
            chunks;
          Unix.fsync fd)
    in
    match Fault.on_write () with
    | Fault.Write_crash ->
        (try write [ hdr; half payload ] with Unix.Unix_error _ -> ());
        Unix._exit 137
    | Fault.Write_torn ->
        (* wal_end stays at the pre-write offset: the next append (or
           the next process's scan) truncates the torn record away. *)
        (try write [ hdr; half payload ] with Unix.Unix_error _ -> ());
        Obs.Counter.incr Metrics.write_errors
    | Fault.Write_ok -> (
        try
          write [ hdr; payload ];
          t.wal_end <- Some (e + String.length hdr + String.length payload);
          Obs.Counter.incr Metrics.wal_appends
        with Unix.Unix_error _ | Sys_error _ ->
          Obs.Counter.incr Metrics.write_errors)

  let replay t f =
    let count_ok = ref 0 in
    let e, count, torn =
      scan_records (path t) (fun record ->
          f record;
          incr count_ok;
          Obs.Counter.incr Metrics.wal_replayed)
    in
    ignore !count_ok;
    if torn then Obs.Counter.incr Metrics.wal_torn;
    t.wal_end <- Some e;
    count
end
