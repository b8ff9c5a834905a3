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

  (* Arming restarts the ordinal, so N counts from the arming — which
     for RRMS_SERVE_FAULT is before the process's first write. *)
  let set m =
    Atomic.set write_ordinal 0;
    Atomic.set current (Some m)

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

  (* What the fault layer decides for one frame write. *)
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
(* Frame codec                                                        *)
(* ------------------------------------------------------------------ *)

(* Every file in a state directory is made of frames.  A frame is a
   22-byte header — magic "RRMB" | format version u8 | kind u8 |
   payload length u64le | FNV-1a-64 payload checksum u64le — then the
   payload.  A blob is a file holding exactly one frame; the write-ahead
   log is a sequence of frames.  Everything multi-byte is little-endian
   via Bytes.set_*; floats travel as their IEEE bits, so decode is
   bit-exact. *)

let magic = "RRMB"

(* Version 2: content keys became a chain of per-row digests, so every
   key a version-1 directory names is a key no current store computes.
   Such a directory is discarded whole as stale — never half-replayed
   under keys that no longer mean its content. *)
let version = 2
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

(* The one frame reader: read and validate the frame at [ic]'s position
   in a file of [size] bytes.  [`End] at exactly the end of the file;
   [`Stale] for our magic with another format version (written by an
   older or newer build, not damaged); [`Corrupt] for anything else —
   fewer than a header's bytes left, bad magic, unknown kind, a length
   past the end of the file, a checksum mismatch.  On [`Frame] the
   channel sits just past the payload. *)
let read_frame ic ~size =
  try
    let pos = pos_in ic in
    if pos = size then `End
    else if size - pos < header_len then `Corrupt
    else
      let h = really_input_string ic header_len in
      let plen = Int64.to_int (String.get_int64_le h 6) in
      if String.sub h 0 4 <> magic then `Corrupt
      else if String.get_uint8 h 4 <> version then `Stale
      else
        match kind_of_byte (String.get_uint8 h 5) with
        | Some kind when plen >= 0 && plen <= size - pos - header_len ->
            let payload = really_input_string ic plen in
            if checksum payload <> String.get_int64_le h 14 then `Corrupt
            else `Frame (kind, payload)
        | _ -> `Corrupt
  with End_of_file | Sys_error _ -> `Corrupt

let with_file path f =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (f ic (in_channel_length ic)))

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let half s = String.sub s 0 (String.length s / 2)

(* The one frame writer: cut [path] (created if absent) to [offset],
   write one frame there and fsync it.  Returns whether the whole frame
   was written.  This is the only place the injected faults land:
   [Write_torn] writes a full-length header over half the payload —
   what a lying disk leaves — and reports it; [Write_crash] writes the
   same torn frame, then dies with SIGKILL's exit code: no cleanup, no
   at_exit, so the startup scan and the log scan must cope.  Other I/O
   failures raise [Unix.Unix_error]. *)
let write_frame path ~offset ~kind payload =
  let action = Fault.on_write () in
  let body = if action = Fault.Write_ok then payload else half payload in
  let write () =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.ftruncate fd offset;
        ignore (Unix.lseek fd offset Unix.SEEK_SET);
        write_all fd (header ~kind payload);
        write_all fd body;
        Unix.fsync fd)
  in
  if action = Fault.Write_crash then begin
    (try write () with Unix.Unix_error _ -> ());
    Unix._exit 137
  end;
  write ();
  action = Fault.Write_ok

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

type scan = { valid : int; corrupt : int; stale : int; partial : int }

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

(* Read and validate one blob: a file holding exactly one frame.
   [Error `Missing] when the file cannot be opened; a frame followed by
   more bytes, or no frame at all, is [`Corrupt].  Both the startup scan
   and every load go through here. *)
let read_blob path =
  Option.value ~default:(Error `Missing)
    (with_file path (fun ic size ->
         match read_frame ic ~size with
         | `Frame f when pos_in ic = size -> Ok f
         | `Stale -> Error `Stale
         | `Frame _ | `End | `Corrupt -> Error `Corrupt))

let wal_file = "mutations.wal"

(* The log's first frame decides: the log is only ever appended at its
   validated end, so all of it shares one format version. *)
let wal_stale path =
  with_file path (fun ic size -> read_frame ic ~size = `Stale) = Some true

let scan_dir root =
  let names = try Sys.readdir root with Sys_error _ -> [||] in
  Array.sort compare names;
  let tally = ref { valid = 0; corrupt = 0; stale = 0; partial = 0 } in
  let discard path =
    (try Sys.remove path with Sys_error _ -> ());
    Obs.Counter.incr Metrics.corrupt
  in
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
        match read_blob path with
        | Ok _ -> tally := { !tally with valid = !tally.valid + 1 }
        | Error `Stale ->
            discard path;
            tally := { !tally with stale = !tally.stale + 1 }
        | Error (`Corrupt | `Missing) ->
            discard path;
            tally := { !tally with corrupt = !tally.corrupt + 1 }
      end
      else if name = wal_file && wal_stale path then begin
        discard path;
        tally := { !tally with stale = !tally.stale + 1 }
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

(* Blobs are write-once: every name is a content hash, so a blob
   already under its final name holds the same bytes (and every load
   validates them anyway).  Such a save is skipped before [encode] fills
   the payload, and is neither counted as a write nor given a fault
   ordinal.  Any other save writes its frame to a temp file in the same
   directory, renames it over the final name and fsyncs the directory.
   A torn frame is renamed into place like a whole one, so the final
   name holds a checksummed-as-full but short blob that the next load
   refuses. *)
let write_blob t ~kind ~name encode =
  let final = Filename.concat t.root name in
  if not (Sys.file_exists final) then begin
    let tmp =
      Printf.sprintf "%s%s%d-%d" final tmp_marker (Unix.getpid ())
        (Atomic.fetch_and_add tmp_seq 1)
    in
    let buf = Buffer.create 4096 in
    encode buf;
    try
      ignore (write_frame tmp ~offset:0 ~kind (Buffer.contents buf) : bool);
      Unix.rename tmp final;
      fsync_dir t.root;
      Obs.Counter.incr Metrics.writes
    with Unix.Unix_error _ | Sys_error _ ->
      Obs.Counter.incr Metrics.write_errors;
      try Sys.remove tmp with Sys_error _ -> ()
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
      | Ok _ | Error (`Corrupt | `Stale) -> discard ())

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

let save_result t ~key ~cache_key text =
  write_blob t ~kind:Result_blob ~name:(result_name key cache_key) (fun buf ->
      Codec.str buf cache_key;
      Codec.str buf text)

let load_result t ~key ~cache_key =
  Option.join
    (load_blob t ~kind:Result_blob ~name:(result_name key cache_key) (fun r ->
         let stored_key = Codec.rstr r in
         let text = Codec.rstr r in
         if not (Codec.finished r) then raise Codec.Truncated;
         if stored_key <> cache_key then None
         else
           match Json.parse text with
           | Ok j -> Some (j, text)
           | Error _ -> raise Codec.Truncated))

(* ------------------------------------------------------------------ *)
(* Write-ahead delta log                                               *)
(* ------------------------------------------------------------------ *)

module Wal = struct
  let file = wal_file

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

  (* Walk the log's frames from the start, calling [f] on every valid
     record, up to the first frame that is not a whole, current-version
     WAL record that decodes.  Returns the byte offset after the last
     valid record, the record count, and whether a bad tail was seen. *)
  let scan_records path f =
    Option.value ~default:(0, 0, false)
      (with_file path (fun ic size ->
           let rec next ok_end count =
             let bad () = (ok_end, count, true) in
             match read_frame ic ~size with
             | `End -> (ok_end, count, false)
             | `Frame (Wal_record, payload) -> (
                 match decode (Codec.reader payload) with
                 | record ->
                     f record;
                     next (pos_in ic) (count + 1)
                 | exception Codec.Truncated -> bad ())
             | `Frame _ | `Stale | `Corrupt -> bad ()
           in
           next 0 0))

  let valid_end t =
    match t.wal_end with
    | Some e -> e
    | None ->
        let e, _, torn = scan_records (path t) (fun _ -> ()) in
        if torn then Obs.Counter.incr Metrics.wal_torn;
        t.wal_end <- Some e;
        e

  (* Append one record at the validated end of the log, fsync'd before
     the caller proceeds to install the mutation, and return whether
     the whole record was written.  Like every persist write this never
     raises: an I/O failure is counted and the service degrades to
     memory-only durability for that mutation.  A torn record leaves
     [wal_end] where it was, so the next append (or the next process's
     scan) cuts it away. *)
  let append t record =
    let payload = encode record in
    let e = valid_end t in
    match write_frame (path t) ~offset:e ~kind:Wal_record payload with
    | true ->
        t.wal_end <- Some (e + header_len + String.length payload);
        Obs.Counter.incr Metrics.wal_appends;
        true
    | false | (exception (Unix.Unix_error _ | Sys_error _)) ->
        Obs.Counter.incr Metrics.write_errors;
        false

  let replay t f =
    let e, count, torn =
      scan_records (path t) (fun record ->
          f record;
          Obs.Counter.incr Metrics.wal_replayed)
    in
    if torn then Obs.Counter.incr Metrics.wal_torn;
    t.wal_end <- Some e;
    count
end
