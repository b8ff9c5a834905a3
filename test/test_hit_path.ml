(* The cached-hit path end to end: the number printer, the decoder's
   fast paths against the decoder they replaced, the spliced replies
   against response lines recorded before the splice, the session
   loop's batched flushes, and the allocation of one cached hit. *)

module Serve = Rrms_serve
module Json = Serve.Json
module Server = Serve.Server
module Store = Serve.Store
module Obs = Rrms_obs.Obs

(* ------------------------------------------------------------------ *)
(* Number printing                                                    *)
(* ------------------------------------------------------------------ *)

let max_exact = 9007199254740991. (* 2^53 - 1 *)

let integral_float =
  QCheck.make ~print:(Printf.sprintf "%h")
    QCheck.Gen.(
      frequency
        [
          (1, oneofl [ 0.; -0.; max_exact; -.max_exact; 1.; -1. ]);
          (4, map float_of_int (int_range (-1_000_000) 1_000_000));
          ( 4,
            map
              (fun x -> Float.round (Float.rem x max_exact))
              (float_range (-.max_exact) max_exact) );
          ( 2,
            map
              (fun (m, e) -> Float.round (Float.ldexp m e))
              (pair (float_range (-1.) 1.) (int_range 0 53)) );
        ])

let prop_integers_print_as_percent_0f =
  QCheck.Test.make ~count:5000 ~name:"number_string = %.0f on integral floats"
    integral_float (fun v ->
      QCheck.assume (Float.is_integer v && Float.abs v <= max_exact);
      Json.number_string v = Printf.sprintf "%.0f" v)

let test_number_corners () =
  List.iter
    (fun (v, want) ->
      Alcotest.(check string) (Printf.sprintf "%h" v) want (Json.number_string v))
    [
      (0., "0");
      (-0., "-0");
      (max_exact, "9007199254740991");
      (-.max_exact, "-9007199254740991");
      (9007199254740992., "9007199254740992");
      (0.5, "0.5");
      (0.1, "0.10000000000000001");
      (1e300, "1.0000000000000001e+300");
      (Float.nan, "null");
      (Float.infinity, "null");
    ]

(* ------------------------------------------------------------------ *)
(* Decoder: fast paths against the decoder they replaced              *)
(* ------------------------------------------------------------------ *)

(* The decoder as it was before its fast paths, kept as the oracle. *)
module Oracle = struct
  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected '%s'" word)
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let v = ref 0 in
      for _ = 1 to 4 do
        let d =
          match s.[!pos] with
          | '0' .. '9' as c -> Char.code c - Char.code '0'
          | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
          | _ -> fail "bad hex digit in \\u escape"
        in
        v := (!v * 16) + d;
        advance ()
      done;
      !v
    in
    (* Encode a code point as UTF-8; surrogate pairs are combined by the
       caller, lone surrogates become U+FFFD like most lenient decoders. *)
    let add_utf8 b cp =
      if cp < 0x80 then Buffer.add_char b (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            (match peek () with
            | Some '"' -> Buffer.add_char b '"'; advance ()
            | Some '\\' -> Buffer.add_char b '\\'; advance ()
            | Some '/' -> Buffer.add_char b '/'; advance ()
            | Some 'n' -> Buffer.add_char b '\n'; advance ()
            | Some 't' -> Buffer.add_char b '\t'; advance ()
            | Some 'r' -> Buffer.add_char b '\r'; advance ()
            | Some 'b' -> Buffer.add_char b '\b'; advance ()
            | Some 'f' -> Buffer.add_char b '\012'; advance ()
            | Some 'u' ->
                advance ();
                let cp = hex4 () in
                let cp =
                  if cp >= 0xD800 && cp <= 0xDBFF
                     && !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    let lo = hex4 () in
                    if lo >= 0xDC00 && lo <= 0xDFFF then
                      0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                    else 0xFFFD
                  end
                  else if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD
                  else cp
                in
                add_utf8 b cp
            | _ -> fail "bad escape");
            go ())
        | Some c when Char.code c < 0x20 -> fail "control character in string"
        | Some c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then advance ();
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
        | _ -> false
      do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> Json.Num v
      | None -> fail "bad number"
    in
    let rec parse_value depth =
      skip_ws ();
      let nest () =
        if depth >= Json.max_depth then
          fail (Printf.sprintf "nesting deeper than %d levels" Json.max_depth);
        advance ()
      in
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          nest ();
          skip_ws ();
          if peek () = Some '}' then begin advance (); Json.Obj [] end
          else begin
            let fields = ref [] in
            let rec members () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); members ()
              | Some '}' -> advance ()
              | _ -> fail "expected ',' or '}'"
            in
            members ();
            Json.Obj (List.rev !fields)
          end
      | Some '[' ->
          nest ();
          skip_ws ();
          if peek () = Some ']' then begin advance (); Json.Arr [] end
          else begin
            let items = ref [] in
            let rec elements () =
              let v = parse_value (depth + 1) in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); elements ()
              | Some ']' -> advance ()
              | _ -> fail "expected ',' or ']'"
            in
            elements ();
            Json.Arr (List.rev !items)
          end
      | Some '"' -> Json.Str (parse_string ())
      | Some 't' -> literal "true" (Json.Bool true)
      | Some 'f' -> literal "false" (Json.Bool false)
      | Some 'n' -> literal "null" Json.Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage after document";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg
end

let rec same a b =
  match (a, b) with
  | Json.Num x, Json.Num y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys ->
      List.length xs = List.length ys && List.for_all2 same xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && same x y) xs ys
  | _ -> a = b

let agrees s =
  match (Oracle.parse s, Json.parse s) with
  | Ok a, Ok b -> same a b
  | Error a, Error b -> a = b
  | _ -> false

let print_both s =
  let show = function
    | Ok j -> "Ok " ^ Json.to_string j
    | Error e -> "Error " ^ e
  in
  Printf.sprintf "%S\n  oracle: %s\n  fast:   %s" s (show (Oracle.parse s))
    (show (Json.parse s))

(* Random documents written as text, with the corners a decoder gets
   wrong: escapes, raw and escaped control characters, surrogate pairs
   and lone surrogates, leading zeros, -0, exponents and integers past
   15 digits. *)
let doc_gen =
  let open QCheck.Gen in
  let digits k = string_size ~gen:(char_range '0' '9') (return k) in
  let number =
    oneof
      [
        map string_of_int (int_range (-1000) 1000);
        return "-0";
        return "0";
        map (fun d -> "00" ^ d) (digits 2);
        map (fun d -> "-" ^ d) (int_range 1 25 >>= digits);
        int_range 1 25 >>= digits;
        map2 (fun a b -> a ^ "." ^ b) (digits 3) (digits 4);
        map3
          (fun a e x -> a ^ e ^ x)
          (digits 2)
          (oneofl [ "e"; "E"; "e+"; "e-"; "E-" ])
          (digits 2);
        oneofl [ "-"; "1."; ".5"; "-.5"; "1e"; "1e+"; "--1"; "1-2"; "0x1F" ];
      ]
  in
  let piece =
    oneof
      [
        string_size ~gen:(char_range 'a' 'z') (int_range 0 6);
        oneofl
          [
            "\\\""; "\\\\"; "\\/"; "\\n"; "\\t"; "\\r"; "\\b"; "\\f";
            "\\u00e9"; "\\u0000"; "\\u001F"; "\\ud83d\\ude00"; "\\ud83d";
            "\\ude00"; "\\ud83d\\u0041"; "\\ud83dx"; "\\u12"; "\\uZZZZ"; "\\q";
            "\x01"; "\x1f"; "\t"; "\n"; "\x7f"; "\xc3\xa9"; "\000";
          ];
      ]
  in
  let str =
    map
      (fun ps -> "\"" ^ String.concat "" ps ^ "\"")
      (list_size (int_range 0 4) piece)
  in
  let ws = oneofl [ ""; ""; " "; "\t"; "\r\n" ] in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         let atom =
           oneof
             [ number; str; oneofl [ "true"; "false"; "null"; "tru"; "nul" ] ]
         in
         if n = 0 then atom
         else
           frequency
             [
               (2, atom);
               ( 1,
                 map2
                   (fun w xs -> "[" ^ w ^ String.concat ("," ^ w) xs ^ "]")
                   ws (list_size (int_range 0 4) (self (n - 1))) );
               ( 1,
                 map2
                   (fun w kvs ->
                     "{" ^ w
                     ^ String.concat ","
                         (List.map (fun (k, v) -> k ^ w ^ ":" ^ v) kvs)
                     ^ "}")
                   ws
                   (list_size (int_range 0 4) (pair str (self (n - 1)))) );
             ])

let prop_decoder_docs =
  QCheck.Test.make ~count:3000
    ~name:"fast decoder = oracle on random documents"
    (QCheck.make ~print:print_both doc_gen)
    agrees

(* Request lines of the protocol with random bytes replaced, inserted,
   deleted or cut off. *)
let request_lines =
  [|
    {|{"id":17,"req":"query","dataset":"h0","algo":"hd-rrms","r":12,"gamma":4}|};
    {|{"id":"a\"b","req":"query","dataset":"h0","algo":"hd-greedy","r":5,"gamma":3,"explain":true,"timeout":0.25}|};
    {|{"id":3,"req":"batch","dataset":"d","items":[{"algo":"cube","r":4},{"algo":"2d","r":3}]}|};
    {|{"id":-0,"req":"mutate","dataset":"d","ops":[{"op":"upsert","index":12,"values":[0.5,1e-3,12345678901234567]}]}|};
    {|{"req":"load","path":"/tmp/xé.csv","name":"t","normalize":true}|};
  |]

let mutated_of lines =
  let open QCheck.Gen in
  let byte =
    oneof
      [
        char;
        oneofl
          [ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '0'; '-'; 'e'; '.'; 'u' ];
      ]
  in
  let edit s =
    let n = String.length s in
    if n = 0 then map (String.make 1) byte
    else
      int_range 0 (n - 1) >>= fun i ->
      byte >>= fun c ->
      let pre = String.sub s 0 i and c = String.make 1 c in
      oneofl
        [
          pre ^ c ^ String.sub s (i + 1) (n - i - 1);
          pre ^ c ^ String.sub s i (n - i);
          pre ^ String.sub s (i + 1) (n - i - 1);
          pre;
        ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  oneofa lines >>= fun s -> int_range 1 3 >>= fun k -> edits k s

let mutated_line = mutated_of request_lines

let prop_decoder_mutated =
  QCheck.Test.make ~count:5000 ~name:"fast decoder = oracle on mutated requests"
    (QCheck.make ~print:print_both mutated_line)
    agrees

let test_decoder_depth () =
  List.iter
    (fun s -> Alcotest.(check bool) "same" true (agrees s))
    [
      String.make 600 '[';
      String.make 512 '[' ^ String.make 512 ']';
      String.make 511 '[' ^ String.make 511 ']';
      "";
      "   ";
      "\"\\";
      "\"abc";
      "\"\\u";
      "1 2";
    ]

(* Query objects with the optional fields in random order and some
   keys repeated with another value: the decoder must agree with the
   oracle, [Json.member] must return the first of duplicate keys, and
   the request decoded from the line must be the one decoded from its
   first-wins canonical form. *)
let query_field_gen =
  let open QCheck.Gen in
  let ints lo hi = map string_of_int (int_range lo hi) in
  let value = function
    | "req" -> oneofl [ {|"query"|}; {|"query"|}; {|"ping"|}; "7" ]
    | "dataset" -> oneofl [ {|"d"|}; {|"e"|}; {|""|}; "3"; "null" ]
    | "algo" ->
        oneofl
          [ {|"hd-rrms"|}; {|"hd-greedy"|}; {|"cube"|}; {|"2d"|}; {|"nope"|}; "1" ]
    | "r" | "gamma" ->
        oneof [ ints (-1) 30; oneofl [ "2.5"; "1e1"; {|"4"|}; "null"; "-0" ] ]
    | "timeout" -> oneofl [ "0.5"; "2"; "-1"; "0"; "null"; {|"x"|}; "1e-3" ]
    | "max_cells" | "max_probes" ->
        oneof [ ints (-2) 100_000; oneofl [ "null"; "0.5"; "true" ] ]
    | _ (* cache, explain *) -> oneofl [ "true"; "false"; "null"; "1"; {|"y"|} ]
  in
  let optional =
    [ "gamma"; "timeout"; "max_cells"; "max_probes"; "cache"; "explain" ]
  in
  let required = [ "req"; "dataset"; "algo"; "r" ] in
  let field k = map (fun v -> (k, v)) (value k) in
  list_size (int_range 0 (List.length optional)) (oneofl optional)
  >>= fun opts ->
  list_size (int_range 0 3) (oneofl (required @ optional)) >>= fun dups ->
  flatten_l (List.map field (required @ opts @ dups)) >>= shuffle_l
  >>= fun fields ->
  (* Keep "req" first in some lines and anywhere in the others. *)
  bool >|= fun req_first ->
  if req_first then
    List.filter (fun (k, _) -> k = "req") fields
    @ List.filter (fun (k, _) -> k <> "req") fields
  else fields

let object_line fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let first_wins fields =
  List.fold_left
    (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
    [] fields

let prop_decoder_query_fields =
  QCheck.Test.make ~count:3000
    ~name:"fast decoder = oracle on query fields, first key wins"
    (QCheck.make ~print:(fun fs -> print_both (object_line fs)) query_field_gen)
    (fun fields ->
      let line = object_line fields in
      agrees line
      &&
      match (Oracle.parse line, Json.parse line) with
      | Ok (Json.Obj oracle_fields), Ok fast ->
          List.for_all
            (fun (k, _) ->
              match (List.assoc_opt k oracle_fields, Json.member k fast) with
              | Some a, Some b -> same a b
              | _ -> false)
            fields
          && (Serve.Protocol.parse_request line).Serve.Protocol.req
             = (Serve.Protocol.parse_request (object_line (first_wins fields)))
                 .Serve.Protocol.req
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Spliced replies: byte-identical to the replies before the splice   *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  In_channel.with_open_bin path (fun ic ->
      String.split_on_char '\n' (In_channel.input_all ic))
  |> List.filter (fun l -> l <> "")

let test_golden_session () =
  let want = read_lines (Built.exe "golden/hit_path_session.jsonl") in
  let got = Golden_session.lines () in
  Alcotest.(check int) "reply count" (List.length want) (List.length got);
  List.iteri
    (fun i (w, g) -> Alcotest.(check string) (Printf.sprintf "reply %d" i) w g)
    (List.combine want got)

(* ------------------------------------------------------------------ *)
(* Reply envelope: the direct writer against the tree it replaced     *)
(* ------------------------------------------------------------------ *)

(* The envelope as it was built before the direct writer, kept as the
   oracle: a [Json.Obj] printed by [Json.to_string], with [elapsed_ms]
   through the number printer. *)
let reference_ok_response ?cost ~id ~cached ~elapsed_ms result =
  Json.to_string
    (Json.Obj
       ([
          ("id", id);
          ("ok", Json.Bool true);
          ("cached", Json.Bool cached);
          ("elapsed_ms", Json.float elapsed_ms);
          ("result", result);
        ]
       @ match cost with Some c -> [ ("cost", c) ] | None -> []))

let escapy_string =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; '"'; '\\'; '\n'; '\t'; '\001'; '\031'; '/'; '\xc3'; '\xa9'; ' ' ])
      (int_range 0 12))

let id_gen =
  let open QCheck.Gen in
  oneof
    [
      return Json.Null;
      map (fun i -> Json.int (-i)) (int_range 1 max_int);
      map
        (fun k -> Json.Num (Float.ldexp 1. 53 +. (2. *. float_of_int k)))
        (int_range 0 1_000_000);
      map (fun e -> Json.Num (Float.ldexp 1. e)) (int_range 53 300);
      map
        (fun x -> Json.Num (if Float.is_integer x then x +. 0.25 else x))
        (float_range (-1e6) 1e6);
      map (fun s -> Json.Str s) escapy_string;
    ]

let tree_gen =
  let open QCheck.Gen in
  sized_size (int_range 0 3)
  @@ fix (fun self n ->
         let atom =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map Json.int (int_range (-1000) 1000);
               map (fun x -> Json.Num x) (float_range (-1e3) 1e3);
               map (fun s -> Json.Str s) escapy_string;
             ]
         in
         if n = 0 then atom
         else
           frequency
             [
               (1, atom);
               (1, map (fun xs -> Json.Arr xs) (list_size (int_range 0 4) (self (n - 1))));
               ( 2,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4)
                      (pair (oneofl [ "algo"; "selected"; "size"; "k\"q" ]) (self (n - 1)))) );
             ])

let elapsed_gen =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0.; 0.0004999; 0.0005; 0.0015; 0.004; 1.; 999_999.9994; 999_999.9996 ]);
        (4, float_range 0. 1e6);
        (4, map (fun x -> x *. x) (float_range 0. 1.));
      ])

type envelope = {
  e_id : Json.t;
  e_cached : bool;
  e_result : Json.t;
  e_cost : Json.t option;
  e_elapsed : float;
}

let envelope_gen =
  let open QCheck.Gen in
  id_gen >>= fun e_id ->
  bool >>= fun e_cached ->
  tree_gen >>= fun tree ->
  bool >>= fun raw ->
  opt tree_gen >>= fun e_cost ->
  elapsed_gen >|= fun e_elapsed ->
  {
    e_id;
    e_cached;
    e_result = (if raw then Json.Raw (Json.to_string tree) else tree);
    e_cost;
    e_elapsed;
  }

let print_envelope e =
  Printf.sprintf "elapsed %h\n  direct:    %s\n  reference: %s" e.e_elapsed
    (Serve.Protocol.ok_response ?cost:e.e_cost ~id:e.e_id ~cached:e.e_cached
       ~elapsed_ms:e.e_elapsed e.e_result)
    (reference_ok_response ?cost:e.e_cost ~id:e.e_id ~cached:e.e_cached
       ~elapsed_ms:e.e_elapsed e.e_result)

let prop_envelope =
  QCheck.Test.make ~count:5000
    ~name:"direct envelope = Json.Obj envelope, elapsed_ms to 0.0005"
    (QCheck.make ~print:print_envelope envelope_gen) (fun e ->
      let got =
        Serve.Protocol.ok_response ?cost:e.e_cost ~id:e.e_id ~cached:e.e_cached
          ~elapsed_ms:e.e_elapsed e.e_result
      in
      let want =
        reference_ok_response ?cost:e.e_cost ~id:e.e_id ~cached:e.e_cached
          ~elapsed_ms:e.e_elapsed e.e_result
      in
      Golden_session.mask got = Golden_session.mask want
      &&
      match Option.bind (Result.to_option (Json.parse got)) (Json.member "elapsed_ms") with
      | Some (Json.Num v) -> Float.abs (v -. e.e_elapsed) <= 0.0005 +. 1e-9
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Session loop: batched flushes over a socketpair                    *)
(* ------------------------------------------------------------------ *)

(* One session pumped in a thread over one end of a socketpair; the
   test speaks raw bytes on the other end. *)
let with_session f =
  let store = Store.create ~domains:1 () in
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let outcome = ref `Eof in
  let th =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr server in
        let oc = Unix.out_channel_of_descr server in
        outcome := Server.run_session store ic oc;
        close_out_noerr oc)
      ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
    (fun () ->
      f client;
      (try Unix.shutdown client Unix.SHUTDOWN_SEND
       with Unix.Unix_error _ -> ());
      Thread.join th;
      !outcome)

let send_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Writes from their own thread, so a burst larger than the socket
   buffers cannot block against replies nobody reads yet. *)
let send_async fd s = Thread.create (fun () -> send_all fd s) ()

(* A line reader that fails instead of hanging: each read waits at most
   [timeout] seconds for the server.  [None] at EOF. *)
let reader ?(timeout = 10.) fd =
  let pending = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec next () =
    let s = Buffer.contents pending in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear pending;
        Buffer.add_string pending
          (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> (
        match Unix.select [ fd ] [] [] timeout with
        | [], _, _ -> Alcotest.fail "no reply within the timeout (deadlock?)"
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> if s = "" then None else Alcotest.fail "torn last reply"
            | k ->
                Buffer.add_subbytes pending chunk 0 k;
                next ()))
  in
  next

let until_eof next =
  let rec go acc = match next () with Some r -> go (r :: acc) | None -> acc in
  List.rev (go [])

let ping id = Printf.sprintf {|{"id":%d,"req":"ping"}|} id

let id_of line =
  match Option.bind (Result.to_option (Json.parse line)) (Json.member "id") with
  | Some j -> Option.value ~default:(-1) (Json.int_ j)
  | None -> -1

let test_burst_in_order () =
  let outcome =
    with_session (fun fd ->
        (* 64 lines in one write; some carry long ids so the burst
           spans several reads of the session's 64 KiB buffer, and one
           line alone is longer than that buffer. *)
        let line i =
          if i = 40 then
            Printf.sprintf {|{"id":%d,"req":"ping","pad":"%s"}|} i
              (String.make 100_000 'x')
          else if i mod 3 = 0 then
            Printf.sprintf {|{"id":%d,"req":"ping","pad":"%s"}|} i
              (String.make (50 * i) 'y')
          else ping i
        in
        let w =
          send_async fd
            (String.concat "" (List.init 64 (fun i -> line i ^ "\n")))
        in
        let next = reader fd in
        for i = 0 to 63 do
          match next () with
          | Some r -> Alcotest.(check int) "reply order" i (id_of r)
          | None -> Alcotest.fail "EOF before every reply"
        done;
        Thread.join w)
  in
  Alcotest.(check bool) "eof" true (outcome = `Eof)

let test_lock_step () =
  ignore
    (with_session (fun fd ->
         let next = reader ~timeout:5. fd in
         for i = 1 to 50 do
           send_all fd (ping i ^ "\n");
           match next () with
           | Some r -> Alcotest.(check int) "lock-step reply" i (id_of r)
           | None -> Alcotest.fail "EOF"
         done))

let test_last_line_without_newline () =
  ignore
    (with_session (fun fd ->
         send_all fd (ping 1 ^ "\n" ^ ping 2);
         Unix.shutdown fd Unix.SHUTDOWN_SEND;
         let next = reader fd in
         let a = next () and b = next () in
         Alcotest.(check (list int)) "both answered" [ 1; 2 ]
           (List.map id_of (List.filter_map Fun.id [ a; b ]));
         Alcotest.(check bool) "then EOF" true (next () = None)))

let test_blank_lines_skipped () =
  ignore
    (with_session (fun fd ->
         send_all fd ("\n  \n" ^ ping 1 ^ "\n\r\n\t\n" ^ ping 2 ^ "\n\n");
         Unix.shutdown fd Unix.SHUTDOWN_SEND;
         let next = reader fd in
         Alcotest.(check (list int)) "only the two pings" [ 1; 2 ]
           (List.map id_of (until_eof next))))

let test_shutdown_mid_burst () =
  let outcome =
    with_session (fun fd ->
        send_all fd
          (String.concat "\n"
             [ ping 1; ping 2; {|{"id":3,"req":"shutdown"}|}; ping 4; "" ]);
        let next = reader fd in
        let replies = until_eof next in
        Alcotest.(check (list int)) "replies up to the shutdown" [ 1; 2; 3 ]
          (List.map id_of replies);
        Alcotest.(check bool) "shutdown acknowledged" true
          (Astring_contains.contains (List.nth replies 2) {|"stopping":true|}))
  in
  Alcotest.(check bool) "session ended by shutdown" true (outcome = `Shutdown)

(* One 32 MiB request line, then a valid request in the same burst.
   The line arrives in many reads of the session's buffer; a newline
   search that restarted at the line's start after every read took
   about 12 s for it, quadratic in its length.  Resuming where the last
   search stopped keeps it linear: both replies come back, in order,
   within [long_line_seconds]. *)
let long_line_seconds = 4.

let test_long_line () =
  ignore
    (with_session (fun fd ->
         let big =
           Printf.sprintf {|{"id":1,"req":"ping","pad":"%s"}|}
             (String.make (32 lsl 20) 'x')
         in
         let t0 = Unix.gettimeofday () in
         let w = send_async fd (big ^ "\n" ^ ping 2 ^ "\n") in
         let next = reader ~timeout:(2. *. long_line_seconds) fd in
         let a = next () in
         let b = next () in
         let took = Unix.gettimeofday () -. t0 in
         Thread.join w;
         Alcotest.(check (list int)) "both answered, in order" [ 1; 2 ]
           (List.map id_of (List.filter_map Fun.id [ a; b ]));
         if took > long_line_seconds then
           Alcotest.failf "32 MiB line and its follower took %.2f s (bound %.0f s)"
             took long_line_seconds))

(* ------------------------------------------------------------------ *)
(* The request path under hostile bytes                               *)
(* ------------------------------------------------------------------ *)

(* The error codes docs/SERVING.md lists: the backticked words in the
   first column of its failure table. *)
let documented_codes =
  lazy
    (let rec table = function
       | [] -> []
       | l :: rest when String.starts_with ~prefix:"| Code |" l ->
           let rec rows = function
             | r :: rest when String.starts_with ~prefix:"|" r -> r :: rows rest
             | _ -> []
           in
           rows rest
       | _ :: rest -> table rest
     in
     List.concat_map
       (fun row ->
         match String.split_on_char '|' row with
         | _ :: first :: _ ->
             List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' first)
         | _ -> [])
       (table (read_lines (Built.exe "../docs/SERVING.md"))))

(* One store with a 3-D and a 2-D dataset loaded, shared by the fuzz
   cases; the valid requests the mutations start from address them.
   Every hd query carries a cell budget, so a mutated γ cannot build a
   huge matrix. *)
let fuzz_env =
  lazy
    (let csv = Filename.temp_file "rrms_fuzz" ".csv" in
     let csv2 = Filename.temp_file "rrms_fuzz2d" ".csv" in
     at_exit (fun () -> List.iter Sys.remove [ csv; csv2 ]);
     Golden_session.write_csv csv ~m:3 ~n:200 ~seed:11;
     Golden_session.write_csv csv2 ~m:2 ~n:150 ~seed:12;
     let store = Store.create ~domains:1 () in
     let telemetry = Serve.Telemetry.create () in
     let load path name =
       Printf.sprintf {|{"id":1,"req":"load","path":%S,"name":%S}|} path name
     in
     List.iter
       (fun l -> ignore (Server.handle_line ~telemetry store l))
       [ load csv "g"; load csv2 "p" ];
     let seeds =
       [|
         load csv "g";
         {|{"id":2,"req":"query","dataset":"g","algo":"hd-rrms","r":4,"gamma":4,"max_cells":20000}|};
         {|{"id":3,"req":"query","dataset":"g","algo":"hd-greedy","r":5,"gamma":3,"explain":true,"max_cells":20000}|};
         {|{"id":4,"req":"query","dataset":"g","algo":"cube","r":4,"timeout":5}|};
         {|{"id":5,"req":"query","dataset":"p","algo":"2d","r":3,"cache":false}|};
         {|{"id":6,"req":"batch","dataset":"g","items":[{"algo":"hd-rrms","r":4,"gamma":4,"max_cells":20000},{"algo":"cube","r":3}]}|};
         {|{"id":7,"req":"mutate","dataset":"g","ops":[{"op":"insert","values":[0.1,0.2,0.3]},{"op":"delete","index":5}]}|};
         {|{"id":8,"req":"upsert","dataset":"g","index":3,"values":[0.5,0.5,0.5]}|};
         {|{"id":9,"req":"skyline","dataset":"g","timeout":5}|};
         {|{"id":10,"req":"stats"}|};
         {|{"id":11,"req":"metrics"}|};
         {|{"id":"x","req":"ping","trace":{"id":"t1","parent":"p.1"}}|};
       |]
     in
     (store, telemetry, seeds))

(* Every error code in a reply: the envelope's and each batch item's. *)
let reply_codes j =
  let code e =
    match Json.member "code" e with Some (Json.Str c) -> [ c ] | _ -> [ "?" ]
  in
  let top = match Json.member "error" j with Some e -> code e | None -> [] in
  let items =
    match Option.bind (Json.member "result" j) (Json.member "results") with
    | Some (Json.Arr items) ->
        List.concat_map
          (fun it -> match Json.member "error" it with Some e -> code e | None -> [])
          items
    | _ -> []
  in
  top @ items

let answers_one_line line =
  let store, telemetry, _ = Lazy.force fuzz_env in
  let codes = Lazy.force documented_codes in
  match Server.handle_line ~telemetry store line with
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
  | `Reply r | `Shutdown r -> (
      if String.contains r '\n' then
        QCheck.Test.fail_reportf "reply spans lines: %S" r;
      match Json.parse r with
      | Error msg -> QCheck.Test.fail_reportf "reply does not parse (%s): %S" msg r
      | Ok j -> (
          match Json.member "ok" j with
          | Some (Json.Bool _) -> (
              match List.filter (fun c -> not (List.mem c codes)) (reply_codes j) with
              | [] -> true
              | bad ->
                  QCheck.Test.fail_reportf "undocumented error code %s in %S"
                    (String.concat ", " bad) r)
          | _ -> QCheck.Test.fail_reportf "no ok member: %S" r))

let fuzz_bytes =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (1, char);
             ( 3,
               oneofl
                 [ '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; '0'; '7'; '-'; 'e'; '.'; 'r'; 'q'; ' '; '\n' ] );
           ])
      (int_range 0 120))

(* A fixed seed and budget: the same cases on every run. *)
let fuzz_rand () = Random.State.make [| 20_261_019 |]

let prop_fuzz_bytes =
  QCheck.Test.make ~count:3000 ~name:"handle_line fuzz: random bytes"
    (QCheck.make ~print:(Printf.sprintf "%S") fuzz_bytes)
    answers_one_line

let prop_fuzz_mutated =
  QCheck.Test.make ~count:3000 ~name:"handle_line fuzz: mutated requests"
    (QCheck.make ~print:(Printf.sprintf "%S")
       (QCheck.Gen.delay (fun () ->
            let _, _, seeds = Lazy.force fuzz_env in
            mutated_of seeds)))
    answers_one_line

(* ------------------------------------------------------------------ *)
(* Allocation of one cached hit                                       *)
(* ------------------------------------------------------------------ *)

(* Minor words one cached hd-rrms hit allocates through
   [Server.handle_line], at the serving default observability level
   (Counters).  Before the splice a hit re-encoded its result and
   allocated about 2 350 words; the generic envelope, name-keyed
   request context and closure-based decoder brought that to about
   1 000.  With the direct envelope, the cursor decoder and the
   id-keyed context a hit allocates about 590; the ceiling leaves 10 %
   over that, not room for any of the old paths. *)
let hit_words_ceiling = 650.

let test_hit_allocation () =
  let prev = Obs.level () in
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_level prev)
    (fun () ->
      Obs.set_level Obs.Counters;
      let path = Filename.temp_file "rrms_hit_alloc" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Golden_session.write_csv path ~m:4 ~n:2000 ~seed:9;
          let store = Store.create ~domains:1 () in
          let telemetry = Serve.Telemetry.create () in
          let reply line =
            match Server.handle_line ~telemetry store line with
            | `Reply r | `Shutdown r -> r
          in
          ignore
            (reply
               (Printf.sprintf {|{"id":1,"req":"load","path":%S,"name":"a"}|}
                  path));
          let q =
            {|{"id":17,"req":"query","dataset":"a","algo":"hd-rrms","r":10,|}
            ^ {|"gamma":4}|}
          in
          ignore (reply q);
          Alcotest.(check bool) "a hit" true
            (Astring_contains.contains (reply q) {|"cached":true|});
          let hits = 2000 in
          (* Both reads on an emptied minor heap, so neither coincides
             with a collection. *)
          Gc.minor ();
          let w0 = Gc.minor_words () in
          for _ = 1 to hits do
            ignore (reply q)
          done;
          Gc.minor ();
          let per_hit = (Gc.minor_words () -. w0) /. float_of_int hits in
          if per_hit > hit_words_ceiling then
            Alcotest.failf "%.0f minor words per cached hit (ceiling %.0f)"
              per_hit hit_words_ceiling))

(* A [load] whose path cannot be opened or read is the caller's error:
   code [invalid_input], with the system's message, not [internal]. *)
let test_load_unreadable_path () =
  let store, telemetry, _ = Lazy.force fuzz_env in
  let missing = Filename.temp_file "rrms_missing" ".csv" in
  Sys.remove missing;
  List.iter
    (fun (label, path) ->
      let line =
        Printf.sprintf {|{"id":1,"req":"load","path":%S}|} path
      in
      match Server.handle_line ~telemetry store line with
      | `Reply r -> (
          match Json.parse r with
          | Ok j ->
              Alcotest.(check (list string)) (label ^ ": code")
                [ "invalid_input" ] (reply_codes j);
              Alcotest.(check bool) (label ^ ": names the path") true
                (match Option.bind (Json.member "error" j) (Json.member "message") with
                | Some (Json.Str m) ->
                    let n = String.length path in
                    let rec has i =
                      i + n <= String.length m
                      && (String.sub m i n = path || has (i + 1))
                    in
                    has 0
                | _ -> false)
          | Error msg -> Alcotest.failf "%s: reply does not parse: %s" label msg)
      | `Shutdown _ -> Alcotest.failf "%s: the load shut the session down" label)
    [
      ("missing file", missing);
      ("a directory", Filename.get_temp_dir_name ());
    ]

let suite =
  [
    Alcotest.test_case "number corners" `Quick test_number_corners;
    QCheck_alcotest.to_alcotest prop_integers_print_as_percent_0f;
    QCheck_alcotest.to_alcotest prop_decoder_docs;
    QCheck_alcotest.to_alcotest prop_decoder_mutated;
    Alcotest.test_case "decoder depth and truncation" `Quick test_decoder_depth;
    Alcotest.test_case "golden session bytes" `Quick test_golden_session;
    Alcotest.test_case "64-line burst answered in order" `Quick
      test_burst_in_order;
    Alcotest.test_case "lock-step client" `Quick test_lock_step;
    Alcotest.test_case "last line without newline" `Quick
      test_last_line_without_newline;
    Alcotest.test_case "blank lines skipped" `Quick test_blank_lines_skipped;
    Alcotest.test_case "32 MiB line then a request" `Quick test_long_line;
    Alcotest.test_case "shutdown mid-burst flushes" `Quick
      test_shutdown_mid_burst;
    Alcotest.test_case "cached hit allocation" `Quick test_hit_allocation;
    QCheck_alcotest.to_alcotest prop_decoder_query_fields;
    QCheck_alcotest.to_alcotest prop_envelope;
    QCheck_alcotest.to_alcotest ~rand:(fuzz_rand ()) prop_fuzz_bytes;
    QCheck_alcotest.to_alcotest ~rand:(fuzz_rand ()) prop_fuzz_mutated;
    Alcotest.test_case "load of an unreadable path: invalid_input" `Quick
      test_load_unreadable_path;
  ]
