type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string

(* ------------------------------------------------------------------ *)
(* Printer                                                            *)
(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape_string b s =
  Buffer.add_char b '"';
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
  Buffer.add_char b '"'

(* Integral values below 2^53 are exact ints: [string_of_int] prints
   the digits [%.0f] would, at a fifth of the cost, except for negative
   zero, which [%.0f] prints as "-0". *)
let number_string v =
  if Float.is_nan v || not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 9.007199254740992e15 then
    if v = 0. && Float.sign_bit v then "-0" else string_of_int (int_of_float v)
  else Printf.sprintf "%.17g" v

let to_string t =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num v -> Buffer.add_string b (number_string v)
    | Str s -> escape_string b s
    | Raw s -> Buffer.add_string b s
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            escape_string b k;
            Buffer.add_char b ':';
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go t;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

(* Recursive descent uses one stack frame per nesting level: a line of
   300 000 '[' overflowed the stack and killed the process.  No request
   nests deeper than a handful of levels. *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  (* The byte at the cursor, or NUL past the end: callers that must tell
     a NUL byte from the end of input test [!pos < n] themselves. *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
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
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    let rec same i = i = l || (s.[!pos + i] = word.[i] && same (i + 1)) in
    if !pos + l <= n && same 0 then begin
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
  (* The general string decoder, resumed at the first byte the fast
     path in [parse_string] could not take (an escape, a control
     character or the end of input), with the plain prefix in [b]. *)
  let rec decode_string b =
    if !pos >= n then fail "unterminated string";
    match s.[!pos] with
    | '"' ->
        advance ();
        Buffer.contents b
    | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 'b' -> Buffer.add_char b '\b'; advance ()
        | 'f' -> Buffer.add_char b '\012'; advance ()
        | 'u' ->
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
        decode_string b
    | c when Char.code c < 0x20 -> fail "control character in string"
    | c ->
        Buffer.add_char b c;
        advance ();
        decode_string b
  in
  (* Most strings carry no escape: cut them out with one [String.sub]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let j = ref start in
    while
      !j < n
      &&
      let c = String.unsafe_get s !j in
      c <> '"' && c <> '\\' && Char.code c >= 0x20
    do
      incr j
    done;
    if !j < n && s.[!j] = '"' then begin
      pos := !j + 1;
      String.sub s start (!j - start)
    end
    else begin
      let b = Buffer.create (max 16 (2 * (!j - start))) in
      Buffer.add_substring b s start (!j - start);
      pos := !j;
      decode_string b
    end
  in
  (* A plain integer of at most 15 digits (an optional '-', then
     digits) is exact in a double, so it is summed as an int and never
     goes through [float_of_string]; anything else takes the general
     path.  "-0" stays negative zero. *)
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    let digits_from = !pos in
    let acc = ref 0 in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      acc := (!acc * 10) + (Char.code s.[!pos] - Char.code '0');
      advance ()
    done;
    let digits = !pos - digits_from in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      advance ()
    done;
    if digits > 0 && digits <= 15 && !pos = digits_from + digits then
      let v = float_of_int !acc in
      Num (if digits_from > start then -.v else v)
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> Num v
      | None -> fail "bad number"
  in
  let rec parse_value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | ('{' | '[') when depth >= max_depth ->
        fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Obj [] end
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
            | ',' -> advance (); members ()
            | '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); Arr [] end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements ()
            | ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors and constructors                                         *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num v -> Some v | _ -> None

let int_ = function
  (* Beyond 2^53 integrality is not meaningful in a double anyway. *)
  | Num v when Float.is_integer v && Float.abs v <= 9007199254740992. ->
      Some (int_of_float v)
  | _ -> None

let int i = Num (float_of_int i)
let float v = Num v
