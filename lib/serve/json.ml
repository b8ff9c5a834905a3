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

let rec write b = function
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
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 256 in
  write b t;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

(* Recursive descent uses one stack frame per nesting level: a line of
   300 000 '[' overflowed the stack and killed the process.  No request
   nests deeper than a handful of levels. *)
let max_depth = 512

(* The parser's cursor.  Its functions take it as an argument rather
   than closing over it, so a parse allocates the cursor and the
   document, not a dozen closures. *)
type cursor = { s : string; n : int; mutable pos : int }

let fail c msg = raise (Bad (Printf.sprintf "%s at offset %d" msg c.pos))

(* The byte at the cursor, or NUL past the end: callers that must tell
   a NUL byte from the end of input test [c.pos < c.n] themselves. *)
let peek c = if c.pos < c.n then String.unsafe_get c.s c.pos else '\000'

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    c.pos < c.n
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  if c.pos < c.n && c.s.[c.pos] = ch then advance c
  else fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let l = String.length word in
  let rec same i = i = l || (c.s.[c.pos + i] = word.[i] && same (i + 1)) in
  if c.pos + l <= c.n && same 0 then begin
    c.pos <- c.pos + l;
    value
  end
  else fail c (Printf.sprintf "expected '%s'" word)

let hex4 c =
  if c.pos + 4 > c.n then fail c "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match c.s.[c.pos] with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> fail c "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d;
    advance c
  done;
  !v

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

(* The general string decoder, resumed at the first byte the fast path
   in [parse_string] could not take (an escape, a control character or
   the end of input), with the plain prefix in [b]. *)
let rec decode_string c b =
  if c.pos >= c.n then fail c "unterminated string";
  match c.s.[c.pos] with
  | '"' ->
      advance c;
      Buffer.contents b
  | '\\' ->
      advance c;
      (match peek c with
      | '"' -> Buffer.add_char b '"'; advance c
      | '\\' -> Buffer.add_char b '\\'; advance c
      | '/' -> Buffer.add_char b '/'; advance c
      | 'n' -> Buffer.add_char b '\n'; advance c
      | 't' -> Buffer.add_char b '\t'; advance c
      | 'r' -> Buffer.add_char b '\r'; advance c
      | 'b' -> Buffer.add_char b '\b'; advance c
      | 'f' -> Buffer.add_char b '\012'; advance c
      | 'u' ->
          advance c;
          let cp = hex4 c in
          let cp =
            if cp >= 0xD800 && cp <= 0xDBFF
               && c.pos + 1 < c.n && c.s.[c.pos] = '\\' && c.s.[c.pos + 1] = 'u'
            then begin
              c.pos <- c.pos + 2;
              let lo = hex4 c in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              else 0xFFFD
            end
            else if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD
            else cp
          in
          add_utf8 b cp
      | _ -> fail c "bad escape");
      decode_string c b
  | ch when Char.code ch < 0x20 -> fail c "control character in string"
  | ch ->
      Buffer.add_char b ch;
      advance c;
      decode_string c b

(* Most strings carry no escape: cut them out with one [String.sub]. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let j = ref start in
  while
    !j < c.n
    &&
    let ch = String.unsafe_get c.s !j in
    ch <> '"' && ch <> '\\' && Char.code ch >= 0x20
  do
    incr j
  done;
  if !j < c.n && c.s.[!j] = '"' then begin
    c.pos <- !j + 1;
    String.sub c.s start (!j - start)
  end
  else begin
    let b = Buffer.create (max 16 (2 * (!j - start))) in
    Buffer.add_substring b c.s start (!j - start);
    c.pos <- !j;
    decode_string c b
  end

(* A plain integer of at most 15 digits (an optional '-', then digits)
   is exact in a double, so it is summed as an int and never goes
   through [float_of_string]; anything else takes the general path.
   "-0" stays negative zero. *)
let parse_number c =
  let start = c.pos in
  if peek c = '-' then advance c;
  let digits_from = c.pos in
  let acc = ref 0 in
  while c.pos < c.n && match c.s.[c.pos] with '0' .. '9' -> true | _ -> false do
    acc := (!acc * 10) + (Char.code c.s.[c.pos] - Char.code '0');
    advance c
  done;
  let digits = c.pos - digits_from in
  while
    c.pos < c.n
    &&
    match c.s.[c.pos] with
    | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
    | _ -> false
  do
    advance c
  done;
  if digits > 0 && digits <= 15 && c.pos = digits_from + digits then
    let v = float_of_int !acc in
    Num (if digits_from > start then -.v else v)
  else
    match float_of_string_opt (String.sub c.s start (c.pos - start)) with
    | Some v -> Num v
    | None -> fail c "bad number"

let rec parse_value c depth =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match c.s.[c.pos] with
  | ('{' | '[') when depth >= max_depth ->
      fail c (Printf.sprintf "nesting deeper than %d levels" max_depth)
  | '{' ->
      advance c;
      skip_ws c;
      if peek c = '}' then begin
        advance c;
        Obj []
      end
      else Obj (List.rev (members c depth []))
  | '[' ->
      advance c;
      skip_ws c;
      if peek c = ']' then begin
        advance c;
        Arr []
      end
      else Arr (List.rev (elements c depth []))
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

(* An object's members and an array's elements, newest first. *)
and members c depth acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c (depth + 1) in
  let acc = (k, v) :: acc in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      members c depth acc
  | '}' ->
      advance c;
      acc
  | _ -> fail c "expected ',' or '}'"

and elements c depth acc =
  let acc = parse_value c (depth + 1) :: acc in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      elements c depth acc
  | ']' ->
      advance c;
      acc
  | _ -> fail c "expected ',' or ']'"

let parse s =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value c 0 in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors and constructors                                         *)
(* ------------------------------------------------------------------ *)

(* [String.equal], not [List.assoc_opt]'s polymorphic [compare]: a
   request decode makes a dozen of these lookups.  The first of
   duplicate keys wins. *)
let rec field key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else field key rest

let member key = function Obj fields -> field key fields | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num v -> Some v | _ -> None

let int_ = function
  (* Beyond 2^53 integrality is not meaningful in a double anyway. *)
  | Num v when Float.is_integer v && Float.abs v <= 9007199254740992. ->
      Some (int_of_float v)
  | _ -> None

let int i = Num (float_of_int i)
let float v = Num v
