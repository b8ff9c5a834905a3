type t = { width : int; words : int array }

let bits_per_word = 63 (* OCaml native ints *)

let nwords width = (width + bits_per_word - 1) / bits_per_word

let create width =
  if width < 0 then invalid_arg "Bitset.create: negative width";
  { width; words = Array.make (nwords width) 0 }

let width t = t.width

let copy t = { width = t.width; words = Array.copy t.words }

let check t i name =
  if i < 0 || i >= t.width then invalid_arg (name ^ ": index out of range")

let row_set words pos b =
  let j = pos + (b / bits_per_word) in
  words.(j) <- words.(j) lor (1 lsl (b mod bits_per_word))

let set t i =
  check t i "Bitset.set";
  row_set t.words 0 i

let clear t i =
  check t i "Bitset.clear";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i "Bitset.mem";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* SWAR count over the 63-bit word.  The hex masks wrap to negative
   ints, which is exactly their bit pattern on bits 0..62; the top
   8-bit lane holds bits 56..62, and the byte sum (at most 63) fits in
   it, so [lsr 56] is the whole count. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Rows of a flat word array.  The greedy cover calls these once per
   candidate row per round, so they are plain loops over [words.(pos
   ..)]: no closure, no boxed accumulator, and [popcount] inlined.  The
   bounds are checked once per row, not per word. *)
let check_row words pos len name =
  if pos < 0 || len < 0 || pos > Array.length words - len then
    invalid_arg (name ^ ": row out of range")

let row_count words pos len =
  check_row words pos len "Bitset.row_count";
  let acc = ref 0 in
  for i = pos to pos + len - 1 do
    acc := !acc + popcount (Array.unsafe_get words i)
  done;
  !acc

let row_diff_count words pos ~minus =
  let len = Array.length minus in
  check_row words pos len "Bitset.row_diff_count";
  let acc = ref 0 in
  for i = 0 to len - 1 do
    acc :=
      !acc
      + popcount
          (Array.unsafe_get words (pos + i) land lnot (Array.unsafe_get minus i))
  done;
  !acc

let row_union_into words pos ~into =
  let len = Array.length into in
  check_row words pos len "Bitset.row_union_into";
  for i = 0 to len - 1 do
    Array.unsafe_set into i
      (Array.unsafe_get into i lor Array.unsafe_get words (pos + i))
  done

let of_row width words pos =
  let len = nwords width in
  check_row words pos len "Bitset.of_row";
  { width; words = Array.sub words pos len }

let blit_row t words pos =
  let len = Array.length t.words in
  check_row words pos len "Bitset.blit_row";
  Array.blit t.words 0 words pos len

let count t = row_count t.words 0 (Array.length t.words)

let check_widths a b name =
  if a.width <> b.width then invalid_arg (name ^ ": width mismatch")

let union_into s ~into =
  check_widths s into "Bitset.union_into";
  row_union_into s.words 0 ~into:into.words

let diff_count s ~minus =
  check_widths s minus "Bitset.diff_count";
  row_diff_count s.words 0 ~minus:minus.words

let subset s ~of_ =
  check_widths s of_ "Bitset.subset";
  let ok = ref true in
  Array.iteri (fun i w -> if w land lnot of_.words.(i) <> 0 then ok := false) s.words;
  !ok

let equal a b = a.width = b.width && a.words = b.words

(* Every word takes part, unlike the polymorphic [Hashtbl.hash], which
   stops after a few words and so hashes wide sets that differ only
   late alike. *)
let hash t =
  let h = ref t.width in
  Array.iter (fun w -> h := (!h * 65599) + w) t.words;
  !h land max_int

let iter f t =
  Array.iteri
    (fun wi w ->
      if w <> 0 then
        for b = 0 to bits_per_word - 1 do
          if w land (1 lsl b) <> 0 then f ((wi * bits_per_word) + b)
        done)
    t.words

let elements t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let of_list width elems =
  let t = create width in
  List.iter (fun i -> set t i) elems;
  t
