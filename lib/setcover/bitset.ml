type t = { width : int; words : int array }

let bits_per_word = 63 (* OCaml native ints *)

let nwords width = (width + bits_per_word - 1) / bits_per_word

let create width =
  if width < 0 then invalid_arg "Bitset.create: negative width";
  { width; words = Array.make (max 1 (nwords width)) 0 }

let width t = t.width

let copy t = { width = t.width; words = Array.copy t.words }

let check t i name =
  if i < 0 || i >= t.width then invalid_arg (name ^ ": index out of range")

let set t i =
  check t i "Bitset.set";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  check t i "Bitset.clear";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i "Bitset.mem";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

(* [i] comes from the caller's own matrix columns, so it is in range by
   construction: no check, and the word and bit are computed once. *)
let unsafe_toggle t i =
  let w = i / bits_per_word in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w lxor (1 lsl (i - (w * bits_per_word))))

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* SWAR count over the 63-bit word.  The hex masks wrap to negative
   ints, which is exactly their bit pattern on bits 0..62; the top
   8-bit lane holds bits 56..62, and the byte sum (at most 63) fits in
   it, so [lsr 56] is the whole count. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let check_widths a b name =
  if a.width <> b.width then invalid_arg (name ^ ": width mismatch")

(* The greedy cover calls these once per candidate set per round, so
   they are plain loops: no closure, no boxed accumulator. *)
let union_into s ~into =
  check_widths s into "Bitset.union_into";
  let a = s.words and b = into.words in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set b i (Array.unsafe_get b i lor Array.unsafe_get a i)
  done

let diff_count s ~minus =
  check_widths s minus "Bitset.diff_count";
  let a = s.words and b = minus.words in
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc + popcount (Array.unsafe_get a i land lnot (Array.unsafe_get b i))
  done;
  !acc

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

let words t = Array.length t.words

let blit_to t buf pos = Array.blit t.words 0 buf pos (Array.length t.words)

let blit_from t buf pos = Array.blit buf pos t.words 0 (Array.length t.words)

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
