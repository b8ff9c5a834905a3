(* The comparison-free sort behind [Regret_matrix]'s cell order.

   Regret ratios are non-negative finite floats, whose IEEE-754 bit
   patterns (as unsigned integers) order exactly like [Float.compare].
   So when every value lies in [0, 2) an LSD radix sort on the bit
   patterns, carrying each index as payload, yields the stable order —
   equal values keep their index order, which is the
   [(Float.compare value, index)] tie-break.  Any other input (NaN,
   negatives, huge ratios) takes the stable comparator sort, so exotic
   inputs keep the same total order.  Ids and run starts land in int32
   [Bigarray]s, so at most [max_length] values are sorted. *)

open Bigarray

type ids = (int32, int32_elt, c_layout) Array1.t

let max_length = Int32.to_int Int32.max_int

let check_length n =
  if n > max_length then
    Rrms_guard.Guard.Error.resource_limit ~what:"cell order ids (int32)"
      ~requested:n ~limit:max_length

(* Bit pattern of a float in [0, 2) fits in 62 bits: the sign bit is 0
   and the biased exponent is at most 0x3FF, so the pattern is at most
   0x3FFFFFFFFFFFFFFF — exact in an OCaml native int.  [-0.]'s pattern
   loses its sign bit in [Int64.to_int] and shares [+0.]'s key 0, which
   is right: [Float.compare] calls them equal. *)
let key_of_float x = Int64.to_int (Int64.bits_of_float x)

let digit_width = 16 (* 4 x 16-bit digits cover the 62 significant bits *)
let digit_count = 1 lsl digit_width
let digit_mask = digit_count - 1

(* Bits needed to write [0 .. n-1]. *)
let id_bits n =
  let rec go b = if (n - 1) lsr b = 0 then b else go (b + 1) in
  go 1

(* Stable LSD radix sort of [a]'s indices by key, 16 bits per pass.
   The first two passes move (key, index) pairs.  After them only the
   key's top 30 bits still matter, so the second pass packs each pair
   into one int, [(key lsr 32) lsl b lor index], and the last two
   passes move half the data.  The last pass unpacks the indices into
   [dst]. *)
let radix_order a (dst : ids) =
  let n = Array.length a in
  let b = id_bits n in
  let ids_mask = (1 lsl b) - 1 in
  (* One histogram per pass, built in one scan. *)
  let hist = Array.make (4 * digit_count) 0 in
  for i = 0 to n - 1 do
    let k = key_of_float (Array.unsafe_get a i) in
    for p = 0 to 3 do
      let digit = (k lsr (p * digit_width)) land digit_mask in
      let slot = (p * digit_count) + digit in
      Array.unsafe_set hist slot (Array.unsafe_get hist slot + 1)
    done
  done;
  (* Exclusive prefix sums turn counts into destination offsets. *)
  for p = 0 to 3 do
    let acc = ref 0 in
    for d = p * digit_count to ((p + 1) * digit_count) - 1 do
      let c = hist.(d) in
      hist.(d) <- !acc;
      acc := !acc + c
    done
  done;
  (* Each pass scatters element [i] to the next free offset of its
     digit's slot. *)
  let keys = Array.make n 0 and ids = Array.make n 0 in
  for i = 0 to n - 1 do
    let k = key_of_float (Array.unsafe_get a i) in
    let slot = k land digit_mask in
    let pos = Array.unsafe_get hist slot in
    Array.unsafe_set hist slot (pos + 1);
    Array.unsafe_set keys pos k;
    Array.unsafe_set ids pos i
  done;
  let packed = Array.make n 0 in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get keys i in
    let slot = digit_count + ((k lsr digit_width) land digit_mask) in
    let pos = Array.unsafe_get hist slot in
    Array.unsafe_set hist slot (pos + 1);
    Array.unsafe_set packed pos (((k lsr 32) lsl b) lor Array.unsafe_get ids i)
  done;
  let packed' = keys in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get packed i in
    let slot = (2 * digit_count) + ((x lsr b) land digit_mask) in
    let pos = Array.unsafe_get hist slot in
    Array.unsafe_set hist slot (pos + 1);
    Array.unsafe_set packed' pos x
  done;
  for i = 0 to n - 1 do
    let x = Array.unsafe_get packed' i in
    let digit = (x lsr (b + digit_width)) land digit_mask in
    let slot = (3 * digit_count) + digit in
    let pos = Array.unsafe_get hist slot in
    Array.unsafe_set hist slot (pos + 1);
    Array1.unsafe_set dst pos (Int32.of_int (x land ids_mask))
  done

let order (a : float array) =
  let n = Array.length a in
  check_length n;
  let ids = Array1.create int32 c_layout n in
  (* NaN fails both comparisons.  With [n <= max_length] the index needs
     at most 31 bits, so 30 key bits and the index pack into one
     63-bit int. *)
  if n > 1 && Array.for_all (fun x -> x >= 0. && x < 2.) a then
    radix_order a ids
  else begin
    let perm = Array.init n Fun.id in
    Array.stable_sort (fun i j -> Float.compare a.(i) a.(j)) perm;
    Array.iteri (fun q i -> Array1.unsafe_set ids q (Int32.of_int i)) perm
  end;
  (* Runs of [=]-equal values in sorted order: one gather lays the
     values out in sorted order and counts the runs as it goes, and one
     scan records where each run starts. *)
  let sorted = Array.create_float n in
  let runs = ref (if n > 0 then 1 else 0) in
  if n > 0 then
    Array.unsafe_set sorted 0
      (Array.unsafe_get a (Int32.to_int (Array1.unsafe_get ids 0)));
  for q = 1 to n - 1 do
    let v = Array.unsafe_get a (Int32.to_int (Array1.unsafe_get ids q)) in
    Array.unsafe_set sorted q v;
    if v <> Array.unsafe_get sorted (q - 1) then incr runs
  done;
  let starts = Array1.create int32 c_layout (!runs + 1) in
  Array1.unsafe_set starts !runs (Int32.of_int n);
  if n > 0 then begin
    Array1.unsafe_set starts 0 0l;
    let r = ref 1 in
    for q = 1 to n - 1 do
      if Array.unsafe_get sorted q <> Array.unsafe_get sorted (q - 1) then begin
        Array1.unsafe_set starts !r (Int32.of_int q);
        incr r
      end
    done
  end;
  (ids, starts)
