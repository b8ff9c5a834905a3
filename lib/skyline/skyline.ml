(* Window-based Block-Nested-Loop.  The window is kept as a list of
   candidate indices; every incoming tuple either is dominated (or
   duplicated) and dropped, or evicts the window tuples it dominates and
   joins the window.  With enough memory for the whole window this is the
   one-pass in-memory BNL variant. *)
let bnl points =
  let window = ref [] in
  Array.iteri
    (fun i p ->
      let rec filter kept = function
        | [] -> Some kept
        | j :: rest -> (
            match Dominance.compare p points.(j) with
            | `Right | `Equal -> None (* p is dominated or a duplicate *)
            | `Left -> filter kept rest (* p evicts j *)
            | `Incomparable -> filter (j :: kept) rest)
      in
      match filter [] !window with
      | None -> ()
      | Some kept -> window := i :: kept)
    points;
  Array.of_list (List.rev !window)

(* Sort-Filter-Skyline: after sorting by attribute sum (descending), a
   tuple can only be dominated by tuples that precede it (up to rounded
   sums that tie, settled at the end), so every kept tuple is final.

   The dominance filter is parallelised in blocks: every candidate of a
   block is checked against the already-final survivors concurrently
   (the bulk of the O(n·s) work), then a short serial pass resolves
   dominance within the block in sorted order.  A tuple is kept iff it
   is undominated by every tuple preceding it, exactly as in the serial
   scan, so the output is identical for every domain count. *)
module Obs = Rrms_obs.Obs

module Metrics = struct
  let runs =
    Obs.Counter.make ~help:"SFS skyline computations" "rrms_skyline_runs_total"

  let input_points =
    Obs.Counter.make ~help:"tuples fed to SFS skyline computations"
      "rrms_skyline_input_points_total"

  (* Paper quantity s: the skyline size of the most recent computation. *)
  let size =
    Obs.Gauge.make ~help:"skyline size s of the last SFS run"
      "rrms_skyline_size"
end

(* The SFS sort key.  [extend] reuses it, so both order ties on exactly
   the same float: a plain left-to-right loop from 0, inlined so that
   neither the accumulator nor the result is boxed. *)
let[@inline] sum_of (p : float array) =
  let s = ref 0. in
  for d = 0 to Array.length p - 1 do
    s := !s +. Array.unsafe_get p d
  done;
  !s

(* The keys of rows [row 0 .. row (k-1)], in a flat float array. *)
let keys k row =
  let a = Array.create_float k in
  for i = 0 to k - 1 do
    Array.unsafe_set a i (sum_of (row i))
  done;
  a

(* [covers q p]: q is at least p on every attribute. *)
let covers (q : float array) (p : float array) =
  let m = Array.length p in
  let rec go d =
    d >= m || (Array.unsafe_get q d >= Array.unsafe_get p d && go (d + 1))
  in
  go 0

(* Row [q] beats row [p] iff q strictly dominates p, or the two are
   equal and q has the lower index.  The skyline is exactly the set of
   unbeaten rows, in SFS order (sum descending, index ascending). *)
let beats points q p =
  let a = points.(q) and b = points.(p) in
  if Array.length a <> Array.length b then
    invalid_arg "Skyline.beats: dimension mismatch";
  covers a b && (q < p || not (covers b a))

(* SFS without metrics: the kept indices, in SFS order.  [sums] are
   the rows' keys, [sum_of] of each. *)
let sfs_keyed ?domains points sums =
  let n = Array.length points in
  let m = if n > 0 then Array.length points.(0) else 0 in
  Array.iter
    (fun p ->
      if Array.length p <> m then
        invalid_arg "Dominance.compare: dimension mismatch")
    points;
  let idx = Array.init n (fun i -> i) in
  Array.sort
    (fun i j ->
      let c = Float.compare sums.(j) sums.(i) in
      if c <> 0 then c else Stdlib.compare i j)
    idx;
  let kept = Array.make n 0 in
  let nkept = ref 0 in
  (* Survivor attributes live in one flat row-major buffer (survivor
     [j] at [j*m, (j+1)*m)), so the hot scan walks contiguous floats
     instead of chasing a point pointer per survivor.  "Survivor [j]
     dominates-or-duplicates candidate [p]" is
     [Dominance.compare s p ∈ {`Left, `Equal}], i.e. no attribute where
     [p] beats [s] — the one-sided covers test below. *)
  let svals = Array.make (max 1 (n * m)) 0. in
  let kept_covers j (p : float array) =
    let base = j * m in
    let rec go d =
      d >= m
      || (Array.unsafe_get svals (base + d) >= Array.unsafe_get p d
         && go (d + 1))
    in
    go 0
  in
  let keep i =
    Array.blit points.(i) 0 svals (!nkept * m) m;
    kept.(!nkept) <- i;
    incr nkept
  in
  let block = 256 in
  let dominated = Array.make (min block n) false in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + block) in
    let len = hi - !lo in
    let final = !nkept in
    let base = !lo in
    Rrms_parallel.parallel_for ?domains ~min_chunk:8 len (fun c ->
        let p = points.(idx.(base + c)) in
        let rec scan j = j < final && (kept_covers j p || scan (j + 1)) in
        dominated.(c) <- scan 0);
    for c = 0 to len - 1 do
      if not dominated.(c) then begin
        let i = idx.(base + c) in
        let p = points.(i) in
        let rec scan j = j < !nkept && (kept_covers j p || scan (j + 1)) in
        if not (scan final) then keep i
      end
    done;
    lo := hi
  done;
  (* Two rows can round to the same sum although one strictly dominates
     the other; the index tie-break may then put the dominated row
     first, where nothing ahead of it covers it.  Both rows are then
     kept, in the same run of equal sums, so one pass over each run
     drops every member another member of the run dominates. *)
  let dead = Array.make !nkept false in
  let r = ref 0 in
  while !r < !nkept do
    let s = sums.(kept.(!r)) in
    let e = ref (!r + 1) in
    while !e < !nkept && Float.compare sums.(kept.(!e)) s = 0 do
      incr e
    done;
    for a = !r to !e - 1 do
      for b = !r to !e - 1 do
        if a <> b && kept_covers b points.(kept.(a)) then dead.(a) <- true
      done
    done;
    r := !e
  done;
  let nout = ref 0 in
  for k = 0 to !nkept - 1 do
    if not dead.(k) then begin
      kept.(!nout) <- kept.(k);
      incr nout
    end
  done;
  Array.sub kept 0 !nout

let sfs ?domains points =
  Obs.Counter.incr Metrics.runs;
  Obs.Counter.add Metrics.input_points (Array.length points);
  let sky =
    sfs_keyed ?domains points (keys (Array.length points) (Array.get points))
  in
  Obs.Gauge.set_int Metrics.size (Array.length sky);
  sky

(* Incremental SFS.  Let A = [sky], pairwise unbeaten, and B = [extra],
   which holds every other row that might be unbeaten.  "Beats" is a
   strict partial order, so a row beaten by anything is beaten by an
   unbeaten row, and so:
   - a row of B that a member of A beats is out, and dropping it changes
     nothing else: whatever it beats, that member of A beats too, and no
     member of A beats another.  Call the rest B';
   - a member of A survives iff no member of sfs(B') beats it;
   - every member of sfs(B') survives.
   Both survivor lists are in SFS order, so one merge by the SFS key
   (the same [sum_of] floats, then index) yields exactly the [sfs points]
   output.  Rounding is monotone, so only rows with a sum at least
   [p]'s can beat [p]; that bounds each scan below. *)
let extend ?domains points ~sky ~extra =
  let n = Array.length points in
  let m = if n > 0 then Array.length points.(0) else 0 in
  let check i =
    if i < 0 || i >= n then invalid_arg "Skyline.extend: index out of range";
    if Array.length points.(i) <> m then
      invalid_arg "Skyline.extend: dimension mismatch"
  in
  Array.iter check sky;
  Array.iter check extra;
  Obs.Counter.incr Metrics.runs;
  Obs.Counter.add Metrics.input_points (Array.length sky + Array.length extra);
  (* [beaten_by rows sums s g]: a row of [rows] (in SFS order, [sums]
     their keys) beats [g], whose key is [s]. *)
  let beaten_by rows sums s g =
    let rec go k =
      k < Array.length rows
      && sums.(k) >= s
      && (beats points rows.(k) g || go (k + 1))
    in
    go 0
  in
  (* [sky] in SFS order.  A remapped skyline already is, so check
     before paying for a sort. *)
  let skeys = keys (Array.length sky) (fun i -> points.(sky.(i))) in
  let before i j =
    let c = Float.compare skeys.(j) skeys.(i) in
    if c <> 0 then c else Stdlib.compare sky.(i) sky.(j)
  in
  let rec sorted k =
    k >= Array.length sky || (before (k - 1) k < 0 && sorted (k + 1))
  in
  let a, asums =
    if sorted 1 then (sky, skeys)
    else begin
      let order = Array.init (Array.length sky) Fun.id in
      Array.sort before order;
      (Array.map (fun k -> sky.(k)) order, Array.map (fun k -> skeys.(k)) order)
    end
  in
  (* sfs over B', in ascending global index order so its local index
     tie-break is the global one. *)
  let ekeys = keys (Array.length extra) (fun i -> points.(extra.(i))) in
  let kept =
    Array.of_seq
      (Seq.filter
         (fun k -> not (beaten_by a asums ekeys.(k) extra.(k)))
         (Seq.init (Array.length extra) Fun.id))
  in
  Array.sort (fun k l -> Int.compare extra.(k) extra.(l)) kept;
  let b' = Array.map (fun k -> extra.(k)) kept in
  let b'sums = Array.map (fun k -> ekeys.(k)) kept in
  let local =
    sfs_keyed ?domains (Array.map (fun g -> points.(g)) b') b'sums
  in
  let b = Array.map (fun l -> b'.(l)) local in
  let bsums = Array.map (fun l -> b'sums.(l)) local in
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  let a_first () =
    !j >= nb
    || !i < na
       &&
       let c = Float.compare bsums.(!j) asums.(!i) in
       c < 0 || (c = 0 && a.(!i) < b.(!j))
  in
  while !i < na || !j < nb do
    if a_first () then begin
      if not (beaten_by b bsums asums.(!i) a.(!i)) then (
        out.(!k) <- a.(!i);
        incr k);
      incr i
    end
    else begin
      out.(!k) <- b.(!j);
      incr k;
      incr j
    end
  done;
  Obs.Gauge.set_int Metrics.size !k;
  Array.sub out 0 !k

(* skyline(D) = skyline(∪ᵢ skyline(Dᵢ)) for any partition {Dᵢ} of D: a
   global skyline tuple is undominated within its own part, so it
   survives the part's skyline, and conversely anything dominated
   globally is filtered by the second pass.  Bit-identity with the
   direct [sfs points] run needs two more facts, both arranged here:
   the candidates are re-sorted ascending by global index, so SFS's
   (sum desc, index asc) order over the candidates matches its order
   over the full input; and SFS keeps the lowest-index copy of any
   duplicated skyline value, which is its own part's representative and
   therefore present in the union. *)
let merge_partitions ?domains points parts =
  let cand = Array.concat (Array.to_list parts) in
  let n = Array.length points in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg "Skyline.merge_partitions: index out of range")
    cand;
  Array.sort Stdlib.compare cand;
  let cpts = Array.map (fun gi -> points.(gi)) cand in
  let local = sfs ?domains cpts in
  Array.map (fun li -> cand.(li)) local

let two_d points =
  Array.iter
    (fun p ->
      if Array.length p <> 2 then
        invalid_arg "Skyline.two_d: dimension <> 2")
    points;
  let n = Array.length points in
  let idx = Array.init n (fun i -> i) in
  (* Sort by A₁ descending, A₂ descending within ties, then sweep: a
     point survives iff its A₂ strictly exceeds every A₂ seen so far
     (i.e. of every point with larger-or-equal A₁). *)
  Array.sort
    (fun i j ->
      let c = Float.compare points.(j).(0) points.(i).(0) in
      if c <> 0 then c else Float.compare points.(j).(1) points.(i).(1))
    idx;
  let kept = ref [] and best_y = ref neg_infinity in
  Array.iter
    (fun i ->
      if points.(i).(1) > !best_y then begin
        kept := i :: !kept;
        best_y := points.(i).(1)
      end)
    idx;
  (* Built from A₁-descending input by prepending, so [kept] is already
     A₁ ascending = top-left → bottom-right. *)
  Array.of_list !kept

let is_skyline_point points i =
  let p = points.(i) in
  let n = Array.length points in
  let rec loop j =
    if j >= n then true
    else if j <> i && Dominance.dominates points.(j) p then false
    else loop (j + 1)
  in
  loop 0

let size_of points = Array.length (sfs points)
