module Obs = Rrms_obs.Obs

module Metrics = struct
  let greedy_calls =
    Obs.Counter.make ~help:"greedy set-cover invocations"
      "rrms_setcover_greedy_calls_total"

  let greedy_iterations =
    Obs.Counter.make
      ~help:"greedy set-cover selection rounds (Chvatal iterations)"
      "rrms_setcover_greedy_iterations_total"

  let exact_branches =
    Obs.Counter.make
      ~help:"branch-and-bound nodes explored by the exact cover solver"
      "rrms_setcover_exact_branches_total"
end

type instance = { universe : int; sets : int; words : int array }

let make_instance ~universe ~sets words =
  if universe < 0 || sets < 0 then
    invalid_arg "Setcover.make_instance: negative size";
  let w = Bitset.nwords universe in
  if Array.length words <> sets * w then
    invalid_arg "Setcover.make_instance: word count mismatch";
  (* Bits at or above [universe] in a row's last word would count as
     items nobody needs covered. *)
  let spare = (w * 63) - universe in
  if spare > 0 then
    for i = 1 to sets do
      if words.((i * w) - 1) lsr (63 - spare) <> 0 then
        invalid_arg "Setcover.make_instance: item out of range"
    done;
  { universe; sets; words }

let of_bitsets ~universe bitsets =
  let w = Bitset.nwords universe in
  let words = Array.make (Array.length bitsets * w) 0 in
  Array.iteri
    (fun i s ->
      if Bitset.width s <> universe then
        invalid_arg "Setcover.of_bitsets: set width mismatch";
      Bitset.blit_row s words (i * w))
    bitsets;
  { universe; sets = Array.length bitsets; words }

let set t i =
  if i < 0 || i >= t.sets then invalid_arg "Setcover.set: index out of range";
  Bitset.of_row t.universe t.words (i * Bitset.nwords t.universe)

let coverable t =
  let w = Bitset.nwords t.universe in
  let u = Array.make w 0 in
  for i = 0 to t.sets - 1 do
    Bitset.row_union_into t.words (i * w) ~into:u
  done;
  Bitset.row_count u 0 w = t.universe

let greedy ?(limit = max_int) ?bounds t =
  Obs.Counter.incr Metrics.greedy_calls;
  let w = Bitset.nwords t.universe and words = t.words in
  let covered = Array.make w 0 in
  let chosen = ref [] and nchosen = ref 0 in
  let remaining = ref t.universe in
  let progress = ref true in
  (* A set's gain only shrinks as [covered] grows, so its last computed
     gain (initially |s|) bounds every later one: a set whose bound
     cannot beat the current best is skipped without touching its
     words.  Skipped sets could at most tie, and a tie keeps the
     earlier index, so the choice is exactly the full scan's.  A
     caller's [bounds] is that array, so a repeated cover allocates
     none. *)
  let bound =
    match bounds with
    | Some a -> a
    | None -> Array.init t.sets (fun i -> Bitset.row_count words (i * w) w)
  in
  while !remaining > 0 && !progress && !nchosen < limit do
    Obs.Counter.incr Metrics.greedy_iterations;
    let best = ref (-1) and best_gain = ref 0 in
    for i = 0 to t.sets - 1 do
      if bound.(i) > !best_gain then begin
        let gain = Bitset.row_diff_count words (i * w) ~minus:covered in
        bound.(i) <- gain;
        if gain > !best_gain then begin
          best := i;
          best_gain := gain
        end
      end
    done;
    if !best < 0 then progress := false
    else begin
      Bitset.row_union_into words (!best * w) ~into:covered;
      chosen := !best :: !chosen;
      incr nchosen;
      remaining := !remaining - !best_gain
    end
  done;
  if !remaining > 0 then None else Some (Array.of_list (List.rev !chosen))

let exact ?(max_sets = max_int) t =
  if t.universe = 0 then Some [||]
  else begin
    (* Upper bound from greedy (if within max_sets). *)
    let best : int list option ref =
      match greedy ~limit:max_sets t with
      | Some g -> ref (Some (Array.to_list g))
      | None -> ref None
    in
    let best_size () =
      match !best with Some l -> List.length l | None -> max_sets + 1
    in
    (* Branching reads whole sets, so it works on bitset copies. *)
    let sets = Array.init t.sets (set t) in
    (* For each item, the sets containing it (branching candidates). *)
    let containing = Array.make t.universe [] in
    Array.iteri
      (fun i s -> Bitset.iter (fun item -> containing.(item) <- i :: containing.(item)) s)
      sets;
    Array.iteri (fun item l -> containing.(item) <- List.rev l) containing;
    (* Max set size, for the ceiling lower bound. *)
    let max_size =
      Array.fold_left (fun acc s -> max acc (Bitset.count s)) 1 sets
    in
    let rec first_uncovered covered i =
      if i >= t.universe then None
      else if Bitset.mem covered i then first_uncovered covered (i + 1)
      else Some i
    in
    let rec branch covered chosen depth =
      Obs.Counter.incr Metrics.exact_branches;
      match first_uncovered covered 0 with
      | None -> if depth < best_size () then best := Some chosen
      | Some item ->
          let uncovered = t.universe - Bitset.count covered in
          let lower = (uncovered + max_size - 1) / max_size in
          if depth + lower < best_size () then
            (* Branch over every set that covers the first uncovered
               item: some chosen set must. *)
            List.iter
              (fun i ->
                let covered' = Bitset.copy covered in
                Bitset.union_into sets.(i) ~into:covered';
                branch covered' (i :: chosen) (depth + 1))
              containing.(item)
    in
    branch (Bitset.create t.universe) [] 0;
    match !best with
    | Some l -> Some (Array.of_list (List.rev l))
    | None -> None
  end
