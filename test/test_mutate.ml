(* The live-mutation subsystem end to end (docs/DYNAMIC.md).

   The load-bearing contract, asserted bitwise throughout: after ANY
   mutation sequence, every incremental maintenance path — skyline
   remap/merge, regret-matrix carry-over, carried result-cache
   entries, WAL replay — must answer byte-identically to a fresh store
   loaded with the from-scratch mutated dataset, at 1/2/4 domains. *)

module Serve = Rrms_serve
module Json = Serve.Json
module Protocol = Serve.Protocol
module Store = Serve.Store
module Server = Serve.Server
module Shard = Serve.Shard
module Persist = Serve.Persist
module Mutate = Serve.Mutate
module Delta = Rrms_core.Delta
module Dataset = Rrms_dataset.Dataset
module Guard = Rrms_guard.Guard
module Rng = Rrms_rng.Rng
module Skyline = Rrms_skyline.Skyline
module Obs = Rrms_obs.Obs

let contains = Astring_contains.contains
let query = Test_serve.query
let with_state_dir = Test_persist.with_state_dir

let synth ~n ~m ~seed =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Array.init m (fun _ -> Rng.float rng 1.))

let dataset_of ?(name = "mut") rows =
  let m = Array.length rows.(0) in
  Dataset.create ~name
    ~attributes:(Array.init m (Printf.sprintf "a%d"))
    rows

(* A random mutation schedule that never empties the table.  Mixing all
   three op kinds in one batch exercises the index-shift semantics of
   Delta.apply. *)
let random_ops rng ~m ~len0 k =
  let len = ref len0 in
  List.init k (fun _ ->
      let v () = Array.init m (fun _ -> Rng.float rng 1.) in
      match Rng.int rng 3 with
      | 0 ->
          incr len;
          Delta.Insert (v ())
      | 1 when !len > 1 ->
          let i = Rng.int rng !len in
          decr len;
          Delta.Delete i
      | _ when !len > 0 -> Delta.Upsert (Rng.int rng !len, v ())
      | _ ->
          incr len;
          Delta.Insert (v ()))

let apply_all ~m rows muts = (Delta.apply ~dim:m rows muts).Delta.rows

let must_mutate label = function
  | Ok (r : Store.mutated) -> r
  | Error _ -> Alcotest.fail (label ^ ": mutation unexpectedly refused")

let answer_of label = function
  | Ok { Store.result; cached; _ } -> (Json.to_string result, cached)
  | Error _ -> Alcotest.fail (label ^ ": query unexpectedly refused")

(* ------------------------------------------------------------------ *)
(* Store-level bit-identity                                           *)
(* ------------------------------------------------------------------ *)

(* Rounds of mixed mutations against a warm store: every algorithm's
   post-mutation answer must be byte-identical to a fresh store that
   loaded the from-scratch mutated rows — the incremental artifacts,
   the carried cache entries AND the content key must all agree. *)
let bit_identity_rounds ~domains ~m ~algos ~seed () =
  let rows0 = synth ~n:60 ~m ~seed in
  let rng = Rng.create (seed + 1) in
  let live = Store.create ~domains () in
  ignore (Store.add live (dataset_of rows0) : Store.loaded);
  let rows = ref rows0 in
  for round = 1 to 3 do
    (* Warm every artifact and cache entry first, so the mutation has
       incremental state to maintain (a cold store would just rebuild). *)
    List.iter
      (fun algo ->
        ignore (answer_of "warm" (Store.query live (query ~algo ~r:3 "mut"))))
      algos;
    let muts = random_ops rng ~m ~len0:(Array.length !rows) 12 in
    let r = must_mutate "live" (Store.mutate live ~dataset:"mut" muts) in
    rows := apply_all ~m !rows muts;
    Alcotest.(check int)
      (Printf.sprintf "round %d: generation" round)
      round r.Store.generation;
    Alcotest.(check int)
      (Printf.sprintf "round %d: size" round)
      (Array.length !rows) r.Store.n;
    let fresh = Store.create ~domains () in
    let scratch = Store.add fresh (dataset_of !rows) in
    Alcotest.(check string)
      (Printf.sprintf "round %d: carried key = from-scratch key" round)
      scratch.Store.key r.Store.new_key;
    List.iter
      (fun algo ->
        let got, _ =
          answer_of "live" (Store.query live (query ~algo ~r:3 "mut"))
        in
        let want, _ =
          answer_of "fresh" (Store.query fresh (query ~algo ~r:3 "mut"))
        in
        Alcotest.(check string)
          (Printf.sprintf "round %d: %s bit-identical" round
             (Protocol.algo_to_string algo))
          want got)
      algos
  done

let test_store_bit_identity_hd () =
  List.iter
    (fun domains ->
      bit_identity_rounds ~domains ~m:3
        ~algos:
          [ Protocol.Hd_rrms; Protocol.Hd_greedy; Protocol.Greedy;
            Protocol.Cube ]
        ~seed:(40 + domains) ())
    [ 1; 2; 4 ]

let test_store_bit_identity_2d () =
  List.iter
    (fun domains ->
      bit_identity_rounds ~domains ~m:2
        ~algos:[ Protocol.A2d; Protocol.A2d_exact; Protocol.Sweepline ]
        ~seed:(50 + domains) ())
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Delta-scoped cache invalidation                                    *)
(* ------------------------------------------------------------------ *)

(* A dominated insert preserves the skyline point sequence: matrices
   stay untouched, cached HD results survive (with proof: the matrix is
   a pure function of the sequence), and the warm answer still equals a
   fresh solve.  Deleting a skyline member must evict. *)
let test_cache_survival () =
  let m = 3 in
  let rows0 =
    Array.append (synth ~n:40 ~m ~seed:90) [| [| 1.; 1.; 1. |] |]
  in
  let store = Store.create ~domains:2 () in
  ignore (Store.add store (dataset_of rows0) : Store.loaded);
  let q = query ~algo:Protocol.Hd_rrms ~r:2 "mut" in
  ignore (answer_of "cold" (Store.query store q));
  (* (0.5, 0.5, 0.5) is dominated by the (1,1,1) corner: the merge
     filters the fresh row straight out, the skyline sequence is
     preserved, nothing is rebuilt, results are carried. *)
  let r =
    must_mutate "dominated insert"
      (Store.mutate store ~dataset:"mut" [ Delta.Insert [| 0.5; 0.5; 0.5 |] ])
  in
  Alcotest.(check (option string))
    "dominated insert takes the merge path" (Some "merge")
    r.Store.skyline_path;
  Alcotest.(check int) "matrices untouched" 0 r.Store.matrices_dropped;
  Alcotest.(check bool) "hd result carried" true (r.Store.results_kept >= 1);
  let got, cached = answer_of "warm" (Store.query store q) in
  Alcotest.(check bool) "carried entry serves warm" true cached;
  let fresh = Store.create ~domains:2 () in
  ignore
    (Store.add fresh
       (dataset_of (Array.append rows0 [| [| 0.5; 0.5; 0.5 |] |]))
      : Store.loaded);
  let want, _ = answer_of "fresh" (Store.query fresh q) in
  Alcotest.(check string) "carried answer bit-identical" want got;
  (* Deleting the dominating corner changes the skyline: every HD
     result must be evicted, and the next answer re-solved. *)
  let corner = Array.length rows0 - 1 in
  let r2 =
    must_mutate "skyline delete"
      (Store.mutate store ~dataset:"mut" [ Delta.Delete corner ])
  in
  Alcotest.(check bool) "skyline delete evicts" true
    (r2.Store.results_evicted >= 1);
  let got2, cached2 = answer_of "after delete" (Store.query store q) in
  Alcotest.(check bool) "evicted entry re-solves" false cached2;
  let rows2 =
    apply_all ~m rows0
      [ Delta.Insert [| 0.5; 0.5; 0.5 |]; Delta.Delete corner ]
  in
  let fresh2 = Store.create ~domains:2 () in
  ignore (Store.add fresh2 (dataset_of rows2) : Store.loaded);
  let want2, _ = answer_of "fresh2" (Store.query fresh2 q) in
  Alcotest.(check string) "re-solved answer bit-identical" want2 got2

(* A 2D answer cites row indices, so it survives only when every
   surviving row kept its index: an insert at the tail keeps the cached
   answer, and deleting a dominated row ahead of the skyline evicts it
   although the skyline point sequence is unchanged. *)
let test_cache_survival_2d () =
  let rows0 =
    Array.append [| [| 0.05; 0.05 |] |] (synth ~n:30 ~m:2 ~seed:91)
  in
  let store = Store.create ~domains:1 () in
  ignore (Store.add store (dataset_of rows0) : Store.loaded);
  (* A materialized skyline, so the batches are maintained, not
     rebuilt. *)
  (match Store.pin store "mut" with
  | None -> Alcotest.fail "dataset not resident"
  | Some h ->
      ignore (Store.skyline_of store h : int array);
      Store.unpin store h);
  let q = query ~algo:Protocol.A2d ~r:3 "mut" in
  let fresh_answer rows =
    let fresh = Store.create ~domains:1 () in
    ignore (Store.add fresh (dataset_of rows) : Store.loaded);
    fst (answer_of "fresh" (Store.query fresh q))
  in
  ignore (answer_of "cold" (Store.query store q));
  let tail = [ Delta.Insert [| 0.01; 0.02 |] ] in
  let r = must_mutate "tail insert" (Store.mutate store ~dataset:"mut" tail) in
  Alcotest.(check int) "tail insert keeps the 2d answer" 1 r.Store.results_kept;
  let got, cached = answer_of "after tail insert" (Store.query store q) in
  Alcotest.(check bool) "kept entry serves warm" true cached;
  let rows1 = apply_all ~m:2 rows0 tail in
  Alcotest.(check string) "kept answer = fresh solve" (fresh_answer rows1) got;
  let r2 =
    must_mutate "delete ahead"
      (Store.mutate store ~dataset:"mut" [ Delta.Delete 0 ])
  in
  Alcotest.(check (option string))
    "skyline untouched" (Some "remap") r2.Store.skyline_path;
  Alcotest.(check int) "delete ahead of the skyline evicts" 0
    r2.Store.results_kept;
  Alcotest.(check int) "one answer evicted" 1 r2.Store.results_evicted;
  let got2, cached2 = answer_of "after delete" (Store.query store q) in
  Alcotest.(check bool) "evicted entry re-solves" false cached2;
  Alcotest.(check string) "re-solved answer = fresh solve"
    (fresh_answer (apply_all ~m:2 rows1 [ Delta.Delete 0 ]))
    got2

(* A batch that leaves the skyline point sequence alone must cost no
   n-length bookkeeping beyond the new row array, [old_to_new] and the
   new digest array: 3·n words and a few headers, which [Gc.counters]
   counts at once, since arrays that long go straight to the major
   heap.  One more n-length array (a new → old map, or a second digest
   array) makes it 4·n and more, so the ceiling of 3.5·n trips on it
   with n/2 words to spare either way. *)
let test_mutate_allocation () =
  let n = 20_000 and m = 4 in
  let rows0 = synth ~n ~m ~seed:95 in
  let store = Store.create ~domains:1 () in
  ignore (Store.add store (dataset_of rows0) : Store.loaded);
  ignore
    (answer_of "warm"
       (Store.query store (query ~algo:Protocol.Hd_rrms ~r:5 ~gamma:5 "mut")));
  let sky = Skyline.sfs rows0 in
  let inside = List.filter (fun i -> not (Array.mem i sky)) [ 3; 7; 11 ] in
  let low () = Array.init m (fun _ -> 0.001) in
  let ops =
    match inside with
    | a :: b :: _ ->
        [ Delta.Insert (low ()); Delta.Upsert (b, low ()); Delta.Delete a;
          Delta.Insert (low ()) ]
    | _ -> Alcotest.fail "no dominated rows to edit"
  in
  let _, _, major0 = Gc.counters () in
  let r =
    must_mutate "dominated batch" (Store.mutate store ~dataset:"mut" ops)
  in
  let _, _, major1 = Gc.counters () in
  Alcotest.(check int) "matrix kept" 0
    (r.Store.matrices_updated + r.Store.matrices_dropped);
  Alcotest.(check int) "answer kept" 1 r.Store.results_kept;
  let words = int_of_float (major1 -. major0) in
  if 2 * words >= 7 * n then
    Alcotest.failf
      "a 4-op batch at n = %d allocated %d major words (ceiling %d)" n words
      (7 * n / 2)

let test_empty_and_invalid_rejected () =
  let store = Store.create () in
  ignore (Store.add store (dataset_of (synth ~n:3 ~m:2 ~seed:5)) : Store.loaded);
  (match Store.mutate store ~dataset:"mut" [] with
  | exception Guard.Error.Guard_error (Guard.Error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "empty batch must raise Invalid_input");
  (match
     Store.mutate store ~dataset:"mut"
       [ Delta.Delete 0; Delta.Delete 0; Delta.Delete 0 ]
   with
  | exception Guard.Error.Guard_error (Guard.Error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "emptying the dataset must raise Invalid_input");
  (match Store.mutate store ~dataset:"mut" [ Delta.Delete 99 ] with
  | exception Guard.Error.Guard_error (Guard.Error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "bad index must raise Invalid_input");
  (* Transactional: the failed batches installed nothing. *)
  match Store.pin store "mut" with
  | None -> Alcotest.fail "dataset vanished"
  | Some h ->
      Alcotest.(check int) "generation untouched" 0
        (Store.pinned_generation h);
      Store.unpin store h

(* ------------------------------------------------------------------ *)
(* Delta.apply against a naive reference                              *)
(* ------------------------------------------------------------------ *)

(* The batch semantics spelled out the slow way: a list of
   (value, base origin) pairs rewritten one op at a time, raising the
   documented Invalid_input messages.  [Error] carries the message. *)
let naive_apply ?dim rows muts =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    let dim =
      match dim with
      | Some d -> d
      | None ->
          if Array.length rows = 0 then bad "Delta.apply: empty base needs ~dim"
          else Array.length rows.(0)
    in
    let value what p =
      if Array.length p <> dim then
        bad "%s: value has %d attributes, dataset has %d" what
          (Array.length p) dim;
      if Array.exists (fun v -> not (Float.is_finite v) || v < 0.) p then
        bad "%s: values must be finite and non-negative" what
    in
    let index what cur i =
      if i < 0 || i >= List.length cur then
        bad "%s: index %d out of range (current size %d)" what i
          (List.length cur)
    in
    let cur =
      List.fold_left
        (fun cur op ->
          match op with
          | Delta.Insert p ->
              value "Delta.apply insert" p;
              cur @ [ (p, -1) ]
          | Delta.Delete i ->
              index "Delta.apply delete" cur i;
              List.filteri (fun k _ -> k <> i) cur
          | Delta.Upsert (i, p) ->
              index "Delta.apply upsert" cur i;
              value "Delta.apply upsert" p;
              List.mapi (fun k x -> if k = i then (p, -1) else x) cur)
        (List.mapi (fun i r -> (r, i)) (Array.to_list rows))
        muts
    in
    let new_to_old = Array.of_list (List.map snd cur) in
    let old_to_new = Array.make (Array.length rows) (-1) in
    Array.iteri (fun j o -> if o >= 0 then old_to_new.(o) <- j) new_to_old;
    let fresh =
      List.filter (fun j -> new_to_old.(j) < 0)
        (List.init (Array.length new_to_old) Fun.id)
    in
    Ok (Array.of_list (List.map fst cur), old_to_new, new_to_old,
        Array.of_list fresh)
  with Bad msg -> Error msg

(* A valid batch over a table of [n0] rows aimed at the edges of the
   carried runs: the first and the last base row still present, every
   base row deleted around an insert, an inserted row upserted, and the
   tail insert deleted.  The table never empties. *)
let edge_batch st ~value n0 =
  let open QCheck.Gen in
  let nb = ref n0 and nt = ref 0 in
  let insert () =
    incr nt;
    [ Delta.Insert (value ()) ]
  in
  let edit_base i =
    if !nb = 0 then []
    else if bool st || !nb + !nt = 1 then [ Delta.Upsert (i, value ()) ]
    else begin
      decr nb;
      [ Delta.Delete i ]
    end
  in
  List.concat
    (List.init (int_range 1 3 st) (fun _ ->
         match int_bound 4 st with
         | 0 -> edit_base 0
         | 1 -> edit_base (!nb - 1)
         | 2 ->
             let ins = insert () in
             let dels = List.init !nb (fun _ -> Delta.Delete 0) in
             nb := 0;
             ins @ dels
         | 3 ->
             let ins = insert () in
             ins @ [ Delta.Upsert (!nb + !nt - 1, value ()) ]
         | _ ->
             let ins = insert () in
             decr nt;
             ins @ [ Delta.Delete (!nb + !nt) ]))

(* Small tables and indices that sometimes miss, values that sometimes
   have the wrong width or a negative / non-finite entry: the error
   paths must agree with the reference too.  A third of the batches
   are edge batches. *)
let apply_case_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun m ->
    let good = array_size (return m) (map float_of_int (int_bound 3)) in
    let value =
      frequency
        [ (8, good);
          (1, array_size (int_range 0 4) (map float_of_int (int_bound 3)));
          ( 1,
            map
              (fun (v, k) ->
                v.(k mod m) <- (if k mod 2 = 0 then -1. else nan);
                v)
              (pair good small_nat) ) ]
    in
    let op =
      frequency
        [ (3, map (fun v -> Delta.Insert v) value);
          (3, map (fun i -> Delta.Delete (i - 1)) (int_bound 9));
          (3, map2 (fun i v -> Delta.Upsert (i - 1, v)) (int_bound 9) value) ]
    in
    let random =
      pair (array_size (int_bound 6) good) (list_size (int_bound 6) op)
    in
    let edge =
      array_size (int_range 1 6) good >>= fun rows st ->
      (rows, edge_batch st ~value:(fun () -> good st) (Array.length rows))
    in
    frequency [ (2, random); (1, edge) ] >>= fun (rows, ops) ->
    bool >|= fun with_dim -> (m, rows, ops, with_dim))

let print_batch (m, rows, ops) =
  let vec v = Rrms_geom.Vec.to_string v in
  Printf.sprintf "m=%d rows=[%s] ops=[%s]" m
    (String.concat "; " (Array.to_list (Array.map vec rows)))
    (String.concat "; "
       (List.map
          (function
            | Delta.Insert v -> "ins " ^ vec v
            | Delta.Delete i -> Printf.sprintf "del %d" i
            | Delta.Upsert (i, v) -> Printf.sprintf "ups %d %s" i (vec v))
          ops))

(* Non-empty runs, ascending and non-overlapping on both sides. *)
let runs_well_formed runs =
  let ok = ref true in
  Array.iteri
    (fun i { Delta.new_start; old_start; len } ->
      if len < 1 || new_start < 0 || old_start < 0 then ok := false;
      if i > 0 then begin
        let p = runs.(i - 1) in
        if
          p.Delta.new_start + p.Delta.len > new_start
          || p.Delta.old_start + p.Delta.len > old_start
        then ok := false
      end)
    runs;
  !ok

let prop_apply_matches_reference =
  QCheck.Test.make ~count:500 ~name:"Delta.apply ≡ one-op-at-a-time reference"
    (QCheck.make
       ~print:(fun (m, rows, ops, with_dim) ->
         Printf.sprintf "%s dim=%b" (print_batch (m, rows, ops)) with_dim)
       apply_case_gen)
    (fun (m, rows, ops, with_dim) ->
      let dim = if with_dim then Some m else None in
      let want = naive_apply ?dim rows ops in
      match Delta.apply ?dim rows ops with
      | plan -> (
          plan.Delta.base == rows
          &&
          match want with
          | Error _ -> false
          | Ok (rows', old_to_new, new_to_old, fresh) ->
              (rows', old_to_new, fresh)
              = (plan.Delta.rows, plan.Delta.old_to_new, plan.Delta.fresh)
              && runs_well_formed plan.Delta.runs
              && Array.for_all Fun.id
                   (Array.mapi
                      (fun j o -> Delta.origin plan j = o)
                      new_to_old)
              && Delta.origin plan (-1) = -1
              && Delta.origin plan (Array.length new_to_old) = -1)
      | exception
          Guard.Error.Guard_error (Guard.Error.Invalid_input { what; _ }) ->
          want = Error what)

(* ------------------------------------------------------------------ *)
(* Delta.update_skyline against a from-scratch sfs                    *)
(* ------------------------------------------------------------------ *)

(* Values from a 1-5 level alphabet, so duplicates and equal sums are
   everywhere; deletes and upserts aim at a current skyline member half
   the time, and a quarter of the batches only delete, so all three
   path labels come up. *)
let skyline_case_gen st =
  let open QCheck.Gen in
  let m = int_range 2 4 st in
  let levels = int_range 1 5 st in
  let value () =
    Array.init m (fun _ -> float_of_int (int_bound (levels - 1) st) /. 4.)
  in
  let rows = Array.init (int_range 1 30 st) (fun _ -> value ()) in
  let deletes_only = int_bound 3 st = 0 in
  let cur = ref rows in
  let ops =
    List.init (int_range 1 6 st) (fun _ ->
        let len = Array.length !cur in
        let sky = Skyline.sfs !cur in
        let target () =
          if bool st then sky.(int_bound (Array.length sky - 1) st)
          else int_bound (len - 1) st
        in
        let op =
          match if deletes_only then 1 else int_bound 2 st with
          | 0 -> Delta.Insert (value ())
          | 1 when len > 1 -> Delta.Delete (target ())
          | _ -> Delta.Upsert (target (), value ())
        in
        cur := (Delta.apply ~dim:m !cur [ op ]).Delta.rows;
        op)
  in
  (m, rows, ops)

let prop_update_skyline_matches_sfs =
  QCheck.Test.make ~count:1000
    ~name:"Delta.update_skyline ≡ Skyline.sfs plan.rows, labels exact"
    (QCheck.make ~print:print_batch skyline_case_gen)
    (fun (m, rows, ops) ->
      let plan = Delta.apply ~dim:m rows ops in
      let old_sky = Skyline.sfs rows in
      let got, path = Delta.update_skyline plan ~old_sky in
      let departed =
        Array.exists (fun g -> plan.Delta.old_to_new.(g) < 0) old_sky
      in
      let want_path =
        if departed then Delta.Rebuild
        else if Array.length plan.Delta.fresh = 0 then Delta.Remap
        else Delta.Merge
      in
      got = Skyline.sfs plan.Delta.rows && path = want_path)

(* ------------------------------------------------------------------ *)
(* Carried content key against a from-scratch one                    *)
(* ------------------------------------------------------------------ *)

(* A mutation digests only its fresh rows and carries the rest, so the
   batches aim where the carry bookkeeping is easiest to get wrong: the
   last row, and rows this very batch appended; a third of the batches
   are the edge batches of [Delta.apply]'s case.  Values come from a
   three-level alphabet, so equal rows (equal digests) at different
   positions are common. *)
let key_case_gen st =
  let open QCheck.Gen in
  let m = int_range 1 4 st in
  let value () = Array.init m (fun _ -> float_of_int (int_bound 2 st) /. 2.) in
  let rows = Array.init (int_range 1 12 st) (fun _ -> value ()) in
  let len = ref (Array.length rows) in
  let batches =
    List.init (int_range 1 3 st) (fun _ ->
        if int_bound 2 st = 0 then begin
          let ops = edge_batch st ~value !len in
          List.iter
            (function
              | Delta.Insert _ -> incr len
              | Delta.Delete _ -> decr len
              | Delta.Upsert _ -> ())
            ops;
          ops
        end
        else begin
          let appended = ref 0 in
          List.init (int_range 1 6 st) (fun _ ->
              let target () =
                match int_bound 2 st with
                | 0 -> !len - 1
                | 1 when !appended > 0 ->
                    !len - 1 - int_bound (!appended - 1) st
                | _ -> int_bound (!len - 1) st
              in
              match int_bound 2 st with
              | 1 when !len > 1 ->
                  let i = target () in
                  if i >= !len - !appended then decr appended;
                  decr len;
                  Delta.Delete i
              | 2 -> Delta.Upsert (target (), value ())
              | _ ->
                  incr len;
                  incr appended;
                  Delta.Insert (value ()))
        end)
  in
  (m, rows, batches)

let prop_carried_key_matches_scratch =
  QCheck.Test.make ~count:300
    ~name:"carried content key ≡ from-scratch Store.add key"
    (QCheck.make
       ~print:(fun (m, rows, batches) ->
         String.concat " | "
           (List.map (fun ops -> print_batch (m, rows, ops)) batches))
       key_case_gen)
    (fun (m, rows, batches) ->
      let live = Store.create ~domains:1 () in
      ignore (Store.add live (dataset_of rows) : Store.loaded);
      let cur = ref rows in
      List.for_all
        (fun ops ->
          let r = must_mutate "live" (Store.mutate live ~dataset:"mut" ops) in
          cur := apply_all ~m !cur ops;
          let scratch =
            Store.add (Store.create ~domains:1 ()) (dataset_of !cur)
          in
          r.Store.new_key = scratch.Store.key)
        batches)

(* ------------------------------------------------------------------ *)
(* Write-ahead log                                                    *)
(* ------------------------------------------------------------------ *)

(* Two processes, one state dir: the first journals its mutations, the
   second replays them and must answer byte-identically — the replay
   verifies each record lands on the journaled content hash. *)
let test_wal_replay () =
  with_state_dir (fun dir ->
      let m = 3 in
      let rows0 = synth ~n:45 ~m ~seed:21 in
      let rng = Rng.create 22 in
      let q = query ~algo:Protocol.Hd_rrms ~r:3 "mut" in
      let p1 = Persist.open_dir dir in
      let s1 = Store.create ~persist:p1 () in
      ignore (Store.add s1 (dataset_of rows0) : Store.loaded);
      let muts1 = random_ops rng ~m ~len0:(Array.length rows0) 8 in
      let r1 = must_mutate "first" (Store.mutate s1 ~dataset:"mut" muts1) in
      let rows1 = apply_all ~m rows0 muts1 in
      let muts2 = random_ops rng ~m ~len0:(Array.length rows1) 8 in
      let r2 = must_mutate "second" (Store.mutate s1 ~dataset:"mut" muts2) in
      let want, _ = answer_of "original" (Store.query s1 q) in
      (* "New process": fresh store over the same directory.  Every
         blob the replay and the replayed query need is already on
         disk, so neither writes one. *)
      Test_persist.with_counters (fun () ->
          let p2 = Persist.open_dir dir in
          let s2 = Store.create ~persist:p2 () in
          let w0 = Obs.Counter.value Persist.Metrics.writes in
          let rep = Mutate.replay s2 p2 in
          Alcotest.(check int) "two records scanned" 2 rep.Mutate.records;
          Alcotest.(check int) "two records applied" 2 rep.Mutate.applied;
          Alcotest.(check int) "none skipped" 0 rep.Mutate.skipped;
          (match Store.resolve s2 r2.Store.new_key with
          | Some key ->
              Alcotest.(check string) "final content key restored"
                r2.Store.new_key key
          | None -> Alcotest.fail "replayed key not resident");
          ignore (r1 : Store.mutated);
          let got, _ = answer_of "replayed" (Store.query s2 q) in
          Alcotest.(check string) "replayed state answers bit-identically"
            want got;
          Alcotest.(check int) "replay and query write no blob" 0
            (Obs.Counter.value Persist.Metrics.writes - w0)))

(* A torn tail (half-written last record) is detected by checksum,
   skipped on replay, and repaired by the next append. *)
let test_wal_torn_tail () =
  with_state_dir (fun dir ->
      let m = 2 in
      let rows0 = synth ~n:20 ~m ~seed:31 in
      let p1 = Persist.open_dir dir in
      let s1 = Store.create ~persist:p1 () in
      ignore (Store.add s1 (dataset_of rows0) : Store.loaded);
      ignore
        (must_mutate "a" (Store.mutate s1 ~dataset:"mut" [ Delta.Delete 0 ])
          : Store.mutated);
      ignore
        (must_mutate "b"
           (Store.mutate s1 ~dataset:"mut" [ Delta.Insert [| 0.3; 0.7 |] ])
          : Store.mutated);
      let wal = Filename.concat dir Persist.Wal.file in
      let size = (Unix.stat wal).Unix.st_size in
      Unix.truncate wal (size - 7);
      let p2 = Persist.open_dir dir in
      let s2 = Store.create ~persist:p2 () in
      let rep = Mutate.replay s2 p2 in
      Alcotest.(check int) "torn record dropped" 1 rep.Mutate.records;
      Alcotest.(check int) "surviving record applied" 1 rep.Mutate.applied;
      (* The next append lands after the last valid record — the torn
         bytes are truncated away, and a re-scan sees both records. *)
      ignore
        (must_mutate "c"
           (Store.mutate s2 ~dataset:"mut" [ Delta.Insert [| 0.9; 0.1 |] ])
          : Store.mutated);
      let p3 = Persist.open_dir dir in
      let s3 = Store.create ~persist:p3 () in
      let rep3 = Mutate.replay s3 p3 in
      Alcotest.(check int) "repaired log replays fully" 2 rep3.Mutate.records;
      Alcotest.(check int) "both applied" 2 rep3.Mutate.applied)

(* A record's base is a resident entry's own key, never an alias a
   later mutation left behind.  The original process mutates K0 into
   K1, adds the same rows again — a fresh entry at K0 — and mutates
   that into K2.  Replaying the second record onto K1 (which K0 still
   names by alias) would delete a row of K1 and build a third state the
   original never had.  A record that lands on another key than it
   journaled installs nothing, writes nothing and moves no name. *)
let test_wal_replay_base_is_own_key () =
  with_state_dir (fun dir ->
      let rows = synth ~n:50 ~m:2 ~seed:71 in
      let s1 = Store.create ~persist:(Persist.open_dir dir) () in
      let k0 = (Store.add s1 (dataset_of rows)).Store.key in
      let k1 =
        (must_mutate "insert"
           (Store.mutate s1 ~dataset:k0 [ Delta.Insert [| 0.5; 0.5 |] ]))
          .Store.new_key
      in
      ignore (Store.add s1 (dataset_of rows) : Store.loaded);
      let k2 =
        (must_mutate "delete" (Store.mutate s1 ~dataset:k0 [ Delta.Delete 3 ]))
          .Store.new_key
      in
      let files () = List.sort compare (Array.to_list (Sys.readdir dir)) in
      let before = files () in
      let p2 = Persist.open_dir dir in
      let s2 = Store.create ~persist:p2 () in
      let rep = Mutate.replay s2 p2 in
      Alcotest.(check int) "two records" 2 rep.Mutate.records;
      Alcotest.(check int) "both applied" 2 rep.Mutate.applied;
      Alcotest.(check int) "none skipped" 0 rep.Mutate.skipped;
      List.iter
        (fun k ->
          Alcotest.(check (option string)) "state resident" (Some k)
            (Store.resolve s2 k))
        [ k1; k2 ];
      Alcotest.(check (list string)) "replay writes no file" before (files ());
      (* A record whose ops land elsewhere than its journaled key. *)
      let lands_on =
        let s = Store.create () in
        ignore (Store.add s (dataset_of rows) : Store.loaded);
        (must_mutate "elsewhere" (Store.mutate s ~dataset:"mut" [ Delta.Delete 0 ]))
          .Store.new_key
      in
      ignore
        (Persist.Wal.append p2
           {
             Persist.Wal.base_key = k0;
             new_key = String.make 16 'f';
             ops = [ Delta.Delete 0 ];
           }
          : bool);
      let before = files () in
      let p3 = Persist.open_dir dir in
      let s3 = Store.create ~persist:p3 () in
      let rep = Mutate.replay s3 p3 in
      Alcotest.(check int) "three records" 3 rep.Mutate.records;
      Alcotest.(check int) "two applied" 2 rep.Mutate.applied;
      Alcotest.(check int) "contradicting record skipped" 1 rep.Mutate.skipped;
      Alcotest.(check (option string)) "its state not installed" None
        (Store.resolve s3 lands_on);
      Alcotest.(check (option string)) "its base not registered" (Some k2)
        (Store.resolve s3 k0);
      Alcotest.(check (option string)) "the name still at the last state"
        (Some k2) (Store.resolve s3 "mut");
      Alcotest.(check (list string)) "and no blob written" before (files ()))

(* Under a state dir a mutation's only write is its log record: one
   whole append, no blob, and — once the log exists — no new file in
   the directory. *)
let test_wal_record_only_write () =
  Test_persist.with_counters (fun () ->
      with_state_dir (fun dir ->
          let counter = Obs.Counter.value in
          let s = Store.create ~persist:(Persist.open_dir dir) () in
          ignore (Store.add s (dataset_of (synth ~n:40 ~m:3 ~seed:51))
                   : Store.loaded);
          (* A materialized skyline and a cached answer, the artifacts a
             mutation carries into its new generation, at a generation
             whose mutation has already created the log. *)
          let q = query ~algo:Protocol.Hd_rrms ~r:3 "mut" in
          let warm () = ignore (answer_of "warm" (Store.query s q) : string * bool) in
          warm ();
          ignore
            (must_mutate "first" (Store.mutate s ~dataset:"mut" [ Delta.Delete 0 ])
              : Store.mutated);
          warm ();
          let files () = List.sort compare (Array.to_list (Sys.readdir dir)) in
          let before = files () in
          let a0 = counter Persist.Metrics.wal_appends
          and w0 = counter Persist.Metrics.writes in
          ignore
            (must_mutate "second"
               (Store.mutate s ~dataset:"mut" [ Delta.Insert [| 0.9; 0.9; 0.1 |] ])
              : Store.mutated);
          Alcotest.(check int) "one record appended" 1
            (counter Persist.Metrics.wal_appends - a0);
          Alcotest.(check int) "no blob written" 0
            (counter Persist.Metrics.writes - w0);
          Alcotest.(check (list string)) "no file added" before (files ())))

(* A replayed generation's artifacts come back the way a cold
   dataset's do: a query the original process never asked at the final
   generation answers byte-identically to a cold store over the same
   rows, and writes the skyline blob once. *)
let test_wal_replay_cold_query () =
  with_state_dir (fun dir ->
      let m = 3 in
      let rows0 = synth ~n:60 ~m ~seed:81 in
      let rng = Rng.create 82 in
      let s1 = Store.create ~persist:(Persist.open_dir dir) () in
      ignore (Store.add s1 (dataset_of rows0) : Store.loaded);
      let muts1 = random_ops rng ~m ~len0:(Array.length rows0) 6 in
      let r1 = must_mutate "first" (Store.mutate s1 ~dataset:"mut" muts1) in
      let rows1 = apply_all ~m rows0 muts1 in
      let muts2 = random_ops rng ~m ~len0:(Array.length rows1) 6 in
      let r2 = must_mutate "second" (Store.mutate s1 ~dataset:"mut" muts2) in
      ignore (r1 : Store.mutated);
      let rows2 = apply_all ~m rows1 muts2 in
      let q = query ~algo:Protocol.Hd_greedy ~r:4 "mut" in
      let cold = Store.create () in
      ignore (Store.add cold (dataset_of rows2) : Store.loaded);
      let want, _ = answer_of "cold" (Store.query cold q) in
      Test_persist.with_counters (fun () ->
          let p2 = Persist.open_dir dir in
          let s2 = Store.create ~persist:p2 () in
          let rep = Mutate.replay s2 p2 in
          Alcotest.(check int) "two records applied" 2 rep.Mutate.applied;
          let skyline_blob =
            Filename.concat dir ("skyline-" ^ r2.Store.new_key ^ ".blob")
          in
          Alcotest.(check bool) "no skyline blob before the query" false
            (Sys.file_exists skyline_blob);
          let w0 = Obs.Counter.value Persist.Metrics.writes in
          let got, cached = answer_of "replayed" (Store.query s2 q) in
          Alcotest.(check bool) "solved, not rehydrated" false cached;
          Alcotest.(check string) "byte-identical to a cold store" want got;
          Alcotest.(check bool) "skyline blob written" true
            (Sys.file_exists skyline_blob);
          Alcotest.(check int) "the skyline and the answer, once each" 2
            (Obs.Counter.value Persist.Metrics.writes - w0)))

let with_fault mode f =
  Fun.protect
    ~finally:(fun () ->
      Persist.Fault.clear ();
      Persist.Fault.configure_from_env ())
    (fun () ->
      Persist.Fault.set mode;
      f ())

(* torn_write@1 armed just before a mutation lands on its log append:
   the record is half written and the mutation still installs in
   memory, with the new generation's dataset blob saved in the
   record's place.  The next process's scan counts the torn tail and
   replays the record before it; the next append of the process that
   tore it writes over the torn bytes, and a replay then applies every
   record but the torn one — the record after it starting from that
   dataset blob. *)
let test_wal_torn_append () =
  Test_persist.with_counters (fun () ->
      with_state_dir (fun dir ->
          let counter = Obs.Counter.value in
          let p1 = Persist.open_dir dir in
          let s1 = Store.create ~persist:p1 () in
          ignore (Store.add s1 (dataset_of (synth ~n:30 ~m:2 ~seed:41))
                   : Store.loaded);
          ignore
            (must_mutate "a" (Store.mutate s1 ~dataset:"mut" [ Delta.Delete 0 ])
              : Store.mutated);
          let e0 = counter Persist.Metrics.write_errors in
          let b =
            with_fault (Persist.Fault.Torn (Some 1)) (fun () ->
                must_mutate "b"
                  (Store.mutate s1 ~dataset:"mut"
                     [ Delta.Insert [| 0.3; 0.7 |] ]))
          in
          Alcotest.(check int) "torn append counted as a write error" 1
            (counter Persist.Metrics.write_errors - e0);
          Alcotest.(check int) "only the whole record counts as appended" 1
            (counter Persist.Metrics.wal_appends);
          Alcotest.(check bool) "the torn generation's dataset blob saved"
            true
            (Sys.file_exists
               (Filename.concat dir
                  ("dataset-" ^ b.Store.new_key ^ ".blob")));
          let t0 = counter Persist.Metrics.wal_torn in
          let p2 = Persist.open_dir dir in
          let rep = Mutate.replay (Store.create ~persist:p2 ()) p2 in
          Alcotest.(check int) "torn record not replayed" 1 rep.Mutate.records;
          Alcotest.(check int) "record before it applied" 1 rep.Mutate.applied;
          Alcotest.(check int) "wal_torn counts the torn tail" 1
            (counter Persist.Metrics.wal_torn - t0);
          let c =
            must_mutate "c"
              (Store.mutate s1 ~dataset:"mut" [ Delta.Insert [| 0.9; 0.1 |] ])
          in
          let q = query ~algo:Protocol.Hd_rrms ~r:3 "mut" in
          let want, _ = answer_of "original" (Store.query s1 q) in
          let t1 = counter Persist.Metrics.wal_torn in
          let p3 = Persist.open_dir dir in
          let s3 = Store.create ~persist:p3 () in
          let rep = Mutate.replay s3 p3 in
          Alcotest.(check int) "the append cut the torn bytes" 0
            (counter Persist.Metrics.wal_torn - t1);
          Alcotest.(check int) "every other record scanned" 2
            rep.Mutate.records;
          Alcotest.(check int) "and applied" 2 rep.Mutate.applied;
          Alcotest.(check (option string)) "final state resident"
            (Some c.Store.new_key)
            (Store.resolve s3 c.Store.new_key);
          let got, _ = answer_of "replayed" (Store.query s3 q) in
          Alcotest.(check string) "replayed state answers bit-identically"
            want got))

(* crash@3 in a daemon: load writes the dataset blob (1), the first
   insert appends its record (2), and the second insert dies inside its
   append (3) with SIGKILL's exit code.  A restart replays the one
   whole record and answers byte-identically to a daemon that only
   ever saw the first insert. *)
let test_wal_crash_mid_append () =
  Test_serve.with_csv ~n:40 ~m:3 ~seed:63 (fun csv ->
      with_state_dir (fun dir ->
          let args = Printf.sprintf "--state-dir %s" (Filename.quote dir) in
          let load =
            Printf.sprintf
              "{\"id\":1,\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv
          in
          let insert1 =
            "{\"id\":2,\"req\":\"insert\",\"dataset\":\"d\",\"values\":[0.5,0.5,0.5]}"
          in
          let insert2 =
            "{\"id\":3,\"req\":\"insert\",\"dataset\":\"d\",\"values\":[0.9,0.1,0.2]}"
          in
          let q =
            "{\"id\":4,\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3}"
          in
          let _, ref_lines = Test_persist.run_stdio [ load; insert1; q ] in
          let status, crash_lines =
            Test_persist.run_stdio ~env:"RRMS_SERVE_FAULT=crash@3" ~args
              [ load; insert1; insert2; q ]
          in
          (match status with
          | Unix.WEXITED 137 -> ()
          | Unix.WEXITED c ->
              Alcotest.fail (Printf.sprintf "crash@3 exited %d, wanted 137" c)
          | _ -> Alcotest.fail "crash@3 process not an exit");
          (* The four lines arrive as one burst; the first insert was
             journaled before the crash, so its reply (and the load's
             before it) must already have been sent. *)
          (match (crash_lines, ref_lines) with
          | [ loaded; inserted ], _ :: want_insert :: _ ->
              Alcotest.(check bool) "load reply sent before the crash" true
                (contains loaded "\"id\":1" && contains loaded "\"ok\":true");
              Alcotest.(check string) "journaled insert acknowledged"
                (Test_persist.strip_elapsed want_insert)
                (Test_persist.strip_elapsed inserted)
          | lines, _ ->
              Alcotest.failf
                "crash@3 sent %d reply lines, wanted the load and \
                 first-insert replies"
                (List.length lines));
          let err = Filename.temp_file "rrms_wal_crash" ".err" in
          Fun.protect
            ~finally:(fun () -> Sys.remove err)
            (fun () ->
              let status, lines =
                Test_persist.run_stdio ~stderr:err ~args
                  [ q; "{\"id\":5,\"req\":\"stats\"}" ]
              in
              Alcotest.(check bool) "restart exits cleanly" true
                (status = Unix.WEXITED 0);
              Alcotest.(check bool) "replays the whole record" true
                (contains
                   (Test_persist.read_file err)
                   "replayed mutation log: 1 records, 1 applied, 0 skipped");
              match (List.nth_opt ref_lines 2, lines) with
              | Some want, [ got; stats ] ->
                  Alcotest.(check string) "prefix replayed byte-identically"
                    (Test_persist.strip_elapsed want)
                    (Test_persist.strip_elapsed got);
                  Alcotest.(check bool) "the crash tore the log, not a blob"
                    true
                    (contains stats "\"rrms_serve_persist_wal_torn_total\":1");
                  Alcotest.(check bool) "no corrupt blob" true
                    (contains stats "\"scan_corrupt\":0")
              | _ -> Alcotest.fail "missing answer or stats line")))

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)
(* ------------------------------------------------------------------ *)

let serve_exe = Built.serve_exe

let run_stdio_session requests =
  let ic, oc =
    Unix.open_process (Printf.sprintf "%s --stdio 2>/dev/null" serve_exe)
  in
  List.iter
    (fun r ->
      output_string oc r;
      output_char oc '\n')
    requests;
  flush oc;
  close_out oc;
  let lines = ref [] in
  (try
     while true do
       match In_channel.input_line ic with
       | Some l -> lines := l :: !lines
       | None -> raise Exit
     done
   with Exit -> ());
  ignore (Unix.close_process (ic, oc) : Unix.process_status);
  List.rev !lines

let test_protocol_session () =
  Test_serve.with_csv ~n:40 ~m:3 ~seed:61 (fun csv ->
      let lines =
        run_stdio_session
          [
            Printf.sprintf
              "{\"id\":1,\"req\":\"load\",\"path\":%S,\"name\":\"d\"}" csv;
            "{\"id\":2,\"req\":\"insert\",\"dataset\":\"d\",\"values\":[0.5,0.5,0.5]}";
            "{\"id\":3,\"req\":\"upsert\",\"dataset\":\"d\",\"index\":40,\"values\":[0.9,0.9,0.9]}";
            "{\"id\":4,\"req\":\"delete\",\"dataset\":\"d\",\"index\":40}";
            "{\"id\":5,\"req\":\"mutate\",\"dataset\":\"d\",\"ops\":[{\"op\":\"insert\",\"values\":[0.2,0.8,0.4]},{\"op\":\"delete\",\"index\":0}]}";
            "{\"id\":6,\"req\":\"query\",\"dataset\":\"d\",\"algo\":\"hd-rrms\",\"r\":3}";
            "{\"id\":7,\"req\":\"delete\",\"dataset\":\"d\",\"index\":1000}";
            "{\"id\":8,\"req\":\"insert\",\"dataset\":\"ghost\",\"values\":[1,2,3]}";
            "{\"id\":9,\"req\":\"mutate\",\"dataset\":\"d\",\"ops\":[]}";
            "{\"id\":10,\"req\":\"stats\"}";
          ]
      in
      Alcotest.(check int) "one response per request" 10 (List.length lines);
      let line i = List.nth lines i in
      List.iteri
        (fun i gen ->
          Alcotest.(check bool)
            (Printf.sprintf "mutation %d ok at generation %d" (i + 2) gen)
            true
            (contains (line (i + 1))
               (Printf.sprintf "\"generation\":%d" gen)))
        [ 1; 2; 3; 4 ];
      Alcotest.(check bool) "mutated dataset answers queries" true
        (contains (line 5) "\"ok\":true");
      Alcotest.(check bool) "bad index is invalid_input" true
        (contains (line 6) "\"code\":\"invalid_input\"");
      Alcotest.(check bool) "unknown dataset" true
        (contains (line 7) "\"code\":\"unknown_dataset\"");
      Alcotest.(check bool) "empty batch is bad_request" true
        (contains (line 8) "\"code\":\"bad_request\"");
      Alcotest.(check bool) "stats reports the final generation" true
        (contains (line 9) "\"generation\":4"))

(* Mutations sent to the shard router must answer the documented
   read_only code — the workers hold read-only slices. *)
let test_router_read_only () =
  let rt = Shard.Router.create ~workers:[ "/nonexistent.sock" ] () in
  Fun.protect
    ~finally:(fun () -> Shard.Router.close rt)
    (fun () ->
      let session = Shard.Router.handler rt () in
      match
        session.Server.on_line
          "{\"id\":1,\"req\":\"insert\",\"dataset\":\"d\",\"values\":[1,2]}"
      with
      | `Reply r ->
          Alcotest.(check bool) "read_only code" true
            (contains r "\"code\":\"read_only\"");
          session.Server.on_close ()
      | `Flush _ -> Alcotest.fail "a refused mutation journals nothing to flush"
      | `Shutdown _ -> Alcotest.fail "mutation must not shut the session down")

(* --router with --state-dir is a usage error, rejected before any
   socket is opened. *)
let test_router_state_dir_rejected () =
  let err = Filename.temp_file "rrms_mut" ".err" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists err then Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf
             "%s --router --shard-socket /tmp/w0.sock --state-dir /tmp/sd \
              --stdio 2>%s </dev/null"
             serve_exe err)
      in
      Alcotest.(check bool) "usage error exit" true (code <> 0);
      let ic = open_in err in
      let text = In_channel.input_all ic in
      close_in ic;
      Alcotest.(check bool) "names the conflict" true
        (contains text "--state-dir"))

let suite =
  [
    Alcotest.test_case "store bit-identity (hd/greedy/cube)" `Quick
      test_store_bit_identity_hd;
    Alcotest.test_case "store bit-identity (2d family)" `Quick
      test_store_bit_identity_2d;
    Alcotest.test_case "delta-scoped cache survival" `Quick
      test_cache_survival;
    Alcotest.test_case "2d cache survival needs stable indices" `Quick
      test_cache_survival_2d;
    Alcotest.test_case "sequence-preserving mutate allocation" `Quick
      test_mutate_allocation;
    Alcotest.test_case "invalid batches rejected" `Quick
      test_empty_and_invalid_rejected;
    QCheck_alcotest.to_alcotest prop_apply_matches_reference;
    QCheck_alcotest.to_alcotest prop_update_skyline_matches_sfs;
    QCheck_alcotest.to_alcotest prop_carried_key_matches_scratch;
    Alcotest.test_case "wal replay" `Quick test_wal_replay;
    Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal replay base is own key" `Quick
      test_wal_replay_base_is_own_key;
    Alcotest.test_case "wal torn append" `Quick test_wal_torn_append;
    Alcotest.test_case "wal record is a mutation's only write" `Quick
      test_wal_record_only_write;
    Alcotest.test_case "wal replay then a cold query" `Quick
      test_wal_replay_cold_query;
    Alcotest.test_case "wal crash mid-append" `Quick test_wal_crash_mid_append;
    Alcotest.test_case "protocol session" `Quick test_protocol_session;
    Alcotest.test_case "router rejects mutations" `Quick
      test_router_read_only;
    Alcotest.test_case "router rejects --state-dir" `Quick
      test_router_state_dir_rejected;
  ]
