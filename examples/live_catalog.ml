(* Live catalog: maintaining a compact maxima set under updates.

   Run with:  dune exec examples/live_catalog.exe

   A product catalog receives a stream of new listings (2D: rating vs
   value-for-money) and occasionally retires old ones, while a landing
   page keeps showing an r-item regret-minimizing selection.  The
   catalog lives in an in-process query store: every update is a
   [Store.mutate] batch, whose skyline and cached answers are maintained
   incrementally, and the landing page is a [2d-exact] [Store.query].  A
   batch of arrivals that leaves the skyline as it was keeps the cached
   answer; one that reaches the skyline, or a retirement that moves the
   rows the answer cites, is solved again. *)

module Store = Rrms_serve.Store
module Json = Rrms_serve.Json
module Protocol = Rrms_serve.Protocol
module Delta = Rrms_core.Delta
module Rng = Rrms_rng.Rng

let () =
  let rng = Rng.create 31 in
  let r = 4 in
  let listing () =
    let rating = Rng.float rng 5. in
    (* Cheaper items trade off against rating. *)
    let value =
      Float.max 0.
        (10. -. (1.5 *. rating) +. Rng.gaussian rng ~mean:0. ~stddev:1.)
    in
    [| rating; value |]
  in
  let store = Store.create () in
  (* A store table is never empty: open the catalog with a first batch
     of listings. *)
  let batch = 10 in
  ignore
    (Store.add store
       (Rrms_dataset.Dataset.create ~name:"catalog"
          ~attributes:[| "rating"; "value" |]
          (Array.init batch (fun _ -> listing ())))
      : Store.loaded);
  (* Materialize the skyline once, so every later batch maintains it
     incrementally and can prove the cached answer still holds. *)
  (match Store.pin store "catalog" with
  | Some h ->
      ignore (Store.skyline_of store h : int array);
      Store.unpin store h
  | None -> failwith "catalog not resident");
  let page () =
    match
      Store.query store
        {
          Protocol.dataset = "catalog";
          algo = Protocol.A2d_exact;
          r;
          gamma = 4;
          timeout = None;
          max_cells = None;
          max_probes = None;
          use_cache = true;
          explain = false;
        }
    with
    | Ok o -> o
    | Error _ -> failwith "landing page query refused"
  in
  let member name conv (o : Store.outcome) =
    Option.get (Option.bind (Json.member name o.result) conv)
  in
  let regret = member "regret" Json.num in
  let size = member "size" Json.int_ in
  let paths = Hashtbl.create 3 in
  let batches = ref 0 and kept = ref 0 in
  let update ops =
    match Store.mutate store ~dataset:"catalog" ops with
    | Error _ -> failwith "catalog update refused"
    | Ok res ->
        incr batches;
        kept := !kept + res.Store.results_kept;
        Option.iter
          (fun path ->
            Hashtbl.replace paths path
              (1 + Option.value (Hashtbl.find_opt paths path) ~default:0))
          res.Store.skyline_path;
        (* The landing page refreshes after every batch. *)
        page ()
  in
  let arrivals = 5_000 in
  let listed = ref batch in
  ignore (page () : Store.outcome);
  while !listed < arrivals do
    let front = update (List.init batch (fun _ -> Delta.Insert (listing ()))) in
    listed := !listed + batch;
    if !listed mod 1000 = 0 then
      Printf.printf
        "after %4d arrivals: front page of %d items, worst-case regret %.4f \
         (answers kept so far: %d of %d batches)\n"
        !listed (size front) (regret front) !kept !batches
  done;

  (* Retire 1000 random listings, a batch at a time. *)
  let live = ref arrivals in
  let front = ref (page ()) in
  for _ = 1 to 1000 / batch do
    let ops =
      List.init batch (fun k -> Delta.Delete (Rng.int rng (!live - k)))
    in
    live := !live - batch;
    front := update ops
  done;
  Printf.printf "after retiring 1000 listings: %d live, regret %.4f\n" !live
    (regret !front);
  Printf.printf "skyline upkeep per batch: %s\n"
    (String.concat ", "
       (List.map
          (fun p ->
            Printf.sprintf "%s %d" p
              (Option.value (Hashtbl.find_opt paths p) ~default:0))
          [ "remap"; "merge"; "rebuild" ]));

  (* Sanity: the maintained answer equals a from-scratch solve. *)
  let rows =
    match Store.pin store "catalog" with
    | Some h ->
        let rows = Store.pinned_rows h in
        Store.unpin store h;
        rows
    | None -> failwith "catalog not resident"
  in
  assert (Array.length rows = !live);
  let scratch = Rrms_core.Rrms2d.solve_exact rows ~r in
  Printf.printf "from-scratch check: %.6f vs maintained %.6f\n"
    scratch.Rrms_core.Rrms2d.regret (regret !front);
  assert (Float.abs (scratch.Rrms_core.Rrms2d.regret -. regret !front) < 1e-9);
  Printf.printf
    "amortization: %d of %d update batches kept the cached answer (%.1f%%)\n"
    !kept !batches
    (100. *. float_of_int !kept /. float_of_int !batches)
