module Delta = Rrms_core.Delta

let ops_of_protocol ops =
  Array.to_list
    (Array.map
       (function
         | Protocol.Op_insert v -> Delta.Insert v
         | Protocol.Op_delete i -> Delta.Delete i
         | Protocol.Op_upsert (i, v) -> Delta.Upsert (i, v))
       ops)

let summary_json (r : Store.mutated) =
  Json.Obj
    ([
       ("key", Json.Str r.Store.new_key);
       ("old_key", Json.Str r.Store.old_key);
       ("generation", Json.int r.Store.generation);
       ("n", Json.int r.Store.n);
       ("m", Json.int r.Store.m);
       ("ops_applied", Json.int r.Store.ops_applied);
     ]
    @ (match r.Store.skyline_path with
      | Some p -> [ ("skyline_path", Json.Str p) ]
      | None -> [])
    @ [
        ("matrices_updated", Json.int r.Store.matrices_updated);
        ("matrices_dropped", Json.int r.Store.matrices_dropped);
        ("results_kept", Json.int r.Store.results_kept);
        ("results_evicted", Json.int r.Store.results_evicted);
      ])

(* ------------------------------------------------------------------ *)
(* WAL replay                                                          *)
(* ------------------------------------------------------------------ *)

type replayed = { records : int; applied : int; skipped : int }

(* Rehydrate the mutation history at startup.  Each record names its
   base dataset by content key: if the base is not already resident
   (from a previous record's chain), its dataset blob is rehydrated and
   registered first.  The record's stored [new_key] is an end-to-end
   integrity check — the replayed mutation must land on the exact
   content hash the original process computed, else the record (and
   anything building on it) is counted as skipped rather than installing
   a state the original process never had. *)
let replay store persist =
  let applied = ref 0 and skipped = ref 0 in
  let records =
    Persist.Wal.replay persist
      (fun { Persist.Wal.base_key; new_key; ops } ->
        try
          let resolved =
            match Store.resolve store base_key with
            | Some _ -> true
            | None -> (
                match Persist.load_dataset persist ~key:base_key with
                | Some d ->
                    ignore (Store.add store d);
                    true
                | None -> false)
          in
          if not resolved then incr skipped
          else
            match
              Store.mutate ~journal:false store ~dataset:base_key ops
            with
            | Ok r when r.Store.new_key = new_key -> incr applied
            | Ok _ | Error _ -> incr skipped
        with _ -> incr skipped)
  in
  { records; applied = !applied; skipped = !skipped }
