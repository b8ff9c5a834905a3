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
   base dataset by content key.  Only a resident entry's own key is
   that base: a key a mutation has moved on from still resolves, as an
   alias to the mutated entry, and replaying onto that would build a
   state the original process never had.  Any other base is rehydrated
   from its dataset blob.  The record's stored [new_key] is checked
   before anything is installed — the replayed mutation must land on
   the exact content hash the original process computed, else the
   record is skipped and the store and the directory keep what they
   had.  A rehydrated base is therefore tried in a private store first:
   registering it would re-point its dataset name, which a skipped
   record must not do. *)
let replay store persist =
  let applied = ref 0 and skipped = ref 0 in
  let lands ~base_key ~new_key ops d =
    let trial = Store.create ~domains:1 () in
    ignore (Store.add trial d : Store.loaded);
    Result.is_ok (Store.mutate ~expect:new_key trial ~dataset:base_key ops)
  in
  let records =
    Persist.Wal.replay persist
      (fun { Persist.Wal.base_key; new_key; ops } ->
        try
          let resolved =
            Store.resolve store base_key = Some base_key
            ||
            match Persist.load_dataset persist ~key:base_key with
            | Some d when lands ~base_key ~new_key ops d ->
                ignore (Store.add store d : Store.loaded);
                true
            | Some _ | None -> false
          in
          if not resolved then incr skipped
          else
            match
              Store.mutate ~expect:new_key store ~dataset:base_key ops
            with
            | Ok _ -> incr applied
            | Error _ -> incr skipped
        with _ -> incr skipped)
  in
  { records; applied = !applied; skipped = !skipped }
