module Guard = Rrms_guard.Guard
module Obs = Rrms_obs.Obs
module Dataset = Rrms_dataset.Dataset
module Skyline = Rrms_skyline.Skyline
module Discretize = Rrms_core.Discretize
module Regret_matrix = Rrms_core.Regret_matrix
module Hd_rrms = Rrms_core.Hd_rrms
module Hd_greedy = Rrms_core.Hd_greedy
module Rrms2d = Rrms_core.Rrms2d
module Sweepline = Rrms_core.Sweepline
module Greedy = Rrms_core.Greedy
module Cube = Rrms_core.Cube
module Delta = Rrms_core.Delta
module Mrst = Rrms_core.Mrst

(* The string-keyed tables a request consults: [String.equal], not the
   polymorphic [compare] of a plain [Hashtbl]. *)
module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Metrics = struct
  let c ?(deterministic = true) name help =
    Obs.Counter.make ~deterministic ~help name

  let datasets_loaded =
    c "rrms_serve_datasets_loaded_total" "datasets materialized in the store"

  let dataset_hits =
    c "rrms_serve_dataset_hits_total"
      "loads answered by an existing store entry (content-hash match)"

  let evictions = c "rrms_serve_evictions_total" "store entries freed"

  let skyline_hits = c "rrms_serve_skyline_hits_total" "skyline artifact hits"

  let skyline_misses =
    c "rrms_serve_skyline_misses_total" "skyline artifacts computed"

  let hull_hits = c "rrms_serve_hull_hits_total" "2D hull context hits"
  let hull_misses = c "rrms_serve_hull_misses_total" "2D hull contexts built"
  let matrix_hits = c "rrms_serve_matrix_hits_total" "regret-matrix hits"

  let matrix_misses =
    c "rrms_serve_matrix_misses_total" "regret matrices built from scratch"

  let matrix_derived =
    c "rrms_serve_matrix_derived_total"
      "regret matrices derived from a cached finer grid (column selection)"

  let result_hits = c "rrms_serve_result_hits_total" "result-cache hits"

  let result_misses =
    c "rrms_serve_result_misses_total" "result-cache misses (solver ran)"

  let mutations = c "rrms_serve_mutations_total" "mutation batches applied"

  let mutation_ops =
    c "rrms_serve_mutation_ops_total" "individual mutation ops applied"

  let results_carried =
    c "rrms_serve_results_carried_total"
      "cached results kept warm across a mutation by the delta-scoped \
       invalidation proof"

  let results_invalidated =
    c "rrms_serve_results_invalidated_total"
      "cached results evicted by a mutation"

  (* One per [pin]: the query paths resolve-and-pin exactly once per
     request, so a batch of k items over one dataset adds 1 here where k
     single queries add k — the amortization the batch request exists
     for, made assertable through stats. *)
  let resolves =
    c "rrms_serve_dataset_resolves_total"
      "dataset entry resolutions performed by query paths"

  (* Shedding depends on timing and concurrency, never on the workload
     alone, so everything admission-related is non-deterministic. *)
  let overloaded =
    c ~deterministic:false "rrms_serve_overloaded_total"
      "queries shed because the admission queue was full"

  let queue_wait =
    Obs.Floatc.make
      ~help:"seconds requests spent waiting for an admission slot"
      "rrms_serve_queue_wait_seconds_total"

  let deadline_exceeded =
    c ~deterministic:false "rrms_serve_deadline_exceeded_total"
      "queries whose end-to-end deadline (including admission queue \
       wait) expired before the solver started"

  let drained =
    c ~deterministic:false "rrms_serve_drained_total"
      "queries refused because the store was draining for shutdown"

  let inflight =
    Obs.Gauge.make ~deterministic:false
      ~help:"solves currently holding an admission slot" "rrms_serve_inflight"

  let queue_depth =
    Obs.Gauge.make ~deterministic:false
      ~help:"solves waiting for an admission slot" "rrms_serve_queue_depth"
end

(* ------------------------------------------------------------------ *)
(* Content hashing                                                    *)
(* ------------------------------------------------------------------ *)

(* FNV-1a, 64-bit: cheap, dependency-free and stable across runs —
   exactly what a content-addressed cache key needs (it is not
   collision-resistant against adversaries; the store serves trusted
   local clients).  Hashed: m, n, attribute names, then the content, so
   any observable dataset difference — including a normalize or
   lenient-drop difference — changes the key. *)
let fnv_prime = 0x100000001b3L

let hash_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let hash_int64 h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := hash_byte !h (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
  done;
  !h

let hash_string h s =
  let h = String.fold_left (fun h c -> hash_byte h (Char.code c)) h s in
  hash_byte h 0xff

(* Rows are mixed on native ints: per-byte FNV boxes an Int64 multiply
   per byte, which at ~1M boxed operations per table would put
   milliseconds on every load.  A multiply-xor round gives the same
   guarantees the comment above promises — deterministic, stable across
   runs on 64-bit platforms, not adversarial-proof — at a fraction of
   the cost.  It is a bijection in [h] for a fixed [x] and does not
   commute, so a chain of rounds is order-sensitive. *)
let[@inline] mix h x =
  let h = (h lxor x) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* A row's digest: two rounds per cell over its IEEE bits. *)
let row_digest (p : Rrms_geom.Vec.t) =
  let h = ref 0x27D4EB2F165667C5 in
  for j = 0 to Array.length p - 1 do
    let bits = Int64.bits_of_float (Array.unsafe_get p j) in
    h :=
      mix
        (mix !h (Int64.to_int bits))
        (Int64.to_int (Int64.shift_right_logical bits 32))
  done;
  !h

let digests_of rows =
  let n = Array.length rows in
  let dg = Array.make n 0 in
  for i = 0 to n - 1 do
    dg.(i) <- row_digest rows.(i)
  done;
  dg

(* The content key: the FNV header, then the row digests chained in row
   order.  A pure function of the rows in order, so a mutated table
   whose digests were carried (only fresh rows digested) keys exactly
   like the same rows loaded from scratch — cached answers cite row
   indices, so the key must be order-sensitive. *)
let key_header ~attributes ~n =
  let h = ref 0xcbf29ce484222325L in
  h := hash_int64 !h (Int64.of_int (Array.length attributes));
  h := hash_int64 !h (Int64.of_int n);
  Array.iter (fun a -> h := hash_string !h a) attributes;
  Int64.to_int !h

let key_of_chain acc = Printf.sprintf "%016Lx" (Int64.of_int acc)

let key_of_digests ~attributes (digests : int array) =
  let acc = ref (key_header ~attributes ~n:(Array.length digests)) in
  for i = 0 to Array.length digests - 1 do
    acc := mix !acc (Array.unsafe_get digests i)
  done;
  key_of_chain !acc

(* The digests and key of a mutated table in one pass over the new
   rows in order: a carried run copies its digests from [digests0] and
   a fresh row is digested, each mixed into the chain as it lands, so
   the key is [key_of_digests] of the result. *)
let carried_key ~attributes digests0 (plan : Delta.plan) =
  let rows = plan.Delta.rows and runs = plan.Delta.runs in
  let n = Array.length rows in
  let dg = Array.make n 0 in
  let acc = ref (key_header ~attributes ~n) in
  let r = ref 0 and j = ref 0 in
  while !j < n do
    if !r < Array.length runs && runs.(!r).Delta.new_start = !j then begin
      let { Delta.old_start; len; _ } = runs.(!r) in
      for k = 0 to len - 1 do
        let d = Array.unsafe_get digests0 (old_start + k) in
        Array.unsafe_set dg (!j + k) d;
        acc := mix !acc d
      done;
      j := !j + len;
      incr r
    end
    else begin
      (* [runs] and [plan.fresh] partition the new indices: a row no
         run starts at is fresh *)
      let d = row_digest rows.(!j) in
      dg.(!j) <- d;
      acc := mix !acc d;
      incr j
    end
  done;
  (dg, key_of_chain !acc)

(* ------------------------------------------------------------------ *)
(* State                                                              *)
(* ------------------------------------------------------------------ *)

(* A resident regret matrix and the warm-kernel states pooled on it: an
   MRST probe state and an HD-GREEDY scratch, each built over this
   matrix.  A query takes a state out of the record under the entry
   lock and puts it back into the same record, so a concurrent query on
   the matrix builds its own meanwhile.  A mutation that replaces the
   matrix installs a new record: a state put back after that lands in a
   record nothing reaches. *)
type resident = {
  matrix : Regret_matrix.t;
  mutable inc : Mrst.Incremental.t option;
  mutable scratch : Hd_greedy.scratch option;
}

let resident matrix = { matrix; inc = None; scratch = None }

(* A result-cache entry: the answer and its wire bytes, encoded once
   when the entry is made (fresh solve, rehydrate, or a mutation's
   remap), so a hit splices [text] instead of printing [json] again. *)
type answer = { json : Json.t; text : string }

let answer json = { json; text = Json.to_string json }

type entry = {
  (* [key]/[dataset]/[digests] are rebound wholesale by [mutate] (the
     row array itself is never mutated in place), under [t.lock] +
     [e_lock]; readers outside [t.lock] snapshot them under [e_lock] so
     a solve works on one consistent generation throughout. *)
  mutable key : string;
  mutable dataset : Dataset.t;  (* its row array is the entry's only one *)
  mutable digests : int array;  (* [row_digest] of each row, row order *)
  e_lock : Mutex.t;  (* guards the artifact fields below *)
  mu_lock : Mutex.t;
      (* serializes mutations on this entry; taken before [t.lock] /
         [e_lock] and never the other way, so it cannot deadlock with
         the query paths *)
  mutable generation : int;
      (* bumped by every mutation; lets a solve that raced a mutation
         detect that its answer belongs to a previous generation *)
  mutable skyline : int array option;
  mutable hull : Rrms2d.ctx option;
  mutable matrices : (int * resident) list;  (* keyed by γ *)
  results : answer Stbl.t;  (* Protocol.cache_key → result *)
  (* NOT guarded by [e_lock]: [refs] is read and written only under
     [t.lock], together with the entry tables it keeps consistent — a
     refcount that reaches zero must atomically disappear from
     [t.entries], which [e_lock] cannot arrange. *)
  mutable refs : int;
}

type t = {
  domains : int;
  max_inflight : int;
  max_queue : int;
  persist : Persist.t option;  (* durable artifact cache, when --state-dir *)
  draining : bool Atomic.t;  (* set during graceful shutdown *)
  lock : Mutex.t;  (* guards entries, aliases and the admission state *)
  cond : Condition.t;
  entries : entry Stbl.t;  (* content hash → entry *)
  aliases : string Stbl.t;  (* dataset name → content hash *)
  mutable inflight : int;
  mutable queued : int;
}

let with_lock = Mutex.protect

let create ?domains ?(max_inflight = 4) ?(max_queue = 16) ?persist () =
  if max_inflight < 1 then
    Guard.Error.invalid_input "Store.create: max_inflight must be >= 1";
  if max_queue < 0 then
    Guard.Error.invalid_input "Store.create: max_queue must be >= 0";
  let domains =
    match domains with
    | Some d when d >= 1 -> d
    | Some _ -> Guard.Error.invalid_input "Store.create: domains must be >= 1"
    | None -> Rrms_parallel.Pool.default_size ()
  in
  {
    domains;
    max_inflight;
    max_queue;
    persist;
    draining = Atomic.make false;
    lock = Mutex.create ();
    cond = Condition.create ();
    entries = Stbl.create 16;
    aliases = Stbl.create 16;
    inflight = 0;
    queued = 0;
  }

(* ------------------------------------------------------------------ *)
(* Load / release                                                     *)
(* ------------------------------------------------------------------ *)

type loaded = {
  key : string;
  dataset_name : string;
  n : int;
  m : int;
  refs : int;
  already_loaded : bool;
  warnings : int;
}

(* Register an in-memory dataset: join the existing entry when the
   content hash is already resident, create one otherwise.  [load] and
   [add] are both thin wrappers over this. *)
let register t ~warnings d =
  let digests = digests_of (Dataset.shared_rows d) in
  let key = key_of_digests ~attributes:(Dataset.attributes d) digests in
  let r =
    with_lock t.lock (fun () ->
      match Stbl.find_opt t.entries key with
      | Some e ->
          e.refs <- e.refs + 1;
          Obs.Counter.incr Metrics.dataset_hits;
          (* The alias follows the newest load even on a hit, so two
             names for identical content both resolve. *)
          Stbl.replace t.aliases (Dataset.name d) key;
          {
            key;
            dataset_name = Dataset.name e.dataset;
            n = Dataset.size e.dataset;
            m = Dataset.dim e.dataset;
            refs = e.refs;
            already_loaded = true;
            warnings;
          }
      | None ->
          let e =
            {
              key;
              dataset = d;
              digests;
              e_lock = Mutex.create ();
              mu_lock = Mutex.create ();
              generation = 0;
              skyline = None;
              hull = None;
              matrices = [];
              results = Stbl.create 16;
              refs = 1;
            }
          in
          Stbl.replace t.entries key e;
          Stbl.replace t.aliases (Dataset.name d) key;
          Obs.Counter.incr Metrics.datasets_loaded;
          {
            key;
            dataset_name = Dataset.name d;
            n = Dataset.size d;
            m = Dataset.dim d;
            refs = 1;
            already_loaded = false;
            warnings;
          })
  in
  (* Spill the dataset outside the store lock: the blob is provenance
     for the artifacts keyed by this hash, and the write must not stall
     other sessions. *)
  if not r.already_loaded then
    Option.iter (fun p -> Persist.save_dataset p ~key:r.key d) t.persist;
  r

(* Round-robin sharding: member [s] of [count] shards owns the global
   rows ≡ s (mod count) in ascending order, so shard-local row [l] is
   global row [s + l·count].  A worker's slice ([load ?shard]) and the
   router's local→global map both come from these two functions, so
   they agree bit-for-bit. *)
let shard_global ~shard ~shards l = shard + (l * shards)

let shard_rows ~shard ~shards n =
  if shards < 1 || shard < 0 || shard >= shards then
    Guard.Error.invalid_input "Store.shard_rows: bad shard index";
  Array.init
    (max 0 ((n - shard + shards - 1) / shards))
    (shard_global ~shard ~shards)

let shard_slice d = function
  | None -> d
  | Some (shard, shards) ->
      let rows = shard_rows ~shard ~shards (Dataset.size d) in
      if Array.length rows = 0 then
        Guard.Error.invalid_input
          "Store.load: shard slice is empty (n <= shard index)";
      Dataset.select d rows

let load t ?name ?(normalize = false) ?(lenient = false) ?shard path =
  let mode = if lenient then Dataset.Lenient else Dataset.Strict in
  (* A path that cannot be opened or read is bad input, not a fault.
     An open error names the path already; a read error does not. *)
  let d, warns =
    try Dataset.of_csv_report ?name ~mode path
    with Sys_error msg ->
      Guard.Error.invalid_input
        (if String.starts_with ~prefix:path msg then msg
         else path ^ ": " ^ msg)
  in
  let d = if normalize then Dataset.normalize d else d in
  let d = shard_slice d shard in
  register t ~warnings:(List.length warns) d

let add t d = register t ~warnings:0 d

(* Resolve a key-or-alias under [t.lock]. *)
let find_locked t handle =
  match Stbl.find_opt t.entries handle with
  | Some e -> Some e
  | None -> (
      match Stbl.find_opt t.aliases handle with
      | Some key -> Stbl.find_opt t.entries key
      | None -> None)

type release =
  | Not_loaded
  | Released of { key : string; remaining : int; freed : bool }

(* Drop [e] from the tables, under [t.lock].  Callers have established
   that [e.refs] reached zero and that [e] is still the resident entry
   for its key — freeing by key alone would be wrong: the key could
   since have been re-bound to a fresh entry of identical content, and
   decrementing or removing {e that} entry is exactly the cross-shard
   refcount race this store had. *)
let free_locked t (e : entry) =
  Stbl.remove t.entries e.key;
  let dead =
    Stbl.fold
      (fun a k acc -> if k = e.key then a :: acc else acc)
      t.aliases []
  in
  List.iter (Stbl.remove t.aliases) dead;
  Obs.Counter.incr Metrics.evictions

let release t handle =
  with_lock t.lock (fun () ->
      match find_locked t handle with
      | None -> Not_loaded
      | Some e ->
          (* max 0: resident entries always hold at least one reference,
             but the clamp makes double-release idempotent instead of an
             underflow that frees someone else's pin. *)
          e.refs <- max 0 (e.refs - 1);
          if e.refs = 0 then begin
            free_locked t e;
            Released { key = e.key; remaining = 0; freed = true }
          end
          else Released { key = e.key; remaining = e.refs; freed = false })

let session_release_all t keys = List.iter (fun k -> ignore (release t k)) keys

let resolve t handle =
  with_lock t.lock (fun () ->
      Option.map (fun (e : entry) -> e.key) (find_locked t handle))

(* A pin is a temporary reference taken by a query path: resolve and
   increment under one [t.lock] hold, so the entry cannot be freed
   between the lookup and the bump.  The pre-pin code resolved the entry
   and then used it unprotected — a concurrent release (another session,
   another shard) could free it mid-solve, and with several sessions
   racing their releases the refcount could underflow.  Everything that touches
   an entry outside [t.lock] must hold a pin for the duration. *)
type handle = entry

let pin t name =
  with_lock t.lock (fun () ->
      match find_locked t name with
      | None -> None
      | Some e ->
          e.refs <- e.refs + 1;
          Obs.Counter.incr Metrics.resolves;
          Some e)

let unpin t (e : handle) =
  with_lock t.lock (fun () ->
      e.refs <- max 0 (e.refs - 1);
      if e.refs = 0 then
        (* Physical-equality check: free only if this exact entry is
           still resident (see [free_locked]). *)
        match Stbl.find_opt t.entries e.key with
        | Some resident when resident == e -> free_locked t e
        | _ -> ())

(* Pinned-entry accessors snapshot under [e_lock]: a concurrent
   mutation rebinds these fields atomically, so one accessor call
   returns one generation's value. *)
let pinned_key (e : handle) = with_lock e.e_lock (fun () -> e.key)

let pinned_dims (e : handle) =
  with_lock e.e_lock (fun () ->
      (Dataset.size e.dataset, Dataset.dim e.dataset))

let rows_of (e : entry) = Dataset.shared_rows e.dataset
let pinned_rows (e : handle) = with_lock e.e_lock (fun () -> rows_of e)
let pinned_dataset (e : handle) = with_lock e.e_lock (fun () -> e.dataset)
let pinned_generation (e : handle) = with_lock e.e_lock (fun () -> e.generation)

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)
(* ------------------------------------------------------------------ *)

let with_admission t f =
  let admitted =
    with_lock t.lock (fun () ->
        if t.inflight < t.max_inflight then begin
          t.inflight <- t.inflight + 1;
          Obs.Gauge.set_int Metrics.inflight t.inflight;
          true
        end
        else if t.queued >= t.max_queue then false
        else begin
          t.queued <- t.queued + 1;
          Obs.Gauge.set_int Metrics.queue_depth t.queued;
          (* The wait lands in a float counter, which tees into any
             bound request context — that is where the access log's
             queue_wait_ms comes from. *)
          let w0 = Unix.gettimeofday () in
          while t.inflight >= t.max_inflight do
            Condition.wait t.cond t.lock
          done;
          Obs.Floatc.add Metrics.queue_wait (Unix.gettimeofday () -. w0);
          t.queued <- t.queued - 1;
          Obs.Gauge.set_int Metrics.queue_depth t.queued;
          t.inflight <- t.inflight + 1;
          Obs.Gauge.set_int Metrics.inflight t.inflight;
          true
        end)
  in
  if not admitted then begin
    Obs.Counter.incr Metrics.overloaded;
    Error `Overloaded
  end
  else
    Fun.protect
      ~finally:(fun () ->
        with_lock t.lock (fun () ->
            t.inflight <- t.inflight - 1;
            Obs.Gauge.set_int Metrics.inflight t.inflight;
            (* One slot freed can admit one waiter, but broadcast keeps
               the gate correct if max_inflight ever changes shape. *)
            Condition.broadcast t.cond))
      (fun () -> Ok (f ()))

let admission_state t = with_lock t.lock (fun () -> (t.inflight, t.queued))

(* ------------------------------------------------------------------ *)
(* Artifacts                                                          *)
(* ------------------------------------------------------------------ *)

(* Lock order everywhere: [t.lock] strictly before [e.e_lock].
   Artifact builds run under the entry lock, so concurrent sessions
   querying the same dataset serialize the build and every one of them
   reuses the single copy — the whole point.

   [refs] belongs to [t.lock], not [e_lock] (see the entry type): any
   use of an entry outside [t.lock] must hold a pin, and frees check
   physical equality against the resident entry so a re-bound key is
   never touched.  The router's worker fan-out runs pinned but outside
   every store lock. *)

let skyline_locked t e =
  match e.skyline with
  | Some sky ->
      Obs.Counter.incr Metrics.skyline_hits;
      sky
  | None -> (
      (* Disk before recompute: a restarted daemon finds the previous
         process's skyline under the same content hash.  Rehydration is
         neither a (memory) hit nor a miss — it lands in
         rrms_serve_persist_rehydrated_total instead, keeping the
         no-recompute counter contract intact for memory-only stores. *)
      let rehydrated =
        match t.persist with
        | Some p -> Persist.load_skyline p ~key:e.key
        | None -> None
      in
      match rehydrated with
      | Some sky ->
          e.skyline <- Some sky;
          sky
      | None ->
          Obs.Counter.incr Metrics.skyline_misses;
          let sky = Skyline.sfs ~domains:t.domains (rows_of e) in
          e.skyline <- Some sky;
          Option.iter (fun p -> Persist.save_skyline p ~key:e.key sky) t.persist;
          sky)

let hull_locked e =
  match e.hull with
  | Some ctx ->
      Obs.Counter.incr Metrics.hull_hits;
      ctx
  | None ->
      Obs.Counter.incr Metrics.hull_misses;
      let ctx = Rrms2d.make_ctx (rows_of e) in
      e.hull <- Some ctx;
      ctx

(* The γ-matrix for [e], in preference order: cached at γ → derived by
   column selection from a cached γ' > γ whose shared angles are
   bit-identical (Discretize.subgrid_indices) → built from scratch.
   Matrices are never persisted: rebuilding one from the (persisted)
   skyline is cheaper than reading it back.  Nor is the direction grid
   cached: a pure function of (γ, m), it computes in a small fraction
   of the matrix build that needs it. *)
let matrix_locked t e ~sky ~m ~gamma ~guard =
  match List.assoc_opt gamma e.matrices with
  | Some rm ->
      Obs.Counter.incr Metrics.matrix_hits;
      rm
  | None ->
      let derived =
        List.find_map
          (fun (g, rm) ->
            if g <= gamma then None
            else
              Option.map
                (Regret_matrix.select_cols rm.matrix)
                (Discretize.subgrid_indices ~gamma_sub:gamma ~gamma:g ~m))
          e.matrices
      in
      let mat =
        match derived with
        | Some mat ->
            Obs.Counter.incr Metrics.matrix_derived;
            mat
        | None ->
            Obs.Counter.incr Metrics.matrix_misses;
            let funcs = Discretize.grid ~gamma ~m in
            let rows = rows_of e in
            let sky_points = Array.map (fun i -> rows.(i)) sky in
            Regret_matrix.build ~domains:t.domains ~guard ~funcs sky_points
      in
      let rm = resident mat in
      e.matrices <- (gamma, rm) :: e.matrices;
      rm

(* ------------------------------------------------------------------ *)
(* Shard hooks                                                        *)
(* ------------------------------------------------------------------ *)

(* The router merges its workers' skylines (Skyline.merge_partitions)
   and installs the result here; the ordinary [query] path then builds
   the matrix and runs [solve_prepared] exactly as it would over its own
   skyline — the routed answer is byte-identical to the unsharded one
   because it literally is the same code path on bit-identical
   inputs. *)

let skyline_of t (e : handle) = with_lock e.e_lock (fun () -> skyline_locked t e)

let artifacts_cached (e : handle) ~gamma =
  with_lock e.e_lock (fun () ->
      (e.skyline <> None, List.mem_assoc gamma e.matrices))

let preload_skyline (e : handle) sky =
  if Array.length sky = 0 then
    Guard.Error.invalid_input "Store.preload_skyline: empty skyline";
  with_lock e.e_lock (fun () ->
      let n = Dataset.size e.dataset in
      Array.iter
        (fun i ->
          if i < 0 || i >= n then
            Guard.Error.invalid_input "Store.preload_skyline: index out of range")
        sky;
      if e.skyline = None then e.skyline <- Some sky)

(* ------------------------------------------------------------------ *)
(* Query                                                              *)
(* ------------------------------------------------------------------ *)

let ints arr = Json.Arr (Array.to_list (Array.map Json.int arr))

let quality_fields q =
  [
    ("quality", Json.Str (Guard.describe q));
    ("degraded", Json.Bool (not (Guard.is_exact q)));
  ]

(* The front half HD-RRMS and HD-GREEDY share, in one lock hold: the
   skyline, the γ the cell cap allows, the matrix record at that γ, and
   the warm state [take] moves out of the record, all of one
   generation. *)
let hd_prepare t e ~guard ~m (q : Protocol.query) take =
  with_lock e.e_lock (fun () ->
      let sky = skyline_locked t e in
      let gamma_used, shrink =
        Discretize.shrink_gamma ~max_cells:q.max_cells ~rows:(Array.length sky)
          ~gamma:q.gamma ~m
      in
      let rm = matrix_locked t e ~sky ~m ~gamma:gamma_used ~guard in
      (sky, gamma_used, shrink, rm, take rm))

let hd_cost sky ~gamma_used rm =
  [
    ("s", Json.int (Array.length sky));
    ("gamma_used", Json.int gamma_used);
    ( "cells",
      Json.int (Regret_matrix.rows rm.matrix * Regret_matrix.cols rm.matrix) );
  ]

let solve_query t e ~guard (q : Protocol.query) =
  let m = Dataset.dim e.dataset in
  match q.algo with
  | Protocol.Hd_rrms ->
      (* The pooled probe state's bitsets are reusable across queries
         (any starting threshold is fine), so a warm search pays only
         for the cells its probes cross. *)
      let sky, gamma_used, shrink, rm, pooled =
        hd_prepare t e ~guard ~m q (fun rm ->
            let inc = rm.inc in
            rm.inc <- None;
            inc)
      in
      let inc =
        match pooled with
        | Some i -> i
        | None -> Mrst.Incremental.create rm.matrix
      in
      let res =
        Hd_rrms.solve_prepared ~guard ~skyline:sky ~gamma_used ~m ~inc
          rm.matrix ~r:q.r
      in
      (* A budget failure above drops the state; the next query
         rebuilds. *)
      with_lock e.e_lock (fun () -> rm.inc <- Some inc);
      let quality = Guard.degrade_first res.Hd_rrms.quality shrink in
      ( Json.Obj
          ([
             ("algo", Json.Str "hd-rrms");
             ("selected", ints res.Hd_rrms.selected);
             ("size", Json.int (Array.length res.Hd_rrms.selected));
             ("eps_min", Json.float res.Hd_rrms.eps_min);
             ("discretized_regret", Json.float res.Hd_rrms.discretized_regret);
             ("guarantee", Json.float res.Hd_rrms.guarantee);
             ("gamma_used", Json.int res.Hd_rrms.gamma_used);
           ]
          @ quality_fields quality),
        Guard.is_exact quality,
        hd_cost sky ~gamma_used rm
        @ [
            ("probes", Json.int res.Hd_rrms.cost.Hd_rrms.probes);
            ("probes_fresh", Json.int res.Hd_rrms.cost.Hd_rrms.probes_fresh);
            ("cells_crossed", Json.int res.Hd_rrms.cost.Hd_rrms.cells_crossed);
            ( "probe_state",
              Json.Str (if pooled = None then "fresh" else "pooled") );
            ("theorem4_bound", Json.float res.Hd_rrms.guarantee);
          ] )
  | Protocol.Hd_greedy ->
      (* The pooled scratch holds the matrix's row maxima and every
         per-solve array, so a warm solve's first step reads no cell and
         it allocates nothing |F|- or s-sized. *)
      let sky, gamma_used, shrink, rm, pooled =
        hd_prepare t e ~guard ~m q (fun rm ->
            let sc = rm.scratch in
            rm.scratch <- None;
            sc)
      in
      let scratch =
        match pooled with
        | Some sc -> sc
        | None -> Hd_greedy.scratch ~domains:t.domains rm.matrix
      in
      let res =
        Hd_greedy.solve_prepared ~domains:t.domains ~guard ~scratch
          ~skyline:sky ~gamma_used rm.matrix ~r:q.r
      in
      (* Each solve resets the scratch on entry, so a budget-stopped
         one goes back too; an exception drops it. *)
      with_lock e.e_lock (fun () -> rm.scratch <- Some scratch);
      let quality = Guard.degrade_first res.Hd_greedy.quality shrink in
      ( Json.Obj
          ([
             ("algo", Json.Str "hd-greedy");
             ("selected", ints res.Hd_greedy.selected);
             ("size", Json.int (Array.length res.Hd_greedy.selected));
             ( "discretized_regret",
               Json.float res.Hd_greedy.discretized_regret );
             ("gamma_used", Json.int res.Hd_greedy.gamma_used);
           ]
          @ quality_fields quality),
        Guard.is_exact quality,
        hd_cost sky ~gamma_used rm
        @ [
            ("steps", Json.int res.Hd_greedy.steps);
            ("cells_read", Json.int res.Hd_greedy.cells_read);
          ] )
  | Protocol.A2d | Protocol.A2d_exact ->
      (* ctx and rows from one lock hold: a mutation replaces the
         dataset wholesale, so the pair must come from the same
         generation. *)
      let ctx, rows =
        with_lock e.e_lock (fun () -> (hull_locked e, rows_of e))
      in
      let res =
        match q.algo with
        | Protocol.A2d -> Rrms2d.solve ~ctx rows ~r:q.r
        | _ -> Rrms2d.solve_exact ~ctx rows ~r:q.r
      in
      ( Json.Obj
          [
            ( "algo",
              Json.Str (if q.algo = Protocol.A2d then "2d" else "2d-exact") );
            ("selected", ints res.Rrms2d.selected);
            ("size", Json.int (Array.length res.Rrms2d.selected));
            ("dp_value", Json.float res.Rrms2d.dp_value);
            ("regret", Json.float res.Rrms2d.regret);
          ],
        true,
        [] )
  | Protocol.Sweepline ->
      let rows = pinned_rows e in
      let res = Sweepline.solve rows ~r:q.r in
      ( Json.Obj
          [
            ("algo", Json.Str "sweepline");
            ("selected", ints res.Sweepline.selected);
            ("size", Json.int (Array.length res.Sweepline.selected));
            ("dp_value", Json.float res.Sweepline.dp_value);
            ("regret", Json.float res.Sweepline.regret);
          ],
        true,
        [] )
  | Protocol.Greedy ->
      let rows = pinned_rows e in
      let res = Greedy.solve ~guard rows ~r:q.r in
      ( Json.Obj
          ([
             ("algo", Json.Str "greedy");
             ("selected", ints res.Greedy.selected);
             ("size", Json.int (Array.length res.Greedy.selected));
             ("regret_lp", Json.float res.Greedy.regret_lp);
             ("skipped_lps", Json.int res.Greedy.skipped_lps);
           ]
          @ quality_fields res.Greedy.quality),
        Guard.is_exact res.Greedy.quality,
        [ ("skipped_lps", Json.int res.Greedy.skipped_lps) ] )
  | Protocol.Cube ->
      let rows = pinned_rows e in
      let res = Cube.solve rows ~r:q.r in
      ( Json.Obj
          [
            ("algo", Json.Str "cube");
            ("selected", ints res.Cube.selected);
            ("size", Json.int (Array.length res.Cube.selected));
            ("t_parameter", Json.int res.Cube.t_parameter);
          ],
        true,
        [] )

(* [cost] is the answer's provenance record (docs/OBSERVABILITY.md,
   "Cost provenance"): ordered fields ready to be wrapped in an object.
   It lives OUTSIDE [result] — the cached, byte-compared member — so
   provenance can vary (cache hit vs. fresh solve, shard merge path)
   without perturbing the answer bytes. *)
type outcome = {
  result : Json.t;
  result_text : string;
  cached : bool;
  cost : (string * Json.t) list;
}

let outcome a ~cached cost =
  { result = a.json; result_text = a.text; cached; cost }

type refusal =
  [ `Overloaded | `Unknown_dataset | `Deadline_exceeded | `Draining ]

let set_draining t = Atomic.set t.draining true
let draining t = Atomic.get t.draining

let query_pinned t (e : handle) (q : Protocol.query) =
  (
      (* The request's one end-to-end budget, stamped before the cache
         probe and the admission wait: the protocol [timeout] is a
         deadline covering queueing, not a solver allowance granted
         afresh once a slot frees up. *)
      let guard = Protocol.budget_of q in
      let ckey = Protocol.cache_key q in
      (* Generation and content key captured with the cache probe: a
         solve that races a mutation still answers correctly (it ran on
         a consistent snapshot of the pre-mutation artifacts), but its
         answer describes the {e old} rows, so it must only enter the
         cache — memory or disk — if the generation is still the one it
         solved. *)
      let gen0, key0, hit =
        with_lock e.e_lock (fun () ->
            ( e.generation,
              e.key,
              if q.use_cache then Stbl.find_opt e.results ckey else None ))
      in
      match hit with
      | Some a ->
          Obs.Counter.incr Metrics.result_hits;
          Ok (outcome a ~cached:true [ ("source", Json.Str "cache") ])
      | None -> (
          (* Memory miss: the previous process may have left this exact
             answer on disk.  A rehydrated result joins the memory cache
             and answers as a hit — bit-identical, because only Exact
             answers are ever persisted, and the blob's text is spliced
             as read, not printed again. *)
          let rehydrated =
            if q.use_cache then
              match t.persist with
              | Some p ->
                  Option.map
                    (fun (json, text) -> { json; text })
                    (Persist.load_result p ~key:key0 ~cache_key:ckey)
              | None -> None
            else None
          in
          match rehydrated with
          | Some a ->
              Obs.Counter.incr Metrics.result_hits;
              with_lock e.e_lock (fun () ->
                  if e.generation = gen0 && not (Stbl.mem e.results ckey)
                  then Stbl.add e.results ckey a);
              Ok (outcome a ~cached:true [ ("source", Json.Str "persist") ])
          | None ->
              if q.use_cache then Obs.Counter.incr Metrics.result_misses;
              if draining t then begin
                Obs.Counter.incr Metrics.drained;
                Error `Draining
              end
              else (
                match
                  with_admission t (fun () ->
                      (* The queue wait counted against the deadline:
                         a request that spent its whole budget waiting
                         is refused here, before any solver work. *)
                      match Guard.Budget.deadline_expired guard with
                      | Some _ -> `Deadline
                      | None -> `Solved (solve_query t e ~guard q))
                with
                | Error `Overloaded -> Error `Overloaded
                | Ok `Deadline ->
                    Obs.Counter.incr Metrics.deadline_exceeded;
                    Error `Deadline_exceeded
                | Ok (`Solved (result, cacheable, cost)) ->
                    (* Encoded here, once: this reply and every later
                       hit splice the same bytes.  Only Exact answers
                       are cached: a budget-degraded result depends on
                       its budget, so serving it to a later (maybe
                       unbudgeted) request would break the bit-identity
                       contract.  The same rule governs the disk
                       spill. *)
                    let a = answer result in
                    if cacheable then begin
                      let same_gen =
                        with_lock e.e_lock (fun () ->
                            if e.generation = gen0 then begin
                              if not (Stbl.mem e.results ckey) then
                                Stbl.add e.results ckey a;
                              true
                            end
                            else false)
                      in
                      (* The disk spill is keyed by the generation the
                         solve actually ran on; skipped if a mutation
                         won the race (the answer is still returned —
                         query and mutation were concurrent, so the
                         pre-mutation ordering is a valid one). *)
                      if same_gen then
                        Option.iter
                          (fun p ->
                            Persist.save_result p ~key:key0 ~cache_key:ckey
                              a.text)
                          t.persist
                    end;
                    Ok
                      (outcome a ~cached:false
                         (("source", Json.Str "solve") :: cost)))))

let query t (q : Protocol.query) =
  match pin t q.dataset with
  | None -> Error `Unknown_dataset
  | Some e ->
      (* The pin outlives the whole request — cache probe, admission
         wait, solve — so a concurrent evict cannot free the entry (or
         its artifacts) out from under the solver. *)
      Fun.protect
        ~finally:(fun () -> unpin t e)
        (fun () -> query_pinned t e q)

(* ------------------------------------------------------------------ *)
(* Mutation                                                           *)
(* ------------------------------------------------------------------ *)

type mutated = {
  old_key : string;
  new_key : string;
  generation : int;
  n : int;
  m : int;
  ops_applied : int;
  skyline_path : string option;  (* None: skyline was not materialized *)
  matrices_updated : int;
  matrices_dropped : int;
  results_kept : int;
  results_evicted : int;
}

(* Rewrite the "selected" member of a cached answer through the plan's
   index map.  [None] (evict) if any selected index has no surviving
   image — which cannot happen for a sequence-preserving mutation, but
   the defensive check keeps a wrong remap impossible. *)
let remap_selected old_to_new json =
  match json with
  | Json.Obj fields ->
      let ok = ref true in
      let fields =
        List.map
          (fun (k, v) ->
            if k <> "selected" then (k, v)
            else
              match v with
              | Json.Arr l ->
                  ( k,
                    Json.Arr
                      (List.map
                         (fun j ->
                           match Json.int_ j with
                           | Some i
                             when i >= 0
                                  && i < Array.length old_to_new
                                  && old_to_new.(i) >= 0 ->
                               Json.int old_to_new.(i)
                           | _ ->
                               ok := false;
                               j)
                         l) )
              | _ ->
                  ok := false;
                  (k, v))
          fields
      in
      if !ok then Some (Json.Obj fields) else None
  | _ -> None

let vec_bits p =
  let b = Buffer.create (Array.length p * 8) in
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) p;
  Buffer.contents b

(* Whether every skyline value occurs exactly once in the table.
   [Skyline.two_d] (the 2D solvers' entry point) breaks ties between
   bit-equal tuples with an unstable sort, so the representative index
   it picks is only provably stable across a mutation when there is no
   tie to break. *)
let sky_values_unique rows sky =
  let keys = Hashtbl.create (2 * Array.length sky) in
  Array.iter (fun g -> Hashtbl.replace keys (vec_bits rows.(g)) false) sky;
  let dup = ref false in
  Array.iter
    (fun p ->
      let k = vec_bits p in
      match Hashtbl.find_opt keys k with
      | None -> ()
      | Some seen -> if seen then dup := true else Hashtbl.replace keys k true)
    rows;
  not !dup

(* The incremental maintenance pass: compute the post-mutation dataset,
   skyline, matrices, probe states and surviving cached results from a
   consistent snapshot, then install everything atomically.  Runs under
   the entry's mutation lock, so there is exactly one writer; query
   paths keep running against the old generation until the install. *)
let mutate_pinned ~expect ~guard t (e : handle) muts =
  with_lock e.mu_lock (fun () ->
      let key0, gen0, d0, digests0, sky0, mats0, results0 =
        with_lock e.e_lock (fun () ->
            ( e.key,
              e.generation,
              e.dataset,
              e.digests,
              e.skyline,
              e.matrices,
              Stbl.fold (fun k v acc -> (k, v) :: acc) e.results [] ))
      in
      let m = Dataset.dim d0 in
      let plan =
        Obs.Span.with_ "delta.apply" (fun () ->
            Delta.apply ~dim:m (Dataset.shared_rows d0) muts)
      in
      if Array.length plan.Delta.rows = 0 then
        Guard.Error.invalid_input
          "Store.mutate: mutation would empty the dataset";
      (* No pass over the whole table: a carried row was validated and
         digested when it entered, so only [plan.fresh] rows are read
         (Delta.apply has already checked them with the same predicate;
         [with_rows] checks them again as the dataset's own guard). *)
      let d' =
        Obs.Span.with_ "dataset.with_rows" (fun () ->
            Dataset.with_rows d0 ~fresh:plan.Delta.fresh plan.Delta.rows)
      in
      let digests', new_key =
        Obs.Span.with_ "store.content_key" (fun () ->
            carried_key ~attributes:(Dataset.attributes d0) digests0 plan)
      in
      (* A replay must land on the key its record names; anywhere else
         is a state the original process never had, refused before any
         artifact is built, installed or saved. *)
      Option.iter
        (fun k ->
          if k <> new_key then
            Guard.Error.invalid_input
              (Printf.sprintf
                 "Store.mutate: replay of %s landed on %s, expected %s" key0
                 new_key k))
        expect;
      let sky', path =
        match sky0 with
        | None -> (None, None)
        | Some sky ->
            let s, p =
              Obs.Span.with_ "delta.update_skyline" (fun () ->
                  Delta.update_skyline ~domains:t.domains plan ~old_sky:sky)
            in
            (Some s, Some p)
      in
      let preserved =
        match (sky0, sky') with
        | Some o, Some n -> Delta.sequence_preserved plan ~old_sky:o ~new_sky:n
        | _ -> false
      in
      (* Matrices: a sequence-preserving mutation keeps their records
         (a matrix is a pure function of the skyline point sequence),
         and the warm states pooled in them with it.  Otherwise each
         matrix is updated in place-equivalent fashion — carried rows
         blit, fresh rows run the kernel — into a new record with no
         warm state: the next query sorts the new matrix's cells once,
         the sort its distinct values need anyway, and the next greedy
         query rescans its row maxima. *)
      let mats', updated, dropped =
        if preserved then (mats0, 0, 0)
        else
          match (sky0, sky') with
          | Some o, Some n ->
              let carried = Delta.carried_rows plan ~old_sky:o ~new_sky:n in
              let points = Array.map (fun g -> plan.Delta.rows.(g)) n in
              let mats' =
                List.map
                  (fun (gamma, rm) ->
                    let funcs = Discretize.grid ~gamma ~m in
                    ( gamma,
                      resident
                        (fst
                           (Regret_matrix.update ~domains:t.domains ~guard
                              rm.matrix ~funcs ~points ~carried)) ))
                  mats0
              in
              (mats', List.length mats0, 0)
          | _ ->
              (* No materialized skyline to carry from: any matrices
                 are dropped and rebuild lazily. *)
              ([], 0, List.length mats0)
      in
      (* Delta-scoped result invalidation.  A cached answer survives
         only with a proof that a fresh solve over the new rows returns
         the same bytes:
         - hd-rrms / hd-greedy are pure functions of the skyline point
           sequence (via the matrix) plus (r, γ); sequence preserved ⇒
           same answer up to index names, remapped through the plan.
         - 2d / 2d-exact / sweepline additionally cite row indices of
           skyline members directly, so every survivor must have kept
           its old index, and representative picks must be tie-free
           (sky_values_unique) for the index citation to be stable.
         - greedy (LP skip counters) and cube (t-parameter grid) read
           the full raw table, dominated rows included — always
           evicted. *)
      (* Lazy: only the 2D family ever needs the proof, and its
         tie-free scan walks the whole table — an hd-only cache must
         not pay for it on every mutation.  Index stability is one
         check per carried run: every surviving base row kept its
         index iff every run starts where it started. *)
      let positional =
        lazy
          (preserved
          && Array.for_all
               (fun { Delta.new_start; old_start; _ } -> new_start = old_start)
               plan.Delta.runs
          &&
          match sky' with
          | Some s -> sky_values_unique plan.Delta.rows s
          | None -> false)
      in
      let kept = ref 0 and evicted = ref 0 in
      let survivors =
        List.filter_map
          (fun (ckey, result) ->
            let keep =
              match Protocol.algo_of_cache_key ckey with
              | Some (Protocol.Hd_rrms | Protocol.Hd_greedy) when preserved ->
                  (* renamed indices: re-encoded once, here *)
                  Option.map answer
                    (remap_selected plan.Delta.old_to_new result.json)
              | Some (Protocol.A2d | Protocol.A2d_exact | Protocol.Sweepline)
                when Lazy.force positional ->
                  Some result
              | _ -> None
            in
            match keep with
            | Some a ->
                incr kept;
                Some (ckey, a)
            | None ->
                incr evicted;
                None)
          results0
      in
      (* Write-ahead journal, after the maintenance pass proved the
         batch applies cleanly and before the in-memory install — a
         crash from here on is replayable.  The record is the
         mutation's only durable write: a restart rebuilds this
         generation by replay, and its skyline and answers are
         recomputed on first use.  When the append is not whole, the
         new generation's dataset blob is saved instead, so a later
         record whose base this generation is can still replay. *)
      (match t.persist with
      | Some p when expect = None ->
          if
            not
              (Persist.Wal.append p
                 { Persist.Wal.base_key = key0; new_key; ops = muts })
          then Persist.save_dataset p ~key:new_key d'
      | _ -> ());
      (* Install: rebind the entry under its new content hash and swap
         every artifact field in one critical section. *)
      with_lock t.lock (fun () ->
          (match Stbl.find_opt t.entries key0 with
          | Some resident when resident == e -> Stbl.remove t.entries key0
          | _ -> ());
          (* If another resident entry already owns [new_key] (the
             mutation made this dataset bit-identical to a separately
             loaded one), the rebind shadows it: its pins stay safe
             (unpin frees only on physical equality) but it lives until
             process exit — an accepted leak for a pathological case. *)
          Stbl.replace t.entries new_key e;
          let stale =
            Stbl.fold
              (fun a k acc -> if k = key0 then a :: acc else acc)
              t.aliases []
          in
          List.iter (fun a -> Stbl.replace t.aliases a new_key) stale;
          (* The old hash stays resolvable, so a client that addressed
             the dataset by content key keeps reaching it. *)
          if key0 <> new_key then Stbl.replace t.aliases key0 new_key;
          with_lock e.e_lock (fun () ->
              e.key <- new_key;
              e.dataset <- d';
              e.digests <- digests';
              e.generation <- gen0 + 1;
              e.skyline <- sky';
              e.hull <- None;
              e.matrices <- mats';
              Stbl.reset e.results;
              List.iter (fun (k, v) -> Stbl.replace e.results k v) survivors));
      Obs.Counter.incr Metrics.mutations;
      Obs.Counter.add Metrics.mutation_ops (List.length muts);
      Obs.Counter.add Metrics.results_carried !kept;
      Obs.Counter.add Metrics.results_invalidated !evicted;
      {
        old_key = key0;
        new_key;
        generation = gen0 + 1;
        n = Array.length plan.Delta.rows;
        m;
        ops_applied = List.length muts;
        skyline_path = Option.map Delta.path_name path;
        matrices_updated = updated;
        matrices_dropped = dropped;
        results_kept = !kept;
        results_evicted = !evicted;
      })

let mutate ?expect ?timeout t ~dataset muts =
  if muts = [] then
    Guard.Error.invalid_input "Store.mutate: empty mutation list";
  match pin t dataset with
  | None -> Error `Unknown_dataset
  | Some e ->
      Fun.protect
        ~finally:(fun () -> unpin t e)
        (fun () ->
          if draining t then begin
            Obs.Counter.incr Metrics.drained;
            Error `Draining
          end
          else
            let guard =
              match timeout with
              | None -> Guard.Budget.unlimited
              | Some _ -> Guard.Budget.create ?timeout ()
            in
            match
              with_admission t (fun () ->
                  match Guard.Budget.deadline_expired guard with
                  | Some _ -> `Deadline
                  | None -> `Done (mutate_pinned ~expect ~guard t e muts))
            with
            | Error `Overloaded -> Error `Overloaded
            | Ok `Deadline ->
                Obs.Counter.incr Metrics.deadline_exceeded;
                Error `Deadline_exceeded
            | Ok (`Done r) -> Ok r)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let level_string = function
  | Obs.Disabled -> "disabled"
  | Obs.Counters -> "counters"
  | Obs.Full -> "full"

let stats t =
  let datasets, inflight, queued =
    with_lock t.lock (fun () ->
        let ds =
          Stbl.fold
            (fun key e acc ->
              let fields =
                with_lock e.e_lock (fun () ->
                    [
                      ("key", Json.Str key);
                      ("name", Json.Str (Dataset.name e.dataset));
                      ("n", Json.int (Dataset.size e.dataset));
                      ("m", Json.int (Dataset.dim e.dataset));
                      ("refs", Json.int e.refs);
                      ("generation", Json.int e.generation);
                      ("skyline_cached", Json.Bool (e.skyline <> None));
                      ("hull_cached", Json.Bool (e.hull <> None));
                      ( "matrices",
                        Json.Arr
                          (List.map Json.int
                             (List.sort Int.compare (List.map fst e.matrices)))
                      );
                      ("results_cached", Json.int (Stbl.length e.results));
                    ])
              in
              (key, Json.Obj fields) :: acc)
            t.entries []
        in
        let ds = List.sort (fun (a, _) (b, _) -> compare a b) ds in
        (List.map snd ds, t.inflight, t.queued))
  in
  let metrics =
    List.map (fun (name, v) -> (name, Json.float v)) (Obs.snapshot ())
  in
  let persist =
    match t.persist with
    | None -> Json.Null
    | Some p ->
        let s = Persist.last_scan p in
        Json.Obj
          [
            ("state_dir", Json.Str (Persist.root p));
            ("scan_valid", Json.int s.Persist.valid);
            ("scan_corrupt", Json.int s.Persist.corrupt);
            ("scan_stale", Json.int s.Persist.stale);
            ("scan_partial", Json.int s.Persist.partial);
          ]
  in
  Json.Obj
    [
      ("datasets", Json.Arr datasets);
      ( "admission",
        Json.Obj
          [
            ("max_inflight", Json.int t.max_inflight);
            ("max_queue", Json.int t.max_queue);
            ("inflight", Json.int inflight);
            ("queued", Json.int queued);
          ] );
      ("persist", persist);
      ("draining", Json.Bool (draining t));
      ("obs_level", Json.Str (level_string (Obs.level ())));
      ("metrics", Json.Obj metrics);
    ]
