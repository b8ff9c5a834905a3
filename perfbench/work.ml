(* Workload definitions: the seeded inputs and request streams of the
   four workloads.  Every stream is a pure function of (workload, seed,
   size), so the socket run, the traced replay and the answer checks all
   see the same requests. *)

module Dataset = Rrms_dataset.Dataset
module Synthetic = Rrms_dataset.Synthetic
module Rng = Rrms_rng.Rng
module Json = Rrms_serve.Json

type workload = Cold_solve | Warm_sweep | Hit_storm | Mutate_mix

let all =
  [
    ("cold-solve", Cold_solve);
    ("warm-sweep", Warm_sweep);
    ("hit-storm", Hit_storm);
    ("mutate-mix", Mutate_mix);
  ]

let name wl = fst (List.find (fun (_, w) -> w = wl) all)

type op = Ins of float array | Del of int | Ups of int * float array

type kind =
  | Load of { file : int; path : string }
  | Query of { algo : string; r : int; gamma : int; cache : bool }
  | Mutate of { batch : int; ops : op list }
  | Evict

(* A request of the stream, addressed to resident dataset [slot].  [ds]
   names the state of that dataset the answer belongs to (pool file, or
   number of mutation batches applied), so requests with the same
   [check_key] must receive byte-identical results. *)
type req = { kind : kind; slot : int; ds : int }

type t = {
  wl : workload;
  seed : int;
  dataset : string;  (* alias prefix; slot [k] is [dataset ^ k] *)
  files : string array;  (* CSVs written by [prepare] *)
  setup : req list;  (* load + one warm-up cycle, sent once per set-up *)
  step : int -> req list;  (* closed-loop step [i] of the timed stream *)
  pipelined : bool;  (* a step is one pipelined window, not a sequence *)
  trace_steps : int;  (* fixed stream length of the traced run *)
  batch : int -> int -> op list;  (* batch [k] of slot [s] (mutate-mix) *)
}

let sub_rng seed k = Rng.create ((seed * 1_000_003) + (k * 7919) + 17)

let query ?(cache = true) ?(slot = 0) ~ds algo r gamma =
  { kind = Query { algo; r; gamma; cache }; slot; ds }

let load ?(slot = 0) files file = { kind = Load { file; path = files.(file) }; slot; ds = file }

(* Sizes.  [reduced] shrinks every dataset and stream for the
   determinism test; the shapes (families, γ, r ranges, batch mix) stay
   the same. *)
type size = { n_cold : int; pool : int; n_warm : int; n_hit : int; n_mut : int }

let full = { n_cold = 50_000; pool = 8; n_warm = 10_000; n_hit = 10_000; n_mut = 50_000 }
let reduced = { n_cold = 3_000; pool = 2; n_warm = 4_000; n_hit = 2_000; n_mut = 3_000 }

(* warm-sweep and mutate-mix cycle over this many tables, so one run's
   figures do not hang on a single seeded table's skyline *)
let warm_slots = 4
let mut_slots = 4

(* mutation batches per mutate-mix episode *)
let episode = 8

let m = 4
let hit_window = 32

(* A seeded permutation of [0, n). *)
let perm rng n =
  let a = Array.init n Fun.id in
  Rng.shuffle rng a;
  a

let write_csv dir tag d =
  let path = Filename.concat dir (tag ^ ".csv") in
  Dataset.to_csv d path;
  path

(* Mutation batch [k] (4 ops: 40% insert, 30% delete, 30% upsert) given
   the table size before it; returns the ops and the size after. *)
let mutation_batch seed slot k n =
  let rng = sub_rng seed (100_000 + (slot * 50_000) + k) in
  let point () = Dataset.row (Synthetic.anticorrelated rng ~n:1 ~m) 0 in
  let n = ref n in
  let ops =
    List.init 4 (fun _ ->
        let u = Rng.int rng 10 in
        if u < 4 then begin
          incr n;
          Ins (point ())
        end
        else if u < 7 then begin
          let i = Rng.int rng !n in
          decr n;
          Del i
        end
        else Ups (Rng.int rng !n, point ()))
  in
  (ops, !n)

let prepare ~dir ~size ~seed wl =
  let data k n = Synthetic.anticorrelated (sub_rng seed k) ~n ~m in
  match wl with
  | Cold_solve ->
      (* file 0 is the warm-up dataset; 1..pool are cycled by the timed
         loop, each loaded, solved once and evicted *)
      let files =
        Array.init (size.pool + 1) (fun k ->
            write_csv dir (Printf.sprintf "cold%d" k) (data k size.n_cold))
      in
      let cycle file =
        [ load files file; query ~ds:file "hd-rrms" 10 5; { kind = Evict; slot = 0; ds = file } ]
      in
      {
        wl;
        seed;
        dataset = "c";
        files;
        setup = cycle 0;
        step = (fun i -> cycle (1 + (i mod size.pool)));
        pipelined = false;
        trace_steps = 2 * size.pool;
        batch = (fun _ _ -> []);
      }
  | Warm_sweep ->
      let files =
        Array.init warm_slots (fun k -> write_csv dir (Printf.sprintf "warm%d" k) (data k size.n_warm))
      in
      (* Table [slot] sweeps r ∈ {5 + slot, 5 + slot + warm_slots, ...}, so
         the tables together cover r = 5..24 and every (algo, r, γ) of a
         table repeats several times in a run. *)
      let algos = [| "hd-rrms"; "hd-greedy" |] and gammas = [| 6; 3; 2 |] in
      let rs = 20 / warm_slots in
      let schedule slot =
        Array.concat
          (List.concat_map
             (fun algo ->
               List.map
                 (fun g -> Array.init rs (fun k -> (algo, 5 + slot + (warm_slots * k), g)))
                 (Array.to_list gammas))
             (Array.to_list algos))
      in
      let schedules = Array.init warm_slots schedule in
      let len = Array.length schedules.(0) in
      let rounds = Hashtbl.create 16 in
      let round k =
        match Hashtbl.find_opt rounds k with
        | Some p -> p
        | None ->
            let p = perm (sub_rng seed (1000 + k)) len in
            Hashtbl.add rounds k p;
            p
      in
      (* γ=6 first: its matrix is built, and γ 3 and 2 are cut from it *)
      let setup =
        List.concat
          (List.init warm_slots (fun slot ->
               load ~slot files slot
               :: List.map (fun g -> query ~cache:false ~slot ~ds:0 "hd-rrms" 5 g) (Array.to_list gammas)))
      in
      {
        wl;
        seed;
        dataset = "w";
        files;
        setup;
        step =
          (fun i ->
            (* the tables take turns, each walking the same rounds *)
            let slot = i mod warm_slots and j = i / warm_slots in
            let algo, r, g = schedules.(slot).((round (j / len)).(j mod len)) in
            [ query ~cache:false ~slot ~ds:0 algo r g ]);
        pipelined = false;
        trace_steps = warm_slots * len;
        batch = (fun _ _ -> []);
      }
  | Hit_storm ->
      let files = [| write_csv dir "hit" (data 0 size.n_hit) |] in
      let keys =
        Array.concat
          [ Array.init 20 (fun j -> (3 + j, 4)); Array.init 20 (fun j -> (3 + j, 2)) ]
      in
      let order = perm (sub_rng seed 1) (Array.length keys) in
      let nk = Array.length keys in
      let setup =
        load files 0
        :: List.map (fun (r, g) -> query ~ds:0 "hd-rrms" r g) (Array.to_list keys)
      in
      {
        wl;
        seed;
        dataset = "h";
        files;
        setup;
        step =
          (fun i ->
            List.init hit_window (fun j ->
                let r, g = keys.(order.(((i * hit_window) + j) mod nk)) in
                query ~ds:0 "hd-rrms" r g));
        pipelined = true;
        trace_steps = 4000 / hit_window;
        batch = (fun _ _ -> []);
      }
  | Mutate_mix ->
      (* tables 0 .. mut_slots - 1 take turns; the last one is the
         warm-up table *)
      let files =
        Array.init (mut_slots + 1) (fun k ->
            write_csv dir (Printf.sprintf "mut%d" k) (data k size.n_mut))
      in
      (* batches are generated in order and memoised: batch k's indices
         depend on the table size the earlier batches left *)
      let memo = Array.init (mut_slots + 1) (fun _ -> (ref [||], ref [| size.n_mut |])) in
      let batch slot k =
        let batches, sizes = memo.(slot) in
        while Array.length !batches <= k do
          let j = Array.length !batches in
          let ops, n' = mutation_batch seed slot j !sizes.(j) in
          batches := Array.append !batches [| ops |];
          sizes := Array.append !sizes [| n' |]
        done;
        !batches.(k)
      in
      (* Step k of an episode on [slot]: the table is loaded fresh before
         batch 0 and evicted after the last batch, so every episode on a
         table repeats the same states and the same work. *)
      let step slot ~batches k =
        (if k = 0 then [ load ~slot files slot; query ~slot ~ds:0 "hd-rrms" 10 5 ] else [])
        @ [
            { kind = Mutate { batch = k; ops = batch slot k }; slot; ds = k + 1 };
            query ~slot ~ds:(k + 1) "hd-rrms" 10 5;
          ]
        @ if k = batches - 1 then [ { kind = Evict; slot; ds = 0 } ] else []
      in
      {
        wl;
        seed;
        dataset = "m";
        files;
        setup = List.concat (List.init 2 (step mut_slots ~batches:2));
        step =
          (fun i ->
            let e = i / episode in
            step (e mod mut_slots) ~batches:episode (i mod episode));
        pipelined = false;
        trace_steps = mut_slots * episode;
        batch;
      }

(* ------------------------------------------------------------------ *)
(* Wire encoding                                                      *)
(* ------------------------------------------------------------------ *)

let vec v = Json.Arr (Array.to_list (Array.map Json.float v))

let op_json = function
  | Ins v -> Json.Obj [ ("op", Json.Str "insert"); ("values", vec v) ]
  | Del i -> Json.Obj [ ("op", Json.Str "delete"); ("index", Json.int i) ]
  | Ups (i, v) ->
      Json.Obj [ ("op", Json.Str "upsert"); ("index", Json.int i); ("values", vec v) ]

let alias t (r : req) = t.dataset ^ string_of_int r.slot

let line ?(explain = false) t ~id (r : req) =
  let name = Json.Str (alias t r) in
  let body =
    match r.kind with
    | Load { path; _ } ->
        [ ("req", Json.Str "load"); ("path", Json.Str path); ("name", name) ]
    | Query { algo; r; gamma; cache } ->
        [
          ("req", Json.Str "query");
          ("dataset", name);
          ("algo", Json.Str algo);
          ("r", Json.int r);
          ("gamma", Json.int gamma);
        ]
        @ (if cache then [] else [ ("cache", Json.Bool false) ])
        @ if explain then [ ("explain", Json.Bool true) ] else []
    | Mutate { ops; _ } ->
        [
          ("req", Json.Str "mutate");
          ("dataset", name);
          ("ops", Json.Arr (List.map op_json ops));
        ]
    | Evict -> [ ("req", Json.Str "evict"); ("dataset", name) ]
  in
  Json.to_string (Json.Obj (("id", Json.int id) :: body))

(* Requests with equal keys must get byte-identical results. *)
let check_key (r : req) =
  match r.kind with
  | Load { file; _ } -> Printf.sprintf "load/%d" file
  | Query { algo; r = rr; gamma; _ } ->
      Printf.sprintf "query/%d/%d/%s/%d/%d" r.slot r.ds algo rr gamma
  | Mutate { batch; _ } -> Printf.sprintf "mutate/%d/%d" r.slot batch
  | Evict -> Printf.sprintf "evict/%d/%d" r.slot r.ds

(* The request class latency percentiles are taken within; a query's
   class depends on whether a solver answered it. *)
let class_of (r : req) ~cached =
  match r.kind with
  | Load _ -> "load"
  | Query _ -> if cached then "hit" else "solve"
  | Mutate _ -> "mutate"
  | Evict -> "evict"

(* The class whose round trip is the workload's [req_ms_*]. *)
let primary = function
  | Cold_solve | Warm_sweep -> "solve"
  | Hit_storm -> "hit"
  | Mutate_mix -> "mutate"

let to_delta = function
  | Ins v -> Rrms_core.Delta.Insert v
  | Del i -> Rrms_core.Delta.Delete i
  | Ups (i, v) -> Rrms_core.Delta.Upsert (i, v)
