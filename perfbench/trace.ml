(* The traced run: replay a workload's exact request stream in-process,
   calling each layer's public functions the way the store does, with a
   span around every call.  Spans stay in memory and are written as
   JSONL at the end. *)

module Json = Rrms_serve.Json
module Protocol = Rrms_serve.Protocol
module Store = Rrms_serve.Store
module Server = Rrms_serve.Server
module Dataset = Rrms_dataset.Dataset
module Skyline = Rrms_skyline.Skyline
module Discretize = Rrms_core.Discretize
module Regret_matrix = Rrms_core.Regret_matrix
module Mrst = Rrms_core.Mrst
module Hd_rrms = Rrms_core.Hd_rrms
module Hd_greedy = Rrms_core.Hd_greedy
module Delta = Rrms_core.Delta
module Obs = Rrms_obs.Obs

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (* -1 for a root *)
  name : string;
  t0 : float;
  t1 : float;
  mutable cls : string;  (* request class, on request spans *)
}

type rec_ = { mutable spans : span list; mutable next : int; mutable stack : int list }

let make_rec () = { spans = []; next = 0; stack = [] }

let with_span rc name f =
  let id = rc.next in
  rc.next <- id + 1;
  let parent = match rc.stack with p :: _ -> p | [] -> -1 in
  rc.stack <- id :: rc.stack;
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  rc.stack <- List.tl rc.stack;
  rc.spans <- { id; parent; name; t0; t1; cls = "" } :: rc.spans;
  x

let write_jsonl path rc =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.int s.id);
                ("parent", Json.int s.parent);
                ("name", Json.Str s.name);
                ("start", Json.float s.t0);
                ("end", Json.float s.t1);
                ("class", Json.Str s.cls);
              ]));
      output_char oc '\n')
    (List.rev rc.spans);
  close_out oc

(* Median duration (ms) of the spans called [name]; [0.] when none. *)
let median_ms rc name =
  let xs =
    Array.of_list
      (List.filter_map
         (fun s -> if s.name = name then Some ((s.t1 -. s.t0) *. 1000.) else None)
         rc.spans)
  in
  if xs = [||] then 0. else Drive.median xs

(* Per stream request of class [cls]: the time its layer spans cover
   (children of the request span; layer spans do not nest). *)
let attributed rc cls =
  let reqs = Hashtbl.create 64 in
  List.iter (fun s -> if s.name = "request" && s.cls = cls then Hashtbl.replace reqs s.id 0.) rc.spans;
  List.iter
    (fun s ->
      match Hashtbl.find_opt reqs s.parent with
      | Some a -> Hashtbl.replace reqs s.parent (a +. (s.t1 -. s.t0))
      | None -> ())
    rc.spans;
  Array.of_seq (Hashtbl.to_seq_values reqs)

(* ------------------------------------------------------------------ *)
(* Replay state: the artifacts the store would hold for the dataset   *)
(* ------------------------------------------------------------------ *)

(* One resident table and its artifacts. *)
type tbl = {
  mutable rows : Rrms_geom.Vec.t array;
  mutable sky : int array option;
  mutable mats : (int * Regret_matrix.t) list;  (* γ → matrix, newest first *)
  mutable incs : (int * (Mrst.Incremental.t * Regret_matrix.t)) list;
  mutable distinct_done : Regret_matrix.t list;
  results : (string, Json.t) Hashtbl.t;
}

type st = {
  rc : rec_;
  store : Store.t;  (* load / release only *)
  tables : (int, tbl) Hashtbl.t;  (* by slot *)
  grids : (int, Rrms_geom.Vec.t array) Hashtbl.t;  (* store-wide, by γ *)
  per_call : (string, float list) Hashtbl.t;  (* size of each call's output *)
  totals : (string, int) Hashtbl.t;  (* event counts over the stream *)
  mutable in_stream : bool;
  mutable log : (string * string * Json.t) list;
      (* stream requests: class, line, result — newest first *)
}

let note st name v =
  Hashtbl.replace st.per_call name
    (v :: Option.value ~default:[] (Hashtbl.find_opt st.per_call name))

let bump st name k =
  if st.in_stream then
    Hashtbl.replace st.totals name (k + Option.value ~default:0 (Hashtbl.find_opt st.totals name))

let span st name f = with_span st.rc name f
let m = Work.m

let table st slot =
  match Hashtbl.find_opt st.tables slot with
  | Some d -> d
  | None ->
      let d =
        { rows = [||]; sky = None; mats = []; incs = []; distinct_done = []; results = Hashtbl.create 64 }
      in
      Hashtbl.add st.tables slot d;
      d

let reset_artifacts d =
  d.sky <- None;
  d.mats <- [];
  d.incs <- [];
  d.distinct_done <- [];
  Hashtbl.reset d.results

let skyline st d =
  match d.sky with
  | Some s -> s
  | None ->
      let s = span st "skyline.sfs" (fun () -> Skyline.sfs ~domains:1 d.rows) in
      note st "skyline.s" (float_of_int (Array.length s));
      d.sky <- Some s;
      s

let note_cells st mat =
  note st "regret_matrix.cells" (float_of_int (Regret_matrix.rows mat * Regret_matrix.cols mat))

let grid st gamma =
  match Hashtbl.find_opt st.grids gamma with
  | Some g -> g
  | None ->
      let g = span st "discretize.grid" (fun () -> Discretize.grid ~gamma ~m) in
      note st "discretize.dirs" (float_of_int (Array.length g));
      Hashtbl.add st.grids gamma g;
      g

(* Cached at γ → derived from a cached wider grid → built; the store's
   preference order. *)
let matrix st d sky gamma =
  match List.assoc_opt gamma d.mats with
  | Some x -> x
  | None ->
      let parent =
        List.find_opt
          (fun (g, _) ->
            g > gamma && Discretize.subgrid_indices ~gamma_sub:gamma ~gamma:g ~m <> None)
          d.mats
      in
      let x =
        match parent with
        | Some (g, wide) ->
            span st "regret_matrix.select_cols" (fun () ->
                match Discretize.subgrid_indices ~gamma_sub:gamma ~gamma:g ~m with
                | Some idx -> Regret_matrix.materialize (Regret_matrix.select_cols wide idx)
                | None -> assert false)
        | None ->
            let funcs = grid st gamma in
            let points = Array.map (fun i -> d.rows.(i)) sky in
            span st "regret_matrix.build" (fun () ->
                Regret_matrix.build ~domains:1 ~funcs points)
      in
      note_cells st x;
      d.mats <- (gamma, x) :: d.mats;
      x

let solve st d algo ~r ~gamma =
  let sky = skyline st d in
  let mat = matrix st d sky gamma in
  if algo = "hd-greedy" then
    Expect.of_hd_greedy
      (span st "hd_greedy.solve" (fun () ->
           Hd_greedy.solve_prepared ~domains:1 ~skyline:sky ~gamma_used:gamma mat ~r))
  else begin
    if not (List.memq mat d.distinct_done) then begin
      let dv = span st "regret_matrix.distinct" (fun () -> Regret_matrix.distinct_values mat) in
      note st "regret_matrix.distinct_values" (float_of_int (Array.length dv));
      d.distinct_done <- mat :: d.distinct_done
    end;
    (* the pooled probe state, when it belongs to this matrix *)
    let inc =
      match List.assoc_opt gamma d.incs with
      | Some (i, owner) when owner == mat -> i
      | _ -> span st "mrst.index_build" (fun () -> Mrst.Incremental.create ~domains:1 mat)
    in
    let res =
      span st "mrst.search" (fun () ->
          Hd_rrms.solve_prepared ~domains:1 ~inc ~skyline:sky ~gamma_used:gamma ~m mat ~r)
    in
    d.incs <- (gamma, (inc, mat)) :: List.remove_assoc gamma d.incs;
    bump st "mrst.probes" res.cost.probes;
    bump st "mrst.probes_fresh" res.cost.probes_fresh;
    Expect.of_hd_rrms res
  end

(* A cached answer's [selected] renamed through a mutation's index map;
   [None] (evict) when a member did not survive. *)
let remap old_to_new = function
  | Json.Obj fields -> (
      match List.assoc_opt "selected" fields with
      | Some (Json.Arr l) ->
          let l' = List.map (fun j -> Option.map (fun i -> old_to_new.(i)) (Json.int_ j)) l in
          if List.for_all (function Some i -> i >= 0 | None -> false) l' then
            Some
              (Json.Obj
                 (List.map
                    (fun (k, v) ->
                      if k = "selected" then
                        (k, Json.Arr (List.map (fun i -> Json.int (Option.get i)) l'))
                      else (k, v))
                    fields))
          else None
      | _ -> None)
  | _ -> None

let mutate st d ops =
  let plan = span st "delta.apply" (fun () -> Delta.apply ~dim:m d.rows ops) in
  let sky' =
    Option.map
      (fun old_sky ->
        let s, p =
          span st "delta.update_skyline" (fun () ->
              Delta.update_skyline ~domains:1 plan ~old_sky)
        in
        note st "skyline.s" (float_of_int (Array.length s));
        bump st ("delta.path_" ^ Delta.path_name p) 1;
        (old_sky, s))
      d.sky
  in
  let preserved =
    match sky' with
    | Some (o, n) -> Delta.sequence_preserved plan ~old_sky:o ~new_sky:n
    | None -> false
  in
  (match sky' with
  | Some (o, n) when not preserved ->
      let carried = Delta.carried_rows plan ~old_sky:o ~new_sky:n in
      let points = Array.map (fun g -> plan.rows.(g)) n in
      let incs = ref [] in
      d.mats <-
        List.map
          (fun (gamma, mat) ->
            let funcs = grid st gamma in
            let mat', changed =
              span st "regret_matrix.update" (fun () ->
                  Regret_matrix.update ~domains:1 mat ~funcs ~points ~carried)
            in
            note_cells st mat';
            (match List.assoc_opt gamma d.incs with
            | Some (inc, owner) when owner == mat && changed = [||] ->
                let inc' =
                  span st "mrst.rebase" (fun () ->
                      Mrst.Incremental.rebase ~domains:1 inc mat' ~carried)
                in
                incs := (gamma, (inc', mat')) :: !incs
            | _ -> ());
            (gamma, mat'))
          d.mats;
      d.incs <- List.rev !incs;
      d.distinct_done <- []
  | _ -> ());
  let kept =
    if preserved then
      Hashtbl.fold
        (fun k v acc ->
          match remap plan.old_to_new v with Some v' -> (k, v') :: acc | None -> acc)
        d.results []
    else []
  in
  bump st "results_kept" (List.length kept);
  bump st "results_evicted" (Hashtbl.length d.results - List.length kept);
  Hashtbl.reset d.results;
  List.iter (fun (k, v) -> Hashtbl.replace d.results k v) kept;
  d.rows <- plan.rows;
  d.sky <- Option.map snd sky';
  Json.Obj [ ("n", Json.int (Array.length plan.rows)) ]

(* One request: a root span with the layer spans as its children. *)
let exec st (w : Work.t) ~id line (r : Work.req) =
  let d = table st r.slot and name = Work.alias w r in
  let cls =
    with_span st.rc "request" (fun () ->
      ignore (span st "protocol.parse" (fun () -> Protocol.parse_request line));
      let cls, result =
        match r.kind with
        | Work.Load { path; _ } ->
            ignore
              (span st "store.load" (fun () ->
                   Store.load st.store ~name path));
            let h = Option.get (Store.pin st.store name) in
            d.rows <- Store.pinned_rows h;
            Store.unpin st.store h;
            reset_artifacts d;
            ("load", Json.Obj [ ("n", Json.int (Array.length d.rows)) ])
        | Work.Evict ->
            ignore (span st "store.release" (fun () -> Store.release st.store name));
            reset_artifacts d;
            ("evict", Json.Obj [])
        | Work.Mutate { ops; _ } -> ("mutate", mutate st d (List.map Work.to_delta ops))
        | Work.Query { algo; r; gamma; cache } -> (
            let ckey = Printf.sprintf "%s/%d/%d" algo r gamma in
            match if cache then Hashtbl.find_opt d.results ckey else None with
            | Some j -> ("hit", j)
            | None ->
                let j = solve st d algo ~r ~gamma in
                Hashtbl.replace d.results ckey j;
                ("solve", j))
      in
      if st.in_stream then st.log <- (cls, line, result) :: st.log;
      ignore
        (span st "protocol.encode" (fun () ->
             Protocol.ok_response ~id:(Json.int id) ~cached:(cls = "hit") ~elapsed_ms:0.05 result));
      cls)
  in
  (* the request span is the last one recorded; set-up requests are
     kept out of the per-class figures *)
  (List.hd st.rc.spans).cls <- (if st.in_stream then cls else "setup:" ^ cls)

(* ------------------------------------------------------------------ *)
(* The traced run, one stream step at a time                          *)
(* ------------------------------------------------------------------ *)

(* Each step is replayed right after the socket run sent it, so the
   socket, replay and in-process server timings share one stretch of
   machine time.  The replay's lines and ids are exactly the socket
   run's ([Drive.run] numbering, explain records on). *)
type t = {
  w : Work.t;
  st : st;
  hl_store : Store.t;  (* [Server.handle_line] over the same lines *)
  hl : (string, float list) Hashtbl.t;  (* class → handle_line s, stream *)
  mutable hl_mid : (string * float) list;  (* counters after set-up *)
  mutable next_id : int;
}

let create (w : Work.t) =
  {
    w;
    st =
      {
        rc = make_rec ();
        store = Store.create ~domains:1 ();
        tables = Hashtbl.create 4;
        grids = Hashtbl.create 4;
        per_call = Hashtbl.create 16;
        totals = Hashtbl.create 16;
        in_stream = false;
        log = [];
      };
    hl_store = Store.create ~domains:1 ();
    hl = Hashtbl.create 8;
    hl_mid = [];
    next_id = 0;
  }

let handle t (r : Work.req) line ~timed =
  let t0 = Unix.gettimeofday () in
  let reply = Server.handle_line t.hl_store line in
  let dt = Unix.gettimeofday () -. t0 in
  match reply with
  | `Reply resp | `Shutdown resp ->
      if timed then begin
        let cls = Work.class_of r ~cached:(Client.is_cached resp) in
        Hashtbl.replace t.hl cls (dt :: Option.value ~default:[] (Hashtbl.find_opt t.hl cls))
      end

let setup t =
  let lines = List.mapi (fun i r -> (-1 - i, Work.line t.w ~id:(-1 - i) r, r)) t.w.setup in
  List.iter (fun (id, l, r) -> exec t.st t.w ~id l r) lines;
  List.iter (fun (_, l, r) -> handle t r l ~timed:false) lines;
  t.hl_mid <- Obs.snapshot ()

let step t i =
  let lines =
    List.map
      (fun r ->
        t.next_id <- t.next_id + 1;
        (t.next_id, Work.line ~explain:true t.w ~id:t.next_id r, r))
      (t.w.step i)
  in
  t.st.in_stream <- true;
  List.iter (fun (id, l, r) -> exec t.st t.w ~id l r) lines;
  List.iter (fun (_, l, r) -> handle t r l ~timed:true) lines

(* Close the run: time the parse layer on its own (once per input
   file) and return the counters the stream moved. *)
let finish t =
  Array.iter
    (fun path -> ignore (with_span t.st.rc "dataset.parse" (fun () -> Dataset.of_csv_report path)))
    t.w.files;
  let after = Obs.snapshot () in
  List.map (fun (k, v) -> (k, v -. Option.value ~default:0. (List.assoc_opt k t.hl_mid))) after

(* Mean per call of [f] over [xs], as the median over repeated passes
   (µs): single calls are too short for the clock. *)
let bulk_us f xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let passes = ref [] and total = ref 0. in
    while List.length !passes < 5 || !total < 0.2 do
      let t0 = Unix.gettimeofday () in
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
      let dt = Unix.gettimeofday () -. t0 in
      total := !total +. dt;
      passes := (dt /. float_of_int n *. 1e6) :: !passes
    done;
    Drive.median (Array.of_list !passes)
  end
