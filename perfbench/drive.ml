(* The socket run: spawn rrms-serve, set it up, drive one workload's
   stream over one connection, then check every answer. *)

module Json = Rrms_serve.Json

(* Growable float buffer for latency samples. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* Nearest-rank percentile of an unsorted array; [nan] when empty. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  end

let median xs = percentile 0.5 xs

(* First answer seen for a check key, and how many requests got it. *)
type seen = {
  req : Work.req;
  line : string;
  suffix : string;
  mutable count : int;
}

type t = {
  classes : (string, Fbuf.t) Hashtbl.t;  (* class → round trips (s) *)
  seen : (string, seen) Hashtbl.t;
  mutable order : string list;  (* check keys, newest first *)
  mutable setup_s : float list;
  mutable wall : float;  (* timed phase, s *)
  mutable attempted : int;
  mutable completed : int;  (* answered ok *)
  mutable failed : int;
  mutable failures : string list;  (* offending requests, newest first *)
  mutable rss_mb : float;
  mutable stats0 : Json.t;  (* [stats] metrics after set-up (trace mode) *)
  mutable stats1 : Json.t;  (* ... and after the stream *)
  mutable costs : (Work.req * Json.t) list;  (* explain records, stream order *)
  mutable trail : (string * float) list;
      (* main-class samples: work key, round trip (s); newest first *)
}

let class_buf t c =
  match Hashtbl.find_opt t.classes c with
  | Some b -> b
  | None ->
      let b = Fbuf.create () in
      Hashtbl.add t.classes c b;
      b

let samples t c =
  match Hashtbl.find_opt t.classes c with Some b -> Fbuf.to_array b | None -> [||]

let fail t why line n =
  t.failed <- t.failed + n;
  if List.length t.failures < 20 then t.failures <- (why ^ ": " ^ line) :: t.failures

let metrics_of resp =
  match Option.bind (Expect.parse_result (Client.result_suffix resp)) (Json.member "metrics") with
  | Some m -> m
  | None -> Json.Null

(* Record one timed answer: latency into its class, result against the
   first answer for the same key. *)
let record t ~explain (w : Work.t) (r : Work.req) ~id line resp lat =
  t.attempted <- t.attempted + 1;
  if not (Client.is_ok resp && Client.id_matches resp id) then fail t "error" line 1
  else begin
    t.completed <- t.completed + 1;
    let cached = Client.is_cached resp in
    let cls = Work.class_of r ~cached in
    Fbuf.add (class_buf t cls) lat;
    if cls = Work.primary w.wl && not w.pipelined then
      t.trail <- (Work.check_key r, lat) :: t.trail;
    (match (r.kind, cls) with
    | Work.Query _, c when c <> Work.primary w.wl && w.wl <> Work.Mutate_mix ->
        fail t ("unexpected cache outcome " ^ c) line 1
    | _ -> ());
    let suffix =
      if explain then begin
        (match Option.bind (Json.parse resp |> Result.to_option) (Json.member "cost") with
        | Some c -> t.costs <- (r, c) :: t.costs
        | None -> ());
        match Expect.parse_result (Client.result_suffix resp) with
        | Some j -> {|"result":|} ^ Json.to_string j ^ "}"
        | None -> ""
      end
      else Client.result_suffix resp
    in
    let key = Work.check_key r in
    match Hashtbl.find_opt t.seen key with
    | None ->
        Hashtbl.add t.seen key { req = r; line; suffix; count = 1 };
        t.order <- key :: t.order
    | Some s when s.suffix = suffix -> s.count <- s.count + 1
    | Some _ -> fail t "answer differs from an earlier one" line 1
  end

(* Median over the distinct main-class requests of each one's fastest
   round trip in the run: a request repeats identical work, so its
   fastest repeat is the one least slowed by the host. *)
let best_p50 t =
  let best = Hashtbl.create 256 in
  List.iter
    (fun (k, lat) ->
      match Hashtbl.find_opt best k with
      | Some b when b <= lat -> ()
      | _ -> Hashtbl.replace best k lat)
    t.trail;
  (median (Array.of_seq (Hashtbl.to_seq_values best)), Hashtbl.length best)

let setup_once ~exe ~socket (w : Work.t) =
  let t0 = Client.now () in
  let c = Client.spawn ~exe ~socket ~log:(Filename.concat (Filename.dirname socket) "server.log") in
  List.iteri
    (fun i r ->
      let line = Work.line w ~id:(-1 - i) r in
      let resp, _ = Client.call c line in
      if not (Client.is_ok resp) then begin
        Client.shutdown c;
        failwith ("set-up request failed: " ^ line ^ " -> " ^ resp)
      end)
    w.setup;
  (c, Client.now () -. t0)

let stats c =
  let resp, _ = Client.call c {|{"req":"stats"}|} in
  metrics_of resp

(* [run ~seconds] drives the stream closed-loop for [seconds]; [run
   ~steps] drives exactly that many steps (the traced run), calling
   [on_step i] after step [i].  The last of the [setups] set-ups before
   the stream is the server measured; [setups_after] more follow the
   stream on fresh servers, so the set-up times sample the host at both
   ends of the run. *)
let run ~exe ~socket ~setups ?(setups_after = 0) ~explain ?seconds ?steps ?(on_step = ignore)
    (w : Work.t) =
  let rec setups_loop k acc =
    let c, s = setup_once ~exe ~socket w in
    if k = 1 then (c, List.rev (s :: acc))
    else begin
      Client.shutdown c;
      setups_loop (k - 1) (s :: acc)
    end
  in
  let c, setup_s = setups_loop setups [] in
  let t =
    {
      classes = Hashtbl.create 8;
      seen = Hashtbl.create 256;
      order = [];
      setup_s;
      wall = 0.;
      attempted = 0;
      completed = 0;
      failed = 0;
      failures = [];
      rss_mb = nan;
      stats0 = Json.Null;
      stats1 = Json.Null;
      costs = [];
      trail = [];
    }
  in
  Fun.protect
    ~finally:(fun () -> Client.shutdown c)
    (fun () ->
      if explain then t.stats0 <- stats c;
      let next_id = ref 0 in
      let t_start = Client.now () in
      let continue i =
        match (seconds, steps) with
        | _, Some n -> i < n
        | Some s, None -> Client.now () -. t_start < s
        | None, None -> false
      in
      let i = ref 0 in
      while continue !i do
        let reqs = w.step !i in
        let lines =
          List.map
            (fun r ->
              incr next_id;
              (r, !next_id, Work.line ~explain w ~id:!next_id r))
            reqs
        in
        if w.pipelined then begin
          let t0 = Client.now () in
          List.iter (fun (_, _, l) -> Client.send c l) lines;
          Client.flush c;
          List.iter
            (fun (r, id, l) ->
              let resp = Client.recv c in
              record t ~explain w r ~id l resp (Client.now () -. t0))
            lines;
          (* the window's round trip, amortized per request *)
          let lat = (Client.now () -. t0) /. float_of_int (List.length lines) in
          Fbuf.add (class_buf t "window") lat;
          let key = String.concat " " (List.map (fun (r, _, _) -> Work.check_key r) lines) in
          t.trail <- (key, lat) :: t.trail
        end
        else
          List.iter
            (fun (r, id, l) ->
              let resp, lat = Client.call c l in
              record t ~explain w r ~id l resp lat)
            lines;
        on_step !i;
        incr i
      done;
      t.wall <- Client.now () -. t_start;
      if explain then t.stats1 <- stats c;
      t.rss_mb <- Client.rss_peak_mb c);
  for _ = 1 to setups_after do
    let c, s = setup_once ~exe ~socket w in
    Client.shutdown c;
    t.setup_s <- t.setup_s @ [ s ]
  done;
  t.costs <- List.rev t.costs;
  t

(* ------------------------------------------------------------------ *)
(* Answer checks (after the timed phase)                              *)
(* ------------------------------------------------------------------ *)

let query_keys t =
  List.filter_map
    (fun k ->
      let s = Hashtbl.find t.seen k in
      match s.req.kind with
      | Work.Query { algo; r; gamma; _ } -> Some (k, s, (algo, r, gamma))
      | _ -> None)
    (List.rev t.order)

(* Expected answers by check key, from the public solvers. *)
let expected t (w : Work.t) =
  let exp = Hashtbl.create 64 in
  let qs = query_keys t in
  (match w.wl with
  | Work.Cold_solve ->
      List.iter
        (fun (k, (s : seen), (_, r, gamma)) ->
          Hashtbl.replace exp k
            (Expect.cold_solve (Expect.load_rows w.files.(s.req.ds)) ~r ~gamma))
        qs
  | Work.Warm_sweep | Work.Hit_storm ->
      Array.iteri
        (fun slot file ->
          let mine = List.filter (fun (_, (s : seen), _) -> s.req.slot = slot) qs in
          let answers = Expect.on_table (Expect.load_rows file) (List.map (fun (_, _, q) -> q) mine) in
          List.iter (fun (k, _, q) -> Hashtbl.replace exp k (List.assoc q answers)) mine)
        w.files
  | Work.Mutate_mix ->
      (* Mirror each table through the batches of an episode; solve a
         seeded sample of states and each table's last one. *)
      for slot = 0 to Array.length w.files - 1 do
        let mine = List.filter (fun (_, (s : seen), _) -> s.req.slot = slot) qs in
        let last = List.fold_left (fun acc (_, (s : seen), _) -> max acc s.req.ds) 0 mine in
        let sampled ds = ds = last || Hashtbl.hash (w.seed, slot, ds) mod 8 = 0 in
        if mine <> [] then begin
          let rows = ref (Expect.load_rows w.files.(slot)) in
          let m = Array.length !rows.(0) in
          let solve_state ds =
            if sampled ds then
              List.iter
                (fun (k, (s : seen), (_, r, gamma)) ->
                  if s.req.ds = ds then Hashtbl.replace exp k (Expect.cold_solve !rows ~r ~gamma))
                mine
          in
          solve_state 0;
          for b = 0 to last - 1 do
            rows :=
              (Rrms_core.Delta.apply ~dim:m !rows (List.map Work.to_delta (w.batch slot b))).rows;
            let ds = b + 1 in
            (match Hashtbl.find_opt t.seen (Printf.sprintf "mutate/%d/%d" slot b) with
            | Some s -> (
                match Option.bind (Expect.parse_result s.suffix) (Json.member "n") with
                | Some n when Json.int_ n = Some (Array.length !rows) -> ()
                | _ -> fail t "table size differs from the mirror" s.line s.count)
            | None -> ());
            solve_state ds
          done
        end
      done);
  exp

let check t w =
  let exp = expected t w in
  List.iter
    (fun (k, (s : seen), (_, r, _)) ->
      match Expect.parse_result s.suffix with
      | None -> fail t "unparsable answer" s.line s.count
      | Some j ->
          if not (Expect.shape_ok ~r j) then fail t "answer not exact or larger than r" s.line s.count
          else (
            match Hashtbl.find_opt exp k with
            | Some e when e <> Json.to_string j ->
                fail t "answer differs from the public solver" s.line s.count
            | _ -> ()))
    (query_keys t)
