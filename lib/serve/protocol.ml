module Guard = Rrms_guard.Guard

type algo = A2d | A2d_exact | Sweepline | Hd_rrms | Hd_greedy | Greedy | Cube

let algo_of_string = function
  | "2d" -> Some A2d
  | "2d-exact" -> Some A2d_exact
  | "sweepline" -> Some Sweepline
  | "hd-rrms" -> Some Hd_rrms
  | "hd-greedy" -> Some Hd_greedy
  | "greedy" -> Some Greedy
  | "cube" -> Some Cube
  | _ -> None

let algo_to_string = function
  | A2d -> "2d"
  | A2d_exact -> "2d-exact"
  | Sweepline -> "sweepline"
  | Hd_rrms -> "hd-rrms"
  | Hd_greedy -> "hd-greedy"
  | Greedy -> "greedy"
  | Cube -> "cube"

type query = {
  dataset : string;
  algo : algo;
  r : int;
  gamma : int;
  timeout : float option;
  max_cells : int option;
  max_probes : int option;
  use_cache : bool;
  explain : bool;
}

(* Optional distributed-trace envelope: any request may carry a
   ["trace"] object; a router injects one into every fan-out leg and
   batch item so worker spans and counter deltas land under the
   originating trace id.  The envelope never participates in caching —
   [cache_key] ignores it — and never changes the [result] bytes. *)
type trace = {
  trace_id : string;
  parent_span : string;
  origin_request : string;
  origin_session : string;
  deadline : float option;
}

let trace_member t =
  ( "trace",
    Json.Obj
      (("id", Json.Str t.trace_id)
      :: ((if t.parent_span <> "" then [ ("parent", Json.Str t.parent_span) ]
           else [])
         @ (if t.origin_request <> "" then
              [ ("request_id", Json.Str t.origin_request) ]
            else [])
         @ (if t.origin_session <> "" then
              [ ("session_id", Json.Str t.origin_session) ]
            else [])
         @
         match t.deadline with
         | Some d -> [ ("deadline", Json.float d) ]
         | None -> [])) )

type mutation_op =
  | Op_insert of float array
  | Op_delete of int
  | Op_upsert of int * float array

type load = {
  path : string;
  name : string option;
  normalize : bool;
  lenient : bool;
  shard : (int * int) option;
}

type request =
  | Load of load
  | Query of query
  | Batch of { dataset : string; items : (query, string * string) result array }
  | Mutate of {
      dataset : string;
      ops : mutation_op array;
      timeout : float option;
    }
  | Skyline of { dataset : string; timeout : float option }
  | Stats
  | Metrics
  | Evict of { dataset : string }
  | Ping
  | Shutdown

let error_code_of_guard : Guard.Error.t -> string = function
  | Guard.Error.Invalid_input _ -> "invalid_input"
  | Guard.Error.Timeout _ -> "timeout"
  | Guard.Error.Resource_limit _ -> "resource_limit"
  | Guard.Error.Numerical _ -> "numerical"

exception Shard_failure of string

(* The one exception→wire-error mapping, shared by the store server, the
   batch per-item path and the shard router so a given failure reports
   the same code everywhere.  [None] means "not a request-level error":
   the caller decides between 500-style internal and re-raise. *)
let error_of_exn = function
  | Guard.Error.Guard_error err ->
      Some (error_code_of_guard err, Guard.Error.to_string err)
  | Invalid_argument msg | Failure msg -> Some ("invalid_input", msg)
  | Shard_failure msg -> Some ("shard_failure", msg)
  | Rrms_parallel.Fault.Injected w ->
      Some ("internal", Printf.sprintf "injected fault in worker %d" w)
  | _ -> None

type parsed = {
  id : Json.t;
  req : (request, string * string) result;
  trace : trace option;
}

(* Field readers over the request object; every shape problem becomes a
   [bad_request] with the offending field named, never an exception. *)
exception Bad_request of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_request msg)) fmt

let req_string obj field =
  match Json.member field obj with
  | Some (Json.Str s) when s <> "" -> s
  | Some _ -> bad "field %S must be a non-empty string" field
  | None -> bad "missing required field %S" field

let opt_string obj field =
  match Json.member field obj with
  | None | Some Json.Null -> None
  | Some (Json.Str s) -> Some s
  | Some _ -> bad "field %S must be a string" field

let opt_bool obj field ~default =
  match Json.member field obj with
  | None | Some Json.Null -> default
  | Some (Json.Bool b) -> b
  | Some _ -> bad "field %S must be a boolean" field

let req_int obj field =
  match Json.member field obj with
  | Some j -> (
      match Json.int_ j with
      | Some i -> i
      | None -> bad "field %S must be an integer" field)
  | None -> bad "missing required field %S" field

let opt_int obj field =
  match Json.member field obj with
  | None | Some Json.Null -> None
  | Some j -> (
      match Json.int_ j with
      | Some i -> Some i
      | None -> bad "field %S must be an integer" field)

let opt_number obj field =
  match Json.member field obj with
  | None | Some Json.Null -> None
  | Some (Json.Num v) when Float.is_finite v -> Some v
  | Some _ -> bad "field %S must be a finite number" field

let parse_query obj =
  let dataset = req_string obj "dataset" in
  let algo =
    let s = req_string obj "algo" in
    match algo_of_string s with
    | Some a -> a
    | None ->
        bad
          "unknown algo %S (expected 2d | 2d-exact | sweepline | hd-rrms | \
           hd-greedy | greedy | cube)"
          s
  in
  let r = req_int obj "r" in
  if r < 1 then bad "field \"r\" must be >= 1";
  let gamma = match opt_int obj "gamma" with None -> 4 | Some g -> g in
  if gamma < 1 then bad "field \"gamma\" must be >= 1";
  let timeout = opt_number obj "timeout" in
  (match timeout with
  | Some t when t <= 0. -> bad "field \"timeout\" must be > 0"
  | _ -> ());
  let check_pos field v =
    match v with
    | Some c when c < 1 -> bad "field %S must be >= 1" field
    | _ -> v
  in
  let max_cells = check_pos "max_cells" (opt_int obj "max_cells") in
  let max_probes = check_pos "max_probes" (opt_int obj "max_probes") in
  let use_cache = opt_bool obj "cache" ~default:true in
  let explain = opt_bool obj "explain" ~default:false in
  Query
    {
      dataset;
      algo;
      r;
      gamma;
      timeout;
      max_cells;
      max_probes;
      use_cache;
      explain;
    }

let max_batch_items = 1024

(* Parse one batch item: the batch-level dataset is authoritative, so an
   item either omits "dataset" or repeats it verbatim.  Item-shape
   problems become per-item errors, not a batch-level failure — the
   other items still run. *)
let parse_batch_item ~dataset i obj =
  match
    (match Json.member "dataset" obj with
    | Some (Json.Str d) when d <> dataset ->
        bad "item dataset %S must match the batch dataset" d
    | _ -> ());
    let obj =
      match obj with
      | Json.Obj fields when Option.is_none (Json.field "dataset" fields) ->
          Json.Obj (("dataset", Json.Str dataset) :: fields)
      | _ -> obj
    in
    parse_query obj
  with
  | Query q -> Ok q
  | _ -> assert false (* parse_query only builds Query *)
  | exception Bad_request msg ->
      Error ("bad_request", Printf.sprintf "item %d: %s" i msg)

let parse_batch obj =
  let dataset = req_string obj "dataset" in
  match Json.member "items" obj with
  | Some (Json.Arr items) ->
      if items = [] then bad "field \"items\" must not be empty";
      if List.length items > max_batch_items then
        bad "field \"items\" exceeds the %d-item batch limit" max_batch_items;
      let items =
        Array.of_list
          (List.mapi
             (fun i item ->
               match item with
               | Json.Obj _ -> parse_batch_item ~dataset i item
               | _ ->
                   Error
                     ( "bad_request",
                       Printf.sprintf "item %d: must be an object" i ))
             items)
      in
      Batch { dataset; items }
  | Some _ -> bad "field \"items\" must be an array"
  | None -> bad "missing required field \"items\""

(* Mutation parsing.  Unlike batch items, a mutation batch is
   transactional — it applies atomically or not at all — so any
   malformed op fails the whole request with [bad_request]. *)
let req_values obj =
  match Json.member "values" obj with
  | Some (Json.Arr (_ :: _ as l)) ->
      Array.of_list
        (List.map
           (function
             | Json.Num v when Float.is_finite v && v >= 0. -> v
             | _ ->
                 bad
                   "field \"values\" must contain finite non-negative numbers")
           l)
  | Some _ -> bad "field \"values\" must be a non-empty array of numbers"
  | None -> bad "missing required field \"values\""

let req_index obj =
  let i = req_int obj "index" in
  if i < 0 then bad "field \"index\" must be >= 0";
  i

let parse_op obj =
  match req_string obj "op" with
  | "insert" -> Op_insert (req_values obj)
  | "delete" -> Op_delete (req_index obj)
  | "upsert" -> Op_upsert (req_index obj, req_values obj)
  | k -> bad "unknown mutation op %S (expected insert | delete | upsert)" k

let parse_mutation obj ops =
  let timeout = opt_number obj "timeout" in
  (match timeout with
  | Some t when t <= 0. -> bad "field \"timeout\" must be > 0"
  | _ -> ());
  Mutate { dataset = req_string obj "dataset"; ops; timeout }

let parse_mutate_batch obj =
  match Json.member "ops" obj with
  | Some (Json.Arr ops) ->
      if ops = [] then bad "field \"ops\" must not be empty";
      if List.length ops > max_batch_items then
        bad "field \"ops\" exceeds the %d-op batch limit" max_batch_items;
      let ops =
        Array.of_list
          (List.mapi
             (fun i op ->
               match op with
               | Json.Obj _ -> (
                   try parse_op op
                   with Bad_request msg -> bad "op %d: %s" i msg)
               | _ -> bad "op %d: must be an object" i)
             ops)
      in
      parse_mutation obj ops
  | Some _ -> bad "field \"ops\" must be an array"
  | None -> bad "missing required field \"ops\""

let parse_body obj =
  match Json.member "req" obj with
  | None -> bad "missing required field \"req\""
  | Some (Json.Str kind) -> (
      match kind with
      | "load" ->
          let shard =
            match (opt_int obj "shard_index", opt_int obj "shard_count") with
            | None, None -> None
            | Some s, Some count ->
                if count < 1 then bad "field \"shard_count\" must be >= 1";
                if s < 0 || s >= count then
                  bad "field \"shard_index\" must be in [0, shard_count)";
                Some (s, count)
            | _ ->
                bad
                  "fields \"shard_index\" and \"shard_count\" must be given \
                   together"
          in
          Load
            {
              path = req_string obj "path";
              name = opt_string obj "name";
              normalize = opt_bool obj "normalize" ~default:false;
              lenient = opt_bool obj "lenient" ~default:false;
              shard;
            }
      | "query" -> parse_query obj
      | "batch" -> parse_batch obj
      | "insert" -> parse_mutation obj [| Op_insert (req_values obj) |]
      | "delete" -> parse_mutation obj [| Op_delete (req_index obj) |]
      | "upsert" ->
          parse_mutation obj [| Op_upsert (req_index obj, req_values obj) |]
      | "mutate" -> parse_mutate_batch obj
      | "skyline" ->
          let timeout = opt_number obj "timeout" in
          (match timeout with
          | Some t when t <= 0. -> bad "field \"timeout\" must be > 0"
          | _ -> ());
          Skyline { dataset = req_string obj "dataset"; timeout }
      | "stats" -> Stats
      | "metrics" -> Metrics
      | "evict" -> Evict { dataset = req_string obj "dataset" }
      | "ping" -> Ping
      | "shutdown" -> Shutdown
      | k ->
          bad
            "unknown request kind %S (expected load | query | batch | insert \
             | delete | upsert | mutate | skyline | stats | metrics | evict | \
             ping | shutdown)"
            k)
  | Some _ -> bad "field \"req\" must be a string"

(* The trace envelope is parsed independently of the body: a valid
   envelope on a malformed request still scopes the error handling, and
   a malformed envelope fails the request like any other bad field. *)
let parse_trace obj =
  match Json.member "trace" obj with
  | None | Some Json.Null -> None
  | Some (Json.Obj _ as t) ->
      let trace_id = req_string t "id" in
      let parent_span = Option.value ~default:"" (opt_string t "parent") in
      let origin_request =
        Option.value ~default:"" (opt_string t "request_id")
      in
      let origin_session =
        Option.value ~default:"" (opt_string t "session_id")
      in
      let deadline = opt_number t "deadline" in
      Some { trace_id; parent_span; origin_request; origin_session; deadline }
  | Some _ -> bad "field \"trace\" must be an object"

let parse_request line =
  match Json.parse line with
  | Error msg -> { id = Json.Null; req = Error ("parse", msg); trace = None }
  | Ok (Json.Obj _ as obj) -> (
      let id = Option.value ~default:Json.Null (Json.member "id" obj) in
      match
        let trace = parse_trace obj in
        (parse_body obj, trace)
      with
      | req, trace -> { id; req = Ok req; trace }
      | exception Bad_request msg ->
          { id; req = Error ("bad_request", msg); trace = None })
  | Ok _ ->
      {
        id = Json.Null;
        req = Error ("bad_request", "request must be an object");
        trace = None;
      }

(* Decimal digits of a non-negative int, appended without allocating. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n else Buffer.add_string b (string_of_int n)

let cache_key q =
  (* Budgets and cache flags never select the answer; γ only matters to
     the grid-discretized algorithms.  These bytes name persisted
     results, so they never change. *)
  let b = Buffer.create 32 in
  Buffer.add_string b "algo=";
  Buffer.add_string b (algo_to_string q.algo);
  Buffer.add_string b ";r=";
  add_int b q.r;
  (match q.algo with
  | Hd_rrms | Hd_greedy ->
      Buffer.add_string b ";gamma=";
      add_int b q.gamma
  | A2d | A2d_exact | Sweepline | Greedy | Cube -> ());
  Buffer.contents b

let algo_of_cache_key ckey =
  match String.index_opt ckey ';' with
  | Some i when i > 5 && String.starts_with ~prefix:"algo=" ckey ->
      algo_of_string (String.sub ckey 5 (i - 5))
  | _ -> None

let budget_of q =
  match (q.timeout, q.max_cells, q.max_probes) with
  | None, None, None -> Guard.Budget.unlimited
  | timeout, max_cells, max_probes ->
      Guard.Budget.create ?timeout ?max_cells ?max_probes ()

(* Milliseconds at microsecond resolution, the resolution of
   [Unix.gettimeofday]: integer digits, a point and three decimals. *)
let add_millis b ms =
  if Float.is_nan ms || Float.abs ms >= 1e12 then
    Buffer.add_string b (Json.number_string ms)
  else begin
    if ms < 0. then Buffer.add_char b '-';
    let us = Float.to_int (Float.round (Float.abs ms *. 1000.)) in
    add_digits b (us / 1000);
    Buffer.add_char b '.';
    let frac = us mod 1000 in
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (frac / 100)));
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (frac / 10 mod 10)));
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (frac mod 10)))
  end

(* The one reply envelope, written straight into a buffer sized from
   the spliced result.  [cost] is a sibling of [result], never inside
   it: the [result] bytes are what the cache stores and what
   byte-identity tests compare, so provenance must not perturb them. *)
let ok_response ?cost ~id ~cached ~elapsed_ms result =
  let b =
    Buffer.create
      (match result with Json.Raw s -> String.length s + 80 | _ -> 256)
  in
  Buffer.add_string b {|{"id":|};
  Json.write b id;
  Buffer.add_string b
    (if cached then {|,"ok":true,"cached":true,"elapsed_ms":|}
     else {|,"ok":true,"cached":false,"elapsed_ms":|});
  add_millis b elapsed_ms;
  Buffer.add_string b {|,"result":|};
  Json.write b result;
  (match cost with
  | Some c ->
      Buffer.add_string b {|,"cost":|};
      Json.write b c
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let error_response ~id ~code ~message =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj [ ("code", Json.Str code); ("message", Json.Str message) ]
         );
       ])
