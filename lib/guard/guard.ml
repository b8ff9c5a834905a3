module Obs = Rrms_obs.Obs

module Metrics = struct
  let probes =
    Obs.Counter.make
      ~help:"budgeted probe boundaries crossed (MRST probes, greedy steps)"
      "rrms_guard_probes_total"

  (* Deadline stops depend on wall-clock time, so stop counts are not
     reproducible across runs. *)
  let stops =
    Obs.Counter.make ~deterministic:false
      ~help:"budget stop decisions (deadline or probe cap)"
      "rrms_guard_stops_total"

  let errors =
    Obs.Counter.make ~deterministic:false
      ~help:"structured guard errors raised" "rrms_guard_errors_total"
end

module Error = struct
  type t =
    | Invalid_input of {
        what : string;
        line : int option;
        column : string option;
      }
    | Timeout of { elapsed : float; limit : float }
    | Resource_limit of { what : string; requested : int; limit : int }
    | Numerical of { what : string }

  exception Guard_error of t

  let to_string = function
    | Invalid_input { what; line; column } ->
        let where =
          match (line, column) with
          | Some l, Some c -> Printf.sprintf " (line %d, column %s)" l c
          | Some l, None -> Printf.sprintf " (line %d)" l
          | None, Some c -> Printf.sprintf " (column %s)" c
          | None, None -> ""
        in
        Printf.sprintf "invalid input: %s%s" what where
    | Timeout { elapsed; limit } ->
        Printf.sprintf "timeout: %.3fs elapsed, limit %.3fs" elapsed limit
    | Resource_limit { what; requested; limit } ->
        Printf.sprintf "resource limit: %s needs %d, limit %d" what requested
          limit
    | Numerical { what } -> Printf.sprintf "numerical error: %s" what

  let exit_code = function
    | Invalid_input _ -> 65 (* EX_DATAERR *)
    | Timeout _ -> 75 (* EX_TEMPFAIL *)
    | Resource_limit _ -> 69 (* EX_UNAVAILABLE *)
    | Numerical _ -> 70 (* EX_SOFTWARE *)

  let raise_error e =
    Obs.Counter.incr Metrics.errors;
    raise (Guard_error e)

  let invalid_input ?line ?column what =
    raise_error (Invalid_input { what; line; column })

  let resource_limit ~what ~requested ~limit =
    raise_error (Resource_limit { what; requested; limit })

  let numerical what = raise_error (Numerical { what })

  let () =
    Printexc.register_printer (function
      | Guard_error e -> Some ("Guard_error: " ^ to_string e)
      | _ -> None)
end

type reason =
  | Deadline of { elapsed : float; limit : float }
  | Probe_cap of { probes : int; limit : int }
  | Cell_cap of { requested : int; cap : int; gamma_from : int; gamma_to : int }
  | Numerical_skips of int

type quality = Exact | Degraded of reason list

let describe_reason = function
  | Deadline { elapsed; limit } ->
      Printf.sprintf "deadline %.3fs/%.3fs" elapsed limit
  | Probe_cap { probes; limit } -> Printf.sprintf "probe-cap %d/%d" probes limit
  | Cell_cap { requested; cap; gamma_from; gamma_to } ->
      Printf.sprintf "cell-cap %d>%d gamma %d->%d" requested cap gamma_from
        gamma_to
  | Numerical_skips n -> Printf.sprintf "numerical-skips %d" n

let describe = function
  | Exact -> "exact"
  | Degraded reasons ->
      Printf.sprintf "degraded(%s)"
        (String.concat "; " (List.map describe_reason reasons))

let degrade q reason =
  match q with
  | Exact -> Degraded [ reason ]
  | Degraded rs -> Degraded (rs @ [ reason ])

let is_exact = function Exact -> true | Degraded _ -> false

module Budget = struct
  type t = {
    started : float;
    timeout : float option;
    max_cells : int option;
    max_probes : int option;
    probes : int ref;
  }

  let unlimited =
    {
      started = 0.;
      timeout = None;
      max_cells = None;
      max_probes = None;
      probes = ref 0;
    }

  let create ?timeout ?max_cells ?max_probes () =
    {
      started = Unix.gettimeofday ();
      timeout;
      max_cells;
      max_probes;
      probes = ref 0;
    }

  let is_unlimited t =
    t.timeout = None && t.max_cells = None && t.max_probes = None

  let elapsed t =
    if t.timeout = None then 0. else Unix.gettimeofday () -. t.started

  let timeout t = t.timeout
  let max_cells t = t.max_cells

  let remaining t =
    Option.map
      (fun limit -> limit -. (Unix.gettimeofday () -. t.started))
      t.timeout

  let deadline_expired t =
    match t.timeout with
    | None -> None
    | Some limit ->
        let e = Unix.gettimeofday () -. t.started in
        if e >= limit then Some (Deadline { elapsed = e; limit }) else None

  let note_probe t =
    Obs.Counter.incr Metrics.probes;
    incr t.probes

  let stop_reason t =
    let r =
      match deadline_expired t with
      | Some _ as r -> r
      | None -> (
          match t.max_probes with
          | Some limit when !(t.probes) >= limit ->
              Some (Probe_cap { probes = !(t.probes); limit })
          | Some _ | None -> None)
    in
    if r <> None then Obs.Counter.incr Metrics.stops;
    r

  let check_cells t ~what cells =
    match t.max_cells with
    | Some limit when cells > limit ->
        Error.resource_limit ~what ~requested:cells ~limit
    | Some _ | None -> ()
end
