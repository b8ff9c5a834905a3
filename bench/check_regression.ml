(* check_regression: diff freshly-run bench output against committed
   BENCH_*.json baselines, with per-metric tolerances.

   Usage: check_regression [--tolerant] [--tolerance F] \
            BASELINE FRESH [BASELINE FRESH ...]

   The two files are walked together.  Identity fields (the parameters
   that define what was measured: benchmark, n, m, gamma, kernel, …)
   must be equal or the comparison is structurally invalid.  Metric
   fields are judged by name:

   - higher-is-better: "speedup", "speedup_vs_1" — a regression when
     the fresh value falls below the baseline by more than the
     tolerance;
   - lower-is-better: "ratio_vs_disabled", "ratio_vs_untraced",
     "ratio_vs_exact", "mutate_major_words" (the words one mutation
     batch allocates in the major heap: a count, so it transfers
     between machines), "hit_minor_words" (the minor words one cached
     hit allocates through a session: a count too), "cell_order_bytes"
     (the bytes of one matrix's cached cell order: a size, the same on
     every machine), and the kernel
     perf gates
     ("matrix_build_seconds", "mrst_binary_search_seconds",
     "hd_rrms_solve_seconds") — a regression when the fresh value
     exceeds the baseline by more than the tolerance;
   - informational: raw per-sample wall-clock ("*seconds*" outside the
     gates object) and quality detail fields — printed, never failed
     on, because absolute times do not transfer between machines.  So
     is "ratio_vs_exact" in a sample whose "budget_kind" is "timeout":
     whether a wall-clock deadline leaves the answer exact or degraded
     depends on how fast the host solves, so only the "exact" and
     "probe-cap" samples gate it.

   - bounded: a field that must not exceed a sibling field of the same
     fresh object, whatever the baseline says — "wal_replay_seconds"
     against "rebuild_seconds" (WAL replay re-applies the journaled
     batches through the incremental path, so it must never cost more
     than rebuilding the final table from scratch).  A ratio of two
     times taken in one run on one machine, so it holds on any
     hardware and --tolerant does not loosen it.

   "speedup_vs_1" and the gate seconds additionally depend on the
   machine (core count / absolute speed), so they are skipped (not
   failed) whenever the two files disagree on "cpu_cores_available" —
   or the baseline predates the field.  "answer_digest" is an identity
   field: it must match everywhere, on any hardware.

   --tolerant is the shared-CI-runner mode: higher-is-better metrics
   only fail below 10% of the baseline, lower-is-better above
   1.25x + 0.05 — loose enough for noisy neighbours, tight enough to
   catch a reuse path that stopped reusing.  The kernel perf gates are
   exempt from the loosening: on matching hardware they always use the
   strict tolerance (they exist to catch the optimized kernels
   regressing, and on mismatched hardware they are skipped anyway).

   Exit codes: 0 ok, 1 regression, 2 structural mismatch / bad input. *)

module Json = Rrms_serve.Json

type rule = Higher_better | Lower_better | Identity | Info

let rule_of_key key =
  match key with
  | "speedup" | "speedup_vs_1" | "rehydrate_speedup" -> Higher_better
  | "ratio_vs_disabled" | "ratio_vs_untraced" | "ratio_vs_exact"
  | "mutate_major_words" | "hit_minor_words" | "cell_order_bytes"
  | "matrix_build_seconds" | "mrst_binary_search_seconds"
  | "hd_rrms_solve_seconds" ->
      Lower_better
  | "benchmark" | "dataset" | "n" | "m" | "gamma" | "r" | "repeats"
  | "kernel" | "algo" | "level" | "domains" | "budget_kind" | "budget"
  | "answer_digest" | "corrupt_blobs" ->
      Identity
  | _ -> Info

(* Fields that [rule_of_key] gates but that, in an object like
   [fields], measure the host rather than the code. *)
let host_dependent fields key =
  key = "ratio_vs_exact"
  && List.assoc_opt "budget_kind" fields = Some (Json.Str "timeout")

let core_sensitive = function
  | "speedup_vs_1" | "matrix_build_seconds" | "mrst_binary_search_seconds"
  | "hd_rrms_solve_seconds" ->
      true
  | _ -> false

(* The kernel perf gates never get the --tolerant loosening: on matching
   hardware a kernel regression is a kernel regression. *)
let strict_always = function
  | "matrix_build_seconds" | "mrst_binary_search_seconds"
  | "hd_rrms_solve_seconds" ->
      true
  | _ -> false

type totals = {
  mutable checked : int;
  mutable regressions : int;
  mutable structural : int;
  mutable skipped : int;
  mutable info : int;
}

let totals = { checked = 0; regressions = 0; structural = 0; skipped = 0; info = 0 }

let tolerant = ref false
let tolerance = ref 0.10

let fail_structural path msg =
  totals.structural <- totals.structural + 1;
  Printf.printf "  STRUCT   %-46s %s\n" path msg

let report verdict path detail =
  Printf.printf "  %-8s %-46s %s\n" verdict path detail

let num_str v = Printf.sprintf "%g" v

(* One numeric metric: apply the rule, honouring the mode. *)
let check_metric ~cores_match path key baseline fresh =
  match rule_of_key key with
  | Identity ->
      totals.checked <- totals.checked + 1;
      if baseline <> fresh then
        fail_structural path
          (Printf.sprintf "identity field differs: baseline %s, fresh %s"
             (num_str baseline) (num_str fresh))
  | Info ->
      totals.info <- totals.info + 1
  | (Higher_better | Lower_better) when core_sensitive key && not cores_match
    ->
      totals.skipped <- totals.skipped + 1;
      report "SKIP" path "core-count-sensitive metric on mismatched hardware"
  | Higher_better ->
      totals.checked <- totals.checked + 1;
      let floor =
        if !tolerant then baseline *. 0.1 else baseline *. (1. -. !tolerance)
      in
      if fresh < floor then begin
        totals.regressions <- totals.regressions + 1;
        report "REGRESS" path
          (Printf.sprintf "baseline %s, fresh %s (floor %s)" (num_str baseline)
             (num_str fresh) (num_str floor))
      end
      else
        report "ok" path
          (Printf.sprintf "baseline %s, fresh %s" (num_str baseline)
             (num_str fresh))
  | Lower_better ->
      totals.checked <- totals.checked + 1;
      let ceiling =
        if !tolerant && not (strict_always key) then
          (baseline *. 1.25) +. 0.05
        else (baseline *. (1. +. !tolerance)) +. 1e-9
      in
      if fresh > ceiling then begin
        totals.regressions <- totals.regressions + 1;
        report "REGRESS" path
          (Printf.sprintf "baseline %s, fresh %s (ceiling %s)"
             (num_str baseline) (num_str fresh) (num_str ceiling))
      end
      else
        report "ok" path
          (Printf.sprintf "baseline %s, fresh %s" (num_str baseline)
             (num_str fresh))

(* (a, b): in any fresh object holding both, field [a] <= field [b]. *)
let bounded_by = [ ("wal_replay_seconds", "rebuild_seconds") ]

let check_bounds path fields =
  List.iter
    (fun (a, b) ->
      match (List.assoc_opt a fields, List.assoc_opt b fields) with
      | Some (Json.Num x), Some (Json.Num y) ->
          totals.checked <- totals.checked + 1;
          let sub = if path = "" then a else path ^ "." ^ a in
          let detail =
            Printf.sprintf "fresh %s, bound %s = %s" (num_str x) b (num_str y)
          in
          if x > y then begin
            totals.regressions <- totals.regressions + 1;
            report "REGRESS" sub detail
          end
          else report "ok" sub detail
      | _ -> ())
    bounded_by

let rec walk ~cores_match path (baseline : Json.t) (fresh : Json.t) =
  match (baseline, fresh) with
  | Json.Obj bfields, Json.Obj ffields ->
      check_bounds path ffields;
      List.iter
        (fun (key, bv) ->
          let sub = if path = "" then key else path ^ "." ^ key in
          match List.assoc_opt key ffields with
          | None ->
              (* cpu_cores_available may be absent from either side
                 during the transition; everything else must exist. *)
              if key <> "cpu_cores_available" then
                fail_structural sub "missing from fresh output"
          | Some _ when host_dependent bfields key ->
              totals.info <- totals.info + 1
          | Some fv -> walk ~cores_match sub bv fv)
        bfields
  | Json.Arr bitems, Json.Arr fitems ->
      if List.length bitems <> List.length fitems then
        fail_structural path
          (Printf.sprintf "array length differs: baseline %d, fresh %d"
             (List.length bitems) (List.length fitems))
      else
        List.iteri
          (fun i (bv, fv) ->
            walk ~cores_match (Printf.sprintf "%s[%d]" path i) bv fv)
          (List.combine bitems fitems)
  | Json.Num bv, Json.Num fv ->
      let key =
        match String.rindex_opt path '.' with
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        | None -> path
      in
      check_metric ~cores_match path key bv fv
  | Json.Str bs, Json.Str fs ->
      let key =
        match String.rindex_opt path '.' with
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        | None -> path
      in
      (* String-typed identity fields pin the row shape; string-typed
         detail (quality, probes-allowed) is informational. *)
      if rule_of_key key = Identity && bs <> fs then
        fail_structural path
          (Printf.sprintf "identity field differs: baseline %S, fresh %S" bs
             fs)
      else totals.info <- totals.info + 1
  | Json.Bool b, Json.Bool f ->
      if b <> f then
        report "note" path
          (Printf.sprintf "boolean differs: baseline %b, fresh %b" b f)
  | Json.Null, Json.Null -> ()
  | _ -> fail_structural path "type mismatch between baseline and fresh"

let load path =
  match open_in path with
  | exception Sys_error msg ->
      Printf.eprintf "check_regression: cannot open %s: %s\n" path msg;
      exit 2
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      (match Json.parse s with
      | Ok j -> j
      | Error msg ->
          Printf.eprintf "check_regression: %s: parse error: %s\n" path msg;
          exit 2)

let cores_of j =
  match Json.member "cpu_cores_available" j with
  | Some v -> Json.num v
  | None -> None

let compare_pair baseline_path fresh_path =
  Printf.printf "%s vs %s\n" baseline_path fresh_path;
  let baseline = load baseline_path and fresh = load fresh_path in
  let cores_match =
    match (cores_of baseline, cores_of fresh) with
    | Some b, Some f -> b = f
    | _ -> false
  in
  if not cores_match then
    Printf.printf
      "  (cpu_cores_available differs or missing — core-sensitive metrics \
       will be skipped)\n";
  walk ~cores_match "" baseline fresh

let () =
  let pairs = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--tolerant" :: rest ->
        tolerant := true;
        parse_args rest
    | "--tolerance" :: v :: rest -> (
        match float_of_string_opt v with
        | Some f when f >= 0. ->
            tolerance := f;
            parse_args rest
        | _ ->
            Printf.eprintf "check_regression: bad --tolerance %S\n" v;
            exit 2)
    | baseline :: fresh :: rest ->
        pairs := (baseline, fresh) :: !pairs;
        parse_args rest
    | [ odd ] ->
        Printf.eprintf
          "check_regression: %S has no fresh file to compare against\n" odd;
        exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let pairs = List.rev !pairs in
  if pairs = [] then begin
    Printf.eprintf
      "usage: check_regression [--tolerant] [--tolerance F] BASELINE FRESH \
       [BASELINE FRESH ...]\n";
    exit 2
  end;
  List.iter (fun (b, f) -> compare_pair b f) pairs;
  Printf.printf
    "\n%d checked, %d regressions, %d structural, %d skipped, %d \
     informational (%s mode)\n"
    totals.checked totals.regressions totals.structural totals.skipped
    totals.info
    (if !tolerant then "tolerant" else "strict");
  if totals.structural > 0 then exit 2
  else if totals.regressions > 0 then exit 1
  else exit 0
