(* Shared plumbing for the figure-reproduction harness: wall-clock
   timing, dataset construction with fixed seeds, and the tabular output
   format every figure prints. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Every figure prints rows of the form
     [fig8] x=20000 series=2DRRMS/anti time=0.123 regret=0.0456
   so the whole run greps/plots cleanly. *)
let row fig ~x ?(x_name = "x") ~series ?time ?regret ?count () =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "[%s] %s=%s series=%s" fig x_name x series);
  Option.iter (fun t -> Buffer.add_string buf (Printf.sprintf " time=%.4f" t)) time;
  Option.iter
    (fun e -> Buffer.add_string buf (Printf.sprintf " regret=%.4f" e))
    regret;
  Option.iter (fun c -> Buffer.add_string buf (Printf.sprintf " count=%d" c)) count;
  print_endline (Buffer.contents buf)

let skipped fig ~x ?(x_name = "x") ~series ~reason () =
  Printf.printf "[%s] %s=%s series=%s skipped=%s\n" fig x_name x series reason

let header fig title = Printf.printf "\n== %s: %s ==\n" fig title

(* A bound a figure checks but that must not stop the run: it is
   recorded here and [main] fails the run once every group has written
   its file, so one noisy bound cannot cost the other groups' JSON. *)
let failed_checks : string list ref = ref []

let check fig ok msg =
  if not ok then failed_checks := Printf.sprintf "[%s] %s" fig msg :: !failed_checks

(* Deterministic seed per (figure, dataset) so re-runs are identical. *)
let seed_of tag = Hashtbl.hash tag land 0xFFFFFF

type correlation = [ `Correlated | `Independent | `Anticorrelated ]

let correlation_name = function
  | `Correlated -> "corr"
  | `Independent -> "indep"
  | `Anticorrelated -> "anti"

let correlations : correlation list =
  [ `Correlated; `Independent; `Anticorrelated ]

let synthetic kind ~n ~m =
  let rng = Rrms_rng.Rng.create (seed_of ("syn", correlation_name kind, m)) in
  Rrms_dataset.Synthetic.of_correlation kind rng ~n ~m

let nba ~n =
  Rrms_dataset.Realistic.nba (Rrms_rng.Rng.create (seed_of "nba")) ~n

let dot ~n =
  Rrms_dataset.Realistic.dot (Rrms_rng.Rng.create (seed_of "dot")) ~n

let airline ~n =
  Rrms_dataset.Realistic.airline (Rrms_rng.Rng.create (seed_of "airline")) ~n

let normalized_rows d =
  Rrms_dataset.Dataset.rows (Rrms_dataset.Dataset.normalize d)

let project_rows d m =
  normalized_rows (Rrms_dataset.Dataset.project d (Array.init m Fun.id))

(* Exact regret of a selection, dispatching on dimension. *)
let exact_regret points selected =
  if Array.length selected = 0 then 1.
  else if Array.length points.(0) = 2 then
    Rrms_core.Regret.exact_2d ~selected points
  else Rrms_core.Regret.exact_lp ~selected points

(* Scaled-down experiment sizes.  [Small] is the default (full run of
   every figure in minutes); [Paper] moves closer to the published
   sizes where the asymptotics allow. *)
type scale = Small | Paper

let scale_of_string = function
  | "small" -> Ok Small
  | "paper" -> Ok Paper
  | s -> Error (Printf.sprintf "unknown scale %S (use small | paper)" s)
