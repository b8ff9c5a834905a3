(* Expected answers, computed in-process through the library's public
   solvers (never through Store or Server), and the checks every socket
   answer must pass. *)

module Json = Rrms_serve.Json
module Dataset = Rrms_dataset.Dataset
module Skyline = Rrms_skyline.Skyline
module Discretize = Rrms_core.Discretize
module Regret_matrix = Rrms_core.Regret_matrix
module Hd_rrms = Rrms_core.Hd_rrms
module Hd_greedy = Rrms_core.Hd_greedy
module Delta = Rrms_core.Delta
module Guard = Rrms_guard.Guard

let ints a = Json.Arr (Array.to_list (Array.map Json.int a))

let quality q =
  [
    ("quality", Json.Str (Guard.describe q));
    ("degraded", Json.Bool (not (Guard.is_exact q)));
  ]

(* The wire [result] of each solver, field for field. *)
let of_hd_rrms (x : Hd_rrms.result) =
  Json.Obj
    ([
       ("algo", Json.Str "hd-rrms");
       ("selected", ints x.selected);
       ("size", Json.int (Array.length x.selected));
       ("eps_min", Json.float x.eps_min);
       ("discretized_regret", Json.float x.discretized_regret);
       ("guarantee", Json.float x.guarantee);
       ("gamma_used", Json.int x.gamma_used);
     ]
    @ quality x.quality)

let of_hd_greedy (x : Hd_greedy.result) =
  Json.Obj
    ([
       ("algo", Json.Str "hd-greedy");
       ("selected", ints x.selected);
       ("size", Json.int (Array.length x.selected));
       ("discretized_regret", Json.float x.discretized_regret);
       ("gamma_used", Json.int x.gamma_used);
     ]
    @ quality x.quality)

(* As the server loads them: the socket [load] lines ask for no
   normalization. *)
let load_rows path = Dataset.rows (Dataset.of_csv path)

let cold_solve rows ~r ~gamma =
  Json.to_string (of_hd_rrms (Hd_rrms.solve ~gamma ~domains:1 rows ~r))

(* Answers for many (algo, r, γ) over one table: one skyline, one
   from-scratch matrix per γ (so a server that derived the matrix from a
   wider grid is checked against an independent build). *)
let on_table rows queries =
  let sky = Skyline.sfs ~domains:1 rows in
  let points = Array.map (fun i -> rows.(i)) sky in
  let m = Array.length rows.(0) in
  let mats = Hashtbl.create 4 in
  let matrix gamma =
    match Hashtbl.find_opt mats gamma with
    | Some x -> x
    | None ->
        let x =
          Regret_matrix.build ~domains:1 ~funcs:(Discretize.grid ~gamma ~m) points
        in
        Hashtbl.add mats gamma x;
        x
  in
  List.map
    (fun (algo, r, gamma) ->
      let mat = matrix gamma in
      let json =
        if algo = "hd-greedy" then
          of_hd_greedy
            (Hd_greedy.solve_prepared ~domains:1 ~skyline:sky ~gamma_used:gamma mat ~r)
        else
          of_hd_rrms
            (Hd_rrms.solve_prepared ~domains:1 ~skyline:sky ~gamma_used:gamma ~m mat ~r)
      in
      ((algo, r, gamma), Json.to_string json))
    queries

(* Structural checks on one query answer: exact and no larger than r. *)
let shape_ok ~r json =
  Json.member "quality" json = Some (Json.Str "exact")
  && Json.member "degraded" json = Some (Json.Bool false)
  &&
  match Option.bind (Json.member "size" json) Json.int_ with
  | Some s -> s >= 1 && s <= r
  | None -> false

(* The [result] member of a stored result suffix (see
   [Client.result_suffix]). *)
let parse_result suffix =
  match Json.parse ("{" ^ suffix) with
  | Ok j -> Json.member "result" j
  | Error _ -> None
