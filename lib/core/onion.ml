open Rrms_geom

type t = {
  points : Vec.t array;
  layers : int array array; (* indices into [points], chain order *)
  hulls : Hull2d.t array; (* the layer hulls, for O(log c) top-1 *)
  layer_maps : int array array; (* hull-local index -> original index *)
  exhaustive : bool;
}

let build ?max_layers points =
  if Array.length points = 0 then invalid_arg "Onion.build: empty input";
  Array.iter
    (fun p ->
      if Array.length p <> 2 then invalid_arg "Onion.build: dimension <> 2")
    points;
  let limit = match max_layers with Some l -> max 1 l | None -> max_int in
  let layers = ref [] and hulls = ref [] and maps = ref [] in
  (* [remaining] maps positions of the current sub-array back to the
     original indices. *)
  let remaining = ref (Array.init (Array.length points) Fun.id) in
  let count = ref 0 in
  while Array.length !remaining > 0 && !count < limit do
    let sub = Array.map (fun i -> points.(i)) !remaining in
    let hull = Hull2d.build sub in
    let local = Hull2d.vertices hull in
    let representatives = Array.map (fun li -> !remaining.(li)) local in
    (* A layer holds every remaining tuple whose coordinates sit on the
       hull — duplicates score identically to their representative, so
       they belong to the same layer (and must not linger in
       [remaining] forever). *)
    let on_layer = Hashtbl.create 16 in
    Array.iter
      (fun i -> Hashtbl.replace on_layer (points.(i).(0), points.(i).(1)) ())
      representatives;
    let members, rest =
      Array.to_seq !remaining
      |> Seq.partition (fun i ->
             Hashtbl.mem on_layer (points.(i).(0), points.(i).(1)))
    in
    layers := Array.of_seq members :: !layers;
    hulls := hull :: !hulls;
    maps := representatives :: !maps;
    remaining := Array.of_seq rest;
    incr count
  done;
  {
    points;
    layers = Array.of_list (List.rev !layers);
    hulls = Array.of_list (List.rev !hulls);
    layer_maps = Array.of_list (List.rev !maps);
    exhaustive = Array.length !remaining = 0;
  }

let depth t = Array.length t.layers
let layer t i = Array.copy t.layers.(i)

let size_upto t k =
  let acc = ref 0 in
  for i = 0 to min k (depth t) - 1 do
    acc := !acc + Array.length t.layers.(i)
  done;
  !acc

let exhaustive t = t.exhaustive

let check_weight w =
  if Array.length w <> 2 then invalid_arg "Onion: weight vector not 2D";
  if w.(0) < 0. || w.(1) < 0. || (w.(0) = 0. && w.(1) = 0.) then
    invalid_arg "Onion: weights must be non-negative and non-zero"

let top1 t w =
  check_weight w;
  let phi = Polar.angle_2d w in
  let hull = t.hulls.(0) in
  let local = Hull2d.max_index_at hull phi in
  t.layer_maps.(0).(local)

let topk t w ~k =
  check_weight w;
  if k < 1 then invalid_arg "Onion.topk: k must be >= 1";
  if (not t.exhaustive) && k > depth t then
    invalid_arg "Onion.topk: truncated index too shallow for this k";
  let upto = min k (depth t) in
  let pool = ref [] in
  for i = 0 to upto - 1 do
    Array.iter (fun idx -> pool := idx :: !pool) t.layers.(i)
  done;
  let arr = Array.of_list !pool in
  Array.sort
    (fun a b ->
      let c = Float.compare (Vec.dot w t.points.(b)) (Vec.dot w t.points.(a)) in
      if c <> 0 then c else compare a b)
    arr;
  if Array.length arr <= k then arr else Array.sub arr 0 k
