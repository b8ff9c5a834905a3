(* Tests for bitsets and the set-cover solvers. *)

open Rrms_setcover

let test_bitset_basics () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "starts empty" true (Bitset.is_empty b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 64;
  Bitset.set b 99;
  Alcotest.(check bool) "mem 0" true (Bitset.mem b 0);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem b 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem b 1);
  Alcotest.(check int) "count" 4 (Bitset.count b);
  Bitset.clear b 63;
  Alcotest.(check bool) "cleared" false (Bitset.mem b 63);
  Alcotest.(check int) "count after clear" 3 (Bitset.count b);
  Alcotest.(check (list int)) "elements" [ 0; 64; 99 ] (Bitset.elements b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "set out of range"
    (Invalid_argument "Bitset.set: index out of range") (fun () ->
      Bitset.set b 10);
  Alcotest.check_raises "mem out of range"
    (Invalid_argument "Bitset.mem: index out of range") (fun () ->
      ignore (Bitset.mem b (-1)))

let test_bitset_ops () =
  let a = Bitset.of_list 70 [ 1; 2; 65 ] in
  let b = Bitset.of_list 70 [ 2; 3 ] in
  let u = Bitset.copy b in
  Bitset.union_into a ~into:u;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 65 ] (Bitset.elements u);
  Alcotest.(check int) "diff count" 2 (Bitset.diff_count a ~minus:b);
  Alcotest.(check bool) "subset yes" true (Bitset.subset b ~of_:u);
  Alcotest.(check bool) "subset no" false (Bitset.subset u ~of_:b);
  Alcotest.(check bool) "equal copies" true (Bitset.equal a (Bitset.copy a))

let test_bitset_zero_width () =
  let b = Bitset.create 0 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Alcotest.(check int) "count" 0 (Bitset.count b)

let mk universe lists =
  Setcover.of_bitsets ~universe
    (Array.of_list (List.map (Bitset.of_list universe) lists))

let check_cover inst chosen =
  let covered = Bitset.create inst.Setcover.universe in
  Array.iter
    (fun i -> Bitset.union_into (Setcover.set inst i) ~into:covered)
    chosen;
  Alcotest.(check int)
    "cover is complete" inst.Setcover.universe (Bitset.count covered)

let test_greedy_basic () =
  let inst = mk 5 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 0 ] ] in
  match Setcover.greedy inst with
  | None -> Alcotest.fail "expected a cover"
  | Some chosen ->
      check_cover inst chosen;
      Alcotest.(check bool) "reasonable size" true (Array.length chosen <= 3)

let test_greedy_uncoverable () =
  let inst = mk 4 [ [ 0; 1 ]; [ 1; 2 ] ] in
  Alcotest.(check bool) "uncoverable detected" true (Setcover.greedy inst = None);
  Alcotest.(check bool) "coverable predicate" false (Setcover.coverable inst)

let test_exact_basic () =
  (* Classic greedy-suboptimal instance: greedy may pick 3 sets where 2
     suffice. U = {0..5}; sets {0,1,2},{3,4,5} cover with 2. *)
  let inst =
    mk 6 [ [ 0; 1; 2; 3 ]; [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 4; 5 ] ]
  in
  match Setcover.exact inst with
  | None -> Alcotest.fail "expected a cover"
  | Some chosen ->
      check_cover inst chosen;
      Alcotest.(check int) "optimal size 2" 2 (Array.length chosen)

let test_exact_uncoverable () =
  let inst = mk 3 [ [ 0 ]; [ 1 ] ] in
  Alcotest.(check bool) "uncoverable" true (Setcover.exact inst = None)

let test_exact_empty_universe () =
  let inst = mk 0 [] in
  match Setcover.exact inst with
  | Some chosen -> Alcotest.(check int) "empty cover" 0 (Array.length chosen)
  | None -> Alcotest.fail "empty universe is trivially coverable"

let test_exact_max_sets () =
  let inst = mk 4 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] in
  Alcotest.(check bool) "needs 4 > 2 sets" true
    (Setcover.exact ~max_sets:2 inst = None);
  match Setcover.exact ~max_sets:4 inst with
  | Some chosen -> Alcotest.(check int) "exactly 4" 4 (Array.length chosen)
  | None -> Alcotest.fail "coverable within 4"

(* Brute force optimal cover size by subset enumeration. *)
let brute_force_opt inst =
  let k = inst.Setcover.sets in
  let best = ref None in
  for mask = 0 to (1 lsl k) - 1 do
    let covered = Bitset.create inst.Setcover.universe in
    let size = ref 0 in
    for i = 0 to k - 1 do
      if mask land (1 lsl i) <> 0 then begin
        incr size;
        Bitset.union_into (Setcover.set inst i) ~into:covered
      end
    done;
    if Bitset.count covered = inst.Setcover.universe then
      match !best with
      | Some b when b <= !size -> ()
      | _ -> best := Some !size
  done;
  !best

let test_exact_matches_brute_force () =
  let rng = Rrms_rng.Rng.create 61 in
  for _ = 1 to 100 do
    let universe = 1 + Rrms_rng.Rng.int rng 10 in
    let nsets = 1 + Rrms_rng.Rng.int rng 8 in
    let sets =
      Array.init nsets (fun _ ->
          let b = Bitset.create universe in
          for item = 0 to universe - 1 do
            if Rrms_rng.Rng.float rng 1. < 0.4 then Bitset.set b item
          done;
          b)
    in
    let inst = Setcover.of_bitsets ~universe sets in
    let opt = brute_force_opt inst in
    match (Setcover.exact inst, opt) with
    | None, None -> ()
    | Some chosen, Some size ->
        check_cover inst chosen;
        Alcotest.(check int) "exact = brute force" size (Array.length chosen)
    | Some _, None -> Alcotest.fail "exact found a cover where none exists"
    | None, Some _ -> Alcotest.fail "exact missed an existing cover"
  done

let test_greedy_approximation_bound () =
  (* Chvátal: greedy <= H(universe) * opt <= (ln u + 1) * opt. *)
  let rng = Rrms_rng.Rng.create 62 in
  for _ = 1 to 50 do
    let universe = 2 + Rrms_rng.Rng.int rng 12 in
    let nsets = 2 + Rrms_rng.Rng.int rng 8 in
    let sets =
      Array.init nsets (fun _ ->
          let b = Bitset.create universe in
          for item = 0 to universe - 1 do
            if Rrms_rng.Rng.float rng 1. < 0.5 then Bitset.set b item
          done;
          b)
    in
    let inst = Setcover.of_bitsets ~universe sets in
    match (Setcover.greedy inst, Setcover.exact inst) with
    | None, None -> ()
    | Some g, Some e ->
        check_cover inst g;
        let bound =
          (log (float_of_int universe) +. 1.) *. float_of_int (Array.length e)
        in
        Alcotest.(check bool) "greedy within H(u) of optimal" true
          (float_of_int (Array.length g) <= bound +. 1e-9)
    | Some _, None | None, Some _ ->
        Alcotest.fail "greedy and exact disagree on coverability"
  done

let suite =
  [
    Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    Alcotest.test_case "bitset ops" `Quick test_bitset_ops;
    Alcotest.test_case "bitset zero width" `Quick test_bitset_zero_width;
    Alcotest.test_case "greedy basic" `Quick test_greedy_basic;
    Alcotest.test_case "greedy uncoverable" `Quick test_greedy_uncoverable;
    Alcotest.test_case "exact basic" `Quick test_exact_basic;
    Alcotest.test_case "exact uncoverable" `Quick test_exact_uncoverable;
    Alcotest.test_case "exact empty universe" `Quick test_exact_empty_universe;
    Alcotest.test_case "exact max_sets" `Quick test_exact_max_sets;
    Alcotest.test_case "exact = brute force" `Quick test_exact_matches_brute_force;
    Alcotest.test_case "greedy approximation bound" `Quick
      test_greedy_approximation_bound;
  ]
