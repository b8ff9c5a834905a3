type t = {
  name : string;
  attributes : string array;
  data : Rrms_geom.Vec.t array;
}

let bad_value v =
  if Float.is_nan v then Some "NaN"
  else if not (Float.is_finite v) then Some "non-finite"
  else if v < 0. then Some "negative"
  else None

let check_row ~attributes i row =
  let m = Array.length attributes in
  if Array.length row <> m then
    Rrms_guard.Guard.Error.invalid_input
      (Printf.sprintf "Dataset.create: row %d has %d values, expected %d" i
         (Array.length row) m);
  Array.iteri
    (fun j v ->
      match bad_value v with
      | Some what ->
          Rrms_guard.Guard.Error.invalid_input ~column:attributes.(j)
            (Printf.sprintf "Dataset.create: row %d has a %s value" i what)
      | None -> ())
    row

let create ?(name = "dataset") ~attributes data =
  if Array.length attributes = 0 then
    Rrms_guard.Guard.Error.invalid_input "Dataset.create: no attributes";
  Array.iteri (check_row ~attributes) data;
  { name; attributes; data }

let with_rows t ~fresh data =
  Array.iter (fun i -> check_row ~attributes:t.attributes i data.(i)) fresh;
  { t with data }

let name t = t.name
let attributes t = Array.copy t.attributes
let size t = Array.length t.data
let dim t = Array.length t.attributes
let row t i = t.data.(i)
let rows t = Array.copy t.data
let shared_rows t = t.data
let value t i j = t.data.(i).(j)

let project t cols =
  let m = dim t in
  Array.iter
    (fun j ->
      if j < 0 || j >= m then invalid_arg "Dataset.project: bad column index")
    cols;
  {
    name = t.name;
    attributes = Array.map (fun j -> t.attributes.(j)) cols;
    data = Array.map (fun r -> Array.map (fun j -> r.(j)) cols) t.data;
  }

let take t k =
  let k = min k (size t) in
  { t with data = Array.sub t.data 0 k }

let select t idxs =
  { t with data = Array.map (fun i -> t.data.(i)) idxs }

let attribute_max t j =
  Array.fold_left (fun acc r -> Float.max acc r.(j)) neg_infinity t.data

let normalize t =
  if size t = 0 then t
  else begin
    let m = dim t in
    let maxima = Array.init m (fun j -> attribute_max t j) in
    let scale = Array.map (fun mx -> if mx > 0. then 1. /. mx else 1.) maxima in
    {
      t with
      data = Array.map (fun r -> Array.mapi (fun j v -> v *. scale.(j)) r) t.data;
    }
  end

let to_csv t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.concat "," (Array.to_list t.attributes));
      output_char oc '\n';
      Array.iter
        (fun r ->
          let cells = Array.to_list (Array.map (Printf.sprintf "%.17g") r) in
          output_string oc (String.concat "," cells);
          output_char oc '\n')
        t.data)

type load_mode = Strict | Lenient

type load_warning = { line : int; column : string option; reason : string }

(* Parse one data line into a validated row, or explain what is wrong
   with it.  The column in the report is the attribute name when the
   offending cell is identifiable. *)
let parse_line ~attributes ~m line =
  let cells = String.split_on_char ',' line in
  if List.length cells <> m then
    Error
      ( None,
        Printf.sprintf "has %d cells, expected %d" (List.length cells) m )
  else begin
    let row = Array.make m 0. in
    let bad = ref None in
    List.iteri
      (fun j c ->
        if !bad = None then
          match float_of_string_opt (String.trim c) with
          | None ->
              bad :=
                Some
                  ( Some attributes.(j),
                    Printf.sprintf "not a number: %s" (String.trim c) )
          | Some v -> (
              match bad_value v with
              | Some what ->
                  bad := Some (Some attributes.(j), what ^ " value")
              | None -> row.(j) <- v))
      cells;
    match !bad with None -> Ok row | Some e -> Error e
  end

(* Header validation runs before any data row is read, so a bad header
   fails fast instead of after scanning (and possibly rejecting) the
   whole file: names must be non-empty and unique, and a header whose
   every cell parses as a number is almost certainly a headerless data
   file — rejecting it beats silently treating row 1 as column names. *)
let validate_header attributes =
  let m = Array.length attributes in
  if m = 0 || (m = 1 && attributes.(0) = "") then
    Rrms_guard.Guard.Error.invalid_input ~line:1
      "Dataset.of_csv: empty header line";
  let seen = Hashtbl.create m in
  Array.iteri
    (fun j a ->
      if a = "" then
        Rrms_guard.Guard.Error.invalid_input ~line:1
          ~column:(string_of_int (j + 1))
          "Dataset.of_csv: empty attribute name in header";
      match Hashtbl.find_opt seen a with
      | Some j' ->
          Rrms_guard.Guard.Error.invalid_input ~line:1 ~column:a
            (Printf.sprintf
               "Dataset.of_csv: duplicate attribute name (columns %d and %d)"
               (j' + 1) (j + 1))
      | None -> Hashtbl.add seen a j)
    attributes;
  if Array.for_all (fun a -> float_of_string_opt a <> None) attributes then
    Rrms_guard.Guard.Error.invalid_input ~line:1
      "Dataset.of_csv: header looks like a data row (every cell is a \
       number) — is the header line missing?"

let of_csv_report ?name:(nm = "") ?(mode = Strict) path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let header =
        match In_channel.input_line ic with
        | Some line -> line
        | None ->
            Rrms_guard.Guard.Error.invalid_input ~line:1
              "Dataset.of_csv: empty file"
      in
      let attributes =
        Array.of_list
          (List.map String.trim
             (String.split_on_char ',' (String.trim header)))
      in
      validate_header attributes;
      let m = Array.length attributes in
      let rows = ref [] in
      let warnings = ref [] in
      let lineno = ref 1 in
      let rec read () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            incr lineno;
            let line = String.trim line in
            if line <> "" then begin
              match parse_line ~attributes ~m line with
              | Ok row -> rows := row :: !rows
              | Error (column, reason) -> (
                  match mode with
                  | Strict ->
                      Rrms_guard.Guard.Error.invalid_input ~line:!lineno
                        ?column
                        (Printf.sprintf "Dataset.of_csv: %s" reason)
                  | Lenient ->
                      warnings := { line = !lineno; column; reason } :: !warnings)
            end;
            read ()
      in
      read ();
      (* A dataset with no tuples is useless to every consumer (the
         solvers all reject empty input) — report it as Invalid_input
         here, where the line number and the dropped-row count are
         known, instead of handing back a 0-tuple dataset. *)
      if !rows = [] then
        Rrms_guard.Guard.Error.invalid_input ~line:!lineno
          (match !warnings with
          | [] -> "Dataset.of_csv: no data rows after the header"
          | ws ->
              Printf.sprintf
                "Dataset.of_csv: no valid data rows (all %d dropped)"
                (List.length ws));
      let nm = if nm = "" then Filename.remove_extension (Filename.basename path) else nm in
      ( create ~name:nm ~attributes (Array.of_list (List.rev !rows)),
        List.rev !warnings ))

let of_csv ?name path = fst (of_csv_report ?name ~mode:Strict path)

let pp ppf t =
  Format.fprintf ppf "%s: %d tuples x %d attributes" t.name (size t) (dim t)
