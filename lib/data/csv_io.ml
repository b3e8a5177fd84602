exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* A cell is the trimmed slice of its field in the decoder's row
   buffer. *)
let is_missing row j =
  Rows.blank_slice (Stream.text row) (Stream.trimmed_start row j) (Stream.trimmed_end row j)

(* Parses cell [j] into [cells.(k)], reporting whether it is a number. *)
let parse_cell row j cells k =
  Decimal.parse_slice (Stream.text row) (Stream.trimmed_start row j) (Stream.trimmed_end row j)
    cells k

(* Numeric inference accepts only finite literals: columns of string IDs
   like "nan", "inf" or "infinity" (or overflowing literals such as
   1e400) must stay categorical. [cell] is a one-cell store. *)
let is_float row j cell = parse_cell row j cell 0 && Float.is_finite cell.(0)

let resolve_class_col class_column names =
  match class_column with
  | None -> Array.length names - 1
  | Some name -> (
    match Array.find_index (String.equal name) names with
    | Some i -> i
    | None -> fail "class column %S not found" name)

(* One streaming pass: resolve the header, then hand every data row to
   the row function [start] makes from the header names and the class
   column's index. *)
let stream_pass ?class_column source ~start =
  let row = ref None in
  Stream.fold_rows source ~init:() ~f:(fun () ~line result ->
      match !row with
      | Some f -> f ~line result
      | None -> (
        match result with
        | Error msg -> fail "header: %s" msg
        | Ok header ->
          let names = Stream.strings header in
          row := Some (start names (resolve_class_col class_column names))));
  if Option.is_none !row then fail "empty input"

(* A data row's structure and gaps, judged in file order before any cell
   is stored. Returns the row; raises [Rows.Skipped] for a row the
   policy drops. *)
let decide rows ~names ~class_col ~line = function
  | Error msg -> Rows.reject rows ~line msg
  | Ok row when Stream.fields row <> Array.length names ->
    Rows.reject rows ~line
      (Printf.sprintf "row has %d fields, header has %d" (Stream.fields row)
         (Array.length names))
  | Ok row ->
    for j = 0 to Stream.fields row - 1 do
      if is_missing row j then
        if j = class_col then Rows.no_label rows ~line
        else Rows.missing rows ~line (if j < class_col then j else j - 1)
    done;
    row

let intern table names_ref s =
  match Hashtbl.find_opt table s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length table in
    Hashtbl.add table s i;
    names_ref := s :: !names_ref;
    i

(* Two streaming passes over [with_source]: a scan that decides the rows
   and infers each column's kind from the kept ones, then the build pass
   that decides them again into exact-size stores. Neither pass retains
   raw text beyond the decoder's refill and row buffers. *)
let build ?class_column ~policy ~with_source () =
  let batch ~capacity attrs =
    Rows.create ~policy ~where:"line" ~error:(fun msg -> Parse_error msg) ~capacity
      Rows.Load attrs
  in
  (* Pass 1: schema scan. *)
  let schema = ref None in
  let cell = [| 0.0 |] in
  with_source (fun source ->
      stream_pass ?class_column source ~start:(fun names class_col ->
          let data_cols =
            Array.of_list
              (List.filter (( <> ) class_col) (List.init (Array.length names) Fun.id))
          in
          let scan = batch ~capacity:0 (Array.map (fun j -> Attribute.numeric names.(j)) data_cols) in
          let numeric_ok = Array.make (Array.length names) true in
          schema := Some (names, data_cols, scan, numeric_ok);
          fun ~line result ->
            match decide scan ~names ~class_col ~line result with
            | exception Rows.Skipped -> ()
            | row ->
              Rows.keep scan;
              for j = 0 to Stream.fields row - 1 do
                if numeric_ok.(j) && not (is_missing row j || is_float row j cell) then
                  numeric_ok.(j) <- false
              done));
  let names, data_cols, scan, numeric_ok = Option.get !schema in
  if Array.length names = 0 then fail "no columns";
  let n = Rows.length scan in
  if n = 0 then fail "no data rows";
  (* A column is numeric unless a kept cell is present and not a number,
     so one with no present value is numeric, as in ARFF and .pnc. *)
  let numeric = Array.map (fun j -> numeric_ok.(j)) data_cols in
  (* Pass 2: build exact-size columns. *)
  let class_table = Hashtbl.create 8 in
  let class_names = ref [] in
  let dictionaries = Array.map (fun _ -> (Hashtbl.create 16, ref [])) data_cols in
  let attrs () =
    Array.mapi
      (fun a j ->
        if numeric.(a) then Attribute.numeric names.(j)
        else Attribute.categorical names.(j) (Array.of_list (List.rev !(snd dictionaries.(a)))))
      data_cols
  in
  let rows = batch ~capacity:n (attrs ()) in
  with_source (fun source ->
      stream_pass ?class_column source ~start:(fun names class_col ~line result ->
          match decide rows ~names ~class_col ~line result with
          | exception Rows.Skipped -> ()
          | row ->
            let k = Rows.row rows in
            (Rows.labels rows).(k) <-
              intern class_table class_names (Stream.trimmed row class_col);
            Array.iteri
              (fun a j ->
                if not (is_missing row j) then
                  match (Rows.columns rows).(a) with
                  | Dataset.Num col ->
                    (* pass 1 found every kept cell of this column numeric *)
                    if not (parse_cell row j col k) then
                      fail "non-numeric cell %S in column %S" (Stream.trimmed row j) names.(j)
                  | Dataset.Cat col ->
                    let table, vals = dictionaries.(a) in
                    col.(k) <- intern table vals (Stream.trimmed row j))
              data_cols;
            Rows.keep rows));
  let ds = Rows.dataset rows ~attrs:(attrs ()) ~classes:(Array.of_list (List.rev !class_names)) in
  (ds, Rows.report rows)

let parse_string_with_report ?class_column ?(policy = Ingest_report.Strict) s =
  build ?class_column ~policy ~with_source:(fun k -> k (Stream.of_string s)) ()

let parse_string ?class_column ?policy s =
  fst (parse_string_with_report ?class_column ?policy s)

let load_with_report ?class_column ?(policy = Ingest_report.Strict) ?buf_size path =
  build ?class_column ~policy
    ~with_source:(fun k ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> k (Stream.of_channel ?buf_size ic)))
    ()

let load ?class_column ?policy ?buf_size path =
  fst (load_with_report ?class_column ?policy ?buf_size path)

let escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let save (ds : Dataset.t) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let headers =
        Array.to_list (Array.map (fun (a : Attribute.t) -> escape a.name) ds.attrs)
        @ [ "class" ]
      in
      output_string oc (String.concat "," headers);
      output_char oc '\n';
      for i = 0 to Dataset.n_records ds - 1 do
        let cells =
          Array.to_list
            (Array.mapi
               (fun j (a : Attribute.t) ->
                 match a.kind with
                 | Attribute.Numeric -> Printf.sprintf "%.9g" (Dataset.num_value ds ~col:j i)
                 | Attribute.Categorical values ->
                   escape values.(Dataset.cat_value ds ~col:j i))
               ds.attrs)
          @ [ escape ds.classes.(Dataset.label ds i) ]
        in
        output_string oc (String.concat "," cells);
        output_char oc '\n'
      done)
