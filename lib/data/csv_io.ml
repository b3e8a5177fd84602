exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Numeric inference accepts only finite literals: columns of string IDs
   like "nan", "inf" or "infinity" (or overflowing literals such as
   1e400) must stay categorical. *)
let is_float s =
  match Decimal.parse (String.trim s) with
  | Some v -> Float.is_finite v
  | None -> false

let resolve_class_col class_column names =
  match class_column with
  | None -> Array.length names - 1
  | Some name -> (
    match Array.find_index (String.equal name) names with
    | Some i -> i
    | None -> fail "class column %S not found" name)

(* A cell is "missing" for inference and imputation when it is empty
   (the legacy loader already special-cased empty numeric cells), and
   additionally when it is "?" under [Impute]. Under [Skip] a "?" never
   reaches this predicate: the whole row is dropped up front. *)
let missing ~policy cell =
  let t = String.trim cell in
  t = "" || (policy = Ingest_report.Impute && t = "?")

(* One streaming pass: resolve the header, apply the row-level policy,
   hand every surviving data row to [row]. [report] is only supplied on
   the final pass so counters are not doubled. Returns
   (header names, class column index). *)
let stream_pass ?class_column ~(policy : Ingest_report.policy) ?report source ~row =
  let header = ref None in
  Stream.fold_csv source ~init:() ~f:(fun () ~line result ->
      match !header with
      | None -> (
        match result with
        | Error msg -> fail "header: %s" msg
        | Ok names -> header := Some (names, resolve_class_col class_column names))
      | Some (names, class_col) -> (
        Option.iter Ingest_report.row_read report;
        let drop msg =
          match policy with
          | Ingest_report.Strict -> fail "line %d: %s" line msg
          | Ingest_report.Skip | Ingest_report.Impute ->
            Option.iter (fun r -> Ingest_report.row_skipped r ~line msg) report
        in
        match result with
        | Error msg -> drop msg
        | Ok cells ->
          if Array.length cells <> Array.length names then
            drop
              (Printf.sprintf "row has %d fields, header has %d"
                 (Array.length cells) (Array.length names))
          else if
            policy = Ingest_report.Skip
            && Array.exists (fun c -> String.trim c = "?") cells
          then drop "missing value (?)"
          else if
            policy = Ingest_report.Impute
            &&
            let t = String.trim cells.(class_col) in
            t = "" || t = "?"
          then drop "missing class label"
          else begin
            Option.iter Ingest_report.row_kept report;
            row cells
          end));
  match !header with
  | None -> fail "empty input"
  | Some h -> h

let median sorted =
  let m = Array.length sorted in
  if m land 1 = 1 then sorted.(m / 2)
  else (sorted.((m / 2) - 1) +. sorted.(m / 2)) /. 2.0

(* Two streaming passes over [with_source]: a schema scan (column kind
   inference, surviving-row count), then the build pass that fills
   exact-size columns. Neither pass retains raw text beyond the
   decoder's refill buffer. *)
let build ?class_column ~policy ~with_source () =
  let report = Ingest_report.create () in
  (* Pass 1: schema scan. *)
  let numeric_ok = ref [||] in
  let has_value = ref [||] in
  let kept = ref 0 in
  let header = ref ([||], 0) in
  with_source (fun source ->
      header :=
        stream_pass ?class_column ~policy source ~row:(fun cells ->
            if Array.length !numeric_ok <> Array.length cells then begin
              numeric_ok := Array.make (Array.length cells) true;
              has_value := Array.make (Array.length cells) false
            end;
            incr kept;
            Array.iteri
              (fun j cell ->
                if not (missing ~policy cell) then begin
                  !has_value.(j) <- true;
                  if not (is_float cell) then !numeric_ok.(j) <- false
                end)
              cells));
  let names, class_col = !header in
  let n_cols = Array.length names in
  if n_cols = 0 then fail "no columns";
  let n = !kept in
  if n = 0 then fail "no data rows";
  let numeric = Array.init n_cols (fun j -> !numeric_ok.(j) && !has_value.(j)) in
  (* Pass 2: build exact-size columns. *)
  let class_table = Hashtbl.create 8 in
  let class_names = ref [] in
  let intern table names_ref s =
    match Hashtbl.find_opt table s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length table in
      Hashtbl.add table s i;
      names_ref := s :: !names_ref;
      i
  in
  let labels = Array.make n 0 in
  let stores =
    Array.init n_cols (fun j ->
        if j = class_col then `Class
        else if numeric.(j) then `Num (Array.make n 0.0)
        else `Cat (Array.make n 0, Hashtbl.create 16, ref []))
  in
  let i = ref 0 in
  with_source (fun source ->
      ignore
        (stream_pass ?class_column ~policy ~report source ~row:(fun cells ->
             let k = !i in
             incr i;
             labels.(k) <- intern class_table class_names (String.trim cells.(class_col));
             Array.iteri
               (fun j cell ->
                 match stores.(j) with
                 | `Class -> ()
                 | `Num col ->
                   if missing ~policy cell then
                     (* legacy: empty numeric cells read as 0; under
                        Impute they become a median-patched placeholder *)
                     col.(k) <-
                       (if policy = Ingest_report.Impute then Float.nan else 0.0)
                   else (
                     (* pass 1 found every cell of this column numeric *)
                     match Decimal.parse (String.trim cell) with
                     | Some v -> col.(k) <- v
                     | None -> fail "non-numeric cell %S in column %S" cell names.(j))
                 | `Cat (col, table, vals) ->
                   if policy = Ingest_report.Impute && missing ~policy cell then
                     col.(k) <- -1
                   else col.(k) <- intern table vals (String.trim cell))
               cells)));
  (* Patch imputed placeholders and freeze the columns. *)
  let data_cols =
    Array.of_list (List.filter (fun j -> j <> class_col) (List.init n_cols Fun.id))
  in
  let attrs_and_columns =
    Array.map
      (fun j ->
        let name = names.(j) in
        match stores.(j) with
        | `Class -> assert false
        | `Num col ->
          if policy = Ingest_report.Impute && Array.exists Float.is_nan col then begin
            let present = Array.of_list (List.filter (fun v -> not (Float.is_nan v)) (Array.to_list col)) in
            Array.sort Float.compare present;
            let m = median present in
            Array.iteri
              (fun k v ->
                if Float.is_nan v then begin
                  col.(k) <- m;
                  Ingest_report.cell_imputed report
                end)
              col
          end;
          (Attribute.numeric name, Dataset.Num col)
        | `Cat (col, _, vals) ->
          let values = Array.of_list (List.rev !vals) in
          if Array.exists (fun c -> c < 0) col then begin
            if Array.length values = 0 then
              fail "column %S has only missing values" name;
            let counts = Array.make (Array.length values) 0 in
            Array.iter (fun c -> if c >= 0 then counts.(c) <- counts.(c) + 1) col;
            let majority = ref 0 in
            Array.iteri
              (fun v c -> if c > counts.(!majority) then majority := v)
              counts;
            Array.iteri
              (fun k c ->
                if c < 0 then begin
                  col.(k) <- !majority;
                  Ingest_report.cell_imputed report
                end)
              col
          end;
          (Attribute.categorical name values, Dataset.Cat col))
      data_cols
  in
  let ds =
    Dataset.create
      ~attrs:(Array.map fst attrs_and_columns)
      ~columns:(Array.map snd attrs_and_columns)
      ~labels
      ~classes:(Array.of_list (List.rev !class_names))
      ()
  in
  (ds, report)

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
