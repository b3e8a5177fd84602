exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type decl =
  | Dnumeric of string
  | Dnominal of string * string array

let strip_comment line =
  match String.index_opt line '%' with
  | Some i when i = 0 -> ""
  | _ -> line

(* Attribute names and nominal values may be single-quoted. *)
let unquote s =
  let s = String.trim s in
  let n = String.length s in
  if n >= 2 && s.[0] = '\'' && s.[n - 1] = '\'' then String.sub s 1 (n - 2) else s

let parse_attribute_decl rest =
  (* rest = "name numeric" or "name {a,b,c}" — the name may be quoted and
     contain spaces. *)
  let rest = String.trim rest in
  let name, spec =
    if String.length rest > 0 && rest.[0] = '\'' then begin
      match String.index_from_opt rest 1 '\'' with
      | None -> fail "unterminated attribute name quote"
      | Some close ->
        ( String.sub rest 1 (close - 1),
          String.trim (String.sub rest (close + 1) (String.length rest - close - 1)) )
    end
    else begin
      match String.index_opt rest ' ' with
      | None -> (
        match String.index_opt rest '\t' with
        | None -> fail "attribute declaration needs a type: %S" rest
        | Some i ->
          ( String.sub rest 0 i,
            String.trim (String.sub rest (i + 1) (String.length rest - i - 1)) ))
      | Some i ->
        ( String.sub rest 0 i,
          String.trim (String.sub rest (i + 1) (String.length rest - i - 1)) )
    end
  in
  if String.length spec = 0 then fail "attribute %S has no type" name;
  if spec.[0] = '{' then begin
    if spec.[String.length spec - 1] <> '}' then fail "unterminated nominal set for %S" name;
    let inner = String.sub spec 1 (String.length spec - 2) in
    let values =
      List.map unquote (String.split_on_char ',' inner) |> Array.of_list
    in
    if Array.length values = 0 then fail "empty nominal set for %S" name;
    Dnominal (name, values)
  end
  else begin
    match String.lowercase_ascii spec with
    | "numeric" | "real" | "integer" -> Dnumeric name
    | other -> fail "unsupported attribute type %S for %S" other name
  end

(* ------------------------------------------------------------------ *)
(* Streaming parse                                                      *)
(* ------------------------------------------------------------------ *)

(* Growable column stores for the single-pass build: the number of
   surviving rows is unknown until end of input. *)
type 'a grow = { mutable data : 'a array; mutable len : int; dummy : 'a }

let grow dummy = { data = Array.make 16 dummy; len = 0; dummy }

let push g x =
  if g.len = Array.length g.data then begin
    let d = Array.make (2 * g.len) g.dummy in
    Array.blit g.data 0 d 0 g.len;
    g.data <- d
  end;
  g.data.(g.len) <- x;
  g.len <- g.len + 1

let to_array g = Array.sub g.data 0 g.len

type store =
  | Gnum of float grow * int grow  (* values; indices of missing cells *)
  | Gcat of int grow  (* value codes; -1 marks a missing cell *)

(* Frozen schema, built when the @data directive is reached. *)
type schema = {
  decls : decl array;
  class_col : int;
  classes : string array;
  data_cols : int array;
  stores : store array;  (* per data column, in [data_cols] order *)
  labels : int grow;
}

exception Row_error of string

let median sorted =
  let m = Array.length sorted in
  if m land 1 = 1 then sorted.(m / 2)
  else (sorted.((m / 2) - 1) +. sorted.(m / 2)) /. 2.0

let parse_source ?class_attribute ~(policy : Ingest_report.policy) source =
  let report = Ingest_report.create () in
  let decls = ref [] in
  let schema = ref None in
  let freeze () =
    let decls = Array.of_list (List.rev !decls) in
    if Array.length decls < 2 then fail "need at least one attribute and a class";
    let decl_name = function
      | Dnumeric n | Dnominal (n, _) -> n
    in
    let class_col =
      match class_attribute with
      | None -> Array.length decls - 1
      | Some name -> (
        match Array.find_index (fun d -> String.equal (decl_name d) name) decls with
        | Some i -> i
        | None -> fail "class attribute %S not declared" name)
    in
    let classes =
      match decls.(class_col) with
      | Dnominal (_, values) -> values
      | Dnumeric n -> fail "class attribute %S must be nominal" n
    in
    let data_cols =
      Array.of_list
        (List.filter (fun j -> j <> class_col)
           (List.init (Array.length decls) Fun.id))
    in
    let stores =
      Array.map
        (fun j ->
          match decls.(j) with
          | Dnumeric _ -> Gnum (grow 0.0, grow 0)
          | Dnominal _ -> Gcat (grow 0))
        data_cols
    in
    { decls; class_col; classes; data_cols; stores; labels = grow 0 }
  in
  let nominal_code values cell name =
    match Array.find_index (String.equal cell) values with
    | Some i -> i
    | None ->
      raise (Row_error (Printf.sprintf "value %S not in the nominal set of %S" cell name))
  in
  let data_row sc ~line row =
    Ingest_report.row_read report;
    let drop msg =
      match policy with
      | Ingest_report.Strict -> fail "line %d: %s" line msg
      | Ingest_report.Skip | Ingest_report.Impute ->
        Ingest_report.row_skipped report ~line msg
    in
    match
      let cells = Array.of_list (List.map unquote (String.split_on_char ',' row)) in
      if Array.length cells <> Array.length sc.decls then
        raise
          (Row_error
             (Printf.sprintf "row has %d fields, expected %d: %S" (Array.length cells)
                (Array.length sc.decls) row));
      (* Decode the whole row before touching the stores, so a bad cell
         cannot leave a half-appended record behind. *)
      let label =
        let cell = cells.(sc.class_col) in
        if cell = "?" then raise (Row_error "missing class label (?)")
        else nominal_code sc.classes cell "class"
      in
      let decoded =
        Array.map
          (fun j ->
            let cell = cells.(j) in
            if cell = "?" then begin
              if policy <> Ingest_report.Impute then
                raise (Row_error "missing value (?)");
              `Missing
            end
            else
              match sc.decls.(j) with
              | Dnumeric name -> (
                match Decimal.parse cell with
                | Some v -> `Num v
                | None ->
                  raise
                    (Row_error (Printf.sprintf "non-numeric cell %S in %S" cell name)))
              | Dnominal (name, values) -> `Cat (nominal_code values cell name))
          sc.data_cols
      in
      (label, decoded)
    with
    | exception Row_error msg -> drop msg
    | label, decoded ->
      Ingest_report.row_kept report;
      push sc.labels label;
      Array.iteri
        (fun k cell ->
          match (sc.stores.(k), cell) with
          | Gnum (col, _), `Num v -> push col v
          | Gnum (col, miss), `Missing ->
            push miss col.len;
            push col 0.0
          | Gcat col, `Cat v -> push col v
          | Gcat col, `Missing -> push col (-1)
          | Gnum _, `Cat _ | Gcat _, `Num _ -> assert false)
        decoded
  in
  Stream.fold_lines source ~init:() ~f:(fun () ~line raw ->
      let text = String.trim (strip_comment raw) in
      if text <> "" then begin
        let lower = String.lowercase_ascii text in
        match !schema with
        | Some sc -> data_row sc ~line text
        | None ->
          if String.length lower >= 9 && String.sub lower 0 9 = "@relation" then ()
          else if String.length lower >= 10 && String.sub lower 0 10 = "@attribute" then
            decls := parse_attribute_decl (String.sub text 10 (String.length text - 10)) :: !decls
          else if lower = "@data" then schema := Some (freeze ())
          else if String.length lower >= 1 && lower.[0] = '@' then
            fail "unsupported directive: %S" text
          else fail "data before @data: %S" text
      end);
  let sc =
    match !schema with
    | Some sc -> sc
    | None -> freeze () (* surfaces the schema errors before "no data rows" *)
  in
  let n = sc.labels.len in
  if n = 0 then fail "no data rows";
  let attrs_and_columns =
    Array.mapi
      (fun k j ->
        let decl = sc.decls.(j) in
        match (sc.stores.(k), decl) with
        | Gnum (colg, missg), Dnumeric name ->
          let col = to_array colg in
          let miss = to_array missg in
          if Array.length miss > 0 then begin
            let is_missing = Array.make n false in
            Array.iter (fun i -> is_missing.(i) <- true) miss;
            let present = ref [] in
            Array.iteri (fun i v -> if not is_missing.(i) then present := v :: !present) col;
            let present = Array.of_list !present in
            if Array.length present = 0 then
              fail "column %S has only missing values" name;
            Array.sort Float.compare present;
            let m = median present in
            Array.iter
              (fun i ->
                col.(i) <- m;
                Ingest_report.cell_imputed report)
              miss
          end;
          (Attribute.numeric name, Dataset.Num col)
        | Gcat colg, Dnominal (name, values) ->
          let col = to_array colg in
          if Array.exists (fun c -> c < 0) col then begin
            let counts = Array.make (Array.length values) 0 in
            Array.iter (fun c -> if c >= 0 then counts.(c) <- counts.(c) + 1) col;
            let majority = ref 0 in
            Array.iteri (fun v c -> if c > counts.(!majority) then majority := v) counts;
            if counts.(!majority) = 0 then
              fail "column %S has only missing values" name;
            Array.iteri
              (fun i c ->
                if c < 0 then begin
                  col.(i) <- !majority;
                  Ingest_report.cell_imputed report
                end)
              col
          end;
          (Attribute.categorical name values, Dataset.Cat col)
        | Gnum _, Dnominal _ | Gcat _, Dnumeric _ -> assert false)
      sc.data_cols
  in
  let ds =
    Dataset.create
      ~attrs:(Array.map fst attrs_and_columns)
      ~columns:(Array.map snd attrs_and_columns)
      ~labels:(to_array sc.labels) ~classes:sc.classes ()
  in
  (ds, report)

let parse_string_with_report ?class_attribute ?(policy = Ingest_report.Strict) text =
  parse_source ?class_attribute ~policy (Stream.of_string text)

let parse_string ?class_attribute ?policy text =
  fst (parse_string_with_report ?class_attribute ?policy text)

let load_with_report ?class_attribute ?(policy = Ingest_report.Strict) path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_source ?class_attribute ~policy (Stream.of_channel ic))

let load ?class_attribute ?policy path =
  fst (load_with_report ?class_attribute ?policy path)

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)
(* ------------------------------------------------------------------ *)

let quote_if_needed s =
  if String.exists (fun c -> c = ' ' || c = ',' || c = '\'') s then
    "'" ^ String.concat "\\'" (String.split_on_char '\'' s) ^ "'"
  else s

let save (ds : Dataset.t) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "@relation pnrule\n\n";
      Array.iter
        (fun (a : Attribute.t) ->
          match a.kind with
          | Attribute.Numeric ->
            Printf.fprintf oc "@attribute %s numeric\n" (quote_if_needed a.name)
          | Attribute.Categorical values ->
            Printf.fprintf oc "@attribute %s {%s}\n" (quote_if_needed a.name)
              (String.concat "," (Array.to_list (Array.map quote_if_needed values))))
        ds.attrs;
      Printf.fprintf oc "@attribute class {%s}\n\n@data\n"
        (String.concat "," (Array.to_list (Array.map quote_if_needed ds.classes)));
      for i = 0 to Dataset.n_records ds - 1 do
        let cells =
          Array.to_list
            (Array.mapi
               (fun j (a : Attribute.t) ->
                 match a.kind with
                 | Attribute.Numeric -> Printf.sprintf "%.9g" (Dataset.num_value ds ~col:j i)
                 | Attribute.Categorical values ->
                   quote_if_needed values.(Dataset.cat_value ds ~col:j i))
               ds.attrs)
          @ [ quote_if_needed ds.classes.(Dataset.label ds i) ]
        in
        output_string oc (String.concat "," cells);
        output_char oc '\n'
      done)
