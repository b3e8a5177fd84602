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

(* Frozen schema, built when the @data directive is reached. *)
type schema = {
  decls : decl array;
  class_col : int;
  classes : string array;
  attrs : Attribute.t array;  (* the data columns, in file order *)
  rows : Rows.t;
}

let parse_source ?class_attribute ~(policy : Ingest_report.policy) source =
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
    let attrs =
      Array.of_list
        (List.filter_map
           (fun j ->
             if j = class_col then None
             else
               match decls.(j) with
               | Dnumeric name -> Some (Attribute.numeric name)
               | Dnominal (name, values) -> Some (Attribute.categorical name values))
           (List.init (Array.length decls) Fun.id))
    in
    let rows =
      Rows.create ~policy ~where:"line" ~error:(fun msg -> Parse_error msg) ~capacity:16
        Rows.Load attrs
    in
    { decls; class_col; classes; attrs; rows }
  in
  let data_row sc ~line row =
    let rows = sc.rows in
    let cells = Array.of_list (List.map unquote (String.split_on_char ',' row)) in
    if Array.length cells <> Array.length sc.decls then
      Rows.reject rows ~line
        (Printf.sprintf "row has %d fields, expected %d: %S" (Array.length cells)
           (Array.length sc.decls) row);
    let k = Rows.row rows in
    Array.iteri
      (fun j cell ->
        let missing = Rows.blank cell in
        if j = sc.class_col then
          if missing then Rows.no_label rows ~line
          else
            match Array.find_index (String.equal cell) sc.classes with
            | Some c -> (Rows.labels rows).(k) <- c
            | None ->
              Rows.reject rows ~line
                (Printf.sprintf "value %S not in the nominal set of %S" cell "class")
        else
          let a = if j < sc.class_col then j else j - 1 in
          if missing then Rows.missing rows ~line a
          else
            match (sc.decls.(j), (Rows.columns rows).(a)) with
            | Dnumeric name, Dataset.Num col -> (
              match Decimal.parse cell with
              | Some v -> col.(k) <- v
              | None ->
                Rows.reject rows ~line (Printf.sprintf "non-numeric cell %S in %S" cell name))
            | Dnominal (_, values), Dataset.Cat col -> (
              match Array.find_index (String.equal cell) values with
              | Some c -> col.(k) <- c
              | None -> Rows.outside rows ~line a cell)
            | _ -> assert false)
      cells;
    Rows.keep rows
  in
  Stream.fold_lines source ~init:() ~f:(fun () ~line raw ->
      let text = String.trim (strip_comment raw) in
      if text <> "" then begin
        let lower = String.lowercase_ascii text in
        match !schema with
        | Some sc -> ( try data_row sc ~line text with Rows.Skipped -> ())
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
  if Rows.length sc.rows = 0 then fail "no data rows";
  (Rows.dataset sc.rows ~attrs:sc.attrs ~classes:sc.classes, Rows.report sc.rows)

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
