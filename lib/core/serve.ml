exception Error of string
exception Limit of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type report = {
  ingest : Pn_data.Ingest_report.t;
  chunks : int;
  rows_out : int;
  unknown_labels : int;
  seconds : float;
  confusion : Pn_metrics.Confusion.t option;
}

type observer =
  n:int ->
  columns:Pn_data.Dataset.column array ->
  batch:Saved.batch ->
  actuals:int array ->
  unit

(* Each value's first code, for O(1) decoding. *)
let code_table values =
  let tbl = Hashtbl.create (2 * Array.length values) in
  Array.iteri (fun code v -> if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v code) values;
  tbl

(* The CSV stores start at this many rows and double as rows arrive: a
   request pays for the rows it carries. *)
let initial_rows = 64

(* The output side shared by the CSV and columnar feeds: header line,
   chunk scoring, prediction formatting and confusion accounting. Both
   decoders funnel their chunks through [em_emit], which is what makes a
   CSV feed and a columnar feed of the same rows produce byte-identical
   prediction output. *)
type emitter = {
  em_header : unit -> unit;
  em_emit :
    n:int -> columns:Pn_data.Dataset.column array -> actuals:int array -> unit;
  em_chunks : int ref;
  em_rows_out : int ref;
  em_confusion : Pn_metrics.Confusion.t ref;
}

let k_out = Pn_util.Scratch.key ()
let k_labels = Pn_util.Scratch.key ()
let k_weights = Pn_util.Scratch.key ()
let k_actuals = Pn_util.Scratch.key ()

let make_emitter ?pool ?observe ~scratch ~scores ~(model : Saved.t) ~write () =
  let chunks = ref 0 in
  let rows_out = ref 0 in
  let confusion = ref Pn_metrics.Confusion.zero in
  let target = Saved.target model in
  let target_name = (Saved.classes model).(target) in
  (* Both names as CSV fields, escaped once per emitter, not per row. *)
  let target_field = Pn_data.Csv_io.escape target_name in
  let negative_field = Pn_data.Csv_io.escape ("not-" ^ target_name) in
  let em_header () =
    write (if scores then "prediction,score\n" else "prediction\n")
  in
  (* A score takes few distinct values and runs of rows share one, so
     a score is formatted only when its bits differ from the previous
     row's: equal IEEE values with equal signs, and never a NaN. Equal
     bits print equal bytes, so the text is Printf's. *)
  let last_score = [| Float.nan |] in
  let last_text = ref "" in
  let score_text scores i =
    let v = scores.(i) and last = last_score.(0) in
    if not (v = last && Float.sign_bit v = Float.sign_bit last) then begin
      last_score.(0) <- v;
      last_text := Printf.sprintf "%.6g" v
    end;
    !last_text
  in
  let em_emit ~n ~columns ~actuals =
    (* The serving dataset's labels and unit weights, like everything
       else a chunk needs, live in the scratch: filled, never assumed.
       Its [n] records are the first [n] cells of these arrays and of
       [columns], any of which may be longer. *)
    let labels = Pn_util.Scratch.ints scratch k_labels n in
    Array.fill labels 0 n 0;
    let weights = Pn_util.Scratch.floats scratch k_weights n in
    Array.fill weights 0 n 1.0;
    let ds =
      Pn_data.Dataset.create ~n ~attrs:(Saved.attrs model) ~columns ~labels
        ~weights ~classes:(Saved.classes model) ()
    in
    (* One compiled-engine pass serves predictions, scores and the
       per-rule firing evidence the drift observer consumes. *)
    let batch = Saved.eval_batch ?pool ~scratch ~scores model ds in
    let predicted = batch.Saved.preds in
    let score_v = batch.Saved.scores_v in
    let outbuf = Pn_util.Scratch.buffer scratch k_out in
    (* The confusion counts accumulate in locals, seeded from the running
       totals: the same weights added in the same order as one
       [Confusion.add] per row, without a record per row. *)
    let { Pn_metrics.Confusion.tp; fp; fn; tn } = !confusion in
    let tp = ref tp and fp = ref fp and fn = ref fn and tn = ref tn in
    for i = 0 to n - 1 do
      Buffer.add_string outbuf (if predicted.(i) then target_field else negative_field);
      (match score_v with
      | Some s ->
        Buffer.add_char outbuf ',';
        Buffer.add_string outbuf (score_text s i)
      | None -> ());
      Buffer.add_char outbuf '\n';
      incr rows_out;
      let a = actuals.(i) in
      if a >= 0 then
        match (a = target, predicted.(i)) with
        | true, true -> tp := !tp +. 1.0
        | false, true -> fp := !fp +. 1.0
        | true, false -> fn := !fn +. 1.0
        | false, false -> tn := !tn +. 1.0
    done;
    confusion := { Pn_metrics.Confusion.tp = !tp; fp = !fp; fn = !fn; tn = !tn };
    (* Observer runs before the write so drift evidence cannot be lost
       to a client that disconnects mid-chunk. [columns] may alias
       reader-owned buffers reused for the next chunk — an observer
       retaining rows must copy. *)
    (match observe with
    | Some f -> f ~n ~columns ~batch ~actuals
    | None -> ());
    write (Buffer.contents outbuf);
    incr chunks
  in
  {
    em_header;
    em_emit;
    em_chunks = chunks;
    em_rows_out = rows_out;
    em_confusion = confusion;
  }

(* The shared decode/score core: both the batch file pipeline
   ([predict_csv]) and the online daemon ([Pn_server]) run this exact
   function, so a request body and a file of the same rows produce
   byte-identical prediction lines. Input arrives as a {!Pn_data.Stream}
   source; output leaves through [write], one call for the header line
   and one per scored chunk. *)
let predict_stream ?(policy = Pn_data.Ingest_report.Strict) ?(chunk_size = 8192)
    ?class_column ?(scores = false) ?max_rows ?pool
    ?(scratch = Pn_util.Scratch.create ()) ?observe ~(model : Saved.t) ~source
    ~write () =
  if chunk_size <= 0 then invalid_arg "Serve.predict_stream: chunk_size";
  (match max_rows with
  | Some m when m <= 0 -> invalid_arg "Serve.predict_stream: max_rows"
  | Some _ | None -> ());
  let t0 = Unix.gettimeofday () in
  let attrs = Saved.attrs model in
  let n_attrs = Array.length attrs in
  (* O(1) categorical decoding. *)
  let cat_tables =
    Array.map
      (fun (a : Pn_data.Attribute.t) ->
        match a.kind with
        | Pn_data.Attribute.Numeric -> None
        | Pn_data.Attribute.Categorical values -> Some (code_table values))
      attrs
  in
  let class_table = code_table (Saved.classes model) in
  (* Header-dependent state, set when the first row arrives. *)
  let mapping = ref [||] in
  let n_header = ref 0 in
  let class_idx = ref None in
  let rows =
    Pn_data.Rows.create ~policy ~where:"line" ~error:(fun msg -> Error msg)
      ~capacity:(min chunk_size initial_rows) (Pn_data.Rows.Serve scratch) attrs
  in
  let ingest = Pn_data.Rows.report rows in
  let unknown_labels = ref 0 in
  let em = make_emitter ?pool ?observe ~scratch ~scores ~model ~write () in
  (* Every data row — kept, skipped or malformed — counts against the
     row budget; the daemon maps [Limit] to 413. *)
  let seen = ref 0 in
  let count_row () =
    incr seen;
    match max_rows with
    | Some m when !seen > m ->
      raise (Limit (Printf.sprintf "input exceeds the row limit (%d rows)" m))
    | Some _ | None -> ()
  in
  let resolve_header names =
    (match Saved.resolve_header model names with
    | Ok m -> mapping := m
    | Error msg -> fail "schema mismatch: %s" msg);
    n_header := Array.length names;
    let col =
      match class_column with
      | Some name -> (
        match Array.find_index (String.equal name) names with
        | Some j -> Some j
        | None -> fail "class column %S not found" name)
      | None -> Array.find_index (String.equal "class") names
    in
    (* A column the model claims as a feature cannot double as labels. *)
    (class_idx :=
       match col with
       | Some j when class_column = None && Array.exists (( = ) j) !mapping -> None
       | other -> other);
    em.em_header ()
  in
  let flush_chunk () =
    let n = Pn_data.Rows.length rows in
    if n > 0 then begin
      Pn_data.Rows.impute rows;
      em.em_emit ~n ~columns:(Pn_data.Rows.columns rows) ~actuals:(Pn_data.Rows.labels rows);
      Pn_data.Rows.clear rows
    end
  in
  (* A data row's cells are read from the decoder's row buffer: a
     numeric cell parses in place, and only a dictionary lookup or an
     error message makes the cell's string. *)
  let data_row ~line row =
    let width = Pn_data.Stream.fields row in
    if width <> !n_header then
      Pn_data.Rows.reject rows ~line
        (Printf.sprintf "row has %d fields, header has %d" width !n_header);
    let k = Pn_data.Rows.row rows in
    let columns = Pn_data.Rows.columns rows in
    let text = Pn_data.Stream.text row in
    for a = 0 to n_attrs - 1 do
      let j = !mapping.(a) in
      let lo = Pn_data.Stream.trimmed_start row j and hi = Pn_data.Stream.trimmed_end row j in
      if Pn_data.Rows.blank_slice text lo hi then Pn_data.Rows.missing rows ~line a
      else
        match columns.(a) with
        | Pn_data.Dataset.Num col ->
          if not (Pn_data.Decimal.parse_slice text lo hi col k) then
            Pn_data.Rows.reject rows ~line
              (Printf.sprintf "non-numeric cell %S in column %S"
                 (Bytes.sub_string text lo (hi - lo)) attrs.(a).Pn_data.Attribute.name)
        | Pn_data.Dataset.Cat col -> (
          let cell = Bytes.sub_string text lo (hi - lo) in
          match Hashtbl.find (Option.get cat_tables.(a)) cell with
          | code -> col.(k) <- code
          | exception Not_found -> Pn_data.Rows.outside rows ~line a cell)
    done;
    (* Labels are metrics-only: unknown or missing labels never fail
       the feed. *)
    (Pn_data.Rows.labels rows).(k) <-
      (match !class_idx with
      | None -> -1
      | Some j -> (
        let lo = Pn_data.Stream.trimmed_start row j and hi = Pn_data.Stream.trimmed_end row j in
        if Pn_data.Rows.blank_slice text lo hi then -1
        else
          match Hashtbl.find class_table (Bytes.sub_string text lo (hi - lo)) with
          | code -> code
          | exception Not_found ->
            incr unknown_labels;
            -1));
    Pn_data.Rows.keep rows;
    if Pn_data.Rows.length rows = chunk_size then flush_chunk ()
  in
  Pn_data.Stream.fold_rows source ~init:() ~f:(fun () ~line result ->
      if !n_header = 0 then
        match result with
        | Error msg -> fail "header: %s" msg
        | Ok row -> resolve_header (Pn_data.Stream.strings row)
      else begin
        count_row ();
        try
          match result with
          | Error msg -> Pn_data.Rows.reject rows ~line msg
          | Ok row -> data_row ~line row
        with Pn_data.Rows.Skipped -> ()
      end);
  if !n_header = 0 then fail "empty input";
  flush_chunk ();
  Pn_data.Ingest_report.add_io_retries ingest (Pn_data.Stream.retries source);
  {
    ingest;
    chunks = !(em.em_chunks);
    rows_out = !(em.em_rows_out);
    unknown_labels = !unknown_labels;
    seconds = Unix.gettimeofday () -. t0;
    confusion = (if !class_idx <> None then Some !(em.em_confusion) else None);
  }

(* The columnar fast path: one row group per chunk, decoded straight
   into the reader's buffers, borrowed from [scratch] — no text parsing, no
   per-cell branching on the hot path. Only categorical codes are
   touched row-by-row (remapped from the file dictionary to the model's,
   skipped entirely when the dictionaries already agree); numeric
   columns go to the scorer as the decode buffers themselves. *)
let predict_columnar_stream ?(policy = Pn_data.Ingest_report.Strict)
    ?(scores = false) ?max_rows ?pool ?(scratch = Pn_util.Scratch.create ())
    ?observe ~(model : Saved.t) ~source ~write () =
  (match max_rows with
  | Some m when m <= 0 -> invalid_arg "Serve.predict_columnar_stream: max_rows"
  | Some _ | None -> ());
  let t0 = Unix.gettimeofday () in
  let corrupt f =
    try f () with Pn_data.Columnar.Corrupt msg -> fail "columnar: %s" msg
  in
  let r = corrupt (fun () -> Pn_data.Columnar.open_reader ~scratch source) in
  let sch = Pn_data.Columnar.schema r in
  (* The header's row count is verified against every group and the
     footer, so checking it here enforces the row budget before a
     single group is decoded or a group-sized buffer allocated. *)
  (match max_rows with
  | Some m when sch.Pn_data.Columnar.n_rows > m ->
    raise (Limit (Printf.sprintf "input exceeds the row limit (%d rows)" m))
  | Some _ | None -> ());
  let file_attrs = sch.Pn_data.Columnar.attrs in
  let names =
    Array.map (fun (a : Pn_data.Attribute.t) -> a.name) file_attrs
  in
  let mapping =
    match Saved.resolve_header model names with
    | Ok m -> m
    | Error msg -> fail "schema mismatch: %s" msg
  in
  let attrs = Saved.attrs model in
  let n_attrs = Array.length attrs in
  (* resolve_header matches names; the binary format also carries kinds,
     which must agree. Categorical dictionaries may differ from the
     model's: precompute file-code -> model-code remaps (-1 = a value
     the model has never seen), and give the row store the file's
     dictionary of each remapped column, whose unknown values become
     the negative codes that name them. *)
  let remaps = Array.make n_attrs [||] in
  let outside = Array.make n_attrs None in
  Array.iteri
    (fun a j ->
      match (attrs.(a).Pn_data.Attribute.kind, file_attrs.(j).Pn_data.Attribute.kind)
      with
      | Pn_data.Attribute.Numeric, Pn_data.Attribute.Numeric -> ()
      | Pn_data.Attribute.Categorical mvals, Pn_data.Attribute.Categorical fvals
        ->
        let tbl = code_table mvals in
        let remap =
          Array.map (fun v -> Option.value (Hashtbl.find_opt tbl v) ~default:(-1)) fvals
        in
        let identity =
          Array.length fvals = Array.length mvals
          && (let ok = ref true in
              Array.iteri (fun i c -> if c <> i then ok := false) remap;
              !ok)
        in
        if not identity then begin
          remaps.(a) <- remap;
          outside.(a) <- Some fvals
        end
      | Pn_data.Attribute.Numeric, Pn_data.Attribute.Categorical _ ->
        fail "schema mismatch: column %S is categorical in the file but numeric in the model"
          names.(j)
      | Pn_data.Attribute.Categorical _, Pn_data.Attribute.Numeric ->
        fail "schema mismatch: column %S is numeric in the file but categorical in the model"
          names.(j))
    mapping;
  let class_remap =
    let tbl = code_table (Saved.classes model) in
    Array.map
      (fun c -> Option.value (Hashtbl.find_opt tbl c) ~default:(-1))
      sch.Pn_data.Columnar.classes
  in
  (* Blocks of columns the model does not use are checksum-verified but
     never decoded. *)
  let wanted = Array.make (Array.length file_attrs) false in
  Array.iter (fun j -> wanted.(j) <- true) mapping;
  Pn_data.Columnar.set_wanted r wanted;
  let rows =
    Pn_data.Rows.create ~policy ~where:"row" ~error:(fun msg -> Error msg) ~capacity:0
      (Pn_data.Rows.Serve scratch) attrs
  in
  let ingest = Pn_data.Rows.report rows in
  let unknown_labels = ref 0 in
  let em = make_emitter ?pool ?observe ~scratch ~scores ~model ~write () in
  em.em_header ();
  (* Written for every kept row of a group before it is read. *)
  let actuals = Pn_util.Scratch.ints scratch k_actuals (Pn_data.Columnar.group_capacity sch) in
  let base_row = ref 0 in
  let rec groups () =
    match corrupt (fun () -> Pn_data.Columnar.read_group r) with
    | None -> ()
    | Some group_rows ->
      Array.iteri
        (fun a remap ->
          if Option.is_some outside.(a) then begin
            let col = Pn_data.Columnar.cat_col r mapping.(a) in
            for i = 0 to group_rows - 1 do
              let m = remap.(col.(i)) in
              col.(i) <- (if m >= 0 then m else -1 - col.(i))
            done
          end)
        remaps;
      let labels = Pn_data.Columnar.group_labels r in
      Pn_data.Rows.lend rows ~n:group_rows
        ~columns:
          (Array.map
             (fun j ->
               match file_attrs.(j).Pn_data.Attribute.kind with
               | Pn_data.Attribute.Numeric -> Pn_data.Dataset.Num (Pn_data.Columnar.num_col r j)
               | Pn_data.Attribute.Categorical _ ->
                 Pn_data.Dataset.Cat (Pn_data.Columnar.cat_col r j))
             mapping)
        ~masks:(Array.map (Pn_data.Columnar.col_missing r) mapping)
        ~outside ~labels:(Option.value labels ~default:[||]);
      Pn_data.Rows.decide rows ~first:(!base_row + 1);
      Pn_data.Rows.impute rows;
      let n = Pn_data.Rows.length rows in
      (* Labels are metrics-only. *)
      (match labels with
      | None -> Array.fill actuals 0 n (-1)
      | Some _ ->
        let lab = Pn_data.Rows.labels rows in
        for i = 0 to n - 1 do
          actuals.(i) <-
            (if lab.(i) < 0 then -1
             else
               let code = class_remap.(lab.(i)) in
               if code < 0 then incr unknown_labels;
               code)
        done);
      if n > 0 then em.em_emit ~n ~columns:(Pn_data.Rows.columns rows) ~actuals;
      base_row := !base_row + group_rows;
      groups ()
  in
  groups ();
  Pn_data.Ingest_report.add_io_retries ingest (Pn_data.Columnar.io_retries r);
  {
    ingest;
    chunks = !(em.em_chunks);
    rows_out = !(em.em_rows_out);
    unknown_labels = !unknown_labels;
    seconds = Unix.gettimeofday () -. t0;
    confusion =
      (if sch.Pn_data.Columnar.has_labels then Some !(em.em_confusion) else None);
  }

let predict_pnc ?policy ?scores ?pool ~model ~input ~output () =
  let ic = open_in_bin input in
  let report =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        predict_columnar_stream ?policy ?scores ?pool ~model
          ~source:(Pn_data.Stream.of_channel ic)
          ~write:(output_string output) ())
  in
  flush output;
  report

let predict_csv ?policy ?chunk_size ?class_column ?scores ?pool ~model ~input
    ~output () =
  let ic = open_in_bin input in
  let report =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        predict_stream ?policy ?chunk_size ?class_column ?scores ?pool ~model
          ~source:(Pn_data.Stream.of_channel ic)
          ~write:(output_string output) ())
  in
  flush output;
  report
