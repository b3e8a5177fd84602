(* Tests for the binary columnar dataset format ([.pnc]): round-trips,
   streaming reads, corruption detection, and the serving fast path's
   byte-for-byte agreement with the CSV pipeline. *)

module A = Pn_data.Attribute
module D = Pn_data.Dataset
module C = Pn_data.Columnar
module R = Pn_data.Ingest_report

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let mixed ~seed ~n =
  let rng = Pn_util.Rng.create seed in
  let xs = Array.make n 0.0 in
  let ys = Array.make n 0.0 in
  let cs = Array.make n 0 in
  let labels = Array.make n 0 in
  for i = 0 to n - 1 do
    xs.(i) <- Pn_util.Rng.float rng 100.0;
    ys.(i) <- (if i mod 17 = 0 then Float.nan else Pn_util.Rng.float rng 1.0);
    cs.(i) <- Pn_util.Rng.int rng 3;
    if Pn_util.Rng.float rng 1.0 < 0.05 then begin
      labels.(i) <- 1;
      xs.(i) <- 20.0 +. Pn_util.Rng.float rng 3.0
    end
  done;
  D.create
    ~attrs:
      [|
        A.numeric "x";
        A.numeric "y of, sorts";
        A.categorical "c with space" [| "a a"; "b\"q"; "z" |];
      |]
    ~columns:[| D.Num xs; D.Num ys; D.Cat cs |]
    ~labels
    ~classes:[| "normal"; "rare one" |]
    ()

(* ------------------------------------------------------------------ *)
(* Round-trips                                                          *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let ds = mixed ~seed:1 ~n:10_001 in
  (* A group size that does not divide n, so the last group is short. *)
  let back = C.of_string (C.to_string ~group_size:256 ds) in
  Alcotest.(check bool) "datasets equal (nan-tolerant)" true (D.equal ds back)

let test_roundtrip_edge_sizes () =
  List.iter
    (fun n ->
      let ds = mixed ~seed:2 ~n in
      List.iter
        (fun group_size ->
          let back = C.of_string (C.to_string ~group_size ds) in
          if not (D.equal ds back) then
            Alcotest.failf "round-trip failed at n=%d group_size=%d" n group_size)
        [ 1; 2; n + 7 ])
    [ 1; 2; 255 ]

let test_roundtrip_empty () =
  let ds =
    D.create
      ~attrs:[| A.numeric "x"; A.categorical "c" [| "a"; "b" |] |]
      ~columns:[| D.Num [||]; D.Cat [||] |]
      ~labels:[||] ~classes:[| "n"; "p" |] ()
  in
  let back = C.of_string (C.to_string ds) in
  Alcotest.(check int) "0 rows back" 0 (D.n_records back);
  Alcotest.(check bool) "schema equal" true (D.equal ds back)

let test_file_roundtrip_atomic () =
  let ds = mixed ~seed:3 ~n:5_000 in
  let path = Filename.temp_file "pnrule_col" ".pnc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      C.save ds path;
      Alcotest.(check bool) "file round-trip" true (D.equal ds (C.load path));
      (* Saving on top of an existing file replaces it atomically. *)
      let ds2 = mixed ~seed:4 ~n:1_000 in
      C.save ds2 path;
      Alcotest.(check bool) "overwrite" true (D.equal ds2 (C.load path)))

(* ------------------------------------------------------------------ *)
(* Missing-value bitmaps and load policies                              *)
(* ------------------------------------------------------------------ *)

let with_missing ~seed ~n =
  let ds = mixed ~seed ~n in
  let missing =
    [|
      Some (Array.init n (fun i -> i mod 11 = 0));
      None;
      Some (Array.init n (fun i -> i mod 13 = 0));
    |]
  in
  (ds, missing, C.to_string ~group_size:128 ~missing ds)

let test_missing_strict () =
  let _, _, s = with_missing ~seed:5 ~n:1_000 in
  match C.of_string s with
  | _ -> Alcotest.fail "strict accepted a missing cell"
  | exception C.Corrupt msg ->
    Alcotest.(check bool)
      "message names the column" true
      (contains ~sub:"\"x\"" msg)

let test_missing_skip () =
  let _, missing, s = with_missing ~seed:6 ~n:1_000 in
  let bad = ref 0 in
  for i = 0 to 999 do
    let row_bad =
      Array.exists
        (function Some m -> m.(i) | None -> false)
        missing
    in
    if row_bad then incr bad
  done;
  let ds, report = ref None, ref None in
  (match C.of_string ~policy:R.Skip s with
  | d -> ds := Some d
  | exception C.Corrupt msg -> Alcotest.failf "skip raised: %s" msg);
  ignore report;
  Alcotest.(check int)
    "skip drops exactly the flagged rows" (1_000 - !bad)
    (D.n_records (Option.get !ds))

let test_missing_impute () =
  let orig, _, s = with_missing ~seed:7 ~n:1_000 in
  let ds = C.of_string ~policy:R.Impute s in
  Alcotest.(check int) "impute keeps every row" 1_000 (D.n_records ds);
  (* Imputed numeric cells hold the whole-column median of the present
     values, never nan (column x has no nans in the generator). *)
  (match (ds.D.columns.(0), orig.D.columns.(0)) with
  | D.Num a, D.Num _ ->
    Array.iter
      (fun v -> if Float.is_nan v then Alcotest.fail "imputed cell is nan")
      a
  | _ -> Alcotest.fail "column 0 should be numeric");
  (* Unflagged cells are untouched. *)
  match (ds.D.columns.(1), orig.D.columns.(1)) with
  | D.Num a, D.Num b ->
    Array.iteri
      (fun i v ->
        if Float.compare v b.(i) <> 0 then
          Alcotest.failf "unflagged cell %d changed" i)
      a
  | _ -> Alcotest.fail "column 1 should be numeric"

(* ------------------------------------------------------------------ *)
(* Streaming reader                                                     *)
(* ------------------------------------------------------------------ *)

let test_streaming_reader () =
  let n = 2_000 in
  let ds = mixed ~seed:8 ~n in
  let s = C.to_string ~group_size:300 ds in
  let r = C.open_reader (Pn_data.Stream.of_string s) in
  let sch = C.schema r in
  Alcotest.(check int) "n_rows" n sch.C.n_rows;
  Alcotest.(check int) "n_groups" 7 sch.C.n_groups;
  Alcotest.(check bool) "labels present" true sch.C.has_labels;
  (* Decode only columns 0 and 2. *)
  C.set_wanted r [| true; false; true |];
  let seen = ref 0 in
  let rec go () =
    match C.read_group r with
    | None -> ()
    | Some rows ->
      let xs = C.num_col r 0 in
      let cs = C.cat_col r 2 in
      let labs = Option.get (C.group_labels r) in
      for i = 0 to rows - 1 do
        let g = !seen + i in
        if Float.compare xs.(i) (D.num_value ds ~col:0 g) <> 0 then
          Alcotest.failf "num mismatch at %d" g;
        if cs.(i) <> D.cat_value ds ~col:2 g then
          Alcotest.failf "cat mismatch at %d" g;
        if labs.(i) <> D.label ds g then Alcotest.failf "label mismatch at %d" g
      done;
      (match C.num_col r 1 with
      | _ -> Alcotest.fail "unwanted column should not decode"
      | exception Invalid_argument _ -> ());
      seen := !seen + rows;
      go ()
  in
  go ();
  Alcotest.(check int) "all rows streamed" n !seen

(* ------------------------------------------------------------------ *)
(* qcheck: round-trip and corruption properties                         *)
(* ------------------------------------------------------------------ *)

(* Arbitrary datasets: mixed kinds, awkward floats (nan, infinities,
   subnormals), weird names, arities crossing the 1/2-byte code widths,
   row counts crossing group boundaries. Weights stay at the default 1
   because the format does not store them. *)
let dataset_gen =
  let open QCheck.Gen in
  let name = oneofl [ "x"; "a b"; "q\"uote"; "back\\slash"; ""; "日本" ] in
  let cell =
    oneofl
      [ 0.0; -1.5; 3.25e300; 4e-320; Float.nan; Float.infinity; Float.neg_infinity ]
  in
  int_range 0 600 >>= fun n ->
  int_range 1 70 >>= fun group_size ->
  int_range 1 4 >>= fun n_attrs ->
  int_range 1 3 >>= fun n_classes ->
  let attr =
    name >>= fun nm ->
    bool >>= fun numeric ->
    if numeric then return (A.numeric nm)
    else
      oneofl [ 1; 2; 3; 257 ] >>= fun arity ->
      return (A.categorical nm (Array.init arity (Printf.sprintf "v%d")))
  in
  array_size (return n_attrs) attr >>= fun attrs ->
  let column (a : A.t) =
    match a.A.kind with
    | A.Numeric -> array_size (return n) cell >>= fun c -> return (D.Num c)
    | A.Categorical values ->
      array_size (return n) (int_range 0 (Array.length values - 1))
      >>= fun c -> return (D.Cat c)
  in
  (* flatten an array of generators by hand: order matters not, but
     sizes do *)
  let rec columns i acc =
    if i = n_attrs then return (Array.of_list (List.rev acc))
    else column attrs.(i) >>= fun c -> columns (i + 1) (c :: acc)
  in
  columns 0 [] >>= fun columns ->
  array_size (return n) (int_range 0 (n_classes - 1)) >>= fun labels ->
  let classes = Array.init n_classes (Printf.sprintf "class %d") in
  return (D.create ~attrs ~columns ~labels ~classes (), group_size)

let corruption_gen =
  let open QCheck.Gen in
  dataset_gen >>= fun (ds, group_size) ->
  let s = C.to_string ~group_size ds in
  oneof
    [
      ( int_range 0 (String.length s - 1) >>= fun pos ->
        int_range 1 255 >>= fun delta ->
        let b = Bytes.of_string s in
        Bytes.set b pos
          (Char.chr ((Char.code (Bytes.get b pos) + delta) land 0xff));
        return (Bytes.to_string b) );
      ( int_range 0 (String.length s - 1) >>= fun keep ->
        return (String.sub s 0 keep) );
      (* Trailing garbage after a well-formed file. *)
      (oneofl [ "\x00"; "pncol"; "\n" ] >>= fun tail -> return (s ^ tail));
    ]

let qcheck_props =
  [
    QCheck.Test.make ~count:200 ~name:"columnar round-trip preserves the dataset"
      (QCheck.make dataset_gen)
      (fun (ds, group_size) ->
        D.equal ds (C.of_string (C.to_string ~group_size ds)));
    QCheck.Test.make ~count:400
      ~name:"columnar: corrupted bytes always raise Corrupt"
      (QCheck.make corruption_gen)
      (fun corrupted ->
        match C.of_string corrupted with
        | _ -> QCheck.Test.fail_report "corruption accepted silently"
        | exception C.Corrupt _ -> true
        | exception e ->
          QCheck.Test.fail_reportf "wrong exception: %s" (Printexc.to_string e));
  ]

(* ------------------------------------------------------------------ *)
(* Serving: the columnar path vs the CSV path                           *)
(* ------------------------------------------------------------------ *)

let train_model ~seed ~n =
  let ds = mixed ~seed ~n in
  (ds, Pnrule.Learner.train ds ~target:1)

let serve_csv ?policy ?scores ~model ds =
  let csv = Filename.temp_file "pnrule_col" ".csv" in
  Pn_data.Csv_io.save ds csv;
  let body = In_channel.with_open_bin csv In_channel.input_all in
  Sys.remove csv;
  let buf = Buffer.create 4096 in
  let report =
    Pnrule.Serve.predict_stream ?policy ?scores ~model:(Pnrule.Saved.Single model)
      ~source:(Pn_data.Stream.of_string body)
      ~write:(Buffer.add_string buf) ()
  in
  (Buffer.contents buf, report)

let serve_pnc ?policy ?scores ?missing ~model ds =
  let s = C.to_string ?missing ds in
  let buf = Buffer.create 4096 in
  let report =
    Pnrule.Serve.predict_columnar_stream ?policy ?scores
      ~model:(Pnrule.Saved.Single model)
      ~source:(Pn_data.Stream.of_string s)
      ~write:(Buffer.add_string buf) ()
  in
  (Buffer.contents buf, report)

let test_serve_byte_identical () =
  let train, model = train_model ~seed:9 ~n:8_000 in
  ignore train;
  let fresh = mixed ~seed:10 ~n:9_001 in
  List.iter
    (fun scores ->
      let csv_out, csv_rep = serve_csv ~scores ~model fresh in
      let pnc_out, pnc_rep = serve_pnc ~scores ~model fresh in
      Alcotest.(check string)
        (Printf.sprintf "byte-identical output (scores=%b)" scores)
        csv_out pnc_out;
      Alcotest.(check int)
        "same rows out" csv_rep.Pnrule.Serve.rows_out
        pnc_rep.Pnrule.Serve.rows_out;
      (* The CSV feed finds the "class" column, the columnar feed its
         label blocks: both must reach the same confusion counts. *)
      match (csv_rep.Pnrule.Serve.confusion, pnc_rep.Pnrule.Serve.confusion) with
      | Some a, Some b ->
        Alcotest.(check bool) "same confusion" true (a = b)
      | _ -> Alcotest.fail "both paths should produce a confusion matrix")
    [ false; true ]

let test_serve_column_permutation () =
  (* Same rows, columns stored in a different order than the model's:
     name-based resolution must put them back. *)
  let _, model = train_model ~seed:11 ~n:6_000 in
  let ds = mixed ~seed:12 ~n:2_000 in
  let permuted =
    D.create
      ~attrs:[| ds.D.attrs.(2); ds.D.attrs.(0); ds.D.attrs.(1) |]
      ~columns:[| ds.D.columns.(2); ds.D.columns.(0); ds.D.columns.(1) |]
      ~labels:ds.D.labels ~classes:ds.D.classes ()
  in
  let out, _ = serve_pnc ~model ds in
  let out_p, _ = serve_pnc ~model permuted in
  Alcotest.(check string) "column order is irrelevant" out out_p

let test_serve_dictionary_remap () =
  (* The file's dictionary lists the model's values in a different order
     plus one value the model has never seen. *)
  let _, model = train_model ~seed:13 ~n:6_000 in
  let n = 500 in
  let ds = mixed ~seed:14 ~n in
  let file_values = [| "z"; "NEW"; "a a"; "b\"q" |] in
  (* old code 0 -> "a a" is file code 2; 1 -> "b\"q" is 3; 2 -> "z" is 0;
     rows 17, 34, ... get the unknown value (file code 1). *)
  let recode = [| 2; 3; 0 |] in
  let cs =
    Array.init n (fun i ->
        if i mod 17 = 0 then 1
        else recode.(D.cat_value ds ~col:2 i))
  in
  let file_ds =
    D.create
      ~attrs:
        [| ds.D.attrs.(0); ds.D.attrs.(1); A.categorical "c with space" file_values |]
      ~columns:[| ds.D.columns.(0); ds.D.columns.(1); D.Cat cs |]
      ~labels:ds.D.labels ~classes:ds.D.classes ()
  in
  (match serve_pnc ~model file_ds with
  | _ -> Alcotest.fail "strict accepted an unknown dictionary value"
  | exception Pnrule.Serve.Error msg ->
    Alcotest.(check bool)
      "message names the value" true
      (contains ~sub:"\"NEW\"" msg));
  let _, rep = serve_pnc ~policy:R.Skip ~model file_ds in
  Alcotest.(check int)
    "skip drops the unknown-value rows"
    (n - ((n + 16) / 17))
    rep.Pnrule.Serve.rows_out;
  let _, rep = serve_pnc ~policy:R.Impute ~model file_ds in
  Alcotest.(check int) "impute keeps every row" n rep.Pnrule.Serve.rows_out;
  Alcotest.(check int)
    "impute patches the unknown cells" ((n + 16) / 17)
    rep.Pnrule.Serve.ingest.R.cells_imputed

let test_serve_missing_policies () =
  let _, model = train_model ~seed:15 ~n:6_000 in
  let n = 400 in
  let ds = mixed ~seed:16 ~n in
  let missing =
    [| Some (Array.init n (fun i -> i mod 9 = 0)); None; None |]
  in
  (match serve_pnc ~missing ~model ds with
  | _ -> Alcotest.fail "strict accepted a missing cell"
  | exception Pnrule.Serve.Error _ -> ());
  let _, rep = serve_pnc ~policy:R.Skip ~missing ~model ds in
  Alcotest.(check int)
    "skip drops flagged rows"
    (n - ((n + 8) / 9))
    rep.Pnrule.Serve.rows_out;
  let out_imp, rep = serve_pnc ~policy:R.Impute ~missing ~model ds in
  Alcotest.(check int) "impute keeps every row" n rep.Pnrule.Serve.rows_out;
  Alcotest.(check bool) "output non-empty" true (String.length out_imp > 0)

let test_serve_limit_and_corrupt () =
  let _, model = train_model ~seed:17 ~n:6_000 in
  let ds = mixed ~seed:18 ~n:1_000 in
  let s = C.to_string ds in
  (match
     Pnrule.Serve.predict_columnar_stream ~max_rows:999
       ~model:(Pnrule.Saved.Single model)
       ~source:(Pn_data.Stream.of_string s)
       ~write:ignore ()
   with
  | _ -> Alcotest.fail "limit not enforced"
  | exception Pnrule.Serve.Limit _ -> ());
  let truncated = String.sub s 0 (String.length s - 7) in
  match
    Pnrule.Serve.predict_columnar_stream ~model:(Pnrule.Saved.Single model)
      ~source:(Pn_data.Stream.of_string truncated)
      ~write:ignore ()
  with
  | _ -> Alcotest.fail "truncated file accepted"
  | exception Pnrule.Serve.Error msg ->
    Alcotest.(check bool)
      "wrapped as a columnar error" true
      (contains ~sub:"columnar:" msg)

(* A header may declare a group size far above its row count: every
   per-group buffer — the writer's block, the reader's decode buffers,
   the serving core's label and keep arrays — is sized by the smaller
   of the two. A 3-row file with 2^20-row groups is a few hundred bytes
   and must cost about that much to write, decode and serve. Measured
   in this domain only (the serving core runs on the sequential pool). *)
let test_oversized_group_header () =
  let ds, model = train_model ~seed:19 ~n:4_000 in
  let small = D.subset ds [| 0; 1; 2 |] in
  let mb = 1024.0 *. 1024.0 in
  let bytes_of f = 8.0 *. Test_ensemble.allocated_words f in
  let s = C.to_string ~group_size:(1 lsl 20) small in
  let write = bytes_of (fun () -> C.to_string ~group_size:(1 lsl 20) small) in
  Alcotest.(check bool)
    (Printf.sprintf "write allocates %.0f bytes, under 1 MB" write)
    true (write < mb);
  let decoded = C.of_string s in
  (* [compare], not [=]: row 0 carries a nan. *)
  Alcotest.(check bool) "decodes to the same rows" true
    (compare decoded.D.columns small.D.columns = 0
    && decoded.D.labels = small.D.labels);
  let decode = bytes_of (fun () -> C.of_string s) in
  Alcotest.(check bool)
    (Printf.sprintf "decode allocates %.0f bytes, under 1 MB" decode)
    true (decode < mb);
  let serve =
    bytes_of (fun () ->
        Pnrule.Serve.predict_columnar_stream ~pool:Pn_util.Pool.sequential
          ~model:(Pnrule.Saved.Single model)
          ~source:(Pn_data.Stream.of_string s)
          ~write:ignore ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "serve allocates %.0f bytes, under 1 MB" serve)
    true (serve < mb)

let suite =
  [
    Alcotest.test_case "round-trip 10k" `Quick test_roundtrip;
    Alcotest.test_case "round-trip edge sizes" `Quick test_roundtrip_edge_sizes;
    Alcotest.test_case "round-trip empty" `Quick test_roundtrip_empty;
    Alcotest.test_case "file round-trip + overwrite" `Quick
      test_file_roundtrip_atomic;
    Alcotest.test_case "missing: strict raises" `Quick test_missing_strict;
    Alcotest.test_case "missing: skip drops" `Quick test_missing_skip;
    Alcotest.test_case "missing: impute fills" `Quick test_missing_impute;
    Alcotest.test_case "streaming reader + set_wanted" `Quick
      test_streaming_reader;
    Alcotest.test_case "serve: byte-identical with CSV" `Quick
      test_serve_byte_identical;
    Alcotest.test_case "serve: column permutation" `Quick
      test_serve_column_permutation;
    Alcotest.test_case "serve: dictionary remap" `Quick
      test_serve_dictionary_remap;
    Alcotest.test_case "serve: missing-value policies" `Quick
      test_serve_missing_policies;
    Alcotest.test_case "serve: limit and corrupt" `Quick
      test_serve_limit_and_corrupt;
    Alcotest.test_case "oversized group size allocates by row count" `Quick
      test_oversized_group_header;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
