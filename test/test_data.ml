(* Tests for pn_data: dataset engine, views, builder, CSV. *)

module A = Pn_data.Attribute
module D = Pn_data.Dataset
module V = Pn_data.View
module Csv = Pn_data.Csv_io

let check_float = Alcotest.(check (float 1e-9))

let tiny () =
  (* 6 records, 1 numeric + 1 categorical attribute, classes neg/pos. *)
  D.create
    ~attrs:[| A.numeric "x"; A.categorical "color" [| "red"; "blue" |] |]
    ~columns:
      [|
        D.Num [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |];
        D.Cat [| 0; 1; 0; 1; 0; 1 |];
      |]
    ~labels:[| 0; 0; 1; 1; 0; 1 |]
    ~classes:[| "neg"; "pos" |]
    ()

(* ------------------------------------------------------------------ *)
(* Attribute                                                            *)
(* ------------------------------------------------------------------ *)

let test_attribute () =
  let num = A.numeric "x" and cat = A.categorical "c" [| "a"; "b"; "c" |] in
  Alcotest.(check bool) "numeric" true (A.is_numeric num);
  Alcotest.(check bool) "categorical" false (A.is_numeric cat);
  Alcotest.(check int) "arity" 3 (A.arity cat);
  Alcotest.(check string) "value name" "b" (A.value_name cat 1);
  Alcotest.check_raises "arity of numeric"
    (Invalid_argument "Attribute.arity: numeric attribute") (fun () ->
      ignore (A.arity num))

(* ------------------------------------------------------------------ *)
(* Dataset                                                              *)
(* ------------------------------------------------------------------ *)

let test_dataset_accessors () =
  let ds = tiny () in
  Alcotest.(check int) "n" 6 (D.n_records ds);
  Alcotest.(check int) "attrs" 2 (D.n_attrs ds);
  Alcotest.(check int) "classes" 2 (D.n_classes ds);
  check_float "num" 3.0 (D.num_value ds ~col:0 2);
  Alcotest.(check int) "cat" 1 (D.cat_value ds ~col:1 3);
  Alcotest.(check int) "label" 1 (D.label ds 2);
  check_float "weight default" 1.0 (D.weight ds 0);
  Alcotest.(check int) "class_index" 1 (D.class_index ds "pos");
  Alcotest.check_raises "missing class" Not_found (fun () ->
      ignore (D.class_index ds "nope"))

let test_dataset_validation () =
  let attrs = [| A.numeric "x" |] in
  let raises f = try f (); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> () in
  raises (fun () ->
      ignore (D.create ~attrs ~columns:[| D.Num [| 1.0 |] |] ~labels:[| 0; 0 |] ~classes:[| "a" |] ()));
  raises (fun () ->
      ignore (D.create ~attrs ~columns:[| D.Cat [| 0 |] |] ~labels:[| 0 |] ~classes:[| "a" |] ()));
  raises (fun () ->
      ignore (D.create ~attrs ~columns:[| D.Num [| 1.0 |] |] ~labels:[| 5 |] ~classes:[| "a" |] ()));
  raises (fun () ->
      ignore
        (D.create
           ~attrs:[| A.categorical "c" [| "v" |] |]
           ~columns:[| D.Cat [| 3 |] |] ~labels:[| 0 |] ~classes:[| "a" |] ()));
  raises (fun () ->
      ignore
        (D.create ~weights:[| -1.0 |] ~attrs ~columns:[| D.Num [| 1.0 |] |]
           ~labels:[| 0 |] ~classes:[| "a" |] ()))

(* [tiny ()]'s six records over arrays two cells longer, the cells past
   the records holding an out-of-range code, label and weight: nothing
   may read or validate them, and every function sees the same dataset
   as [tiny ()]. A seventh record would be a validation error. *)
let test_dataset_prefix () =
  let attrs = [| A.numeric "x"; A.categorical "color" [| "red"; "blue" |] |] in
  let over ~n =
    D.create ~n ~attrs
      ~columns:
        [|
          D.Num [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; Float.nan; -1.0 |];
          D.Cat [| 0; 1; 0; 1; 0; 1; 7; 7 |];
        |]
      ~labels:[| 0; 0; 1; 1; 0; 1; 9; 9 |]
      ~weights:[| 1.0; 1.0; 1.0; 1.0; 1.0; 1.0; -5.0; -5.0 |]
      ~classes:[| "neg"; "pos" |] ()
  in
  let ds = over ~n:6 and exact = tiny () in
  Alcotest.(check int) "n" 6 (D.n_records ds);
  Alcotest.(check bool) "equal" true (D.equal ds exact && D.equal exact ds);
  check_float "total" 6.0 (D.total_weight ds);
  Alcotest.(check (array (float 1e-9))) "counts" [| 3.0; 3.0 |] (D.class_counts ds);
  Alcotest.(check (array bool)) "binary"
    (D.binary_labels exact ~target:1) (D.binary_labels ds ~target:1);
  Alcotest.(check (array int)) "sorted order" (D.sorted_order exact ~col:0)
    (D.sorted_order ds ~col:0);
  Alcotest.(check bool) "append" true
    (D.equal (D.append ds ds) (D.append exact exact));
  Alcotest.(check bool) "stratify" true
    (D.equal (D.stratify ds ~target:1) (D.stratify exact ~target:1));
  Alcotest.check_raises "seventh record"
    (Invalid_argument "Dataset.create: column 1 code 7 out of range [0,2)")
    (fun () -> ignore (over ~n:7));
  Alcotest.check_raises "past the arrays"
    (Invalid_argument "Dataset.create: column 0 has length 8, expected at least 9")
    (fun () -> ignore (over ~n:9))

let test_class_counts () =
  let ds = tiny () in
  Alcotest.(check (array (float 1e-9))) "counts" [| 3.0; 3.0 |] (D.class_counts ds);
  check_float "class weight" 3.0 (D.class_weight ds 1);
  check_float "total" 6.0 (D.total_weight ds)

let test_stratify () =
  let ds = tiny () in
  let st = D.stratify ds ~target:1 in
  (* Target aggregate weight equals non-target aggregate weight. *)
  let counts = D.class_counts st in
  check_float "balanced" counts.(0) counts.(1);
  (* Non-target weights untouched; original dataset unchanged. *)
  check_float "non-target unit" 1.0 (D.weight st 0);
  check_float "original intact" 1.0 (D.weight ds 2)

let test_subset_append () =
  let ds = tiny () in
  let sub = D.subset ds [| 2; 0 |] in
  Alcotest.(check int) "subset size" 2 (D.n_records sub);
  check_float "subset order" 3.0 (D.num_value sub ~col:0 0);
  Alcotest.(check int) "subset label" 1 (D.label sub 0);
  let joined = D.append sub sub in
  Alcotest.(check int) "append size" 4 (D.n_records joined);
  check_float "append content" 3.0 (D.num_value joined ~col:0 2)

let test_binary_labels () =
  let ds = tiny () in
  Alcotest.(check (array bool)) "binary"
    [| false; false; true; true; false; true |]
    (D.binary_labels ds ~target:1)

let test_with_weights () =
  let ds = tiny () in
  let w = [| 2.0; 2.0; 2.0; 2.0; 2.0; 2.0 |] in
  check_float "reweighted" 12.0 (D.total_weight (D.with_weights ds w));
  Alcotest.check_raises "bad length" (Invalid_argument "Dataset.with_weights: length")
    (fun () -> ignore (D.with_weights ds [| 1.0 |]))

(* ------------------------------------------------------------------ *)
(* View                                                                 *)
(* ------------------------------------------------------------------ *)

let test_view_basics () =
  let ds = tiny () in
  let v = V.all ds in
  Alcotest.(check int) "all size" 6 (V.size v);
  let evens = V.filter v (fun i -> i mod 2 = 0) in
  Alcotest.(check int) "filter" 3 (V.size evens);
  Alcotest.(check int) "record" 2 (V.record evens 1);
  let pos, neg = V.partition v (fun i -> D.label ds i = 1) in
  Alcotest.(check int) "partition pos" 3 (V.size pos);
  Alcotest.(check int) "partition neg" 3 (V.size neg);
  check_float "total weight" 6.0 (V.total_weight v);
  check_float "class weight" 3.0 (V.class_weight v 1);
  let p, n = V.binary_weights v ~target:1 in
  check_float "binary pos" 3.0 p;
  check_float "binary neg" 3.0 n;
  Alcotest.(check int) "count_class" 3 (V.count_class v 0)

let test_view_sorted () =
  let ds =
    D.create
      ~attrs:[| A.numeric "x" |]
      ~columns:[| D.Num [| 3.0; 1.0; 2.0 |] |]
      ~labels:[| 0; 0; 0 |] ~classes:[| "a" |] ()
  in
  Alcotest.(check (array int)) "sorted" [| 1; 2; 0 |]
    (V.sorted_by_num (V.all ds) ~col:0)

let test_view_split () =
  let n = 200 in
  let labels = Array.init n (fun i -> if i mod 100 = 0 then 1 else 0) in
  let ds =
    D.create
      ~attrs:[| A.numeric "x" |]
      ~columns:[| D.Num (Array.init n float_of_int) |]
      ~labels ~classes:[| "a"; "b" |] ()
  in
  let rng = Pn_util.Rng.create 17 in
  let left, right = V.split (V.all ds) rng ~left_fraction:(2.0 /. 3.0) in
  Alcotest.(check int) "sizes sum" n (V.size left + V.size right);
  (* Rare class (2 records) must appear on both sides. *)
  Alcotest.(check int) "rare left" 1 (V.count_class left 1);
  Alcotest.(check int) "rare right" 1 (V.count_class right 1);
  (* No index on both sides. *)
  let seen = Hashtbl.create n in
  V.iter left (fun i -> Hashtbl.add seen i ());
  V.iter right (fun i ->
      if Hashtbl.mem seen i then Alcotest.failf "record %d on both sides" i)

let test_view_materialize () =
  let ds = tiny () in
  let v = V.filter (V.all ds) (fun i -> D.label ds i = 1) in
  let m = V.materialize v in
  Alcotest.(check int) "materialized" 3 (D.n_records m);
  Alcotest.(check (array (float 1e-9))) "counts" [| 0.0; 3.0 |] (D.class_counts m)

(* ------------------------------------------------------------------ *)
(* CSV                                                                  *)
(* ------------------------------------------------------------------ *)

let test_csv_parse () =
  let ds =
    Csv.parse_string "x,color,class\n1.5,red,yes\n2.5,blue,no\n3.5,red,yes\n"
  in
  Alcotest.(check int) "rows" 3 (D.n_records ds);
  Alcotest.(check bool) "x numeric" true (A.is_numeric ds.D.attrs.(0));
  Alcotest.(check bool) "color categorical" false (A.is_numeric ds.D.attrs.(1));
  check_float "value" 2.5 (D.num_value ds ~col:0 1);
  Alcotest.(check string) "classes in first-seen order" "yes" ds.D.classes.(0);
  Alcotest.(check int) "label" 1 (D.label ds 1)

let test_csv_class_column () =
  let ds =
    Csv.parse_string ~class_column:"label" "label,x\nyes,1\nno,2\n"
  in
  Alcotest.(check int) "attrs" 1 (D.n_attrs ds);
  Alcotest.(check string) "attr name" "x" ds.D.attrs.(0).A.name;
  Alcotest.(check int) "label" 1 (D.label ds 1)

let test_csv_quoting () =
  let ds = Csv.parse_string "name,class\n\"a,b\",x\n\"say \"\"hi\"\"\",y\n" in
  (match ds.D.attrs.(0).A.kind with
  | A.Categorical values ->
    Alcotest.(check string) "comma kept" "a,b" values.(0);
    Alcotest.(check string) "escaped quote" "say \"hi\"" values.(1)
  | A.Numeric -> Alcotest.fail "expected categorical");
  Alcotest.(check int) "rows" 2 (D.n_records ds)

let test_csv_errors () =
  let raises s = try ignore (Csv.parse_string s); Alcotest.fail "expected Parse_error" with Csv.Parse_error _ -> () in
  raises "a,b\n1\n";
  raises "";
  (try ignore (Csv.parse_string ~class_column:"nope" "a,b\n1,2\n");
       Alcotest.fail "expected Parse_error"
   with Csv.Parse_error _ -> ())

let test_csv_roundtrip () =
  let ds = tiny () in
  let path = Filename.temp_file "pnrule_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save ds path;
      let back = Csv.load path in
      Alcotest.(check int) "rows" (D.n_records ds) (D.n_records back);
      for i = 0 to D.n_records ds - 1 do
        check_float "numeric cell" (D.num_value ds ~col:0 i) (D.num_value back ~col:0 i);
        Alcotest.(check string) "cat cell"
          (A.value_name ds.D.attrs.(1) (D.cat_value ds ~col:1 i))
          (A.value_name back.D.attrs.(1) (D.cat_value back ~col:1 i));
        Alcotest.(check string) "label"
          ds.D.classes.(D.label ds i)
          back.D.classes.(D.label back i)
      done)

let test_csv_crlf () =
  (* Regression: CRLF files used to leave a trailing '\r' glued to the
     last cell, so ~class_column:"label" failed on "label\r". *)
  let ds =
    Csv.parse_string ~class_column:"label" "x,label\r\n1.5,yes\r\n2.5,no\r\n"
  in
  Alcotest.(check int) "rows" 2 (D.n_records ds);
  Alcotest.(check string) "attr unchanged" "x" ds.D.attrs.(0).A.name;
  Alcotest.(check string) "label clean" "no" ds.D.classes.(D.label ds 1);
  (* Quoted fields may span physical lines. *)
  let ds2 = Csv.parse_string "note,class\n\"a\nb\",x\n" in
  match ds2.D.attrs.(0).A.kind with
  | A.Categorical values -> Alcotest.(check string) "newline kept" "a\nb" values.(0)
  | A.Numeric -> Alcotest.fail "expected categorical"

let test_csv_nan_inf_categorical () =
  (* Identifier-like literals that parse as floats (nan, inf, infinity)
     must not flip a column to numeric: they are almost always IDs or
     category names in real data. *)
  let ds = Csv.parse_string "v,class\nnan,x\ninf,y\nInfinity,x\n" in
  Alcotest.(check bool) "nan/inf stay categorical" false (A.is_numeric ds.D.attrs.(0));
  (* Ordinary numerics still infer numeric, including exponent forms. *)
  let ds2 = Csv.parse_string "v,class\n1e3,x\n-2.5,y\n" in
  Alcotest.(check bool) "exponent numeric" true (A.is_numeric ds2.D.attrs.(0))

let test_csv_bare_quote () =
  (* RFC-4180 leaves a quote inside an unquoted field undefined; the
     decoder rejects it deterministically rather than guessing. *)
  (try
     ignore (Csv.parse_string "v,class\na\"b,x\n");
     Alcotest.fail "expected Parse_error"
   with Csv.Parse_error msg ->
     Alcotest.(check bool) "line number in message" true
       (String.length msg > 0 && msg.[0] = 'l'));
  (* Under Skip the bad row is dropped and counted, the rest loads. *)
  let ds, report =
    Csv.parse_string_with_report ~policy:Pn_data.Ingest_report.Skip
      "v,class\na\"b,x\nok,y\n"
  in
  Alcotest.(check int) "one row kept" 1 (D.n_records ds);
  Alcotest.(check int) "one skipped" 1 report.Pn_data.Ingest_report.rows_skipped;
  Alcotest.(check int) "errors sampled" 1
    (List.length report.Pn_data.Ingest_report.errors)

let test_csv_skip_policy () =
  let text = "x,c,class\n1,red,yes\nbad,row\n2,?,no\n3,blue,yes\n" in
  let ds, report =
    Csv.parse_string_with_report ~policy:Pn_data.Ingest_report.Skip text
  in
  (* The arity-mismatch row and the "?" row are both dropped. *)
  Alcotest.(check int) "rows kept" 2 (D.n_records ds);
  Alcotest.(check int) "read" 4 report.Pn_data.Ingest_report.rows_read;
  Alcotest.(check int) "kept" 2 report.Pn_data.Ingest_report.rows_kept;
  Alcotest.(check int) "skipped" 2 report.Pn_data.Ingest_report.rows_skipped;
  Alcotest.(check int) "imputed" 0 report.Pn_data.Ingest_report.cells_imputed;
  check_float "x survives" 3.0 (D.num_value ds ~col:0 1);
  (* Strict on the same text fails (legacy behaviour). *)
  try
    ignore (Csv.parse_string text);
    Alcotest.fail "expected Parse_error"
  with Csv.Parse_error _ -> ()

let test_csv_impute_policy () =
  let text =
    "x,c,class\n1,red,yes\n?,red,no\n3,?,yes\n5,blue,no\n7,red,yes\n?,?,\n"
  in
  let ds, report =
    Csv.parse_string_with_report ~policy:Pn_data.Ingest_report.Impute text
  in
  (* The last row has no class label: dropped, not imputed. *)
  Alcotest.(check int) "rows kept" 5 (D.n_records ds);
  Alcotest.(check int) "skipped" 1 report.Pn_data.Ingest_report.rows_skipped;
  Alcotest.(check int) "two cells imputed" 2 report.Pn_data.Ingest_report.cells_imputed;
  (* Numeric "?" takes the column median of present values {1,3,5,7} = 4. *)
  check_float "median imputed" 4.0 (D.num_value ds ~col:0 1);
  (* Categorical "?" takes the majority value (red: 3 of 4 present). *)
  Alcotest.(check string) "majority imputed" "red"
    (A.value_name ds.D.attrs.(1) (D.cat_value ds ~col:1 2))

let test_dataset_equal () =
  let ds = tiny () in
  Alcotest.(check bool) "reflexive" true (D.equal ds ds);
  Alcotest.(check bool) "copy equal" true (D.equal ds (D.subset ds [| 0; 1; 2; 3; 4; 5 |]));
  Alcotest.(check bool) "subset differs" false (D.equal ds (D.subset ds [| 0 |]));
  (* nan compares equal to itself so imputed placeholders don't poison
     the equivalence tests. *)
  let mk v =
    D.create
      ~attrs:[| A.numeric "x" |]
      ~columns:[| D.Num [| v |] |]
      ~labels:[| 0 |] ~classes:[| "a" |] ()
  in
  Alcotest.(check bool) "nan = nan" true (D.equal (mk Float.nan) (mk Float.nan));
  Alcotest.(check bool) "nan <> 1" false (D.equal (mk Float.nan) (mk 1.0))

(* ------------------------------------------------------------------ *)
(* ARFF                                                                 *)
(* ------------------------------------------------------------------ *)

module Arff = Pn_data.Arff_io

let test_arff_parse () =
  let ds =
    Arff.parse_string
      "% comment\n@relation demo\n@attribute x numeric\n@attribute 'my \
       color' {red,blue}\n@attribute class {yes,no}\n@data\n1.5,red,yes\n\
       2.5,blue,no\n"
  in
  Alcotest.(check int) "rows" 2 (D.n_records ds);
  Alcotest.(check int) "attrs" 2 (D.n_attrs ds);
  Alcotest.(check string) "quoted name" "my color" ds.D.attrs.(1).A.name;
  check_float "numeric" 2.5 (D.num_value ds ~col:0 1);
  Alcotest.(check int) "nominal code" 1 (D.cat_value ds ~col:1 1);
  Alcotest.(check string) "class order as declared" "yes" ds.D.classes.(0);
  Alcotest.(check int) "label" 1 (D.label ds 1)

let test_arff_class_attribute () =
  let ds =
    Arff.parse_string ~class_attribute:"lbl"
      "@relation t\n@attribute lbl {a,b}\n@attribute x numeric\n@data\na,1\nb,2\n"
  in
  Alcotest.(check int) "attrs" 1 (D.n_attrs ds);
  Alcotest.(check int) "label" 1 (D.label ds 1)

let test_arff_errors () =
  let raises s =
    try
      ignore (Arff.parse_string s);
      Alcotest.failf "expected Parse_error for %S" s
    with Arff.Parse_error _ -> ()
  in
  raises "@relation t\n@attribute x numeric\n@data\n1\n";
  raises "@relation t\n@attribute x numeric\n@attribute class {a}\n@data\n1\n";
  raises "@relation t\n@attribute x numeric\n@attribute class {a,b}\n@data\n?,a\n";
  raises "@relation t\n@attribute x numeric\n@attribute class numeric\n@data\n1,2\n";
  raises "@relation t\n@attribute x numeric\n@attribute class {a,b}\n@data\n1,zzz\n"

let test_arff_roundtrip () =
  let ds = tiny () in
  let path = Filename.temp_file "pnrule_test" ".arff" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Arff.save ds path;
      let back = Arff.load path in
      Alcotest.(check int) "rows" (D.n_records ds) (D.n_records back);
      for i = 0 to D.n_records ds - 1 do
        check_float "numeric cell" (D.num_value ds ~col:0 i) (D.num_value back ~col:0 i);
        Alcotest.(check int) "cat cell" (D.cat_value ds ~col:1 i) (D.cat_value back ~col:1 i);
        Alcotest.(check int) "label" (D.label ds i) (D.label back i)
      done)

let test_arff_policies () =
  let text =
    "@relation t\n@attribute x numeric\n@attribute c {red,blue}\n@attribute \
     class {a,b}\n@data\n1,red,a\n?,red,b\n3,?,a\n5,blue,b\n1,red,?\n"
  in
  (* Strict: the legacy failure on any "?". *)
  (try
     ignore (Arff.parse_string text);
     Alcotest.fail "expected Parse_error"
   with Arff.Parse_error _ -> ());
  (* Skip: rows with "?" cells or class are dropped and counted. *)
  let ds, report =
    Arff.parse_string_with_report ~policy:Pn_data.Ingest_report.Skip text
  in
  Alcotest.(check int) "skip keeps clean rows" 2 (D.n_records ds);
  Alcotest.(check int) "skip counts" 3 report.Pn_data.Ingest_report.rows_skipped;
  (* Impute: cell "?" filled (median of {1,3,5} = 3; majority red), the
     missing-class row still dropped. *)
  let ds, report =
    Arff.parse_string_with_report ~policy:Pn_data.Ingest_report.Impute text
  in
  Alcotest.(check int) "impute keeps rows" 4 (D.n_records ds);
  Alcotest.(check int) "impute drops unlabeled" 1 report.Pn_data.Ingest_report.rows_skipped;
  Alcotest.(check int) "cells imputed" 2 report.Pn_data.Ingest_report.cells_imputed;
  check_float "numeric median" 3.0 (D.num_value ds ~col:0 1);
  Alcotest.(check string) "nominal majority" "red"
    (A.value_name ds.D.attrs.(1) (D.cat_value ds ~col:1 2))

(* ------------------------------------------------------------------ *)
(* Summary                                                              *)
(* ------------------------------------------------------------------ *)

module Summary = Pn_data.Summary

let test_summary_numeric () =
  let ds = tiny () in
  match Summary.attribute ds ~col:0 with
  | Summary.Numeric_summary s ->
    check_float "min" 1.0 s.Summary.min;
    check_float "max" 6.0 s.Summary.max;
    check_float "mean" 3.5 s.Summary.mean;
    Alcotest.(check bool) "sd positive" true (s.Summary.stddev > 1.0)
  | Summary.Categorical_summary _ -> Alcotest.fail "expected numeric"

let test_summary_categorical () =
  let ds = tiny () in
  match Summary.attribute ds ~col:1 with
  | Summary.Categorical_summary top ->
    Alcotest.(check int) "two values" 2 (List.length top);
    List.iter (fun (_, share) -> check_float "uniform" 0.5 share) top
  | Summary.Numeric_summary _ -> Alcotest.fail "expected categorical"

let test_summary_per_class () =
  let ds = tiny () in
  (* Class 1 has x ∈ {3, 4, 6}. *)
  match Summary.attribute_for_class ds ~col:0 ~cls:1 with
  | Summary.Numeric_summary s ->
    check_float "class min" 3.0 s.Summary.min;
    check_float "class mean" (13.0 /. 3.0) s.Summary.mean
  | Summary.Categorical_summary _ -> Alcotest.fail "expected numeric"

(* ------------------------------------------------------------------ *)
(* QCheck                                                               *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Sort cache                                                           *)
(* ------------------------------------------------------------------ *)

(* Reference implementation: sort the dataset indices by (value, index),
   the documented tie-break of both [Dataset.sorted_order] and
   [View.sorted_by_num]. *)
let naive_sorted ds idx ~col =
  let a = Array.copy idx in
  Array.sort
    (fun i j ->
      let c = Float.compare (D.num_value ds ~col i) (D.num_value ds ~col j) in
      if c <> 0 then c else Int.compare i j)
    a;
  a

let test_sort_cache_memoized () =
  let ds = tiny () in
  let o1 = D.sorted_order ds ~col:0 in
  let o2 = D.sorted_order ds ~col:0 in
  Alcotest.(check bool) "second call returns the cached array" true (o1 == o2);
  Alcotest.(check (array int)) "order" [| 0; 1; 2; 3; 4; 5 |] o1;
  let rank = D.sorted_rank ds ~col:0 in
  Array.iteri (fun k i -> Alcotest.(check int) "rank inverts order" k rank.(i)) o1;
  Alcotest.(check int) "distinct" 6 (D.n_distinct_num ds ~col:0);
  Alcotest.check_raises "categorical column"
    (Invalid_argument "Dataset.sort_entry: categorical column") (fun () ->
      ignore (D.sorted_order ds ~col:1))

let test_sort_cache_sharing () =
  let ds = tiny () in
  let o = D.sorted_order ds ~col:0 in
  (* Weight variants share columns, hence the cache. *)
  Alcotest.(check bool) "stratify shares" true
    (D.sorted_order (D.stratify ds ~target:1) ~col:0 == o);
  Alcotest.(check bool) "with_weights shares" true
    (D.sorted_order (D.with_weights ds (Array.make 6 2.0)) ~col:0 == o);
  (* Subset materializes new columns and must not inherit the order. *)
  let sub = D.subset ds [| 4; 1; 3 |] in
  Alcotest.(check (array int)) "subset order fresh" [| 1; 2; 0 |]
    (D.sorted_order sub ~col:0)

let test_sorted_ties_shuffled_view () =
  let ds =
    D.create
      ~attrs:[| A.numeric "x" |]
      ~columns:[| D.Num [| 2.0; 1.0; 2.0; 1.0; 2.0; 1.0 |] |]
      ~labels:[| 0; 0; 0; 0; 0; 0 |] ~classes:[| "a" |] ()
  in
  (* Ties break on the dataset index even when the view is shuffled. *)
  let v = V.of_indices ds [| 5; 2; 0; 3; 1; 4 |] in
  Alcotest.(check (array int)) "ties by dataset index" [| 1; 3; 5; 0; 2; 4 |]
    (V.sorted_by_num v ~col:0);
  (* Duplicate view indices fall back to the direct sort. *)
  let dup = V.of_indices ds [| 2; 2; 1 |] in
  Alcotest.(check (array int)) "duplicates kept" [| 1; 2; 2 |]
    (V.sorted_by_num dup ~col:0);
  (* Empty views short-circuit. *)
  let empty = V.filter (V.all ds) (fun _ -> false) in
  Alcotest.(check (array int)) "empty" [||] (V.sorted_by_num empty ~col:0)

(* Random clean CSV text: a mix of numeric and categorical columns with
   quoting-heavy values, written to a file and loaded through the
   channel path at a hostile buffer size. The result must be
   bit-identical to the in-memory parse. *)
let csv_equivalence_prop =
  let cat_values = [| "red"; "blue"; "a,b"; "say \"hi\""; "x y" |] in
  let gen =
    QCheck.Gen.(
      pair
        (pair (1 -- 3) (0 -- 2)) (* numeric columns, categorical columns *)
        (pair (list_size (1 -- 30) (0 -- 1000)) (1 -- 13)))
  in
  QCheck.Test.make ~count:200
    ~name:"streaming file load ≡ in-memory parse (clean input)"
    (QCheck.make gen)
    (fun ((n_num, n_cat), (seeds, buf_size)) ->
      let n_cols = n_num + n_cat in
      let buf = Buffer.create 256 in
      List.iteri
        (fun c _ ->
          if c > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "col%d" c))
        (List.init n_cols Fun.id);
      Buffer.add_string buf ",class\n";
      List.iteri
        (fun i seed ->
          for c = 0 to n_cols - 1 do
            if c > 0 then Buffer.add_char buf ',';
            if c < n_num then
              Buffer.add_string buf
                (Printf.sprintf "%g" (float_of_int ((seed + (c * i)) mod 97)))
            else
              Buffer.add_string buf
                (Pn_data.Csv_io.escape
                   cat_values.((seed + c + i) mod Array.length cat_values))
          done;
          Buffer.add_string buf (if seed mod 2 = 0 then ",yes\n" else ",no\n"))
        seeds;
      let text = Buffer.contents buf in
      let in_memory = Csv.parse_string text in
      let path = Filename.temp_file "pnrule_equiv" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc text);
          let streamed = Csv.load ~buf_size path in
          D.equal in_memory streamed))

(* [Decimal.parse] must equal [float_of_string_opt] bit for bit; any
   NaN equals any NaN. *)
let same_float a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
    (Float.is_nan x && Float.is_nan y)
    || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let test_decimal_table () =
  List.iter
    (fun s ->
      if not (same_float (Pn_data.Decimal.parse s) (float_of_string_opt s)) then
        Alcotest.failf "Decimal.parse %S differs from float_of_string_opt" s)
    [
      "9007199254740992"; "9007199254740993"; "1e22"; "1e23"; "1e-22"; "1e-23"; "-0";
      "-0.0"; "1."; ".5"; "+1"; "."; ""; "1e"; "1_0"; "0x1p3"; " 1"; "4.9e-324";
      "1.7976931348623157e308"; "1e400";
    ]

(* Decimal text around the fast path's edges: up to 25 digits (the
   significand crosses 2^53 near 16), a point anywhere or nowhere, and
   exponents inside and outside [-22, 22]. *)
let decimal_gen =
  let open QCheck.Gen in
  let digits n = string_size ~gen:(char_range '0' '9') (return n) in
  let exponent =
    opt
      (map3
         (fun e sign x ->
           Printf.sprintf "%c%s%d" e (if x < 0 then "-" else sign) (abs x))
         (oneofl [ 'e'; 'E' ])
         (oneofl [ ""; "+" ])
         (oneof [ int_range (-30) 30; int_range (-400) 400 ]))
  in
  1 -- 25 >>= fun n ->
  map3
    (fun (sign, zeros) (body, dot) exp ->
      let body =
        match dot with
        | None -> body
        | Some k -> String.sub body 0 k ^ "." ^ String.sub body k (n - k)
      in
      sign ^ String.make zeros '0' ^ body ^ Option.value exp ~default:"")
    (pair (oneofl [ ""; "+"; "-" ]) (0 -- 3))
    (pair (digits n) (opt (0 -- n)))
    exponent

let decimal_props =
  let agrees s = same_float (Pn_data.Decimal.parse s) (float_of_string_opt s) in
  [
    QCheck.Test.make ~count:20_000 ~name:"decimal text parses bit for bit like stdlib"
      (QCheck.make ~print:(Printf.sprintf "%S") decimal_gen)
      agrees;
    QCheck.Test.make ~count:20_000
      ~name:"arbitrary text parses bit for bit like stdlib"
      QCheck.(
        make ~print:(Printf.sprintf "%S")
          Gen.(
            string_size
              ~gen:(oneofl (String.to_seq "0123456789.eE+-_xpnaif " |> List.of_seq))
              (0 -- 12)))
      agrees;
  ]

let qcheck_props =
  [
    csv_equivalence_prop;
    QCheck.Test.make ~count:300 ~name:"sorted_by_num matches naive argsort"
      QCheck.(
        pair
          (list_of_size Gen.(int_range 0 120)
             (triple (int_range 0 6) (int_range 1 4) bool))
          bool)
      (fun (rows, use_col1) ->
        let n = List.length rows in
        let vals =
          Array.of_list (List.map (fun (v, _, _) -> float_of_int v /. 2.0) rows)
        in
        let vals2 = Array.map (fun v -> -.v) vals in
        let weights =
          Array.of_list (List.map (fun (_, w, _) -> float_of_int w) rows)
        in
        let keep = Array.of_list (List.map (fun (_, _, k) -> k) rows) in
        let labels = Array.init n (fun i -> i mod 2) in
        let ds =
          D.create ~weights
            ~attrs:[| A.numeric "x"; A.numeric "y" |]
            ~columns:[| D.Num vals; D.Num vals2 |]
            ~labels ~classes:[| "a"; "b" |] ()
        in
        let col = if use_col1 then 1 else 0 in
        let full = V.all ds in
        let sub = V.filter full (fun i -> keep.(i)) in
        (* Both the cached full-view path and (for small subsets) the
           direct-sort path must agree with the reference; a repeated
           call exercises the memoized entry. *)
        V.sorted_by_num full ~col = naive_sorted ds full.V.idx ~col
        && V.sorted_by_num sub ~col = naive_sorted ds sub.V.idx ~col
        && V.sorted_by_num sub ~col = naive_sorted ds sub.V.idx ~col);
    QCheck.Test.make ~count:100 ~name:"stratify balances classes"
      QCheck.(list_of_size Gen.(int_range 2 60) (int_range 0 1))
      (fun labels ->
        let labels = Array.of_list labels in
        QCheck.assume (Array.exists (fun l -> l = 1) labels);
        QCheck.assume (Array.exists (fun l -> l = 0) labels);
        let n = Array.length labels in
        let ds =
          D.create
            ~attrs:[| A.numeric "x" |]
            ~columns:[| D.Num (Array.make n 0.0) |]
            ~labels ~classes:[| "a"; "b" |] ()
        in
        let counts = D.class_counts (D.stratify ds ~target:1) in
        Float.abs (counts.(0) -. counts.(1)) < 1e-6);
    QCheck.Test.make ~count:100 ~name:"view split partitions indices"
      QCheck.(pair small_int (int_range 2 100))
      (fun (seed, n) ->
        let ds =
          D.create
            ~attrs:[| A.numeric "x" |]
            ~columns:[| D.Num (Array.init n float_of_int) |]
            ~labels:(Array.init n (fun i -> i mod 2))
            ~classes:[| "a"; "b" |] ()
        in
        let rng = Pn_util.Rng.create seed in
        let l, r = V.split (V.all ds) rng ~left_fraction:0.5 in
        V.size l + V.size r = n);
  ]

let suite =
  [
    Alcotest.test_case "attribute basics" `Quick test_attribute;
    Alcotest.test_case "dataset accessors" `Quick test_dataset_accessors;
    Alcotest.test_case "dataset validation" `Quick test_dataset_validation;
    Alcotest.test_case "dataset over longer arrays" `Quick test_dataset_prefix;
    Alcotest.test_case "class counts" `Quick test_class_counts;
    Alcotest.test_case "stratify" `Quick test_stratify;
    Alcotest.test_case "subset/append" `Quick test_subset_append;
    Alcotest.test_case "binary labels" `Quick test_binary_labels;
    Alcotest.test_case "with_weights" `Quick test_with_weights;
    Alcotest.test_case "view basics" `Quick test_view_basics;
    Alcotest.test_case "view sorted" `Quick test_view_sorted;
    Alcotest.test_case "sort cache memoized" `Quick test_sort_cache_memoized;
    Alcotest.test_case "sort cache sharing" `Quick test_sort_cache_sharing;
    Alcotest.test_case "view sorted ties/shuffle/dup" `Quick test_sorted_ties_shuffled_view;
    Alcotest.test_case "view stratified split" `Quick test_view_split;
    Alcotest.test_case "view materialize" `Quick test_view_materialize;
    Alcotest.test_case "csv parse" `Quick test_csv_parse;
    Alcotest.test_case "csv class column" `Quick test_csv_class_column;
    Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
    Alcotest.test_case "csv errors" `Quick test_csv_errors;
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv crlf + embedded newline" `Quick test_csv_crlf;
    Alcotest.test_case "csv nan/inf stay categorical" `Quick test_csv_nan_inf_categorical;
    Alcotest.test_case "csv bare quote rejected" `Quick test_csv_bare_quote;
    Alcotest.test_case "csv skip policy" `Quick test_csv_skip_policy;
    Alcotest.test_case "csv impute policy" `Quick test_csv_impute_policy;
    Alcotest.test_case "dataset equal" `Quick test_dataset_equal;
    Alcotest.test_case "arff parse" `Quick test_arff_parse;
    Alcotest.test_case "arff class attribute" `Quick test_arff_class_attribute;
    Alcotest.test_case "arff errors" `Quick test_arff_errors;
    Alcotest.test_case "arff roundtrip" `Quick test_arff_roundtrip;
    Alcotest.test_case "arff missing-value policies" `Quick test_arff_policies;
    Alcotest.test_case "summary numeric" `Quick test_summary_numeric;
    Alcotest.test_case "summary categorical" `Quick test_summary_categorical;
    Alcotest.test_case "summary per class" `Quick test_summary_per_class;
    Alcotest.test_case "decimal parser edge cases" `Quick test_decimal_table;
  ]
  @ List.map QCheck_alcotest.to_alcotest (qcheck_props @ decimal_props)
