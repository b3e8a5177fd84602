(* Tests for model persistence and the multi-class wrapper. *)

module A = Pn_data.Attribute
module D = Pn_data.Dataset
module M = Pnrule.Model
module S = Pnrule.Serialize
module MC = Pnrule.Multiclass

let mixed_problem ~seed ~n =
  let rng = Pn_util.Rng.create seed in
  let xs = Array.make n 0.0 and cs = Array.make n 0 and labels = Array.make n 0 in
  for i = 0 to n - 1 do
    xs.(i) <- Pn_util.Rng.float rng 100.0;
    cs.(i) <- Pn_util.Rng.int rng 3;
    let r = Pn_util.Rng.float rng 1.0 in
    if r < 0.03 then begin
      labels.(i) <- 1;
      xs.(i) <- 20.0 +. Pn_util.Rng.float rng 3.0
    end
    else if r < 0.06 then begin
      labels.(i) <- 2;
      cs.(i) <- 2;
      xs.(i) <- 70.0 +. Pn_util.Rng.float rng 3.0
    end
  done;
  D.create
    ~attrs:[| A.numeric "x"; A.categorical "c with space" [| "a a"; "b\"q"; "z" |] |]
    ~columns:[| D.Num xs; D.Cat cs |]
    ~labels
    ~classes:[| "normal"; "attack one"; "attack two" |]
    ()

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

module Sv = Pnrule.Saved

(* [body] followed by the checksum footer the writer would give it. *)
let with_footer body =
  body ^ Printf.sprintf "crc %08x\n" (Pn_util.Crc32.string body)

let write m = S.to_string (Sv.Single m)

(* The single PNrule model serialized in [s]. *)
let single s =
  match S.of_string s with
  | Sv.Single m, _ -> m
  | Sv.Boosted _, _ -> Alcotest.fail "read back an ensemble"

let test_roundtrip_predictions () =
  let ds = mixed_problem ~seed:1 ~n:12_000 in
  let model = Pnrule.Learner.train ds ~target:1 in
  let back = single (write model) in
  Alcotest.(check int) "target" model.M.target back.M.target;
  Alcotest.(check bool) "classes" true (model.M.classes = back.M.classes);
  Alcotest.(check bool) "attrs survive quoting" true (model.M.attrs = back.M.attrs);
  for i = 0 to D.n_records ds - 1 do
    if M.predict model ds i <> M.predict back ds i then
      Alcotest.failf "prediction differs at %d" i;
    let s1 = M.score model ds i and s2 = M.score back ds i in
    if Float.abs (s1 -. s2) > 1e-12 then Alcotest.failf "score differs at %d" i
  done

let test_roundtrip_stable () =
  let ds = mixed_problem ~seed:2 ~n:8_000 in
  let model = Pnrule.Learner.train ds ~target:2 in
  let s1 = write model in
  let s2 = write (single s1) in
  Alcotest.(check string) "fixed point" s1 s2

let test_file_roundtrip () =
  let ds = mixed_problem ~seed:3 ~n:8_000 in
  let model = Pnrule.Learner.train ds ~target:1 in
  let path = Filename.temp_file "pnrule_model" ".pn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.save (Sv.Single model) path;
      let back = S.load_saved path in
      Alcotest.(check bool) "same predictions" true
        (M.predict_all model ds = Sv.predict_all back ds))

(* [s] must raise [Corrupt] with a message containing [reason]. *)
let raises ?(reason = "") s =
  match S.of_string s with
  | _ -> Alcotest.failf "expected Corrupt for %S" s
  | exception S.Corrupt msg ->
    if not (Test_server.contains msg reason) then
      Alcotest.failf "Corrupt %S for %S, expected one about %S" msg s reason

let test_corrupt_inputs () =
  raises "";
  raises "pnrule-model v2\n";
  raises ~reason:"expected integer"
    (with_footer "pnrule-model v4\nkind pnrule\ntarget x\n");
  raises ~reason:"expected integer"
    (with_footer
       "pnrule-model v4\nkind pnrule\ntarget 0\nclasses 1\n\"a\"\nattrs 0\n\
        decision 0x1p-1 true\np_rules 1\nrule notanint\n");
  raises ~reason:"score matrix height"
    (with_footer
       "pnrule-model v4\nkind pnrule\ntarget 0\nclasses 1\n \"a\"\nattrs 1\n\
        \  num \"x\"\ndecision 0x1p-1 true\np_rules 1\n  rule 1\n    le 0 0x1p0\n\
        n_rules 0\nscores 0 0\n")

(* One rule over a numeric column 0 and a two-value categorical column
   1, as a single model and as a one-member ensemble, each with an
   expectations block for its one monitored rule. *)
let one_condition_files cond =
  let schema =
    "target 1\nclasses 2\n  \"n\"\n  \"t\"\nattrs 2\n  num \"x\"\n\
     \  cat \"c\" 2 \"a\" \"b\"\n"
  in
  let expectations = "expectations 1\n  exp 0x1p-2 0x1p-1\nsupport 8\n" in
  [
    with_footer
      (Printf.sprintf
         "pnrule-model v4\nkind pnrule\n%sdecision 0x1p-1 true\np_rules 1\n\
          \  rule 1\n    %s\nn_rules 0\nscores 1 1\n  0x1p-1\n%s"
         schema cond expectations);
    with_footer
      (Printf.sprintf
         "pnrule-model v4\nkind boosted\n%sdecision 0x0p+0\nbias -0x1p-1\n\
          members 1\n  member 0x1p0 1\n    %s\n%s"
         schema cond expectations);
  ]

(* Scoring indexes a condition's column, and a [cat] condition's
   dictionary, without bounds checks of its own: a rule that does not
   fit the schema must be refused at load time, not crash the first
   request. *)
let test_rules_must_fit_schema () =
  List.iter
    (fun cond ->
      List.iter
        (fun s ->
          let sm, _ = S.of_string s in
          Pnrule.Registry.warm sm)
        (one_condition_files cond))
    [ "le 0 0x1p0"; "range 0 0x1p0 0x1p1"; "cat 1 1" ];
  List.iter
    (fun cond -> List.iter raises (one_condition_files cond))
    [
      "le 5 0x1p0";
      "ge -1 0x1p0";
      "le 1 0x1p0";
      "cat 0 0";
      "cat 1 2";
      "cat 1 -1";
    ]

(* Format v1 had no footer. Its reader let anyone turn off the checksum
   by editing the header: this v2 file, relabelled v1 with its
   threshold moved from 1 to 512 and its old footer left in place, used
   to load as [x <= 512]. *)
let test_v1_is_refused () =
  let body =
    "pnrule-model v2\ntarget 1\nclasses 2\n  \"n\"\n  \"t\"\nattrs 1\n\
     \  num \"x\"\ndecision 0x1p-1 true\np_rules 1\n  rule 1\n\
     \    le 0 0x1p0\nn_rules 0\nscores 1 1\n  0x1p-1\n"
  in
  ignore (single (with_footer body));
  let edit ~from ~into s =
    let m = String.length from in
    let rec at i = if String.sub s i m = from then i else at (i + 1) in
    let i = at 0 in
    String.sub s 0 i ^ into ^ String.sub s (i + m) (String.length s - i - m)
  in
  raises
    (with_footer body
    |> edit ~from:"pnrule-model v2" ~into:"pnrule-model v1"
    |> edit ~from:"le 0 0x1p0" ~into:"le 0 0x1p9");
  (* With a valid footer, v1 is one more unsupported version. *)
  List.iter
    (fun v ->
      raises ~reason:"unsupported format version"
        (with_footer (edit ~from:"v2" ~into:v body)))
    [ "v1"; "v0"; "v5" ]

(* A v2 and a v3 file as the previous writer produced them
   ([Learner.train] and a 5-round [Ensemble.train] on
   [mixed_problem ~seed:12 ~n:2000], target 1). *)
let golden_v2 =
  {|pnrule-model v2
target 1
classes 3
  "normal"
  "attack one"
  "attack two"
attrs 2
  num "x"
  cat "c with space" 3 "a a" "b\"q" "z"
decision 0x1p-1 true
p_rules 1
  rule 1
    range 0 0x1.4681ee30a7f81p+4 0x1.6ed9b4961f668p+4
n_rules 9
  rule 2
    range 0 0x1.5e69c314bb934p+4 0x1.6ea8601763a4p+4
    ge 0 0x1.6ba49cb367ebcp+4
  rule 1
    range 0 0x1.5e69c314bb934p+4 0x1.63150bd1fe87ep+4
  rule 1
    range 0 0x1.4faef9cf1910ap+4 0x1.51dc45950aeb2p+4
  rule 1
    range 0 0x1.644513432661ep+4 0x1.68cf762f2f7cp+4
  rule 2
    range 0 0x1.5579c8ee83cfp+4 0x1.5af5ad0a4dc97p+4
    le 0 0x1.578e5ee8e6e63p+4
  rule 2
    range 0 0x1.48622d09b5074p+4 0x1.4b400e64035f5p+4
    le 0 0x1.492b3c2833961p+4
  rule 2
    range 0 0x1.580c981903e92p+4 0x1.5af5ad0a4dc97p+4
    cat 1 2
  rule 1
    range 0 0x1.4dc9907374f4ep+4 0x1.4dc9907374f4ep+4
  rule 1
    range 0 0x1.4b400e64035f5p+4 0x1.4b400e64035f5p+4
scores 1 10
  0x1.c71c71c71c71cp-3 0x1.1745d1745d174p-2 0x1p-2 0x1.999999999999ap-2 0x1.999999999999ap-3 0x1.13b13b13b13b1p-1 0x1.13b13b13b13b1p-1 0x1.13b13b13b13b1p-1 0x1.13b13b13b13b1p-1 0x1.f0f0f0f0f0f0fp-1
crc 5bda0508
|}

let golden_v3 =
  {|pnrule-model v3
kind boosted
target 1
classes 3
  "normal"
  "attack one"
  "attack two"
attrs 2
  num "x"
  cat "c with space" 3 "a a" "b\"q" "z"
decision 0x0p+0
bias -0x1.ebc6c44a61261p-1
members 5
  member 0x1.f843e223bc774p-2 1
    range 0 0x1.40da3cb3b14abp+4 0x1.6ed9b4961f668p+4
  member 0x1.1825fcf28b5afp-2 1
    range 0 0x1.4681ee30a7f81p+4 0x1.6ed9b4961f668p+4
  member 0x1.182633faa3734p-3 1
    range 0 0x1.4681ee30a7f81p+4 0x1.6ed9b4961f668p+4
  member 0x1.c0ce8edbfa42cp-5 1
    range 0 0x1.40da3cb3b14abp+4 0x1.6ed9b4961f668p+4
  member 0x1.c0ced96b72248p-6 1
    range 0 0x1.40da3cb3b14abp+4 0x1.6ed9b4961f668p+4
crc 59758a0e
|}

(* A file's lines without the version line, the kind line and the
   footer: the body every format version shares. *)
let body_lines s =
  let lines = String.split_on_char '\n' s in
  let lines =
    match List.tl lines with
    | k :: rest when String.starts_with ~prefix:"kind " k -> rest
    | rest -> rest
  in
  List.filteri (fun i _ -> i < List.length lines - 2) lines

let check_golden ~kind literal () =
  match S.of_string literal with
  | _, Some _ -> Alcotest.fail "a pre-v4 file carries no expectations"
  | sm, None ->
    Alcotest.(check string) "model kind" kind (Sv.kind sm);
    let v4 = S.to_string sm in
    Alcotest.(check bool)
      "re-encoded as v4" true
      (String.starts_with ~prefix:("pnrule-model v4\nkind " ^ kind ^ "\n") v4);
    Alcotest.(check (list string))
      "same body, line for line" (body_lines literal) (body_lines v4)

let test_backslash_names () =
  (* Regression: a name ending in a backslash serializes as "a\\"; the
     tokenizer used to misread the escaped backslash as escaping the
     closing quote and overrun the literal. *)
  let model =
    M.make ~target:0
      ~classes:[| "a\\"; "q\"\\" |]
      ~attrs:[| A.categorical "c\\" [| "v\\"; "plain" |] |]
      ~p_rules:(Pn_rules.Rule_list.of_list [])
      ~n_rules:(Pn_rules.Rule_list.of_list [])
      ~scores:[||] ~params:Pnrule.Params.default
  in
  let back = single (write model) in
  Alcotest.(check bool) "classes survive" true (back.M.classes = model.M.classes);
  Alcotest.(check bool) "attrs survive" true (back.M.attrs = model.M.attrs)

(* Arbitrary valid models: conditions agree with attribute kinds, the
   score matrix has the dimensions [of_string] enforces, and floats
   range over the awkward cases (nan, infinities, subnormals). *)
let model_gen =
  let open QCheck.Gen in
  let name = oneofl [ "x"; "a b"; "q\"uote"; "back\\slash"; "" ] in
  let threshold =
    oneofl [ 0.5; -1.5e300; 4e-320; Float.infinity; Float.neg_infinity; Float.nan ]
  in
  let attr =
    name >>= fun n ->
    bool >>= fun numeric ->
    if numeric then return (A.numeric n)
    else
      int_range 1 3 >>= fun arity ->
      return (A.categorical n (Array.init arity (fun v -> Printf.sprintf "v%d" v)))
  in
  array_size (int_range 1 4) attr >>= fun attrs ->
  let condition =
    int_range 0 (Array.length attrs - 1) >>= fun col ->
    match attrs.(col).A.kind with
    | A.Categorical values ->
      int_range 0 (Array.length values - 1) >>= fun value ->
      return (Pn_rules.Condition.Cat_eq { col; value })
    | A.Numeric ->
      threshold >>= fun t ->
      oneofl
        [
          Pn_rules.Condition.Num_le { col; threshold = t };
          Pn_rules.Condition.Num_ge { col; threshold = t };
          Pn_rules.Condition.Num_range { col; lo = t; hi = t };
        ]
  in
  let rule = list_size (int_range 1 3) condition >>= fun cs -> return (Pn_rules.Rule.of_conditions cs) in
  let rules = list_size (int_range 0 3) rule >>= fun rs -> return (Pn_rules.Rule_list.of_list rs) in
  rules >>= fun p_rules ->
  rules >>= fun n_rules ->
  let n_p = Pn_rules.Rule_list.length p_rules in
  let cols = if n_p = 0 then 0 else Pn_rules.Rule_list.length n_rules + 1 in
  array_size (return n_p) (array_size (return cols) threshold) >>= fun scores ->
  array_size (int_range 1 3) name >>= fun classes ->
  int_range 0 (Array.length classes - 1) >>= fun target ->
  threshold >>= fun score_threshold ->
  bool >>= fun use_scoring ->
  return
    (M.make ~target ~classes ~attrs ~p_rules ~n_rules ~scores
       ~params:{ Pnrule.Params.default with score_threshold; use_scoring })

(* A corruption: flip any one byte or chop the tail off. Either way the
   reader must answer with [Corrupt] — not crash with a stray
   exception, and never return a model as if nothing happened. *)
let corrupt_gen s =
  let open QCheck.Gen in
  oneof
    [
      ( int_range 0 (String.length s - 1) >>= fun pos ->
        int_range 1 255 >>= fun delta ->
        let b = Bytes.of_string s in
        Bytes.set b pos (Char.chr ((Char.code (Bytes.get b pos) + delta) land 0xff));
        return (Bytes.to_string b) );
      ( int_range 0 (String.length s - 1) >>= fun keep ->
        return (String.sub s 0 keep) );
    ]

let corruption_gen = QCheck.Gen.(model_gen >>= fun model -> corrupt_gen (write model))

let qcheck_props =
  [
    QCheck.Test.make ~count:300 ~name:"serialize round-trip is a fixed point"
      (QCheck.make model_gen)
      (fun model ->
        (* Textual fixed point is the right equality here: nan <> nan
           under (=), but "%h"-printed text is stable. *)
        let s1 = write model in
        let back = single s1 in
        s1 = write back
        && back.M.classes = model.M.classes
        && back.M.attrs = model.M.attrs
        && back.M.target = model.M.target);
    QCheck.Test.make ~count:500
      ~name:"serialize: corrupted bytes always raise Corrupt"
      (QCheck.make corruption_gen)
      (fun corrupted ->
        match S.of_string corrupted with
        | _ -> QCheck.Test.fail_report "corruption accepted silently"
        | exception S.Corrupt _ -> true
        | exception e ->
          QCheck.Test.fail_reportf "leaked exception %s" (Printexc.to_string e));
  ]

(* ------------------------------------------------------------------ *)
(* Multi-class                                                          *)
(* ------------------------------------------------------------------ *)

let test_multiclass_accuracy () =
  let train = mixed_problem ~seed:4 ~n:15_000 in
  let test = mixed_problem ~seed:5 ~n:10_000 in
  let mc = MC.train train in
  let acc = MC.accuracy mc test in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f > 0.95" acc) true (acc > 0.95);
  (* Rare classes specifically must be found, not drowned by accuracy. *)
  let cm1 = MC.confusion mc test ~target:1 in
  Alcotest.(check bool) "attack one recalled" true
    (Pn_metrics.Confusion.recall cm1 > 0.8)

let test_multiclass_scores_shape () =
  let train = mixed_problem ~seed:6 ~n:10_000 in
  let mc = MC.train train in
  let s = MC.scores mc train 0 in
  Alcotest.(check int) "one score per class" 3 (Array.length s);
  Array.iter (fun v -> if v < 0.0 || v > 1.0 then Alcotest.failf "score %f" v) s

let test_multiclass_fallback () =
  let train = mixed_problem ~seed:7 ~n:10_000 in
  let mc = MC.train train in
  Alcotest.(check int) "fallback is majority" 0 mc.MC.fallback;
  (* A record no model claims gets the majority class. *)
  let probe =
    D.create
      ~attrs:train.D.attrs
      ~columns:[| D.Num [| 99.9 |]; D.Cat [| 0 |] |]
      ~labels:[| 0 |] ~classes:train.D.classes ()
  in
  Alcotest.(check int) "fallback used" 0 (MC.predict mc probe 0)

let test_multiclass_params_for () =
  let train = mixed_problem ~seed:8 ~n:10_000 in
  let params_for cls =
    if cls = 1 then
      Some { Pnrule.Params.default with max_p_rule_length = Some 1 }
    else None
  in
  let mc = MC.train ~params_for train in
  Array.iter
    (fun (cls, model) ->
      if cls = 1 then
        List.iter
          (fun r ->
            Alcotest.(check bool) "P1 for class 1" true
              (Pn_rules.Rule.n_conditions r <= 1))
          (Pn_rules.Rule_list.to_list model.M.p_rules))
    mc.MC.models

let suite =
  [
    Alcotest.test_case "serialize: prediction roundtrip" `Quick test_roundtrip_predictions;
    Alcotest.test_case "serialize: fixed point" `Quick test_roundtrip_stable;
    Alcotest.test_case "serialize: file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "serialize: corrupt inputs raise" `Quick test_corrupt_inputs;
    Alcotest.test_case "serialize: rules must fit the schema" `Quick
      test_rules_must_fit_schema;
    Alcotest.test_case "serialize: v1 and unknown versions are refused" `Quick
      test_v1_is_refused;
    Alcotest.test_case "serialize: golden v2 file loads as Single" `Quick
      (check_golden ~kind:"pnrule" golden_v2);
    Alcotest.test_case "serialize: golden v3 file loads as Boosted" `Quick
      (check_golden ~kind:"boosted" golden_v3);
    Alcotest.test_case "serialize: backslash-heavy names" `Quick test_backslash_names;
    Alcotest.test_case "multiclass: accuracy and rare recall" `Quick test_multiclass_accuracy;
    Alcotest.test_case "multiclass: score vector" `Quick test_multiclass_scores_shape;
    Alcotest.test_case "multiclass: fallback class" `Quick test_multiclass_fallback;
    Alcotest.test_case "multiclass: per-class params" `Quick test_multiclass_params_for;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
