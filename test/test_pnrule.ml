(* Tests for the PNrule learner, model, and scoring mechanism. *)

module A = Pn_data.Attribute
module D = Pn_data.Dataset
module P = Pnrule.Params
module L = Pnrule.Learner
module M = Pnrule.Model
module C = Pn_metrics.Confusion

(* A separable rare-class problem: target iff x ∈ [40, 42]. *)
let separable ~seed ~n =
  let rng = Pn_util.Rng.create seed in
  let xs = Array.make n 0.0 and labels = Array.make n 0 in
  for i = 0 to n - 1 do
    if Pn_util.Rng.bernoulli rng 0.02 then begin
      labels.(i) <- 1;
      xs.(i) <- 40.0 +. Pn_util.Rng.float rng 2.0
    end
    else begin
      let rec draw () =
        let v = Pn_util.Rng.float rng 100.0 in
        if v >= 39.9 && v <= 42.1 then draw () else v
      in
      xs.(i) <- draw ()
    end
  done;
  D.create ~attrs:[| A.numeric "x" |] ~columns:[| D.Num xs |] ~labels
    ~classes:[| "neg"; "pos" |] ()

(* The two-phase problem: the target's presence signature (x ∈ [40,42])
   is shared with a decoy class sitting in an *interior* band y ∈ [40,60]
   while the target is uniform on y. Excluding the band inside the
   P-phase would cost ≥ 40 % of the target's support, which [two_params]
   forbids (min_support_fraction = 0.7) — so a precise model must learn
   the decoy's band as an N-rule, exactly the paper's splintered
   false-positive setup. *)
let two_params = { P.default with min_support_fraction = 0.7 }

let two_phase ~seed ~n =
  let rng = Pn_util.Rng.create seed in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 and labels = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = Pn_util.Rng.float rng 1.0 in
    if r < 0.01 then begin
      labels.(i) <- 1;
      xs.(i) <- 40.0 +. Pn_util.Rng.float rng 2.0;
      ys.(i) <- Pn_util.Rng.float rng 100.0
    end
    else if r < 0.05 then begin
      xs.(i) <- 40.0 +. Pn_util.Rng.float rng 2.0;
      ys.(i) <- 40.0 +. Pn_util.Rng.float rng 20.0
    end
    else begin
      let rec draw () =
        let v = Pn_util.Rng.float rng 100.0 in
        if v >= 39.9 && v <= 42.1 then draw () else v
      in
      xs.(i) <- draw ();
      ys.(i) <- Pn_util.Rng.float rng 100.0
    end
  done;
  D.create
    ~attrs:[| A.numeric "x"; A.numeric "y" |]
    ~columns:[| D.Num xs; D.Num ys |]
    ~labels ~classes:[| "neg"; "pos" |] ()

(* ------------------------------------------------------------------ *)

let test_separable_perfect () =
  let ds = separable ~seed:1 ~n:8000 in
  let model = L.train ds ~target:1 in
  let cm = M.evaluate model ds in
  Alcotest.(check bool) "train F high" true (C.f_measure cm > 0.97);
  let test = separable ~seed:2 ~n:8000 in
  let cm = M.evaluate model test in
  Alcotest.(check bool) "test F high" true (C.f_measure cm > 0.95)

let test_two_phase_needs_n_rules () =
  let ds = two_phase ~seed:3 ~n:20_000 in
  let model, stats = L.train_with_stats ~params:two_params ds ~target:1 in
  let np, nn = M.rule_counts model in
  Alcotest.(check bool) "has P-rules" true (np >= 1);
  Alcotest.(check bool) "has N-rules" true (nn >= 1);
  Alcotest.(check bool) "coverage reached" true (stats.L.p_coverage >= 0.9);
  let cm = M.evaluate model (two_phase ~seed:4 ~n:20_000) in
  Alcotest.(check bool) "test precision recovered" true (C.precision cm > 0.8);
  Alcotest.(check bool) "test recall kept" true (C.recall cm > 0.8)

let test_n_phase_disabled () =
  let ds = two_phase ~seed:3 ~n:20_000 in
  let params = { two_params with enable_n_phase = false } in
  let model = L.train ~params ds ~target:1 in
  let _, nn = M.rule_counts model in
  Alcotest.(check int) "no N-rules" 0 nn

let test_ablation_ordering () =
  (* Full PNrule must beat the no-N-phase variant on the two-phase
     problem (precision collapses without false-positive removal). *)
  let train = two_phase ~seed:5 ~n:20_000 in
  let test = two_phase ~seed:6 ~n:20_000 in
  let f params =
    C.f_measure (M.evaluate (L.train ~params train ~target:1) test)
  in
  let full = f two_params in
  let no_n = f { two_params with enable_n_phase = false } in
  Alcotest.(check bool)
    (Printf.sprintf "full (%.3f) > no-N-phase (%.3f)" full no_n)
    true (full > no_n)

let test_p1_length_respected () =
  let ds = two_phase ~seed:3 ~n:10_000 in
  let params = { two_params with max_p_rule_length = Some 1 } in
  let model = L.train ~params ds ~target:1 in
  List.iter
    (fun r ->
      Alcotest.(check bool) "P-rule length 1" true (Pn_rules.Rule.n_conditions r <= 1))
    (Pn_rules.Rule_list.to_list model.M.p_rules)

let test_score_matrix_shape_and_range () =
  let ds = two_phase ~seed:7 ~n:10_000 in
  let model = L.train ds ~target:1 in
  let np, nn = M.rule_counts model in
  Alcotest.(check int) "rows" np (Array.length model.M.scores);
  Array.iter
    (fun row ->
      Alcotest.(check int) "cols" (nn + 1) (Array.length row);
      Array.iter
        (fun s ->
          if s < 0.0 || s > 1.0 then Alcotest.failf "score out of range: %f" s)
        row)
    model.M.scores

let test_scores_in_unit_interval_on_predictions () =
  let ds = two_phase ~seed:7 ~n:5_000 in
  let model = L.train ds ~target:1 in
  for i = 0 to D.n_records ds - 1 do
    let s = M.score model ds i in
    if s < 0.0 || s > 1.0 then Alcotest.failf "score %f at %d" s i
  done

let test_dnf_mode () =
  let ds = two_phase ~seed:8 ~n:10_000 in
  let params = { P.default with use_scoring = false } in
  let model = L.train ~params ds ~target:1 in
  (* DNF prediction = some P-rule matches and no N-rule matches. *)
  for i = 0 to 500 do
    let expected =
      Pn_rules.Rule_list.any_match ds model.M.p_rules i
      && not (Pn_rules.Rule_list.any_match ds model.M.n_rules i)
    in
    Alcotest.(check bool) "dnf semantics" expected (M.predict model ds i)
  done

let test_no_p_rule_means_negative () =
  let ds = separable ~seed:9 ~n:4000 in
  let model = L.train ds ~target:1 in
  (* A record far outside every P-rule scores 0. *)
  let probe =
    D.create ~attrs:[| A.numeric "x" |] ~columns:[| D.Num [| 0.5 |] |]
      ~labels:[| 0 |] ~classes:[| "neg"; "pos" |] ()
  in
  Alcotest.(check (float 1e-9)) "score 0" 0.0 (M.score model probe 0);
  Alcotest.(check bool) "predict false" false (M.predict model probe 0)

let test_missing_target_raises () =
  let ds =
    D.create ~attrs:[| A.numeric "x" |] ~columns:[| D.Num [| 1.0; 2.0 |] |]
      ~labels:[| 0; 0 |] ~classes:[| "neg"; "pos" |] ()
  in
  try
    ignore (L.train ds ~target:1);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_recall_floor_limits_fn () =
  (* With a high recall floor, the N-phase may not destroy recall on the
     training set. *)
  let ds = two_phase ~seed:10 ~n:20_000 in
  let params = { two_params with recall_floor = 0.95; min_coverage = 0.99 } in
  let model = L.train ~params ds ~target:1 in
  let cm = M.evaluate model ds in
  Alcotest.(check bool)
    (Printf.sprintf "train recall %.3f >= 0.8" (C.recall cm))
    true
    (C.recall cm >= 0.8)

let test_stats_bookkeeping () =
  let ds = two_phase ~seed:11 ~n:10_000 in
  let _, stats = L.train_with_stats ds ~target:1 in
  Alcotest.(check bool) "coverage in [0,1]" true
    (stats.L.p_coverage >= 0.0 && stats.L.p_coverage <= 1.0);
  (* Per-rule positive coverages must sum to total coverage. *)
  let total_target = D.class_weight ds 1 in
  let sum_pos = List.fold_left (fun acc (p, _) -> acc +. p) 0.0 stats.L.p_rule_coverage in
  Alcotest.(check (float 1e-6)) "coverage sums" stats.L.p_coverage
    (sum_pos /. total_target);
  (* DL trace starts at the empty-ruleset DL and never contains NaN. *)
  List.iter
    (fun dl -> if not (Float.is_finite dl) then Alcotest.fail "non-finite DL")
    stats.L.n_dl_trace

let test_metric_variants_train () =
  let ds = two_phase ~seed:12 ~n:8_000 in
  List.iter
    (fun metric ->
      let params = { P.default with metric } in
      let model = L.train ~params ds ~target:1 in
      let np, _ = M.rule_counts model in
      Alcotest.(check bool)
        (Pn_metrics.Rule_metric.kind_name metric ^ " learns rules")
        true (np >= 1))
    [ Pn_metrics.Rule_metric.Z_number; Pn_metrics.Rule_metric.Info_gain;
      Pn_metrics.Rule_metric.Gini; Pn_metrics.Rule_metric.Chi_squared ]

let test_deterministic () =
  let ds = two_phase ~seed:13 ~n:8_000 in
  let m1 = L.train ds ~target:1 and m2 = L.train ds ~target:1 in
  Alcotest.(check bool) "same predictions" true
    (M.predict_all m1 ds = M.predict_all m2 ds)

let qcheck_props =
  [
    QCheck.Test.make ~count:10 ~name:"confusion totals match dataset weight"
      QCheck.(int_range 1 1000)
      (fun seed ->
        let ds = two_phase ~seed ~n:3_000 in
        let model = L.train ds ~target:1 in
        let cm = M.evaluate model ds in
        Float.abs (C.total cm -. D.total_weight ds) < 1e-6);
  ]

(* ------------------------------------------------------------------ *)
(* Header resolution against the serving schema                         *)
(* ------------------------------------------------------------------ *)

(* A small trained model whose schema is the two attributes x, y. *)
let header_model = lazy (L.train (separable ~seed:91 ~n:4_000) ~target:1)

let two_attr_model = lazy (L.train (two_phase ~seed:92 ~n:8_000) ~target:1)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_resolve_header_edge_cases () =
  let m = Lazy.force two_attr_model in
  (* Extra columns are fine and must not disturb the mapping: the
     returned indices point at the right header slots regardless of
     order or junk in between. *)
  (match Pnrule.Saved.resolve_header (Pnrule.Saved.Single m) [| "junk"; "y"; "class"; "x" |] with
  | Ok map -> Alcotest.(check (array int)) "mapping" [| 3; 1 |] map
  | Error msg -> Alcotest.failf "extra columns rejected: %s" msg);
  (match Pnrule.Saved.resolve_header (Pnrule.Saved.Single m) [| "x"; "y" |] with
  | Ok map -> Alcotest.(check (array int)) "identity" [| 0; 1 |] map
  | Error msg -> Alcotest.failf "exact header rejected: %s" msg);
  (* A duplicated attribute name is ambiguous, not first-wins. *)
  (match Pnrule.Saved.resolve_header (Pnrule.Saved.Single m) [| "x"; "y"; "x" |] with
  | Ok _ -> Alcotest.fail "duplicate column accepted"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "duplicate named: %s" msg)
      true (contains msg "x"));
  (* Every mismatch is reported at once, "; "-separated. *)
  match Pnrule.Saved.resolve_header (Pnrule.Saved.Single m) [| "a"; "b" |] with
  | Ok _ -> Alcotest.fail "alien header accepted"
  | Error msg ->
    Alcotest.(check bool) "mentions x" true (contains msg "x");
    Alcotest.(check bool) "mentions y" true (contains msg "y");
    Alcotest.(check bool) "separator" true (contains msg "; ")

let test_missing_class_column_for_metrics () =
  (* Asking the serving pipeline for metrics against a class column the
     feed does not carry must fail up front, not stream garbage. *)
  let m = Lazy.force header_model in
  let feed = "x\n41.0\n10.0\n" in
  let sink = Buffer.create 64 in
  (try
     ignore
       (Pnrule.Serve.predict_stream ~class_column:"nope" ~model:(Pnrule.Saved.Single m)
          ~source:(Pn_data.Stream.of_string feed)
          ~write:(Buffer.add_string sink) ());
     Alcotest.fail "expected Serve.Error"
   with Pnrule.Serve.Error msg ->
     Alcotest.(check bool)
       (Printf.sprintf "names the column: %s" msg)
       true
       (String.length msg > 0));
  (* Without the explicit request the same feed streams fine. *)
  Buffer.clear sink;
  let report =
    Pnrule.Serve.predict_stream ~model:(Pnrule.Saved.Single m)
      ~source:(Pn_data.Stream.of_string feed)
      ~write:(Buffer.add_string sink) ()
  in
  Alcotest.(check int) "rows out" 2 report.Pnrule.Serve.rows_out;
  Alcotest.(check bool) "no metrics" true (report.Pnrule.Serve.confusion = None)

let suite =
  [
    Alcotest.test_case "separable problem solved" `Quick test_separable_perfect;
    Alcotest.test_case "two-phase problem needs N-rules" `Quick test_two_phase_needs_n_rules;
    Alcotest.test_case "N-phase can be disabled" `Quick test_n_phase_disabled;
    Alcotest.test_case "full beats no-N-phase" `Quick test_ablation_ordering;
    Alcotest.test_case "P1 length cap respected" `Quick test_p1_length_respected;
    Alcotest.test_case "score matrix shape and range" `Quick test_score_matrix_shape_and_range;
    Alcotest.test_case "record scores in [0,1]" `Quick test_scores_in_unit_interval_on_predictions;
    Alcotest.test_case "DNF mode semantics" `Quick test_dnf_mode;
    Alcotest.test_case "no P-rule means negative" `Quick test_no_p_rule_means_negative;
    Alcotest.test_case "missing target raises" `Quick test_missing_target_raises;
    Alcotest.test_case "recall floor protects recall" `Quick test_recall_floor_limits_fn;
    Alcotest.test_case "training stats bookkeeping" `Quick test_stats_bookkeeping;
    Alcotest.test_case "all metrics can train" `Quick test_metric_variants_train;
    Alcotest.test_case "training is deterministic" `Quick test_deterministic;
    Alcotest.test_case "resolve_header edge cases" `Quick test_resolve_header_edge_cases;
    Alcotest.test_case "missing class column for metrics" `Quick
      test_missing_class_column_for_metrics;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
