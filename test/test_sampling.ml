(* Tests for the induction sub-sampling strategies: parser grammar,
   size/floor guarantees, and the bit-identity contract — any strategy
   at a fixed seed trains the same model at any pool size. *)

module Sa = Pn_induct.Sampling
module D = Pn_data.Dataset
module V = Pn_data.View

(* ------------------------------------------------------------------ *)
(* Parser grammar                                                       *)
(* ------------------------------------------------------------------ *)

let test_parsers_roundtrip () =
  let inst s =
    match Sa.instances_of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "instances %S rejected: %s" s e
  in
  let feat s =
    match Sa.features_of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "features %S rejected: %s" s e
  in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "instances %s round-trips" (Sa.instances_to_string v))
        true
        (inst (Sa.instances_to_string v) = v))
    [
      Sa.All_instances;
      Sa.Fraction 0.25;
      Sa.Bagging 0.5;
      Sa.Stratified { fraction = 0.1; min_per_class = 50 };
      Sa.Stratified { fraction = 0.33; min_per_class = 7 };
    ];
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "features %s round-trips" (Sa.features_to_string v))
        true
        (feat (Sa.features_to_string v) = v))
    [ Sa.All_features; Sa.Sqrt_features; Sa.Fraction_features 0.5 ];
  (* The shorthand forms. *)
  Alcotest.(check bool) "bare fraction" true (inst "0.2" = Sa.Fraction 0.2);
  Alcotest.(check bool)
    "strat default floor" true
    (inst "strat:0.1" = Sa.Stratified { fraction = 0.1; min_per_class = 50 });
  List.iter
    (fun s ->
      match Sa.instances_of_string s with
      | Ok _ -> Alcotest.failf "instances %S accepted" s
      | Error _ -> ())
    [ ""; "0"; "0.0"; "1.5"; "-0.1"; "bag:"; "bag:2"; "strat:0.1:-1"; "wat" ];
  List.iter
    (fun s ->
      match Sa.features_of_string s with
      | Ok _ -> Alcotest.failf "features %S accepted" s
      | Error _ -> ())
    [ ""; "0"; "2"; "sqrt:3"; "wat" ]

(* ------------------------------------------------------------------ *)
(* Strategy guarantees                                                  *)
(* ------------------------------------------------------------------ *)

let skewed ~seed ~n =
  Test_serialize.mixed_problem ~seed ~n

let counts_by_class view =
  let ds = view.V.data in
  let counts = Array.make (D.n_classes ds) 0 in
  V.iter view (fun i -> counts.(D.label ds i) <- counts.(D.label ds i) + 1);
  counts

let qcheck_props =
  [
    QCheck.Test.make ~count:100
      ~name:"sampling: stratified never drops a class below its floor"
      QCheck.(triple small_int (float_range 0.01 1.0) (int_range 1 200))
      (fun (seed, fraction, min_per_class) ->
        let ds = skewed ~seed:(seed land 15) ~n:4_000 in
        let spec =
          {
            Sa.instances = Sa.Stratified { fraction; min_per_class };
            features = Sa.All_features;
            seed;
          }
        in
        let view = Sa.sample_instances (Sa.ctx spec) (V.all ds) in
        let full = counts_by_class (V.all ds) in
        let kept = counts_by_class view in
        Array.for_all2
          (fun k n_c -> k >= min n_c min_per_class && k <= n_c)
          kept full);
    QCheck.Test.make ~count:100
      ~name:"sampling: fraction and bagging keep the expected count"
      QCheck.(pair small_int (float_range 0.05 1.0))
      (fun (seed, f) ->
        let ds = skewed ~seed:3 ~n:2_000 in
        let n = D.n_records ds in
        let expected = min n (max 1 (int_of_float (Float.round (f *. float_of_int n)))) in
        let size inst =
          V.size
            (Sa.sample_instances
               (Sa.ctx { Sa.instances = inst; features = Sa.All_features; seed })
               (V.all ds))
        in
        size (Sa.Fraction f) = expected && size (Sa.Bagging f) = expected);
    QCheck.Test.make ~count:100
      ~name:"sampling: kept indices stay ascending (sort-cache contract)"
      QCheck.(pair small_int (float_range 0.05 0.95))
      (fun (seed, f) ->
        let ds = skewed ~seed:5 ~n:2_000 in
        List.for_all
          (fun inst ->
            let view =
              Sa.sample_instances
                (Sa.ctx { Sa.instances = inst; features = Sa.All_features; seed })
                (V.all ds)
            in
            let ok = ref true in
            Array.iteri
              (fun p i -> if p > 0 && i < view.V.idx.(p - 1) then ok := false)
              view.V.idx;
            !ok)
          [
            Sa.Fraction f;
            Sa.Bagging f;
            Sa.Stratified { fraction = f; min_per_class = 10 };
          ]);
    QCheck.Test.make ~count:100
      ~name:"sampling: feature masks are sorted subsets of the right size"
      QCheck.(pair small_int (int_range 2 40))
      (fun (seed, n_attrs) ->
        let check spec expected_k =
          match
            Sa.feature_mask
              (Sa.ctx { Sa.instances = Sa.All_instances; features = spec; seed })
              ~n_attrs
          with
          | None -> expected_k >= n_attrs
          | Some cols ->
            Array.length cols = expected_k
            && expected_k < n_attrs
            && Array.for_all (fun c -> c >= 0 && c < n_attrs) cols
            && Array.for_all
                 (fun p -> p = 0 || cols.(p - 1) < cols.(p))
                 (Array.init (Array.length cols) Fun.id)
        in
        let sqrt_k = int_of_float (Float.ceil (sqrt (float_of_int n_attrs))) in
        check Sa.Sqrt_features sqrt_k
        && check (Sa.Fraction_features 0.5)
             (min n_attrs (max 1 (int_of_float (Float.round (0.5 *. float_of_int n_attrs))))));
  ]

(* ------------------------------------------------------------------ *)
(* Determinism across pool sizes                                        *)
(* ------------------------------------------------------------------ *)

(* The tentpole contract: a strategy at a fixed seed draws on the
   submitting thread only, so PNRULE_DOMAINS=1 and =4 produce
   byte-identical serialized models — for the sampled single-list
   learner and for the boosted ensemble alike. *)
let test_pool_size_bit_identity () =
  let ds =
    Pn_synth.Numerical.generate (Pn_synth.Numerical.nsyn 3) ~seed:17 ~n:4_000
  in
  let target = Pn_synth.Numerical.target_class in
  let sampling =
    {
      Sa.instances = Sa.Stratified { fraction = 0.5; min_per_class = 20 };
      features = Sa.Sqrt_features;
      seed = 7;
    }
  in
  let pool = Pn_util.Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () ->
      Pn_util.Pool.set_default Pn_util.Pool.sequential;
      Pn_util.Pool.shutdown pool)
    (fun () ->
      let run () =
        let single = Pnrule.Learner.train ~sampling ds ~target in
        let boosted = Pnrule.Ensemble.train ~sampling ds ~target in
        ( Pnrule.Serialize.to_string (Pnrule.Saved.Single single),
          Pnrule.Serialize.to_string (Pnrule.Saved.Boosted boosted) )
      in
      Pn_util.Pool.set_default Pn_util.Pool.sequential;
      let seq_single, seq_boosted = run () in
      Pn_util.Pool.set_default pool;
      let par_single, par_boosted = run () in
      Alcotest.(check string) "sampled PNrule bytes" seq_single par_single;
      Alcotest.(check string) "boosted ensemble bytes" seq_boosted par_boosted)

(* [Sampling.none] draws nothing, so passing it must be byte-identical
   to not passing a sampling argument at all. *)
let test_none_is_identity () =
  let ds = skewed ~seed:11 ~n:6_000 in
  let plain = Pnrule.Learner.train ds ~target:1 in
  let sampled = Pnrule.Learner.train ~sampling:Sa.none ds ~target:1 in
  Alcotest.(check string) "identical bytes"
    (Pnrule.Serialize.to_string (Pnrule.Saved.Single plain))
    (Pnrule.Serialize.to_string (Pnrule.Saved.Single sampled))

(* Sampled training must still find the rare classes: the stratified
   floor keeps every target record available to the P-phase. *)
let test_stratified_training_finds_rare_class () =
  let train = skewed ~seed:21 ~n:12_000 in
  let test = skewed ~seed:22 ~n:8_000 in
  let full = Pnrule.Learner.train train ~target:1 in
  let full_recall = Pn_metrics.Confusion.recall (Pnrule.Model.evaluate full test) in
  (* min_per_class 500 exceeds the rare class's ~360 records, so every
     one of them survives while the majority drops to 20% — the model
     sees a rebalanced view and its rare-class recall improves. *)
  let sampling =
    {
      Sa.instances = Sa.Stratified { fraction = 0.2; min_per_class = 500 };
      features = Sa.All_features;
      seed = 5;
    }
  in
  let model = Pnrule.Learner.train ~sampling train ~target:1 in
  let recall = Pn_metrics.Confusion.recall (Pnrule.Model.evaluate model test) in
  Alcotest.(check bool)
    (Printf.sprintf "stratified recall %.3f >= unsampled %.3f" recall full_recall)
    true
    (recall >= full_recall);
  Alcotest.(check bool)
    (Printf.sprintf "stratified recall %.3f > 0.9" recall)
    true (recall > 0.9)

let suite =
  [
    Alcotest.test_case "sampling: parser grammar" `Quick test_parsers_roundtrip;
    Alcotest.test_case "sampling: pool-size bit-identity" `Quick
      test_pool_size_bit_identity;
    Alcotest.test_case "sampling: none is the identity" `Quick
      test_none_is_identity;
    Alcotest.test_case "sampling: stratified training finds the rare class"
      `Quick test_stratified_training_finds_rare_class;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
