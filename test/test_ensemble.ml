(* Tests for the boosted rule ensemble: the compiled bitset scorer
   against a per-record interpretive reference, the serialized
   round-trip (including corruption), a fuzzer for the model reader,
   and the accuracy claim —
   boosting matches or beats the single PNrule list's recall on the
   skewed synthetic problems. *)

module D = Pn_data.Dataset
module E = Pnrule.Ensemble
module S = Pnrule.Serialize
module Sv = Pnrule.Saved

let skewed ~seed ~n = Test_serialize.mixed_problem ~seed ~n

(* ------------------------------------------------------------------ *)
(* Compiled scoring vs the interpretive reference                       *)
(* ------------------------------------------------------------------ *)

(* What [score_all] must compute, spelled out one record at a time with
   [Rule.matches]. Both walk members in order starting from the bias,
   so the float operations — and hence the bytes — are identical. *)
let reference_scores e ds =
  Array.init (D.n_records ds) (fun i ->
      Array.fold_left
        (fun acc mb ->
          if Pn_rules.Rule.matches ds mb.E.rule i then acc +. mb.E.weight
          else acc)
        e.E.bias e.E.members)

let test_compiled_matches_reference () =
  let train = skewed ~seed:31 ~n:10_000 in
  let test = skewed ~seed:32 ~n:6_000 in
  let e = E.train train ~target:1 in
  Alcotest.(check bool) "ensemble is not degenerate" true (E.n_members e > 0);
  List.iter
    (fun ds ->
      let fast = E.score_all e ds in
      let slow = reference_scores e ds in
      Array.iteri
        (fun i s ->
          if not (Float.equal s slow.(i)) then
            Alcotest.failf "score differs at %d: compiled %h, reference %h" i s
              slow.(i))
        fast;
      let preds = E.predict_all e ds in
      Array.iteri
        (fun i p ->
          if p <> (fast.(i) > e.E.threshold) then
            Alcotest.failf "prediction disagrees with score at %d" i)
        preds)
    [ train; test ]

(* What [f ()] allocates: [words] is minor plus major, less what was
   promoted (counted in both); [major] is what went straight to the
   major heap ([major_words - promoted_words]), the blocks over 256
   words. The minor collections flush the counters, which are only
   published per minor GC. A major cycle that ends inside a window adds
   words the call did not allocate, so each figure is the least of five
   calls. *)
type allocation = { words : float; major : float }

let allocation f =
  let counters () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    ( s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words,
      s.Gc.major_words -. s.Gc.promoted_words )
  in
  let one () =
    let w0, m0 = counters () in
    ignore (Sys.opaque_identity (f ()));
    let w1, m1 = counters () in
    { words = w1 -. w0; major = m1 -. m0 }
  in
  List.fold_left
    (fun acc a -> { words = Float.min acc.words a.words; major = Float.min acc.major a.major })
    { words = infinity; major = infinity }
    (List.init 5 (fun _ -> one ()))

let allocated_words f = (allocation f).words

(* A boosted batch must allocate O(rows), not O(rows x members): the
   vote reads one coverage bitset per member (n/63 words) where an
   int array per member would cost n words each. 50 members over about
   100 distinct conditions, as in a 100-round sampled ensemble. The
   batch measures 5.5 words per row; the bound is twice that. *)
let words_per_row_bound = 11.0

let test_batch_allocation () =
  let rows = 4096 in
  let ds = skewed ~seed:36 ~n:rows in
  let module C = Pn_rules.Condition in
  let members =
    Array.init 50 (fun k ->
        let lo = float_of_int (2 * k) in
        let conds =
          [ C.Num_ge { col = 0; threshold = lo }; C.Num_le { col = 0; threshold = lo +. 30.0 } ]
          @ if k mod 2 = 1 then [ C.Cat_eq { col = 1; value = k mod 3 } ] else []
        in
        { E.rule = Pn_rules.Rule.of_conditions conds; weight = 0.01 *. float_of_int (k - 25) })
  in
  let e =
    E.make ~target:1 ~classes:ds.D.classes ~attrs:ds.D.attrs ~members ~bias:(-1.0)
      ~threshold:0.0
  in
  let model = Sv.Boosted e in
  let batch () = Sv.eval_batch ~pool:Pn_util.Pool.sequential ~scores:true model ds in
  ignore (batch ());
  let per_row = allocated_words batch /. float_of_int rows in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per row <= %.1f" per_row words_per_row_bound)
    true
    (per_row <= words_per_row_bound)

(* One warm eval on a 1-row dataset costs what scoring needs, not a
   rebuild of the rule program: a PNrule model trained on nsyn3 and a
   46-member ensemble of narrow [a0] slabs over nsyn3's three columns,
   each scored with a warm scratch. They measure about 350 and 1 400
   words (1 400 and 9 500 when every call compiled the program and
   filled a bitset per condition); the bounds are about twice that. *)
let warm_eval_words model =
  let ds = Pn_synth.Numerical.generate (Pn_synth.Numerical.nsyn 3) ~seed:38 ~n:1 in
  let scratch = Pn_util.Scratch.create () in
  let eval () =
    Sv.eval_batch ~pool:Pn_util.Pool.sequential ~scratch ~scores:true model ds
  in
  ignore (eval ());
  allocated_words eval

let slab_ensemble () =
  let module C = Pn_rules.Condition in
  let train = Pn_synth.Numerical.generate (Pn_synth.Numerical.nsyn 3) ~seed:37 ~n:200 in
  let members =
    Array.init 46 (fun k ->
        let lo = 1.0 +. (2.1 *. float_of_int k) in
        let slab = C.Num_range { col = 0; lo; hi = lo +. 0.04 } in
        let conds =
          match k mod 3 with
          | 0 -> [ slab ]
          | 1 -> [ slab; C.Num_le { col = 1; threshold = 50.0 } ]
          | _ -> [ C.Num_ge { col = 2; threshold = 10.0 }; slab ]
        in
        { E.rule = Pn_rules.Rule.of_conditions conds; weight = 0.1 *. float_of_int (k + 1) })
  in
  E.make ~target:Pn_synth.Numerical.target_class ~classes:train.D.classes
    ~attrs:train.D.attrs ~members ~bias:(-1.5) ~threshold:0.0

let test_warm_eval_allocation () =
  let train = Pn_synth.Numerical.generate (Pn_synth.Numerical.nsyn 3) ~seed:37 ~n:4000 in
  let pn = Sv.Single (Pnrule.Learner.train train ~target:Pn_synth.Numerical.target_class) in
  List.iter
    (fun (what, model, bound) ->
      let words = warm_eval_words model in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words <= %.0f" what words bound)
        true (words <= bound))
    [ ("PNrule", pn, 700.0); ("46 members", Sv.Boosted (slab_ensemble ()), 2_800.0) ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

(* Arbitrary ensembles over the same awkward attribute/float space the
   single-model generator explores: reuse its rules as members and give
   them nan/inf/subnormal weights. *)
let ensemble_gen =
  let open QCheck.Gen in
  Test_serialize.model_gen >>= fun m ->
  let rules =
    Pn_rules.Rule_list.to_list m.Pnrule.Model.p_rules
    @ Pn_rules.Rule_list.to_list m.Pnrule.Model.n_rules
  in
  let weight =
    oneofl [ 0.5; -2.25; 1e-300; 4e-320; Float.infinity; Float.neg_infinity; Float.nan ]
  in
  list_size (return (List.length rules)) weight >>= fun ws ->
  weight >>= fun bias ->
  weight >>= fun threshold ->
  return
    (E.make ~target:m.Pnrule.Model.target ~classes:m.Pnrule.Model.classes
       ~attrs:m.Pnrule.Model.attrs
       ~members:(Array.of_list (List.map2 (fun rule weight -> { E.rule; weight }) rules ws))
       ~bias ~threshold)

(* Flip any byte or chop the tail: the boosted body, like the single
   one, must answer every mutation with [Corrupt]. *)
let corruption_gen =
  QCheck.Gen.(
    ensemble_gen >>= fun e -> Test_serialize.corrupt_gen (S.to_string (Sv.Boosted e)))

(* A dataset over an arbitrary ensemble's schema: numeric cells drawn
   from the generator's own thresholds (so rules do fire, nan and
   infinities included), categorical codes from each dictionary. *)
let dataset_gen (e : E.t) n =
  let open QCheck.Gen in
  let column (a : Pn_data.Attribute.t) =
    match a.kind with
    | Pn_data.Attribute.Numeric ->
      array_repeat n
        (oneofl [ 0.5; -1.5e300; 4e-320; 1.0; Float.infinity; Float.neg_infinity; Float.nan ])
      >|= fun v -> D.Num v
    | Pn_data.Attribute.Categorical values ->
      array_repeat n (int_range 0 (Array.length values - 1)) >|= fun v -> D.Cat v
  in
  flatten_a (Array.map column e.E.attrs) >|= fun columns ->
  D.create ~attrs:e.E.attrs ~columns ~labels:(Array.make n 0) ~classes:e.E.classes ()

(* Sizes around the 63-bit word (empty, one record, 62/63/64, and one
   past a 2048-record batch) so the coverage bitsets' tail word is hit
   in every shape. *)
let scored_gen =
  let open QCheck.Gen in
  ensemble_gen >>= fun e ->
  flatten_l (List.map (dataset_gen e) [ 0; 1; 62; 63; 64; 2049 ]) >|= fun dss ->
  (e, dss)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* The generator's weights mostly sum exactly in any order; decimal
   weights do not, so the same members re-weighted 0.1, 0.2, ... also
   pin the order of the additions. *)
let decimal_weights e =
  E.make ~target:e.E.target ~classes:e.E.classes ~attrs:e.E.attrs
    ~members:
      (Array.mapi (fun k m -> { m with E.weight = 0.1 *. float_of_int (k + 1) }) e.E.members)
    ~bias:0.7 ~threshold:e.E.threshold

(* ------------------------------------------------------------------ *)
(* Model-reader fuzzing                                                 *)
(* ------------------------------------------------------------------ *)

(* Start and end offsets of the whitespace-separated words of [s]. *)
let words s =
  let n = String.length s in
  let acc = ref [] and i = ref 0 in
  while !i < n do
    if s.[!i] = ' ' || s.[!i] = '\n' then incr i
    else begin
      let j = ref !i in
      while !j < n && s.[!j] <> ' ' && s.[!j] <> '\n' do
        incr j
      done;
      acc := (!i, !j) :: !acc;
      i := !j
    end
  done;
  Array.of_list (List.rev !acc)

(* A valid file of either kind, with or without expectations, with one
   word replaced, deleted or duplicated and the footer recomputed, so
   the mutation reaches the parser instead of the checksum. Spliced
   words come from the file itself or from the format's keywords,
   counts and column indices around every boundary. *)
let token_mutation_gen =
  let open QCheck.Gen in
  oneof
    [
      (Test_serialize.model_gen >|= fun m -> Sv.Single m);
      (ensemble_gen >|= fun e -> Sv.Boosted e);
    ]
  >>= fun sm ->
  bool >>= fun with_exp ->
  let n = Sv.n_monitored sm in
  let expectations =
    if with_exp then
      Some { Sv.rates = Array.make n 0.25; precisions = Array.make n 0.5; support = 7 }
    else None
  in
  let s = S.to_string ?expectations sm in
  let body = String.sub s 0 (String.rindex_from s (String.length s - 2) '\n' + 1) in
  let len = String.length body in
  let ws = words body in
  let word (a, b) = String.sub body a (b - a) in
  int_range 0 (Array.length ws - 1) >>= fun k ->
  let a, b = ws.(k) in
  let splice into = String.sub body 0 a ^ into ^ String.sub body b (len - b) in
  oneof
    [
      ( oneof
          [
            (int_range 0 (Array.length ws - 1) >|= fun j -> word ws.(j));
            oneofl
              [ "-1"; "0"; "1"; "2"; "3"; "4"; "5"; "99"; "4611686018427387903";
                "nan"; "-inf"; "0x1p9"; "true"; "\"\""; "cat"; "num"; "le";
                "ge"; "range"; "rule"; "member"; "kind"; "boosted"; "pnrule";
                "expectations"; "crc"; "v2"; "v3"; "v4" ];
          ]
      >|= splice );
      return (splice "");
      return (splice (word ws.(k) ^ " " ^ word ws.(k)));
    ]
  >|= Test_serialize.with_footer

let reader_fuzz_gen =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_range 0 300) in
  frequency
    [
      (1, bytes);
      (1, bytes >|= fun junk -> Test_serialize.with_footer ("pnrule-model v4\n" ^ junk));
      (6, token_mutation_gen);
    ]

(* What the daemon relies on at boot, on SIGHUP and on rollout: a model
   file either fails to load with [Corrupt] or loads as a model that
   scores. Anything else (an escaped exception, a model the canary
   cannot score, a slow parse) fails. *)
let reader_verdict s =
  let t0 = Unix.gettimeofday () in
  let verdict =
    match S.of_string s with
    | exception S.Corrupt _ -> Ok ()
    | exception e -> Error ("leaked exception " ^ Printexc.to_string e)
    | sm, _ -> (
      match Pnrule.Registry.warm sm with
      | () -> Ok ()
      | exception e -> Error ("loaded, but warm raised " ^ Printexc.to_string e))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  match verdict with
  | Error msg -> QCheck.Test.fail_report msg
  | Ok () -> elapsed < 1.0 || QCheck.Test.fail_reportf "took %.2f s" elapsed

let qcheck_props =
  [
    QCheck.Test.make ~count:60
      ~name:"ensemble: coverage-bitset scores == per-record reference, bit for bit"
      (QCheck.make scored_gen)
      (fun (e, dss) ->
        List.for_all
          (fun e ->
            List.for_all
              (fun ds ->
                let expect = reference_scores e ds in
                same_bits expect (E.score_all ~pool:Pn_util.Pool.sequential e ds)
                && same_bits expect (E.score_all e ds))
              dss)
          [ e; decimal_weights e ]);
    QCheck.Test.make ~count:300 ~name:"ensemble: v3 round-trip is a fixed point"
      (QCheck.make ensemble_gen)
      (fun e ->
        let s1 = S.to_string (Sv.Boosted e) in
        match S.of_string s1 with
        | Sv.Single _, _ -> QCheck.Test.fail_report "ensemble read back as a single model"
        | Sv.Boosted back, _ ->
          s1 = S.to_string (Sv.Boosted back)
          && back.E.target = e.E.target
          && back.E.classes = e.E.classes
          && back.E.attrs = e.E.attrs
          && E.n_members back = E.n_members e);
    QCheck.Test.make ~count:500
      ~name:"ensemble: corrupted v3 bytes always raise Corrupt"
      (QCheck.make corruption_gen)
      (fun corrupted ->
        match S.of_string corrupted with
        | _ -> QCheck.Test.fail_report "corruption accepted silently"
        | exception S.Corrupt _ -> true
        | exception e ->
          QCheck.Test.fail_reportf "leaked exception %s" (Printexc.to_string e));
    QCheck.Test.make ~count:1000
      ~name:"model reader: every input is Corrupt or a model that warms"
      (QCheck.make ~print:(Printf.sprintf "%S") reader_fuzz_gen)
      reader_verdict;
  ]

(* A count check that walked the remaining tokens made loading
   quadratic in the file's size: 16 000 members took seconds. *)
let test_large_ensemble_roundtrip () =
  let module C = Pn_rules.Condition in
  let attrs =
    [| Pn_data.Attribute.numeric "x"; Pn_data.Attribute.numeric "y";
       Pn_data.Attribute.categorical "c" [| "a"; "b"; "c" |] |]
  in
  let members =
    Array.init 16_000 (fun k ->
        let t = float_of_int k in
        {
          E.rule =
            Pn_rules.Rule.of_conditions
              [ C.Num_ge { col = 0; threshold = t }; C.Num_le { col = 1; threshold = t +. 0.5 };
                C.Cat_eq { col = 2; value = k mod 3 } ];
          weight = 1.0 /. (t +. 1.0);
        })
  in
  let e =
    E.make ~target:1 ~classes:[| "n"; "t" |] ~attrs ~members ~bias:(-1.0) ~threshold:0.0
  in
  let t0 = Unix.gettimeofday () in
  let s = S.to_string (Sv.Boosted e) in
  let back, _ = S.of_string s in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "round-trip" s (S.to_string back);
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes in %.3f s < 1 s" (String.length s) elapsed)
    true (elapsed < 1.0)

let test_file_roundtrip () =
  let ds = skewed ~seed:35 ~n:8_000 in
  let e = E.train ds ~target:2 in
  let path = Filename.temp_file "pnrule_ensemble" ".pn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.save (Sv.Boosted e) path;
      let back = S.load_saved path in
      Alcotest.(check string) "byte-identical after save/load"
        (S.to_string (Sv.Boosted e))
        (S.to_string back);
      Alcotest.(check bool) "same predictions" true
        (Sv.predict_all back ds = E.predict_all e ds))

(* ------------------------------------------------------------------ *)
(* Accuracy on the skewed synthetics                                    *)
(* ------------------------------------------------------------------ *)

let test_boosted_beats_single_list_recall () =
  let spec = Pn_synth.Numerical.nsyn 3 in
  let train = Pn_synth.Numerical.generate spec ~seed:41 ~n:20_000 in
  let test = Pn_synth.Numerical.generate spec ~seed:42 ~n:10_000 in
  let target = Pn_synth.Numerical.target_class in
  let pn = Pnrule.Learner.train train ~target in
  let boosted = E.train train ~target in
  let pn_recall = Pn_metrics.Confusion.recall (Pnrule.Model.evaluate pn test) in
  let b_cm = E.evaluate boosted test in
  let b_recall = Pn_metrics.Confusion.recall b_cm in
  Alcotest.(check bool)
    (Printf.sprintf "boosted recall %.4f >= PNrule recall %.4f" b_recall
       pn_recall)
    true
    (b_recall >= pn_recall);
  Alcotest.(check bool)
    (Printf.sprintf "boosted F %.4f is competitive"
       (Pn_metrics.Confusion.f_measure b_cm))
    true
    (Pn_metrics.Confusion.f_measure b_cm > 0.7)

let suite =
  [
    Alcotest.test_case "ensemble: compiled scorer matches reference" `Quick
      test_compiled_matches_reference;
    Alcotest.test_case "ensemble: boosted batch allocates O(rows)" `Quick
      test_batch_allocation;
    Alcotest.test_case "ensemble: a warm 1-row eval allocates little" `Quick
      test_warm_eval_allocation;
    Alcotest.test_case "ensemble: file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "ensemble: 16000-member file round-trips under 1 s" `Quick
      test_large_ensemble_roundtrip;
    Alcotest.test_case "ensemble: boosted recall beats the single list" `Quick
      test_boosted_beats_single_list_recall;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
