(* Compiled scoring engine vs the per-record reference path.

   The engine must be bit-identical to Rule_list.first_match /
   Model.score / Multiclass.predict on adversarial inputs: ties and
   duplicated values, nan/infinite thresholds, nan data values, empty
   rule lists, rules with zero conditions, records matching no P-rule,
   weighted records — at pool size 1 and 4, with and without a
   pre-built sort cache. *)

module A = Pn_data.Attribute
module D = Pn_data.Dataset
module V = Pn_data.View
module Cond = Pn_rules.Condition
module Rule = Pn_rules.Rule
module RL = Pn_rules.Rule_list
module C = Pn_rules.Compiled
module M = Pnrule.Model
module MC = Pnrule.Multiclass
module Pool = Pn_util.Pool

let pool4 = lazy (Pool.create ~domains:4)

let pools () = [ ("pool1", Pool.sequential); ("pool4", Lazy.force pool4) ]

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

let attrs =
  [|
    A.numeric "x";
    A.numeric "y";
    A.categorical "c" [| "a"; "b"; "z" |];
    A.categorical "d" [| "p"; "q" |];
  |]

let classes = [| "neg"; "pos"; "alt" |]

(* Small value pools force ties and duplicates (so duplicate cut points
   in a threshold ladder); the tail adds the nasty floats: both zeros,
   the infinities, and nan for data values and thresholds alike. *)
let gen_num_value =
  QCheck.Gen.frequency
    [
      (10, QCheck.Gen.oneofl [ -0.5; 0.0; 0.5; 1.0; 2.0; 2.5; 3.0; 5.0 ]);
      (1, QCheck.Gen.oneofl [ Float.infinity; Float.neg_infinity; Float.nan; -0.0 ]);
    ]

let gen_threshold =
  QCheck.Gen.frequency
    [
      (10, QCheck.Gen.oneofl [ -0.5; 0.0; 0.5; 1.0; 2.0; 2.5; 3.0; 5.0 ]);
      (1, QCheck.Gen.oneofl [ Float.infinity; Float.neg_infinity; Float.nan; -0.0 ]);
    ]

let gen_dataset =
  let open QCheck.Gen in
  let* n = int_range 0 70 in
  let* xs = array_repeat n gen_num_value in
  let* ys = array_repeat n gen_num_value in
  let* cs = array_repeat n (int_range 0 2) in
  let* dsv = array_repeat n (int_range 0 1) in
  let* labels = array_repeat n (int_range 0 2) in
  let* weights = array_repeat n (oneofl [ 0.5; 1.0; 2.0 ]) in
  return
    (D.create ~attrs
       ~columns:[| D.Num xs; D.Num ys; D.Cat cs; D.Cat dsv |]
       ~labels ~classes ~weights ())

let gen_condition =
  let open QCheck.Gen in
  frequency
    [
      ( 2,
        let* col = int_range 2 3 in
        let* value = int_range 0 2 in
        return (Cond.Cat_eq { col; value }) );
      ( 2,
        let* col = int_range 0 1 in
        let* threshold = gen_threshold in
        return (Cond.Num_le { col; threshold }) );
      ( 2,
        let* col = int_range 0 1 in
        let* threshold = gen_threshold in
        return (Cond.Num_ge { col; threshold }) );
      ( 1,
        let* col = int_range 0 1 in
        let* lo = gen_threshold in
        let* hi = gen_threshold in
        (* No swap: inverted (empty) ranges are a case worth keeping. *)
        return (Cond.Num_range { col; lo; hi }) );
    ]

let gen_rule =
  let open QCheck.Gen in
  let* len = int_range 0 3 in
  let* conds = list_repeat len gen_condition in
  return (Rule.of_conditions conds)

let gen_rule_array =
  let open QCheck.Gen in
  let* len = int_range 0 4 in
  let* rules = list_repeat len gen_rule in
  return (Array.of_list rules)

(* A dataset, a flag forcing the sort cache (rank path) first, and a
   batch of rule lists. *)
let gen_scenario =
  let open QCheck.Gen in
  let* ds = gen_dataset in
  let* build_cache = bool in
  let* n_rule_lists = int_range 0 3 in
  let* lists = list_repeat n_rule_lists gen_rule_array in
  return (ds, build_cache, Array.of_list lists)

let force_cache ds =
  if D.n_records ds > 0 then begin
    ignore (D.sorted_order ds ~col:0);
    ignore (D.sorted_order ds ~col:1)
  end

let scenario_arb =
  QCheck.make
    ~print:(fun (ds, cache, lists) ->
      Printf.sprintf "n=%d cache=%b lists=%s" (D.n_records ds) cache
        (String.concat " | "
           (Array.to_list
              (Array.map
                 (fun rules ->
                   String.concat " ; "
                     (Array.to_list (Array.map (Rule.to_string attrs) rules)))
                 lists))))
    gen_scenario

(* ------------------------------------------------------------------ *)
(* first_match / covered equivalence                                    *)
(* ------------------------------------------------------------------ *)

let reference_first_match ds rules i =
  match RL.first_match ds (RL.of_array rules) i with None -> -1 | Some k -> k

let prop_first_match (ds, build_cache, lists) =
  if build_cache then force_cache ds;
  let prog = C.compile lists in
  List.for_all
    (fun (_pname, pool) ->
      let fm = C.eval ~pool prog ds in
      Array.for_all2
        (fun rules got ->
          Array.length got = D.n_records ds
          && Array.for_all
               (fun i -> got.(i) = reference_first_match ds rules i)
               (Array.init (D.n_records ds) Fun.id))
        lists fm)
    (pools ())

let prop_covered (ds, build_cache, lists) =
  if build_cache then force_cache ds;
  Array.for_all
    (fun rules ->
      let rl = RL.of_array rules in
      let expect =
        Array.of_list
          (List.filter
             (fun i -> RL.any_match ds rl i)
             (List.init (D.n_records ds) Fun.id))
      in
      (RL.covered ds rl).V.idx = expect)
    lists

(* [cover] is [eval >= 0], bit for bit, and leaves the unused tail bits
   of the last word clear (a stray tail bit would show up in [count]). *)
let cover_agrees ~pool prog ds =
  let n = D.n_records ds in
  Array.for_all2
    (fun fl cl ->
      let hits = ref 0 in
      Pn_util.Bitset.length cl = n
      && Array.for_all
           (fun i ->
             if fl.(i) >= 0 then incr hits;
             Pn_util.Bitset.get cl i = (fl.(i) >= 0))
           (Array.init n Fun.id)
      && Pn_util.Bitset.count cl = !hits)
    (C.eval ~pool prog ds) (C.cover ~pool prog ds)

let prop_cover (ds, build_cache, lists) =
  if build_cache then force_cache ds;
  let prog = C.compile lists in
  List.for_all (fun (_pname, pool) -> cover_agrees ~pool prog ds) (pools ())

(* ------------------------------------------------------------------ *)
(* Model batch path equivalence                                         *)
(* ------------------------------------------------------------------ *)

let gen_model_scenario =
  let open QCheck.Gen in
  let* ds = gen_dataset in
  let* build_cache = bool in
  let* p_rules = gen_rule_array in
  let* n_rules = gen_rule_array in
  let* use_scoring = bool in
  let* scores =
    array_repeat (Array.length p_rules)
      (array_repeat (Array.length n_rules + 1) (oneofl [ 0.0; 0.25; 0.5; 0.75; 1.0 ]))
  in
  return (ds, build_cache, p_rules, n_rules, use_scoring, scores)

let model_arb =
  QCheck.make
    ~print:(fun (ds, cache, p, n, sc, _) ->
      Printf.sprintf "n=%d cache=%b scoring=%b P=%d N=%d" (D.n_records ds) cache sc
        (Array.length p) (Array.length n))
    gen_model_scenario

let make_model p_rules n_rules use_scoring scores =
  M.make ~target:1 ~classes ~attrs ~p_rules:(RL.of_array p_rules)
    ~n_rules:(RL.of_array n_rules) ~scores
    ~params:{ Pnrule.Params.default with use_scoring }

let prop_model (ds, build_cache, p_rules, n_rules, use_scoring, scores) =
  if build_cache then force_cache ds;
  let model = make_model p_rules n_rules use_scoring scores in
  let n = D.n_records ds in
  let ref_scores = Array.init n (M.score model ds) in
  let ref_predict = Array.init n (M.predict model ds) in
  let ref_confusion =
    let acc = ref Pn_metrics.Confusion.zero in
    for i = 0 to n - 1 do
      acc :=
        Pn_metrics.Confusion.add !acc
          ~actual:(D.label ds i = 1)
          ~predicted:ref_predict.(i) ~weight:(D.weight ds i)
    done;
    !acc
  in
  List.for_all
    (fun (_pname, pool) ->
      M.score_all ~pool model ds = ref_scores
      && M.predict_all ~pool model ds = ref_predict
      && M.evaluate ~pool model ds = ref_confusion)
    (pools ())

(* ------------------------------------------------------------------ *)
(* Multiclass batch path equivalence                                    *)
(* ------------------------------------------------------------------ *)

let gen_multiclass_scenario =
  let open QCheck.Gen in
  let* ds = gen_dataset in
  let* build_cache = bool in
  let* specs =
    list_repeat 2
      (let* p = gen_rule_array in
       let* n = gen_rule_array in
       let* scores =
         array_repeat (Array.length p)
           (array_repeat (Array.length n + 1) (oneofl [ 0.0; 0.25; 0.5; 0.75; 1.0 ]))
       in
       return (p, n, scores))
  in
  return (ds, build_cache, specs)

let multiclass_arb =
  QCheck.make
    ~print:(fun (ds, cache, _) ->
      Printf.sprintf "n=%d cache=%b" (D.n_records ds) cache)
    gen_multiclass_scenario

let prop_multiclass (ds, build_cache, specs) =
  if build_cache then force_cache ds;
  let models =
    List.mapi
      (fun k (p, n, scores) ->
        (* Classes 1 and 2 get models (rarest-first order is up to the
           constructor, which we bypass); 0 is the fallback. *)
        (k + 1, make_model p n true scores))
      specs
  in
  let mc = { MC.models = Array.of_list models; fallback = 0; classes } in
  let n = D.n_records ds in
  let ref_predict = Array.init n (MC.predict mc ds) in
  List.for_all
    (fun (_pname, pool) -> MC.predict_all ~pool mc ds = ref_predict)
    (pools ())

(* ------------------------------------------------------------------ *)
(* Deterministic edge cases                                             *)
(* ------------------------------------------------------------------ *)

let test_edge_cases () =
  (* Empty dataset. *)
  let empty =
    D.create ~attrs
      ~columns:[| D.Num [||]; D.Num [||]; D.Cat [||]; D.Cat [||] |]
      ~labels:[||] ~classes ()
  in
  let rules = [| Rule.empty |] in
  Alcotest.(check (array int)) "empty dataset" [||] (C.first_match_all rules empty);
  (* Empty rule matches everything at position 0. *)
  let ds =
    D.create ~attrs
      ~columns:[| D.Num [| 1.0; 2.0 |]; D.Num [| 0.0; 0.0 |]; D.Cat [| 0; 1 |]; D.Cat [| 0; 0 |] |]
      ~labels:[| 0; 1 |] ~classes ()
  in
  Alcotest.(check (array int)) "empty rule wins" [| 0; 0 |] (C.first_match_all rules ds);
  (* No rules: nothing matches. *)
  Alcotest.(check (array int)) "no rules" [| -1; -1 |] (C.first_match_all [||] ds);
  (* Program over zero lists. *)
  Alcotest.(check int) "no lists" 0 (Array.length (C.eval (C.compile [||]) ds));
  (* Dedup folds the repeated condition across lists. *)
  let c = Cond.Num_le { col = 0; threshold = 1.5 } in
  let prog =
    C.compile
      [|
        [| Rule.of_conditions [ c ] |];
        [| Rule.of_conditions [ c; c ]; Rule.of_conditions [ c ] |];
      |]
  in
  Alcotest.(check int) "dedup" 1 (C.n_distinct_conditions prog);
  Alcotest.(check int) "lists" 2 (C.n_lists prog);
  let fm = C.eval prog ds in
  Alcotest.(check (array int)) "list 0" [| 0; -1 |] fm.(0);
  Alcotest.(check (array int)) "list 1" [| 0; -1 |] fm.(1);
  (* Kind mismatch raises like the reference accessors. *)
  Alcotest.check_raises "cat condition on num column"
    (Invalid_argument "Compiled.eval: categorical condition on numeric column")
    (fun () ->
      ignore (C.first_match_all [| Rule.of_conditions [ Cond.Cat_eq { col = 0; value = 0 } ] |] ds))

(* A dataset larger than one evaluation chunk exercises the chunk
   boundaries and the parallel fan-out. *)
let test_multi_chunk () =
  let n = 9000 in
  let xs = Array.init n (fun i -> float_of_int (i mod 17)) in
  let ys = Array.init n (fun i -> float_of_int ((i * 7) mod 23)) in
  let cs = Array.init n (fun i -> i mod 3) in
  let dsv = Array.init n (fun i -> (i / 2) mod 2) in
  let labels = Array.init n (fun i -> i mod 3) in
  let ds =
    D.create ~attrs
      ~columns:[| D.Num xs; D.Num ys; D.Cat cs; D.Cat dsv |]
      ~labels ~classes ()
  in
  let rules =
    [|
      Rule.of_conditions
        [ Cond.Num_le { col = 0; threshold = 8.0 }; Cond.Cat_eq { col = 2; value = 1 } ];
      Rule.of_conditions [ Cond.Num_range { col = 1; lo = 3.0; hi = 11.0 } ];
    |]
  in
  let rl = RL.of_array rules in
  let expect =
    Array.init n (fun i ->
        match RL.first_match ds rl i with None -> -1 | Some k -> k)
  in
  List.iter
    (fun (pname, pool) ->
      Alcotest.(check (array int))
        (pname ^ " matches reference") expect
        (C.eval ~pool (C.compile [| rules |]) ds).(0))
    (pools ())

(* Coverage across chunk boundaries, including a list whose empty rule
   covers every record and the program over zero lists. *)
let test_cover_multi_chunk () =
  List.iter
    (fun n ->
      let ds =
        D.create ~attrs
          ~columns:
            [|
              D.Num (Array.init n (fun i -> float_of_int (i mod 17)));
              D.Num (Array.init n (fun i -> float_of_int ((i * 7) mod 23)));
              D.Cat (Array.init n (fun i -> i mod 3));
              D.Cat (Array.init n (fun i -> (i / 2) mod 2));
            |]
          ~labels:(Array.make n 0) ~classes ()
      in
      let le8 = Cond.Num_le { col = 0; threshold = 8.0 } in
      let prog =
        C.compile
          [|
            [| Rule.of_conditions [ le8; Cond.Cat_eq { col = 2; value = 1 } ] |];
            [|
              Rule.of_conditions [ Cond.Num_range { col = 1; lo = 3.0; hi = 11.0 } ];
              Rule.of_conditions [ le8 ];
            |];
            [| Rule.of_conditions [ Cond.Cat_eq { col = 3; value = 0 } ]; Rule.empty |];
            [||];
          |]
      in
      List.iter
        (fun (pname, pool) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, n=%d: cover == eval >= 0" pname n)
            true (cover_agrees ~pool prog ds))
        (pools ());
      Alcotest.(check int)
        (Printf.sprintf "n=%d: empty rule covers all" n)
        n
        (Pn_util.Bitset.count (C.cover prog ds).(2)))
    [ 4031; 4032; 4033; 9000 ];
  let one =
    D.create ~attrs
      ~columns:[| D.Num [| 1.0 |]; D.Num [| 1.0 |]; D.Cat [| 0 |]; D.Cat [| 0 |] |]
      ~labels:[| 0 |] ~classes ()
  in
  Alcotest.(check int) "no lists" 0 (Array.length (C.cover (C.compile [||]) one))

(* ------------------------------------------------------------------ *)
(* Threshold ladder on fresh datasets                                   *)
(* ------------------------------------------------------------------ *)

(* A serving dataset never has a sort cache, so every numeric condition
   goes through its column's threshold ladder. Programs are either
   general (any number of conditions per column, duplicate cuts, ranges
   with lo > hi) or hold exactly one numeric condition per column. *)
let gen_ladder_lists =
  let open QCheck.Gen in
  let one_per_column =
    let num col =
      let* kind = int_range 0 2 in
      let* a = gen_threshold in
      let* b = gen_threshold in
      return
        (match kind with
        | 0 -> Cond.Num_le { col; threshold = a }
        | 1 -> Cond.Num_ge { col; threshold = a }
        | _ -> Cond.Num_range { col; lo = a; hi = b })
    in
    let* x = num 0 in
    let* y = num 1 in
    return
      [|
        [| Rule.of_conditions [ x ]; Rule.of_conditions [ y ] |];
        [| Rule.of_conditions [ x; y ] |];
      |]
  in
  let general =
    let* n_rule_lists = int_range 1 3 in
    let* lists = list_repeat n_rule_lists gen_rule_array in
    return (Array.of_list lists)
  in
  frequency [ (1, one_per_column); (2, general) ]

let ladder_arb =
  QCheck.make
    ~print:(fun (ds, lists) ->
      Printf.sprintf "n=%d x=[%s] lists=%s" (D.n_records ds)
        (match ds.D.columns.(0) with
        | D.Num xs -> String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") xs))
        | D.Cat _ -> "")
        (String.concat " | "
           (Array.to_list
              (Array.map
                 (fun rules ->
                   String.concat " ; "
                     (Array.to_list (Array.map (Rule.to_string attrs) rules)))
                 lists))))
    QCheck.Gen.(pair gen_dataset gen_ladder_lists)

(* One scratch for every case, as a serving worker keeps one: results
   must not depend on what earlier, differently sized cases left in
   it. Its arrays keep the size of the largest case so far, so a result
   may be longer than the dataset; only the first [n] cells count. *)
let ladder_scratch = Pn_util.Scratch.create ()

(* The same records over longer arrays, as a serving worker builds a
   dataset in buffers a larger request left: the cells past [n] hold
   values no record has (nan, infinities, out-of-range codes), which no
   result may read. *)
let padded ds =
  let n = D.n_records ds in
  let extra = 5 in
  let pad a junk = Array.append a (Array.init extra junk) in
  let nums = [| Float.nan; Float.infinity; Float.neg_infinity; -0.0; 1e300 |] in
  let columns =
    Array.map
      (function
        | D.Num xs -> D.Num (pad (Array.sub xs 0 n) (fun i -> nums.(i)))
        | D.Cat cs -> D.Cat (pad (Array.sub cs 0 n) (fun i -> 99 + i)))
      ds.D.columns
  in
  D.create ~n ~attrs ~columns
    ~labels:(pad (Array.sub ds.D.labels 0 n) (fun _ -> -1))
    ~weights:(pad (Array.sub ds.D.weights 0 n) (fun _ -> -1.0))
    ~classes ()

let prop_ladder (ds, lists) =
  let prog = C.compile lists in
  let n = D.n_records ds in
  List.for_all
    (fun scored ->
      List.for_all
        (fun (_pname, pool) ->
          let fm = C.eval ~pool ~scratch:ladder_scratch prog scored in
          let eval_ok =
            Array.for_all2
              (fun rules got ->
                Array.length got >= n
                && Array.for_all
                     (fun i -> got.(i) = reference_first_match ds rules i)
                     (Array.init n Fun.id))
              lists fm
          in
          let cover_ok =
            Array.for_all2
              (fun rules got ->
                Pn_util.Bitset.length got = n
                && Array.for_all
                     (fun i ->
                       Pn_util.Bitset.get got i
                       = Array.exists (fun r -> Rule.matches ds r i) rules)
                     (Array.init n Fun.id))
              lists
              (C.cover ~pool ~scratch:ladder_scratch prog scored)
          in
          eval_ok && cover_ok)
        (pools ()))
    [ ds; padded ds ]

(* ------------------------------------------------------------------ *)
(* Bucket table vs binary search                                        *)
(* ------------------------------------------------------------------ *)

(* Cut sets the bucket table must rank exactly: clustered far below the
   bucket width, a single cut, infinite cuts, a span that overflows to
   inf, a finite span so wide that [v - c_0] overflows, a subnormal
   span whose scale overflows, both zeros, and plain spreads. *)
let gen_cut_set =
  let open QCheck.Gen in
  let spread = list_size (int_range 1 40) (float_range (-100.0) 100.0) in
  oneof
    [
      (let* base = float_range (-50.0) 50.0 in
       let* k = int_range 1 30 in
       let* far = float_range 100.0 1000.0 in
       return (far :: List.init k (fun i -> base +. (float_of_int i *. 1e-9))));
      map (fun x -> [ x ]) (float_range (-10.0) 10.0);
      map (fun l -> Float.infinity :: Float.neg_infinity :: l) spread;
      map (fun l -> Float.neg_infinity :: l) spread;
      map (fun l -> 1e308 :: -1e308 :: l) spread;
      map (fun l -> -1e308 :: l) spread;
      return [ 0.0; 5e-324; 1e-323 ];
      map (fun l -> -0.0 :: 0.0 :: l) spread;
      return [ -0.0 ];
      spread;
    ]

(* Every cut, its neighbours, nan, the infinities, both zeros and
   values from far outside the span. *)
let probe_values cuts extra =
  List.concat_map (fun c -> [ c; Float.pred c; Float.succ c ]) cuts
  @ [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 1e300; -1e300;
      Float.max_float; -.Float.max_float; Float.min_float ]
  @ extra

let binary_search_rank cuts v =
  let k = Array.length cuts in
  if Float.is_nan v then (2 * k) + 1
  else
    let lo = ref 0 and hi = ref k in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if cuts.(mid) < v then lo := mid + 1 else hi := mid
    done;
    (2 * !lo) + Bool.to_int (!lo < k && cuts.(!lo) = v)

let bucket_arb =
  QCheck.make
    ~print:(fun (cuts, extra) ->
      Printf.sprintf "cuts=[%s] extra=[%s]"
        (String.concat ";" (List.map (Printf.sprintf "%h") cuts))
        (String.concat ";" (List.map (Printf.sprintf "%h") extra)))
    QCheck.Gen.(pair gen_cut_set (list_size (int_range 0 20) (float_range (-200.0) 200.0)))

let prop_bucket_rank (thresholds, extra) =
  (* Both kinds of condition, so every threshold reaches the ladder. *)
  let rules =
    List.mapi
      (fun i threshold ->
        Rule.of_conditions
          [ (if i mod 2 = 0 then Cond.Num_le { col = 0; threshold }
             else Cond.Num_ge { col = 0; threshold }) ])
      thresholds
  in
  let prog = C.compile [| Array.of_list rules |] in
  let cuts = C.cuts prog ~col:0 in
  let sorted_distinct =
    Array.for_all Fun.id
      (Array.init (max 0 (Array.length cuts - 1)) (fun j -> cuts.(j) < cuts.(j + 1)))
  in
  sorted_distinct
  && List.for_all
       (fun v -> C.ladder_rank prog ~col:0 v = binary_search_rank cuts v)
       (probe_values thresholds extra)

(* One numeric column sort-cached and the other fresh, so one rule's
   intervals mix cached positions and ladder ranks. *)
let prop_partial_cache (ds, _, lists) =
  if D.n_records ds > 0 then ignore (D.sorted_order ds ~col:1);
  let prog = C.compile lists in
  List.for_all
    (fun (_pname, pool) ->
      let fm = C.eval ~pool prog ds in
      Array.for_all2
        (fun rules got ->
          Array.for_all
            (fun i -> got.(i) = reference_first_match ds rules i)
            (Array.init (D.n_records ds) Fun.id))
        lists fm
      && cover_agrees ~pool prog ds)
    (pools ())

let qcheck_props =
  [
    QCheck.Test.make ~count:1000 ~name:"bucket rank == binary search rank" bucket_arb
      prop_bucket_rank;
    QCheck.Test.make ~count:300 ~name:"one column cached, one fresh == reference"
      scenario_arb prop_partial_cache;
    QCheck.Test.make ~count:500 ~name:"ladder eval and cover == reference on fresh data"
      ladder_arb prop_ladder;
    QCheck.Test.make ~count:300 ~name:"compiled first_match == reference"
      scenario_arb prop_first_match;
    QCheck.Test.make ~count:300 ~name:"covered == reference filter" scenario_arb
      prop_covered;
    QCheck.Test.make ~count:300 ~name:"cover == eval >= 0" scenario_arb
      prop_cover;
    QCheck.Test.make ~count:300 ~name:"model batch == per-record reference"
      model_arb prop_model;
    QCheck.Test.make ~count:200 ~name:"multiclass batch == per-record reference"
      multiclass_arb prop_multiclass;
  ]

let suite =
  [
    Alcotest.test_case "edge cases" `Quick test_edge_cases;
    Alcotest.test_case "multi-chunk parallel eval" `Quick test_multi_chunk;
    Alcotest.test_case "multi-chunk cover" `Quick test_cover_multi_chunk;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
