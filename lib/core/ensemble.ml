module RM = Pn_metrics.Rule_metric

let src = Logs.Src.create "pnrule.ensemble" ~doc:"boosted rule ensembles"

module Log = (val Logs.src_log src : Logs.LOG)

type member = { rule : Pn_rules.Rule.t; weight : float }

type t = {
  target : int;
  classes : string array;
  attrs : Pn_data.Attribute.t array;
  members : member array;
  bias : float;
  threshold : float;
  program : Pn_rules.Compiled.t;
}

(* Every member becomes a one-rule list of a single compiled program,
   built once per ensemble: conditions shared between members compile
   once, and each member's coverage comes out as a bitset. *)
let make ~target ~classes ~attrs ~members ~bias ~threshold =
  {
    target;
    classes;
    attrs;
    members;
    bias;
    threshold;
    program = Pn_rules.Compiled.compile (Array.map (fun m -> [| m.rule |]) members);
  }

type params = {
  rounds : int;
  shrinkage : float;
  metric : Pn_metrics.Rule_metric.kind;
  max_rule_length : int option;
  min_support_fraction : float;
  threshold : float;
}

let default_params =
  {
    rounds = 30;
    shrinkage = 0.5;
    metric = Pn_metrics.Rule_metric.Z_number;
    max_rule_length = Some 4;
    min_support_fraction = 0.01;
    threshold = 0.0;
  }

(* One general-to-specific refinement under the round's feature mask:
   the booster's weak learner is a single rule, not a rule list. *)
let grow_one ~params ~features ~target view =
  let pos, neg = Pn_data.View.binary_weights view ~target in
  let ctx = { RM.pos_total = pos; neg_total = neg } in
  let min_support = params.min_support_fraction *. pos in
  let rec refine rule covered current_score =
    let too_long =
      match params.max_rule_length with
      | Some k -> Pn_rules.Rule.n_conditions rule >= k
      | None -> false
    in
    if too_long then rule
    else begin
      match
        Pn_induct.Grower.best_condition ~min_support ~current:rule ?features
          ~metric:params.metric ~ctx ~target covered
      with
      | Some cand when cand.Pn_induct.Grower.score > current_score +. 1e-12 ->
        let rule = Pn_rules.Rule.add rule cand.Pn_induct.Grower.condition in
        let covered =
          Pn_data.View.filter covered (fun i ->
              Pn_rules.Condition.matches covered.Pn_data.View.data
                cand.Pn_induct.Grower.condition i)
        in
        refine rule covered cand.Pn_induct.Grower.score
      | Some _ | None -> rule
    end
  in
  refine Pn_rules.Rule.empty view (RM.eval params.metric ctx { RM.pos; neg })

let train ?(params = default_params) ?(sampling = Pn_induct.Sampling.none) ds
    ~target =
  let n = Pn_data.Dataset.n_records ds in
  if n = 0 then invalid_arg "Pnrule.Ensemble.train: empty dataset";
  if params.rounds < 1 then invalid_arg "Pnrule.Ensemble.train: rounds < 1";
  let n_attrs = Pn_data.Dataset.n_attrs ds in
  let w = Array.init n (fun i -> Pn_data.Dataset.weight ds i) in
  let normalize () =
    let s = Pn_util.Arr.sum_floats w in
    if s > 0.0 then begin
      let k = float_of_int n /. s in
      for i = 0 to n - 1 do
        w.(i) <- w.(i) *. k
      done
    end
  in
  normalize ();
  (* Coverage arrives as a bitset; walking its set bits visits the
     covered records in index order, so every sum below adds the same
     floats in the same order as a scan of all records would. *)
  let weights cov =
    let pos = ref 0.0 and neg = ref 0.0 in
    Pn_util.Bitset.iter cov (fun i ->
        if Pn_data.Dataset.label ds i = target then pos := !pos +. w.(i)
        else neg := !neg +. w.(i));
    (!pos, !neg)
  in
  (* SLIPPER's smoothing: ½·(1/n) keeps confidences finite on pure
     coverage without washing out strong rules. *)
  let eps = 0.5 /. float_of_int n in
  let confidence (pos, neg) =
    params.shrinkage *. 0.5 *. log ((pos +. eps) /. (neg +. eps))
  in
  (* Covered records move as in real AdaBoost: correct ones (target
     under a positive-confidence rule) down, mistakes up. *)
  let reweight cov alpha =
    let up = exp alpha and down = exp (-.alpha) in
    Pn_util.Bitset.iter cov (fun i ->
        w.(i) <- w.(i) *. (if Pn_data.Dataset.label ds i = target then down else up));
    normalize ()
  in
  let everything = Pn_util.Bitset.full n in
  let all_pos, all_neg = weights everything in
  if all_pos <= 0.0 then
    invalid_arg "Pnrule.Ensemble.train: no target-class weight in training data";
  (* Round 0 is the default rule: it covers everything, so its (for a
     rare class, strongly negative) confidence becomes the score bias
     and its reweighting is what lifts the rare class into view for the
     rule rounds — boosting's own form of stratification. *)
  let bias = confidence (all_pos, all_neg) in
  reweight everything bias;
  let master = Pn_util.Rng.create sampling.Pn_induct.Sampling.seed in
  let members = ref [] in
  for round = 1 to params.rounds do
    (* Each round owns a split-off stream: adding draws to one round
       (say a bagged sample) never perturbs another's. *)
    let sctx = Pn_induct.Sampling.ctx_of_rng sampling (Pn_util.Rng.split master) in
    let dsw = Pn_data.Dataset.with_weights ds (Array.copy w) in
    let view = Pn_induct.Sampling.sample_instances sctx (Pn_data.View.all dsw) in
    let features = Pn_induct.Sampling.feature_mask sctx ~n_attrs in
    let vpos, _ = Pn_data.View.binary_weights view ~target in
    if vpos > 0.0 then begin
      let rule = grow_one ~params ~features ~target view in
      if not (Pn_rules.Rule.is_empty rule) then begin
        (* Confidence and reweighting use the rule's coverage of the
           FULL weighted set (one compiled pass), not just the round's
           sample — the sample only steered the search. *)
        let cov =
          (Pn_rules.Compiled.cover (Pn_rules.Compiled.compile [| [| rule |] |]) ds).(0)
        in
        let cov_w = weights cov in
        let alpha = confidence cov_w in
        if alpha > 0.0 then begin
          Log.debug (fun m ->
              m "round %d: %s  (W+=%.2f W-=%.2f alpha=%.3f)" round
                (Pn_rules.Rule.to_string ds.Pn_data.Dataset.attrs rule)
                (fst cov_w) (snd cov_w) alpha);
          members := { rule; weight = alpha } :: !members;
          reweight cov alpha
        end
      end
    end
  done;
  let members = Array.of_list (List.rev !members) in
  Log.info (fun m ->
      m "boosted ensemble: %d members from %d rounds (bias %.3f)"
        (Array.length members) params.rounds bias);
  make ~target ~classes:ds.Pn_data.Dataset.classes ~attrs:ds.Pn_data.Dataset.attrs
    ~members ~bias ~threshold:params.threshold

(* ------------------------------------------------------------------ *)
(* Scoring                                                              *)
(* ------------------------------------------------------------------ *)

(* Raw per-member coverage: one bitset per member, [||] for the empty
   ensemble. Exposed so the serving path can derive scores AND per-rule
   firing counts from a single eval. The vote then walks each member's
   set bits. *)
let eval_matches ?pool ?scratch t ds =
  if Array.length t.members = 0 then [||]
  else Pn_rules.Compiled.cover ?pool ?scratch t.program ds

(* One member at a time, in member order, adding its weight to every
   record it covers: each record's score is the same float sum, in the
   same order, as the per-record reference walk. *)
let k_scores = Pn_util.Scratch.key ()

let scores_of_matches ?(scratch = Pn_util.Scratch.create ()) t ~n cov =
  let out = Pn_util.Scratch.floats scratch k_scores n in
  Array.fill out 0 n t.bias;
  Array.iteri
    (fun l m ->
      let weight = m.weight in
      Pn_util.Bitset.iter cov.(l) (fun i -> out.(i) <- out.(i) +. weight))
    t.members;
  out

let score_all ?pool t ds =
  let n = Pn_data.Dataset.n_records ds in
  scores_of_matches t ~n (eval_matches ?pool t ds)

let predict_all ?pool (t : t) ds =
  Array.map (fun s -> s > t.threshold) (score_all ?pool t ds)

let evaluate ?pool t ds =
  let predicted = predict_all ?pool t ds in
  let acc = ref Pn_metrics.Confusion.zero in
  for i = 0 to Pn_data.Dataset.n_records ds - 1 do
    acc :=
      Pn_metrics.Confusion.add !acc
        ~actual:(Pn_data.Dataset.label ds i = t.target)
        ~predicted:predicted.(i)
        ~weight:(Pn_data.Dataset.weight ds i)
  done;
  !acc

let n_members t = Array.length t.members

let pp ppf t =
  Format.fprintf ppf
    "@[<v>Boosted ensemble for class %S (%d members, bias %.3f, threshold %g)@,"
    t.classes.(t.target) (Array.length t.members) t.bias t.threshold;
  Array.iteri
    (fun k m ->
      Format.fprintf ppf "  %+.3f  %a@," m.weight (Pn_rules.Rule.pp t.attrs)
        m.rule;
      ignore k)
    t.members;
  Format.fprintf ppf "@]"
