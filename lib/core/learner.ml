module RM = Pn_metrics.Rule_metric

let src = Logs.Src.create "pnrule" ~doc:"PNrule two-phase rule induction"

module Log = (val Logs.src_log src : Logs.LOG)

type stats = {
  p_coverage : float;
  p_rule_coverage : (float * float) list;
  n_rule_coverage : (float * float) list;
  n_dl_trace : float list;
  train_confusion : Pn_metrics.Confusion.t;
}

(* Weighted (positive, negative) coverage of [view]; [negate] flips which
   class counts as positive, because the N-phase targets absence. *)
let view_counts view ~target ~negate =
  let pos, neg = Pn_data.View.binary_weights view ~target in
  if negate then { RM.pos = neg; neg = pos } else { RM.pos = pos; neg = neg }

(* Grow one rule on [remaining] by general-to-specific refinement. The
   metric context is pinned to [remaining]'s class distribution for the
   whole growth (§2.2). [accept] decides whether a refinement with the
   given scores is taken; [force] lets the N-phase push past a
   non-improving refinement when the recall floor demands it. *)
let grow_rule ?features ~params ~target ~negate ~min_support ~max_length ~accept
    ~force remaining =
  let counts0 = view_counts remaining ~target ~negate in
  let ctx = { RM.pos_total = counts0.RM.pos; neg_total = counts0.RM.neg } in
  let metric = params.Params.metric in
  let rec refine rule covered current_counts current_score =
    let too_long =
      match max_length with
      | Some k -> Pn_rules.Rule.n_conditions rule >= k
      | None -> false
    in
    if too_long then (rule, covered, current_counts)
    else begin
      match
        Pn_induct.Grower.best_condition ~allow_ranges:params.Params.allow_ranges
          ~min_support ~current:rule ?features ~metric ~ctx ~target ~negate covered
      with
      | None -> (rule, covered, current_counts)
      | Some cand ->
        if
          accept ~current_score ~candidate_score:cand.Pn_induct.Grower.score
            ~candidate_counts:cand.Pn_induct.Grower.counts
          || force ~rule ~covered ~current_counts
        then begin
          let rule = Pn_rules.Rule.add rule cand.Pn_induct.Grower.condition in
          let covered =
            Pn_data.View.filter covered (fun i ->
                Pn_rules.Condition.matches covered.Pn_data.View.data
                  cand.Pn_induct.Grower.condition i)
          in
          refine rule covered cand.Pn_induct.Grower.counts cand.Pn_induct.Grower.score
        end
        else (rule, covered, current_counts)
    end
  in
  refine Pn_rules.Rule.empty remaining counts0 (RM.eval metric ctx counts0)

(* ------------------------------------------------------------------ *)
(* P-phase                                                              *)
(* ------------------------------------------------------------------ *)

(* [sctx] streams the per-rule feature masks; with feature sampling off
   it draws nothing, so unsampled training is byte-identical to before
   the sampling hooks existed. [view] is the (possibly instance-sampled)
   training view both phases run on. *)
let p_phase ~params ~sctx ds ~view ~target =
  let target_total = Pn_data.View.class_weight view target in
  if target_total <= 0.0 then
    invalid_arg "Pnrule.Learner.train: no target-class weight in training data";
  let n_attrs = Pn_data.Dataset.n_attrs ds in
  let min_support = params.Params.min_support_fraction *. target_total in
  let accept ~current_score ~candidate_score ~candidate_counts =
    candidate_score > current_score +. 1e-12
    && RM.support candidate_counts >= min_support
  in
  let no_force ~rule:_ ~covered:_ ~current_counts:_ = false in
  let rec loop remaining covered_target acc_rules acc_cov =
    let stop () = (List.rev acc_rules, List.rev acc_cov, covered_target /. target_total) in
    if List.length acc_rules >= params.Params.max_p_rules then stop ()
    else if fst (Pn_data.View.binary_weights remaining ~target) <= 0.0 then stop ()
    else begin
      let features = Pn_induct.Sampling.feature_mask sctx ~n_attrs in
      let rule, _covered, counts =
        grow_rule ?features ~params ~target ~negate:false ~min_support
          ~max_length:params.Params.max_p_rule_length ~accept ~force:no_force
          remaining
      in
      if Pn_rules.Rule.is_empty rule || counts.RM.pos <= 0.0 then stop ()
      else begin
        let coverage_so_far = covered_target /. target_total in
        let accuracy = RM.accuracy counts in
        if
          coverage_so_far >= params.Params.min_coverage
          && accuracy < params.Params.min_accuracy
        then stop ()
        else begin
          Log.debug (fun m ->
              m "P-rule %d: %s  (pos=%.1f neg=%.1f acc=%.3f)"
                (List.length acc_rules)
                (Pn_rules.Rule.to_string ds.Pn_data.Dataset.attrs rule)
                counts.RM.pos counts.RM.neg accuracy);
          let remaining = Pn_rules.Rule.uncovered_of remaining rule in
          loop remaining
            (covered_target +. counts.RM.pos)
            (rule :: acc_rules)
            ((counts.RM.pos, counts.RM.neg) :: acc_cov)
        end
      end
    end
  in
  loop view 0.0 [] []

(* ------------------------------------------------------------------ *)
(* N-phase                                                              *)
(* ------------------------------------------------------------------ *)

(* Description length of the N-rule set seen as a classifier on the
   pooled set [u]: it "covers" (removes) records; errors are the target
   weight it removes plus the non-target weight it fails to remove. *)
let n_ruleset_dl ~n_candidates ~u_pos ~u_neg rules_with_counts =
  let covered_pos, covered_neg, sizes =
    List.fold_left
      (fun (cp, cn, sizes) (rule, (fp_removed, tp_removed)) ->
        (cp +. tp_removed, cn +. fp_removed, Pn_rules.Rule.n_conditions rule :: sizes))
      (0.0, 0.0, []) rules_with_counts
  in
  (* Here "positive" for the N-ruleset is the non-target class. *)
  let covered = covered_pos +. covered_neg in
  let uncovered = u_pos +. u_neg -. covered in
  let fp = covered_pos (* target records wrongly removed *) in
  let fn = u_neg -. covered_neg (* non-target records left in *) in
  Pn_metrics.Mdl.ruleset_bits ~n_candidate_conditions:n_candidates ~rule_sizes:sizes
    ~covered ~uncovered ~fp ~fn

(* §5-style held-out pruning of one N-rule: delete a trailing sequence of
   conditions when the shorter rule removes false positives at least as
   efficiently on the prune split — (fp − tp)/(fp + tp) with the N-phase
   polarity — without sinking recall below the floor. *)
let prune_n_rule ~params ~target ~target_total ~recall prune_view rule =
  let len = Pn_rules.Rule.n_conditions rule in
  if len <= 1 || Pn_data.View.is_empty prune_view then rule
  else begin
    let value r =
      let c = Pn_rules.Rule.coverage prune_view r ~target in
      (* c.pos is target weight (true positives this rule would cost). *)
      let fp = c.RM.neg and tp = c.RM.pos in
      if fp +. tp <= 0.0 then -1.0 else (fp -. tp) /. (fp +. tp)
    in
    let recall_safe r =
      let c = Pn_rules.Rule.coverage prune_view r ~target in
      recall -. (c.RM.pos /. Float.max target_total 1e-9)
      >= params.Params.recall_floor -. 1e-9
    in
    let best = ref rule and best_v = ref (value rule) in
    for keep = len - 1 downto 1 do
      let candidate = Pn_rules.Rule.truncate rule keep in
      let v = value candidate in
      if v >= !best_v && recall_safe candidate then begin
        best := candidate;
        best_v := v
      end
    done;
    !best
  end

let n_phase ~params ~sctx ds ~view ~target ~p_rules ~p_coverage =
  (* The pooled set U is the P-covered part of the *training view*: one
     compiled first-match pass over the dataset, then an O(view) filter,
     so sampled training never walks the full record set interpretively.
     On the unsampled all-records view this selects exactly the indices
     [Rule_list.covered] used to. *)
  let u =
    let fm =
      Pn_rules.Compiled.first_match_all p_rules.Pn_rules.Rule_list.rules ds
    in
    Pn_data.View.filter view (fun i -> fm.(i) >= 0)
  in
  let u_pos, u_neg = Pn_data.View.binary_weights u ~target in
  let target_total = Pn_data.View.class_weight view target in
  let n_attrs = Pn_data.Dataset.n_attrs ds in
  let n_candidates = Pn_induct.Grower.candidate_space_size ds in
  let rng = Pn_util.Rng.create params.Params.seed in
  let recall = ref p_coverage in
  let accept ~current_score ~candidate_score ~candidate_counts:_ =
    candidate_score > current_score +. 1e-12
  in
  let rec loop remaining acc_rules acc_cov dl_trace dl_min =
    let stop () = (List.rev acc_rules, List.rev acc_cov, List.rev dl_trace) in
    if List.length acc_rules >= params.Params.max_n_rules then stop ()
    else if snd (Pn_data.View.binary_weights remaining ~target) <= 0.0 then stop ()
    else begin
      (* Force refinement when accepting the rule as-is would sink the
         recall of the original target class below rn (§2.2). *)
      let force ~rule ~covered:_ ~current_counts =
        (not (Pn_rules.Rule.is_empty rule))
        && current_counts.RM.neg > 0.0
        &&
        let tp_removed = current_counts.RM.neg in
        !recall -. (tp_removed /. target_total) < params.Params.recall_floor
      in
      let features = Pn_induct.Sampling.feature_mask sctx ~n_attrs in
      let rule, counts =
        if params.Params.n_prune then begin
          let grow_view, prune_view =
            Pn_data.View.split remaining rng ~left_fraction:(2.0 /. 3.0)
          in
          let rule, _, _ =
            grow_rule ?features ~params ~target ~negate:true ~min_support:0.0
              ~max_length:params.Params.max_n_rule_length ~accept ~force grow_view
          in
          let rule =
            prune_n_rule ~params ~target ~target_total ~recall:!recall prune_view rule
          in
          let c = Pn_rules.Rule.coverage remaining rule ~target in
          (rule, { RM.pos = c.RM.neg; neg = c.RM.pos })
        end
        else begin
          let rule, _covered, counts =
            grow_rule ?features ~params ~target ~negate:true ~min_support:0.0
              ~max_length:params.Params.max_n_rule_length ~accept ~force remaining
          in
          (rule, counts)
        end
      in
      (* counts: pos = non-target (false positives removed),
                 neg = target (true positives sacrificed). *)
      if Pn_rules.Rule.is_empty rule || counts.RM.pos <= 0.0 then stop ()
      else begin
        let fp_removed = counts.RM.pos and tp_removed = counts.RM.neg in
        let acc_cov' = (fp_removed, tp_removed) :: acc_cov in
        let acc_rules' = rule :: acc_rules in
        let dl =
          n_ruleset_dl ~n_candidates ~u_pos ~u_neg
            (List.combine acc_rules' acc_cov')
        in
        if dl > dl_min +. params.Params.mdl_slack then stop ()
        else begin
          Log.debug (fun m ->
              m "N-rule %d: %s  (removes fp=%.1f tp=%.1f, dl=%.1f)"
                (List.length acc_rules)
                (Pn_rules.Rule.to_string ds.Pn_data.Dataset.attrs rule)
                fp_removed tp_removed dl);
          recall := !recall -. (tp_removed /. target_total);
          let remaining = Pn_rules.Rule.uncovered_of remaining rule in
          loop remaining acc_rules' acc_cov' (dl :: dl_trace) (Float.min dl dl_min)
        end
      end
    end
  in
  let dl0 = n_ruleset_dl ~n_candidates ~u_pos ~u_neg [] in
  loop u [] [] [ dl0 ] dl0

(* ------------------------------------------------------------------ *)
(* ScoreMatrix                                                          *)
(* ------------------------------------------------------------------ *)

let laplace pos total = (pos +. 1.0) /. (total +. 2.0)

(* The ScoreMatrix is estimated on the same (possibly sampled) view the
   rules were grown on: at a million rows an all-records interpretive
   first-match pass here would eat most of what sampling saved. *)
let build_scores ~params view ~target ~p_rules ~n_rules =
  let ds = view.Pn_data.View.data in
  let np = Pn_rules.Rule_list.length p_rules in
  let nn = Pn_rules.Rule_list.length n_rules in
  let cell_w = Array.make_matrix np (nn + 1) 0.0 in
  let cell_pos = Array.make_matrix np (nn + 1) 0.0 in
  Pn_data.View.iter view (fun i ->
      match Pn_rules.Rule_list.first_match ds p_rules i with
      | None -> ()
      | Some p ->
        let j =
          match Pn_rules.Rule_list.first_match ds n_rules i with
          | None -> nn
          | Some j -> j
        in
        let w = Pn_data.Dataset.weight ds i in
        cell_w.(p).(j) <- cell_w.(p).(j) +. w;
        if Pn_data.Dataset.label ds i = target then
          cell_pos.(p).(j) <- cell_pos.(p).(j) +. w);
  Array.init np (fun p ->
      let row_w = Pn_util.Arr.sum_floats cell_w.(p) in
      let row_pos = Pn_util.Arr.sum_floats cell_pos.(p) in
      let base_acc = if row_w > 0.0 then row_pos /. row_w else 0.0 in
      let base_score = laplace row_pos row_w in
      Array.init (nn + 1) (fun j ->
          let w = cell_w.(p).(j) and pos = cell_pos.(p).(j) in
          if w < params.Params.score_min_cell_support then base_score
          else begin
            let acc = pos /. w in
            let z =
              Pn_util.Stats.two_proportion_z ~p1:acc ~n1:w ~p2:base_acc ~n2:row_w
            in
            (* An N-rule must demonstrably shift this P-rule's accuracy to
               be honoured for it ("selectively ignoring" N-rules). The
               default no-N-rule column is always honoured. *)
            if j < nn && Float.abs z < params.Params.score_z_threshold then
              base_score
            else laplace pos w
          end))

(* ------------------------------------------------------------------ *)
(* Training entry points                                                *)
(* ------------------------------------------------------------------ *)

let train_with_stats ?(params = Params.default)
    ?(sampling = Pn_induct.Sampling.none) ds ~target =
  (* One sampling stream per training run: the instance sample is drawn
     first, then one feature mask per rule, all on this thread — results
     depend on the seed only, never on the domain-pool size. *)
  let sctx = Pn_induct.Sampling.ctx sampling in
  let view = Pn_induct.Sampling.sample_instances sctx (Pn_data.View.all ds) in
  if Pn_data.View.size view < Pn_data.Dataset.n_records ds then
    Log.info (fun m ->
        m "instance sampling: training on %d of %d records"
          (Pn_data.View.size view) (Pn_data.Dataset.n_records ds));
  let p_list, p_cov, p_coverage = p_phase ~params ~sctx ds ~view ~target in
  let p_rules = Pn_rules.Rule_list.of_list p_list in
  Log.info (fun m ->
      m "P-phase: %d rules, target coverage %.3f" (List.length p_list) p_coverage);
  let n_list, n_cov, dl_trace =
    if params.Params.enable_n_phase && p_list <> [] then
      n_phase ~params ~sctx ds ~view ~target ~p_rules ~p_coverage
    else ([], [], [])
  in
  let n_rules = Pn_rules.Rule_list.of_list n_list in
  Log.info (fun m -> m "N-phase: %d rules" (List.length n_list));
  let scores =
    if p_list = [] then [||]
    else build_scores ~params view ~target ~p_rules ~n_rules
  in
  let model =
    Model.make ~target ~classes:ds.Pn_data.Dataset.classes
      ~attrs:ds.Pn_data.Dataset.attrs ~p_rules ~n_rules ~scores ~params
  in
  let stats =
    {
      p_coverage;
      p_rule_coverage = p_cov;
      n_rule_coverage = n_cov;
      n_dl_trace = dl_trace;
      train_confusion = Model.evaluate model ds;
    }
  in
  (model, stats)

let train ?params ?sampling ds ~target =
  fst (train_with_stats ?params ?sampling ds ~target)
