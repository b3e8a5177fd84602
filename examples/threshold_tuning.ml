(* Operating-point tuning and model lifecycle:
   - Pnrule.Auto picks the rp/rn recall limits on a validation split
     (the paper's §5 "automating the selection of recall limits");
   - Pn_metrics.Pr_curve turns the model's probability-like scores into
     the full precision-recall trade-off (the paper fixes the threshold
     at 50 %; deployments rarely can);
   - Pnrule.Serialize round-trips the model through a file.

   Run with: dune exec examples/threshold_tuning.exe *)

let make ~seed ~n =
  let rng = Pn_util.Rng.create seed in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 and labels = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = Pn_util.Rng.float rng 1.0 in
    if r < 0.008 then begin
      labels.(i) <- 1;
      xs.(i) <- 30.0 +. Pn_util.Rng.float rng 2.0;
      ys.(i) <- Pn_util.Rng.float rng 100.0
    end
    else if r < 0.04 then begin
      (* decoy inside the target's band *)
      xs.(i) <- 30.0 +. Pn_util.Rng.float rng 2.0;
      ys.(i) <- 55.0 +. Pn_util.Rng.float rng 15.0
    end
    else begin
      (* Ordinary traffic stays out of the alert band, so the only
         in-band negatives are the decoys the N-phase can learn. *)
      let rec draw () =
        let v = Pn_util.Rng.float rng 100.0 in
        if v >= 29.9 && v <= 32.1 then draw () else v
      in
      xs.(i) <- draw ();
      ys.(i) <- Pn_util.Rng.float rng 100.0
    end
  done;
  Pn_data.Dataset.create
    ~attrs:[| Pn_data.Attribute.numeric "x"; Pn_data.Attribute.numeric "y" |]
    ~columns:[| Pn_data.Dataset.Num xs; Pn_data.Dataset.Num ys |]
    ~labels ~classes:[| "ok"; "alert" |] ()

let () =
  let train = make ~seed:31 ~n:40_000 in
  let test = make ~seed:32 ~n:20_000 in
  let target = Pn_data.Dataset.class_index train "alert" in

  (* 1. Let the library choose rp and rn. *)
  let model, choice = Pnrule.Auto.train train ~target in
  Format.printf "chosen: rp=%.2f rn=%.2f P1=%b (validation F=%.3f)@."
    choice.Pnrule.Auto.params.Pnrule.Params.min_coverage
    choice.Pnrule.Auto.params.Pnrule.Params.recall_floor
    (choice.Pnrule.Auto.params.Pnrule.Params.max_p_rule_length = Some 1)
    choice.Pnrule.Auto.validation_f;

  (* 2. Examine the score distribution instead of trusting 0.5. *)
  let scores = Pnrule.Model.score_all model test in
  let actual = Pn_data.Dataset.binary_labels test ~target in
  let curve = Pn_metrics.Pr_curve.compute ~scores ~actual () in
  let best = Pn_metrics.Pr_curve.best_f curve in
  Format.printf "AUC-PR: %.3f@." (Pn_metrics.Pr_curve.auc_pr curve);
  Format.printf "best F %.3f at threshold %.2f (R=%.3f, P=%.3f)@."
    best.Pn_metrics.Pr_curve.f_measure best.Pn_metrics.Pr_curve.threshold
    best.Pn_metrics.Pr_curve.recall best.Pn_metrics.Pr_curve.precision;
  (match Pn_metrics.Pr_curve.at_threshold curve 0.5 with
  | Some p ->
    Format.printf "paper's fixed 0.5 threshold: F=%.3f@." p.Pn_metrics.Pr_curve.f_measure
  | None -> ());

  (* 3. Persist and reload; predictions survive the round trip. *)
  let path = Filename.temp_file "alert_model" ".pn" in
  Pnrule.Serialize.save (Pnrule.Saved.Single model) path;
  let reloaded = Pnrule.Serialize.load_saved path in
  Sys.remove path;
  assert (Pnrule.Saved.predict_all reloaded test = Pnrule.Model.predict_all model test);
  Format.printf "model round-tripped through %s@." (Filename.basename path)
