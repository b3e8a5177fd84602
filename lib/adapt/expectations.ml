(* Deriving the drift monitor's baseline: replay the training (or any
   reference) set through the exact batch path serving uses, and record
   what each monitored rule did there. Matching the serving path's
   semantics — FIRST-match attribution for a single model's P-rules,
   per-member coverage for a boosted ensemble — is what makes the
   baseline comparable to online counts: both sides count the same
   event. *)

type t = Pnrule.Saved.expectations = {
  rates : float array;
  precisions : float array;
  support : int;
}

let derive ?pool (sm : Pnrule.Saved.t) ds =
  let n = Pn_data.Dataset.n_records ds in
  if n = 0 then invalid_arg "Expectations.derive: empty dataset";
  let monitored = Pnrule.Saved.n_monitored sm in
  let fired = Array.make monitored 0 in
  let hits = Array.make monitored 0 in
  let target = Pnrule.Saved.target sm in
  (match sm with
  | Pnrule.Saved.Single m ->
    let pm, _ = Pnrule.Model.first_matches ?pool m ds in
    for i = 0 to n - 1 do
      let k = pm.(i) in
      if k >= 0 then begin
        fired.(k) <- fired.(k) + 1;
        if Pn_data.Dataset.label ds i = target then hits.(k) <- hits.(k) + 1
      end
    done
  | Pnrule.Saved.Boosted e ->
    Array.iteri
      (fun l cov ->
        fired.(l) <- Pn_util.Bitset.count cov;
        Pn_util.Bitset.iter cov (fun i ->
            if Pn_data.Dataset.label ds i = target then hits.(l) <- hits.(l) + 1))
      (Pnrule.Ensemble.eval_matches ?pool e ds));
  let nf = float_of_int n in
  {
    rates = Array.map (fun c -> float_of_int c /. nf) fired;
    precisions =
      Array.init monitored (fun k ->
          if fired.(k) = 0 then 0.0
          else float_of_int hits.(k) /. float_of_int fired.(k));
    support = n;
  }
