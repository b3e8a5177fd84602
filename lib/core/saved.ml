type t = Single of Model.t | Boosted of Ensemble.t

(* Training-time per-rule behaviour, the drift monitor's baseline: how
   often each monitored rule fired on the training set and how often a
   firing meant the target class. Persisted next to the model (format
   v4) so a freshly loaded generation arrives with its own baseline. *)
type expectations = {
  rates : float array;
  precisions : float array;
  support : int;
}

type fires =
  | First_match of int array
  | Per_rule of Pn_util.Bitset.t array

type batch = {
  preds : bool array;
  scores_v : float array option;
  fires : fires;
}

let kind = function Single _ -> "pnrule" | Boosted _ -> "boosted"

let n_monitored = function
  | Single m -> fst (Model.rule_counts m)
  | Boosted e -> Ensemble.n_members e

let attrs = function
  | Single m -> m.Model.attrs
  | Boosted e -> e.Ensemble.attrs

let classes = function
  | Single m -> m.Model.classes
  | Boosted e -> e.Ensemble.classes

let target = function
  | Single m -> m.Model.target
  | Boosted e -> e.Ensemble.target

(* Serving-side schema validation: a CSV feed is compatible when every
   attribute the model was trained on appears exactly once in the
   header. Extra columns are allowed (and ignored by the caller). *)
let resolve_header t header =
  let attrs = attrs t in
  let find name =
    let hits = ref [] in
    Array.iteri
      (fun j h -> if String.equal h name then hits := j :: !hits)
      header;
    match !hits with
    | [ j ] -> Ok j
    | [] -> Error (Printf.sprintf "column %S required by the model is missing" name)
    | _ :: _ ->
      Error (Printf.sprintf "column %S appears more than once in the header" name)
  in
  let mapping = Array.make (Array.length attrs) 0 in
  let errs = ref [] in
  Array.iteri
    (fun k (a : Pn_data.Attribute.t) ->
      match find a.name with
      | Ok j -> mapping.(k) <- j
      | Error e -> errs := e :: !errs)
    attrs;
  match List.rev !errs with
  | [] -> Ok mapping
  | errs -> Error (String.concat "; " errs)

let predict_all ?pool t ds =
  match t with
  | Single m -> Model.predict_all ?pool m ds
  | Boosted e -> Ensemble.predict_all ?pool e ds

let score_all ?pool t ds =
  match t with
  | Single m -> Model.score_all ?pool m ds
  | Boosted e -> Ensemble.score_all ?pool e ds

(* The serving batch path: one compiled-engine pass yields predictions,
   optional scores, and the per-rule firing evidence — so arming the
   drift monitor (and asking for scores) costs no extra evals. *)
let k_preds = Pn_util.Scratch.key ()
let k_scores = Pn_util.Scratch.key ()

let eval_batch ?pool ?(scratch = Pn_util.Scratch.create ()) ?(scores = false) t ds =
  let n = Pn_data.Dataset.n_records ds in
  let preds = Pn_util.Scratch.bools scratch k_preds n in
  match t with
  | Single m ->
    let pm, nm = Model.first_matches ?pool ~scratch m ds in
    let score i =
      Model.score_of_matches m ~p:(Array.unsafe_get pm i)
        ~n:(Array.unsafe_get nm i)
    in
    if m.Model.params.Params.use_scoring then begin
      let thr = m.Model.params.Params.score_threshold in
      for i = 0 to n - 1 do
        Array.unsafe_set preds i (score i > thr)
      done
    end
    else
      for i = 0 to n - 1 do
        Array.unsafe_set preds i
          (Array.unsafe_get pm i >= 0 && Array.unsafe_get nm i < 0)
      done;
    let scores_v =
      if scores then begin
        let sv = Pn_util.Scratch.floats scratch k_scores n in
        for i = 0 to n - 1 do
          Array.unsafe_set sv i (score i)
        done;
        Some sv
      end
      else None
    in
    { preds; scores_v; fires = First_match pm }
  | Boosted e ->
    let cov = Ensemble.eval_matches ?pool ~scratch e ds in
    let sv = Ensemble.scores_of_matches ~scratch e ~n cov in
    let thr = e.Ensemble.threshold in
    for i = 0 to n - 1 do
      Array.unsafe_set preds i (Array.unsafe_get sv i > thr)
    done;
    { preds; scores_v = (if scores then Some sv else None); fires = Per_rule cov }

let evaluate ?pool t ds =
  match t with
  | Single m -> Model.evaluate ?pool m ds
  | Boosted e -> Ensemble.evaluate ?pool e ds

let pp ppf = function
  | Single m -> Model.pp ppf m
  | Boosted e -> Ensemble.pp ppf e
