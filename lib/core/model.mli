(** Trained PNrule models.

    A model is an ordered P-rule list, an ordered N-rule list, and the
    ScoreMatrix. Prediction (§2.3): apply P-rules in rank order — if none
    applies the score is 0; otherwise apply N-rules in rank order and
    return ScoreMatrix[first P-rule, first N-rule], where "no N-rule
    applies" is the implicit default last N-rule. *)

type t = private {
  target : int;  (** index of the target class in [classes] *)
  classes : string array;
  attrs : Pn_data.Attribute.t array;
  p_rules : Pn_rules.Rule_list.t;
  n_rules : Pn_rules.Rule_list.t;
  scores : float array array;
      (** nP rows × (nN + 1) columns; the last column is the default
          "no N-rule applied" entry *)
  params : Params.t;
  program : Pn_rules.Compiled.t;
      (** both lists compiled once, P then N, by {!make}: what every
          batch call scores with *)
}

(** [make ~target ~classes ~attrs ~p_rules ~n_rules ~scores ~params]
    is the model with its compiled program. Models are built only
    here, so a model's program always matches its rules. *)
val make :
  target:int ->
  classes:string array ->
  attrs:Pn_data.Attribute.t array ->
  p_rules:Pn_rules.Rule_list.t ->
  n_rules:Pn_rules.Rule_list.t ->
  scores:float array array ->
  params:Params.t ->
  t

(** [score t ds i] is the model's probability-like score ∈ [0,1] that
    record [i] of [ds] belongs to the target class. Per-record
    reference path; the batch functions below must (and are tested to)
    agree with it bit-for-bit. *)
val score : t -> Pn_data.Dataset.t -> int -> float

(** [predict t ds i] thresholds [score] at [t.params.score_threshold].
    When [t.params.use_scoring] is false, the plain DNF decision is used:
    true iff some P-rule applies and no N-rule applies. *)
val predict : t -> Pn_data.Dataset.t -> int -> bool

(** [first_matches t ds] is the compiled batch engine's raw output: the
    first matching P-rule and N-rule index per record, [-1] for no
    match. One {!Pn_rules.Compiled.eval} pass of the model's program,
    which is not rebuilt per call; {!score_all} and
    {!predict_all} are lookups over it, and the serving path reuses the
    P-side as its per-rule drift signal. With [scratch] both arrays
    are borrowed from it and may be longer than the dataset
    ({!Pn_rules.Compiled.eval}). *)
val first_matches :
  ?pool:Pn_util.Pool.t ->
  ?scratch:Pn_util.Scratch.t ->
  t ->
  Pn_data.Dataset.t ->
  int array * int array

(** [score_of_matches t ~p ~n] is the ScoreMatrix lookup for a record
    whose first P-rule is [p] and first N-rule is [n] ([-1] = none):
    0 when no P-rule applied, the last (default) column when no N-rule
    did. *)
val score_of_matches : t -> p:int -> n:int -> float

(** [predict_all t ds] is the per-record prediction vector, served by the
    compiled engine ({!Pn_rules.Compiled}): each rule is walked from the
    column whose interval holds the fewest records, with columns and
    rule lists fanned across [pool] (default
    {!Pn_util.Pool.get_default}). Bit-identical to mapping {!predict} at
    every pool size. *)
val predict_all : ?pool:Pn_util.Pool.t -> t -> Pn_data.Dataset.t -> bool array

(** [score_all t ds] is the per-record score vector, e.g. for
    precision-recall analysis with {!Pn_metrics.Pr_curve}. Same compiled
    batch path as {!predict_all}. *)
val score_all : ?pool:Pn_util.Pool.t -> t -> Pn_data.Dataset.t -> float array

(** [evaluate t ds] tallies the weighted confusion matrix of the model on
    a dataset labeled with the same class table, predicting through the
    compiled batch path. *)
val evaluate : ?pool:Pn_util.Pool.t -> t -> Pn_data.Dataset.t -> Pn_metrics.Confusion.t

(** [rule_counts t] is (number of P-rules, number of N-rules). *)
val rule_counts : t -> int * int

val pp : Format.formatter -> t -> unit
