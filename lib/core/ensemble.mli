(** Boosted rule ensembles on the PNrule substrate.

    A SLIPPER-style confidence-rated booster: each round grows one
    conjunctive rule (the same {!Pn_induct.Grower} search the rule
    lists use, under the round's instance/feature sample) on the
    reweighted training set and gives it a confidence weight
    [shrinkage · ½·ln((W₊+ε)/(W₋+ε))] from its weighted coverage; the
    records it covers are then reweighted AdaBoost-style. Rules abstain
    on records they do not cover, so a record's score is the bias (the
    default-rule confidence — strongly negative for a rare target
    class) plus the weights of the member rules covering it.

    Serving scores with the ensemble's compiled program
    ({!Pn_rules.Compiled}), built once by {!make}: one single-rule list
    per member, each member's coverage walked from the column whose
    interval holds the fewest records into one bitset per member — so
    the weighted vote costs an add per covered record per member, never
    a per-record interpretive rule walk, and a request allocates [n/63]
    words per member rather than [n]. *)

type member = { rule : Pn_rules.Rule.t; weight : float }

type t = private {
  target : int;
  classes : string array;
  attrs : Pn_data.Attribute.t array;
  members : member array;
  bias : float;  (** default-rule confidence, added to every score *)
  threshold : float;  (** predict the target class when score exceeds it *)
  program : Pn_rules.Compiled.t;
      (** one single-rule list per member, compiled once by {!make} *)
}

(** [make ~target ~classes ~attrs ~members ~bias ~threshold] is the
    ensemble with its compiled program. Ensembles are built only here,
    so an ensemble's program always matches its members. *)
val make :
  target:int ->
  classes:string array ->
  attrs:Pn_data.Attribute.t array ->
  members:member array ->
  bias:float ->
  threshold:float ->
  t

type params = {
  rounds : int;  (** boosting rounds; degenerate rounds add no member *)
  shrinkage : float;  (** confidence multiplier in (0, 1] *)
  metric : Pn_metrics.Rule_metric.kind;
  max_rule_length : int option;
  min_support_fraction : float;
      (** per-rule support floor, as a fraction of the round view's
          positive weight *)
  threshold : float;
}

(** 30 rounds, shrinkage 0.5, Z-number metric, rules of ≤ 4 conditions,
    1% support floor, decision threshold 0. *)
val default_params : params

(** [train ?params ?sampling ds ~target] boosts for [params.rounds]
    rounds. Each round draws its own sampling context from a stream
    split off [sampling.seed], so the ensemble — like the single-list
    learner — is bit-identical across [PNRULE_DOMAINS] at a fixed
    seed. Raises [Invalid_argument] on an empty dataset or zero
    target-class weight. *)
val train :
  ?params:params ->
  ?sampling:Pn_induct.Sampling.t ->
  Pn_data.Dataset.t ->
  target:int ->
  t

(** [eval_matches t ds] is the compiled engine's raw per-member
    coverage ({!Pn_rules.Compiled.cover}): one bitset per member, bit
    [i] set when the member's rule covers record [i], [[||]] for the
    empty ensemble. One eval, [n/63] words per member; {!scores_of_matches}
    folds it into scores, and the serving path also counts per-member
    firings from it for the drift monitor. [scratch] lends the compiled
    engine its per-request arrays. *)
val eval_matches :
  ?pool:Pn_util.Pool.t ->
  ?scratch:Pn_util.Scratch.t ->
  t ->
  Pn_data.Dataset.t ->
  Pn_util.Bitset.t array

(** [scores_of_matches t ~n cov] is the weighted vote
    (bias + Σ covering member weights) over [n] records given
    {!eval_matches} output. It adds one member's weight over that
    member's set bits at a time, in member order, so every score is
    the same float sum in the same order as a per-record walk of the
    members. With [scratch] the result is borrowed from it and may be
    longer than [n]; only its first [n] cells are scores. *)
val scores_of_matches :
  ?scratch:Pn_util.Scratch.t -> t -> n:int -> Pn_util.Bitset.t array -> float array

(** [score_all ?pool t ds] is each record's ensemble score
    (bias + Σ covering member weights), resolved through the ensemble's
    compiled program over all members. *)
val score_all : ?pool:Pn_util.Pool.t -> t -> Pn_data.Dataset.t -> float array

val predict_all : ?pool:Pn_util.Pool.t -> t -> Pn_data.Dataset.t -> bool array

(** Weighted binary confusion of the ensemble on [ds]. *)
val evaluate : ?pool:Pn_util.Pool.t -> t -> Pn_data.Dataset.t -> Pn_metrics.Confusion.t

val n_members : t -> int

val pp : Format.formatter -> t -> unit
