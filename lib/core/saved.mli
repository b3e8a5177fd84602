(** What a model file can hold: a single two-phase PNrule list
    ({!Model.t}) or a boosted ensemble ({!Ensemble.t}), the two kinds
    {!Serialize} reads and writes. The serving stack — {!Serve}, the
    daemon, the CLI — is written against this type, so every model kind
    rides the same streaming pipeline and the same compiled rule-box
    scoring. *)

type t = Single of Model.t | Boosted of Ensemble.t

(** Per-rule training-time behaviour, the online drift monitor's
    baseline. For a [Single] model the monitored rules are the P-rules
    and [rates.(k)] is the fraction of training rows whose first
    matching P-rule was rule [k] (first-match semantics — exactly what
    the serving path observes); for a [Boosted] ensemble the monitored
    rules are the members and [rates.(l)] is the fraction of rows
    member [l] covered. [precisions.(k)] is, among those firings, the
    fraction whose label was the target class; [support] is the number
    of rows the baseline was derived from. Persisted with the model in
    serialization format v4 ({!Serialize.save}). *)
type expectations = {
  rates : float array;
  precisions : float array;
  support : int;
}

(** Per-record rule-firing evidence of one scored batch, in the shape
    the model kind produces for free: the first-match P-rule index per
    record ([-1] = none) for a [Single] model, or one coverage bitset
    per ensemble member (bit [i] set = the member covered record [i],
    length = the batch's row count) for a [Boosted] one. *)
type fires =
  | First_match of int array
  | Per_rule of Pn_util.Bitset.t array

type batch = {
  preds : bool array;
  scores_v : float array option;  (** present iff requested *)
  fires : fires;
}

(** ["pnrule"] or ["boosted"] — the discriminator surfaced on
    [GET /model]. *)
val kind : t -> string

(** Number of monitored rules: P-rules of a [Single] model, members of
    a [Boosted] one. The length of {!expectations} arrays and the rule
    index space of {!fires}. *)
val n_monitored : t -> int

val attrs : t -> Pn_data.Attribute.t array

val classes : t -> string array

(** Index of the target class in {!classes}. *)
val target : t -> int

(** [resolve_header t names] validates a CSV header against the model's
    training schema, for either kind: every attribute of {!attrs} must
    appear exactly once in [names] (extra columns are allowed). On
    success returns the mapping from attribute index to header column
    index; on failure a human-readable description of every mismatched
    attribute, ["; "]-separated. *)
val resolve_header : t -> string array -> (int array, string) result

val predict_all : ?pool:Pn_util.Pool.t -> t -> Pn_data.Dataset.t -> bool array

val score_all : ?pool:Pn_util.Pool.t -> t -> Pn_data.Dataset.t -> float array

(** [eval_batch t ds] scores a batch through ONE compiled-engine pass
    and returns predictions, scores (when [scores] is true) and the
    per-rule firing evidence together — the serving path's way to feed
    the drift monitor without a second eval. Predictions and scores are
    bit-identical to {!predict_all} / {!score_all}. Every array of the
    result is borrowed from [scratch] when one is given: it may be
    longer than the batch (only its first [Dataset.n_records ds] cells
    are results) and stays valid only until that scratch's next
    [eval_batch]. Without one, the call uses a fresh scratch, so two
    results never alias and every array has exactly one cell per
    record. *)
val eval_batch :
  ?pool:Pn_util.Pool.t ->
  ?scratch:Pn_util.Scratch.t ->
  ?scores:bool ->
  t ->
  Pn_data.Dataset.t ->
  batch

val evaluate : ?pool:Pn_util.Pool.t -> t -> Pn_data.Dataset.t -> Pn_metrics.Confusion.t

val pp : Format.formatter -> t -> unit
