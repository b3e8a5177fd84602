(** Sliding-window concept-drift monitor over the serving path's
    per-rule match counts.

    Worker domains feed scored chunks through {!observe} into per-slot
    single-writer atomic counters (the {!Pn_server.Telemetry} pattern —
    no lock, no CAS on the hot path); {!check} merges the slots and
    runs a seeded, deterministic Page–Hinkley-style cumulative test:
    every [window] observed rows, each monitored rule's windowed firing
    rate — and, once [min_labeled] labeled rows arrived via the
    feedback endpoint, its windowed false-positive rate — is compared
    against the training-time expectation as a smoothed log-divergence;
    the per-window divergence minus the slack [delta] accumulates into
    the rule's PH score (floored at 0), and the first score above
    [threshold] is a {!detection}, after which all scores reset.

    Because merged counters are order-independent sums and window
    boundaries depend only on the merged row count at each {!check},
    the verdict is a pure function of the observed stream and the check
    cadence: the same rows spread over any number of slots in any
    interleaving detect at the same step. *)

type config = {
  window : int;  (** rows per detection window *)
  threshold : float;  (** cumulative PH score that triggers a detection *)
  delta : float;  (** per-window divergence slack (PH drift term) *)
  min_labeled : int;
      (** labeled rows required before a false-positive window closes *)
  seed : int;  (** tie-break seed for the attributed rule *)
}

(** window 4096, threshold 3.0, delta 0.1, min_labeled 64, seed 42. *)
val default_config : config

type detection = {
  rule : int;  (** monitored rule with the crossing PH score *)
  score : float;
  window : int;  (** 1-based index of the window that crossed *)
}

type rule_stat = {
  expected_rate : float;
  observed_rate : float;  (** cumulative over the current model's epoch *)
  expected_precision : float;
  observed_fp_rate : float;  (** per labeled row, cumulative *)
  score : float;  (** current PH score *)
}

type snapshot = {
  monitoring : bool;  (** false = no expectations, the monitor idles *)
  rows : int;
  labeled : int;
  windows : int;
  detections : int;  (** within the current epoch *)
  last : detection option;
  rules : rule_stat array;
}

type t

(** [create ~slots ()] builds an idle monitor for [slots] worker
    domains. It starts with no model: {!observe} and {!check} are no-ops
    until {!set_model} installs expectations. Raises [Invalid_argument]
    on a non-positive [slots] or a malformed config. *)
val create : ?config:config -> slots:int -> unit -> t

val config : t -> config

(** [set_model t ~n_rules ~target exp] atomically swaps in a fresh
    epoch for a newly served model: all counters, window baselines and
    PH scores reset ([detections_total] does not). [None] expectations
    — a model file without an expectations block — leaves the monitor
    idle. Raises
    [Invalid_argument] when [exp]'s arrays do not cover [n_rules]. *)
val set_model :
  t -> n_rules:int -> target:int -> Pnrule.Saved.expectations option -> unit

(** [observe t ~slot ~n ~batch ~actuals] accumulates one scored chunk
    into [slot]'s counters: [n] rows, their per-rule firings from
    [batch.fires], and — for rows with [actuals.(i) >= 0] — labeled and
    false-positive tallies. Each slot must have a single writer (the
    worker that owns it). Never blocks; allocates O(rules) words,
    never O(rows). *)
val observe :
  t -> slot:int -> n:int -> batch:Pnrule.Saved.batch -> actuals:int array -> unit

(** [check t] merges the slots and closes a detection window if at
    least [window] rows arrived since the last close (one window per
    call; the span is everything since the last close, so rates stay
    exact under a slow check cadence). Returns the detection when some
    rule's PH score crossed the threshold — scores then reset — and
    [None] otherwise. Safe to call from any thread; serialized
    internally. *)
val check : t -> detection option

(** Detections across all epochs — monotonic, for the Prometheus
    counter. *)
val detections_total : t -> int

(** Racy-read-tolerant view of the current epoch for [/admin/drift] and
    [/metrics]. *)
val snapshot : t -> snapshot
