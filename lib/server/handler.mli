(** Endpoint logic of the prediction daemon, one call per request.

    The handler owns the hot-swappable model state: an [Atomic.t] whose
    value is replaced wholesale on reload or rollout, so a request reads
    the model exactly once at dispatch and keeps scoring on that
    snapshot even if a flip lands mid-request — in-flight requests
    always finish on the model they started with. *)

(** One loaded model generation. *)
type state = {
  model : Pnrule.Saved.t;
  generation : int;
      (** [Loader] source: 1 for the initial load, +1 per successful
          reload. [Registry] source: the on-disk generation number. *)
  loaded_at : float;  (** unix time of the swap *)
  expectations : Pnrule.Saved.expectations option;
      (** training-time coverage expectations carried by a v4 model
          file, if any — what the drift monitor compares against *)
}

(** Where models come from. A [Loader] is re-run on every reload and
    generations are a local counter; a [Registry] makes generations
    on-disk facts and enables [POST /admin/rollout] / [/admin/rollback]
    staged flips. *)
type source =
  | Loader of (unit -> Pnrule.Saved.t)
  | Registry of Pnrule.Registry.t

type t

(** [create ~source ...] loads the initial model from
    [source] (exceptions propagate) and fixes the serving parameters.
    [deadline] is the per-request wall-clock budget in seconds (0
    disables it); a request that overruns it — checked on every body
    refill and every response write — is answered 408 (or aborted if
    the response already started). Once [listener] is draining,
    responses stop offering keep-alive, [/healthz] turns 503 and new
    predict requests are shed; its telemetry, queue and accept counters
    are surfaced on [/metrics]. *)
val create :
  source:source ->
  policy:Pn_data.Ingest_report.policy ->
  chunk_size:int ->
  max_body:int ->
  max_rows:int ->
  deadline:float ->
  listener:Listener.t ->
  t

(** Current model snapshot. *)
val state : t -> state

(** [reload t] re-resolves the source and atomically swaps the model
    in: a [Loader] is re-run (generation +1), a [Registry] re-resolves
    its CURRENT pointer — a plain reload never advances past what the
    pointer names. On failure the old model stays and the failure is
    counted (surfaced as [pnrule_model_reload_failures_total]). *)
val reload : t -> (unit, string) result

(** [rollout t ~back ~gen] performs one staged flip against a
    [Registry] source: pick the target generation ([gen] if given, else
    the next above the serving one — or below for [~back:true]), load
    it, warm it (compile + canary-score), persist the CURRENT pointer,
    and only then swap the serving snapshot. Any failure leaves the old
    generation serving. [`Busy] means another flip holds the admin
    lock; [`No_registry] that the daemon runs from a plain model file;
    [`Failed (cur, msg)] that the candidate was rejected and [cur] is
    still serving. *)
val rollout :
  t ->
  back:bool ->
  gen:int option ->
  ( int,
    [ `Busy
    | `No_registry
    | `No_candidate of string
    | `Failed of int * string ] )
  result

(** [set_adapt t r] attaches an online-adaptation retrainer: predict
    and feedback bodies start feeding its drift monitor, [/feedback]
    and [GET /admin/drift] come alive, and the monitor is (re)synced to
    the serving model's expectations now and on every future model
    swap. Call once, before serving traffic. *)
val set_adapt : t -> Pn_adapt.Retrainer.t -> unit

val adapt : t -> Pn_adapt.Retrainer.t option

(** [route t] answers the daemon's endpoints, one request at a time,
    for {!Listener.start}. Predict bodies stream through, and are
    decoded and scored in, buffers borrowed from the worker's [scratch];
    the drift observer sees them only during its call. Worker [index]
    addresses the telemetry slot that predict rows are counted in and
    the drift monitor's per-domain counters. Protocol errors become 4xx
    answers that close the connection. *)
val route : t -> Listener.route
