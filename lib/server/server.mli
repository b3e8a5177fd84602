(** The resident prediction daemon: a {!Handler} behind a {!Listener}
    (one accepting domain feeding a fixed pool of worker domains over a
    blocking queue, with admission control and worker supervision).

    Lifecycle:
    - {!start} loads the model, binds the socket, spawns the domains and
      returns immediately;
    - SIGHUP (or {!reload}) swaps the model atomically — requests in
      flight finish on the model they started with;
    - SIGTERM/SIGINT (or {!stop}) drains gracefully: the listener stops
      accepting, already-accepted connections are served to completion,
      idle keep-alive connections are closed, workers are joined, then
      the background retrainer (if any) is stopped.

    Signals only flip atomics; the listener loop notices them within
    ~50 ms and does the actual work, so handlers stay trivial.

    Refused connections are counted as
    [pnrule_shed_total{reason="overload"}] and worker respawns as
    [pnrule_worker_restarts_total]. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  domains : int;  (** worker domains, 1..64 *)
  policy : Pn_data.Ingest_report.policy;  (** default row policy *)
  chunk_size : int;  (** rows decoded/scored per batch *)
  max_body : int;  (** request body byte limit (413 beyond) *)
  max_rows : int;  (** rows-per-request limit (413 beyond) *)
  idle_timeout : float;
      (** seconds a keep-alive connection may sit idle; also the
          per-read stall timeout inside a request *)
  deadline : float;
      (** per-request wall-clock budget in seconds; 0 disables it. A
          predict request that overruns it is answered 408 (or aborted
          mid-stream). *)
  backlog : int;  (** kernel [listen(2)] backlog, 1..65535 *)
  queue_limit : int;
      (** admission limit: once in-flight requests plus
          accepted-but-unserved connections reach this, new connections
          are refused with [429] + [Retry-After] instead of queued *)
  adapt : Pn_adapt.Retrainer.config option;
      (** online adaptation: [Some cfg] attaches a drift monitor fed
          from predict/feedback traffic and a background retrainer that
          publishes and rolls out new generations on detection. Requires
          a {!Handler.Registry} source — [start] raises
          [Invalid_argument] otherwise. *)
}

(** [{host = "127.0.0.1"; port = 0; domains = 1; policy = Strict;
    chunk_size = 8192; max_body = 64 MiB; max_rows = 1_000_000;
    idle_timeout = 5.0; deadline = 0.0; backlog = 128;
    queue_limit = 256; adapt = None}] *)
val default_config : config

type t

(** [start ~config ~source ()] — [source] produces the initial model
    now (exceptions propagate): a {!Handler.Loader} is re-run on every
    reload, a {!Handler.Registry} serves its CURRENT generation and
    enables [POST /admin/rollout] / [/admin/rollback]. Raises
    [Invalid_argument] on an out-of-range config, [Unix.Unix_error] if
    the bind fails. *)
val start : ?config:config -> source:Handler.source -> unit -> t

(** The actually-bound port (useful with [port = 0]). *)
val port : t -> int

(** Current model generation (loader source: 1 = initial load;
    registry source: the on-disk generation number). *)
val generation : t -> int

(** Synchronous reload — what SIGHUP triggers asynchronously. *)
val reload : t -> (unit, string) result

(** Flip the reload flag from a signal handler; the listener performs
    the reload within ~50 ms. *)
val request_reload : t -> unit

(** Flip the stop flag; the listener begins the graceful drain within
    ~50 ms. Signal-safe. *)
val request_stop : t -> unit

(** Block until the drain completes and all domains are joined. *)
val join : t -> unit

(** [request_stop] + [join]. Idempotent. *)
val stop : t -> unit

(** Install SIGHUP → reload, SIGTERM/SIGINT → stop for this server. *)
val install_signals : t -> unit
