(** Sharded serving tier: a router process that supervises N backend
    [pnrule serve] processes on loopback ports (all reading the same
    registry directory) and proxies scoring traffic across them.

    - [POST /predict], [POST /feedback]: round-robin over healthy
      shards; a shard that fails mid-exchange is tripped to suspect and
      the buffered request transparently retries on another healthy
      shard (scores are idempotent), so an admitted request is never
      lost to a shard crash. All shards down → 503 + [Retry-After]; a
      shard that answers with a malformed response → deterministic 502.
    - [GET /healthz], [GET /model], [GET /metrics]: fleet-aggregated.
      Backend metric scrapes are summed series-by-series and appended
      after the router's own [pnrule_router_*] series, so names never
      collide.
    - [POST /admin/rollout] / [/admin/rollback]: rolling fan-out, one
      shard at a time, aborting on the first failure with a 500 naming
      the stuck shard (survivors keep their old generation).
    - [GET /admin/backends]: per-shard state dump (JSON).

    Client connections are accepted, admitted and drained by a
    {!Pn_server.Listener}, the same one the daemon uses, which also runs
    each request's lifecycle and records it in the router's telemetry.

    Supervision: health probes every [probe_interval] drive the
    per-shard state machine (see {!Backend}); exited shards are reaped
    (SIGCHLD interrupts the supervisor tick) and respawned with
    jittered exponential backoff and flap damping. SIGTERM drains the
    router's own workers first, then rolls SIGTERM across the fleet.

    Fault points: [router.proxy_read], [router.proxy_write] (proxy
    legs), [router.spawn] (process creation; injected EINTR/EAGAIN are
    retried, Raise aborts the attempt into the backoff ladder). *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  domains : int;  (** router worker domains *)
  backends : int;  (** shard processes to supervise *)
  backend_argv : index:int -> port:int -> string array;
      (** argv for shard [index] listening on [port]; [argv.(0)] is the
          executable path *)
  backend_env : index:int -> string array option;
      (** [None] inherits the router's environment *)
  max_body : int;
  idle_timeout : float;
  probe_interval : float;
  fail_threshold : int;
  start_budget : float;
  queue_limit : int;
}

val default_config : config

type t

(** [start ~config ()] binds, spawns worker + supervisor + listener
    domains, and returns immediately; the supervisor brings the shard
    fleet up asynchronously (poll {!healthy_count}). Raises
    [Invalid_argument] on out-of-range config. *)
val start : ?config:config -> unit -> t

(** The bound port (useful when the config asked for port 0). *)
val port : t -> int

val healthy_count : t -> int

(** Supervisor-side view of shard [i]; 0 / [Dead] when not running. *)
val backend_pid : t -> int -> int

val backend_port : t -> int -> int
val backend_state : t -> int -> Backend.state

val request_stop : t -> unit

(** Block until the router has drained: workers finish in-flight
    requests, then the shard fleet is rolled down. *)
val join : t -> unit

(** {!request_stop} then {!join}. *)
val stop : t -> unit

(** SIGTERM/SIGINT → drain; SIGCHLD → prompt reap. *)
val install_signals : t -> unit
