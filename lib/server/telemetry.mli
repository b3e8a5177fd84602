(** Serving metrics of one tier (the daemon or the shard router):
    lock-free per-domain counters, merged at scrape.

    Every worker domain owns one {!slot} and is the only writer to it, so
    recording a request is a handful of uncontended atomic stores — no
    lock, no shared cache line ping-pong on the hot path. A scrape
    ([/metrics]) walks all slots and sums, which is the only cross-domain
    read; slightly stale per-slot values are acceptable there by design.

    Rendered in the Prometheus text exposition format (version 0.0.4). *)

type t

(** One worker domain's private counter block. *)
type slot

type endpoint =
  | Predict
  | Healthz
  | Model_info
  | Metrics
  | Admin  (** the /admin/rollout and /admin/rollback endpoints *)
  | Feedback  (** the /feedback labeled-stream endpoint *)
  | Other  (** unknown paths, unparsable requests *)

(** [endpoint_of_path path] is the endpoint a request for [path] counts
    under: its route's, any path under [/admin/] [Admin], and an unknown
    path [Other]. Both tiers label a refused request (a wrong method, an
    unknown path) by it, so a refusal counts alike on the daemon and the
    router. *)
val endpoint_of_path : string -> endpoint

(** [create ~slots] preallocates [slots] counter blocks (one per worker
    domain). *)
val create : slots:int -> t

(** [slot t i] is worker [i]'s block ([0 <= i < slots]). *)
val slot : t -> int -> slot

(** Histogram bucket upper bounds, in seconds. *)
val buckets : float array

(** [observe slot ep ~status ~seconds] records one finished request:
    bumps the request counter, the error counter when [status >= 400],
    and the latency histogram of [ep]. *)
val observe : slot -> endpoint -> status:int -> seconds:float -> unit

(** [add_rows slot ~rows_in ~rows_out] accounts one predict body:
    [rows_in] data rows decoded (kept or skipped), [rows_out] prediction
    lines written. *)
val add_rows : slot -> rows_in:int -> rows_out:int -> unit

(** [add_retries slot n] accounts [n] transient IO errors that were
    retried (stream refills and response writes) — exported as
    [pnrule_io_retries_total]. *)
val add_retries : slot -> int -> unit

(** The in-flight request gauge (shared; the listener increments it once
    a request head has been parsed and decrements it when the request is
    done). *)
val in_flight_incr : t -> unit

val in_flight_decr : t -> unit

(** Current value of the in-flight gauge. Read by the listener's
    admission control on every accept, so it must stay an O(1) atomic
    load. *)
val in_flight_count : t -> int

(** [render t ~prefix ~rows ~extra] merges all slots and renders the
    exposition text, every series name starting with [prefix]: the
    daemon renders under ["pnrule_"], the shard router under
    ["pnrule_router_"], so the two never collide in the router's merged
    scrape. The rows counters are rendered only when [rows] holds (the
    router decodes no rows). [extra] may append additional, caller-owned
    metric lines (model generation, shard health). *)
val render : t -> prefix:string -> rows:bool -> extra:(Buffer.t -> unit) -> string
