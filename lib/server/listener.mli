(** The serving front end shared by the prediction daemon ({!Server})
    and the shard router: one listener domain accepting TCP connections
    into a blocking queue, and a fixed pool of worker domains that each
    own one connection at a time, start to close, and run every request
    on it through one lifecycle.

    - The listener polls the socket every 50 ms. Accepted sockets get
      [SO_RCVTIMEO] = [idle_timeout] (each read is bounded; a head or
      body trickled one byte per timeout is not) and [TCP_NODELAY].
    - Admission control: a connection accepted while in-flight requests
      plus queued connections have reached [queue_limit] is refused on
      the spot with a canned [429] + [Retry-After: 1]. Accepted work is
      never dropped; new work is shed at accept speed.
    - One request: a worker reads the head (a bad one is answered [400]
      and closes), holds the in-flight gauge admission reads, runs the
      tier's {!route}, and records the request and the connection's IO
      retries in the tier's {!Telemetry}. A client that vanishes
      mid-request is recorded as [499]; a route that raises is answered
      [500]. Both close the connection.
    - Keep-alive: a connection serves another request only when the
      client asked for it, the tier is not draining, the route kept it,
      and the request had no body or went to a route that reads its
      body to the end ([POST /predict], [POST /feedback]). Body bytes a
      route left unread close the connection, so they are never parsed
      as the next request.
    - Supervision: a worker domain that dies on an escaped exception
      flags itself; the listener joins it and respawns a fresh domain
      into the same slot (same [index]) within ~50 ms. The
      [server.worker] fault point fires once per connection, before its
      first request, and kills the worker on purpose.
    - Drain, on {!request_stop}: stop accepting, close the listening
      socket, raise {!draining} (idle keep-alive waits end), queue one
      shutdown sentinel per worker behind every accepted connection (so
      those are still served), join the workers, then run the caller's
      [after_drain].

    SIGPIPE is ignored process-wide from {!start} on: a vanished client
    surfaces as an [EPIPE], never a killed process. *)

type config = {
  host : string;  (** numeric bind address *)
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  domains : int;  (** worker domains, 1..64 *)
  idle_timeout : float;
      (** seconds a keep-alive connection may sit idle; also the
          per-read stall timeout inside a request *)
  backlog : int;  (** kernel [listen(2)] backlog, 1..65535 *)
  queue_limit : int;  (** admission bound on in-flight plus queued work *)
}

type t

(** A tier's endpoints: [route ~index ~scratch ~keep conn req] answers
    [req] on [conn] and returns the endpoint and status to record and
    whether its answer left the connection reusable. [index] is the
    worker's slot in [0, domains); [scratch] its own request buffers
    (created with the worker, and anew when a dead worker is respawned;
    [conn]'s read buffer is one of them), trimmed with
    {!Pn_util.Scratch.trim} after every request. [keep] is what the
    answer's [Connection] header must say. *)
type route =
  index:int ->
  scratch:Pn_util.Scratch.t ->
  keep:bool ->
  Http.conn ->
  Http.request ->
  Telemetry.endpoint * int * [ `Keep | `Close ]

(** [create ~who config] checks [config] and allocates the queue, the
    counters and the tier's telemetry; it opens nothing. An out-of-range
    field raises [Invalid_argument "<who>.start: ..."]. *)
val create : who:string -> config -> t

(** The tier's request telemetry, one slot per worker domain. *)
val telemetry : t -> Telemetry.t

(** [start t ~route ~tick ~after_drain] binds the socket, spawns the
    workers and the listener domain, and returns. Every request on every
    connection runs through [route]. [tick ()] runs in the listener
    domain once per poll. [after_drain ()] runs in the listener domain
    once the workers are joined. Raises [Unix.Unix_error] if the bind
    fails. *)
val start :
  t -> route:route -> tick:(unit -> unit) -> after_drain:(unit -> unit) -> unit

(** The bound port, once {!start} has returned. *)
val port : t -> int

(** [free_port host] is a TCP port on [host] that was free a moment
    ago: the kernel's pick for a bind to port 0, released at once. *)
val free_port : string -> int

(** Flip the stop flag; the drain begins within ~50 ms. Signal-safe. *)
val request_stop : t -> unit

(** Block until the drain, [after_drain] included, has completed.
    Idempotent. *)
val join : t -> unit

(** True from the start of the drain on. *)
val draining : t -> bool

(** Accepted connections not yet picked up by a worker. *)
val queued : t -> int

val queue_limit : t -> int

(** Connections accepted, admitted or not. *)
val connections : t -> int

(** Connections refused by admission control. *)
val overload_shed : t -> int

(** Worker domains respawned after dying. *)
val worker_restarts : t -> int
