(** Minimal from-scratch HTTP/1.1 server-side protocol layer.

    One {!conn} per accepted socket, holding a read buffer that lives
    for the whole connection (keep-alive requests reuse it) — the
    worker's own, from its {!Pn_util.Scratch.t}, when one is given.
    Requests are parsed with bounded header size; bodies are exposed as
    a refill function compatible with {!Pn_data.Stream.of_refill}, so a
    predict body streams straight off the socket without ever being
    materialized.

    Writes are SIGPIPE-safe by construction provided the process ignores
    SIGPIPE (the server installs that): a peer that went away surfaces
    as {!Disconnect}, never as a signal. *)

(** The request could not be parsed; answer 400 and close. *)
exception Bad_request of string

(** The peer closed or reset the connection. *)
exception Disconnect

(** A read exceeded the socket receive timeout. *)
exception Timeout

type conn

(** [make_conn fd] wraps an accepted socket. Its read buffer is 16 KiB
    (the response-head cap; request heads are capped at 8 KiB, and body
    bytes past what the buffer already holds are read straight into
    their destination). The read buffer and a streamed response's body
    ({!start_stream}) are borrowed from [scratch], a fresh one by
    default: a worker that passes its own serves every connection from
    the same buffers. The scratch must outlive the conn and belong to
    the domain that uses it. Every write passes the
    ["serve.chunk_write"] fault point. The caller closes [fd]. *)
val make_conn : ?scratch:Pn_util.Scratch.t -> Unix.file_descr -> conn

(** Body bytes of the last request read that nobody has read yet:
    {!read_request} sets the count from the head ([max_int] for a
    chunked body), {!body_reader} and {!read_body_into} draw it down. *)
val unread_body : conn -> int

(** [take_io_retries c] returns the transient write errors retried on
    this connection since the last call, and zeroes the counter — the
    listener drains it once per request into the telemetry slot. Writes
    retry EINTR/EAGAIN (and faults injected at [serve.chunk_write]) a
    bounded number of times with jittered exponential backoff. *)
val take_io_retries : conn -> int

type request = {
  meth : string;  (** uppercase, e.g. ["GET"] *)
  path : string;  (** percent-decoded, without the query string *)
  query : (string * string) list;  (** decoded key/value pairs, in order *)
  version : string;  (** ["HTTP/1.1"] *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  content_length : int option;
  chunked_body : bool;  (** Transfer-Encoding: chunked request body *)
  keep_alive : bool;  (** what the client asked for *)
}

(** First value of header [name] (give it lowercased). *)
val header : request -> string -> string option

(** [read_request conn] blocks for and parses one request head. Raises
    {!Bad_request} (malformed or oversized head), {!Disconnect} (EOF
    before a complete head — clean EOF between requests included),
    {!Timeout}. [max_header] bounds the head size (default 8 KiB). *)
val read_request : ?max_header:int -> conn -> request

(** {1 Slabs}

    A body with room for its head in front of it: the head, formatted
    last, is written into that room, so head and body leave in one
    write without a copy of the body. The router relays a request body
    and a response body this way, and a streamed response is assembled
    in one. *)

type slab

(** [slab scratch key] is an empty slab in [scratch]'s buffer under
    [key]; it grows inside the scratch. The previous slab under the
    same key (and everything in it) is overwritten. *)
val slab : Pn_util.Scratch.t -> Pn_util.Scratch.key -> slab

(** Body bytes in the slab. *)
val slab_length : slab -> int

(** A copy of the slab's body. *)
val slab_contents : slab -> string

(** [read_body_into conn s] appends the rest of the request body to [s]:
    what the read buffer already holds, then the rest read straight
    from the socket into the slab. Raises {!Disconnect} if the peer
    closes first, {!Timeout} on a stalled read. The router reads a
    proxied request body with it. *)
val read_body_into : conn -> slab -> unit

(** [body_reader conn] is a refill function that yields the rest of the
    request body then 0, suitable for {!Pn_data.Stream.of_refill}.
    Raises {!Disconnect} if the peer closes early, {!Timeout} on a
    stalled read. *)
val body_reader : conn -> bytes -> int

(** [wait_readable conn ~timeout ~stop] waits for the next request on a
    keep-alive connection: polls in short slices so a drain ([stop ()]
    turning true) is noticed promptly. [`Readable] may also mean EOF —
    the next read will raise {!Disconnect}. *)
val wait_readable :
  conn -> timeout:float -> stop:(unit -> bool) -> [ `Readable | `Timeout | `Stopped ]

(** [respond conn ~status ~body ()] writes a complete response with
    [Content-Length], head and body in one write from one exact-size
    buffer. [content_type] defaults to [text/plain].
    [keep_alive] (default false) selects the [Connection] header.
    [headers] appends extra response headers (lowercase names),
    e.g. [("retry-after", "1")] on a 503. *)
val respond :
  conn ->
  ?content_type:string ->
  ?keep_alive:bool ->
  ?headers:(string * string) list ->
  status:int ->
  body:string ->
  unit ->
  unit

(** [respond_slab] is {!respond} with the slab's body: the head goes
    into the slab's room, and head and body leave in one write with no
    copy. {!respond} is this over a string. *)
val respond_slab :
  conn ->
  ?content_type:string ->
  ?keep_alive:bool ->
  ?headers:(string * string) list ->
  status:int ->
  slab ->
  unit

(** [deny fd ~status ~retry_after ~body] writes one canned refusal
    (with a [Retry-After] header) straight to a raw accepted socket —
    the listener's load-shedding path, used before any {!conn} exists.
    Single best-effort write, never raises, never blocks on a slow
    peer; the caller closes [fd]. *)
val deny : Unix.file_descr -> status:int -> retry_after:int -> body:string -> unit

(** [continue_100 conn] writes the interim [100 Continue] response. *)
val continue_100 : conn -> unit

(** Deferred streaming response: nothing reaches the socket until the
    buffered output crosses a threshold, so a handler that fails early
    (schema mismatch, row limit) can still discard it and send a clean
    error status instead. Once started, the response is chunked; a
    failure after that point can only abort the connection. *)
type stream_response

(** [start_stream conn ~status ~keep_alive] creates a deferred CSV
    response; its head and first chunk hit the socket once 16 KiB of
    body are buffered. *)
val start_stream : conn -> status:int -> keep_alive:bool -> stream_response

(** Whether any byte of this response has reached the socket. *)
val stream_started : stream_response -> bool

(** Append body output (sent as one transfer chunk once streaming). *)
val stream_write : stream_response -> string -> unit

(** Finish the response: a small never-started response degrades to a
    plain [Content-Length] one; a started response gets its final
    chunk. *)
val stream_finish : stream_response -> unit

val status_text : int -> string

(** [url_encode s] percent-encodes everything outside the RFC 3986
    unreserved set; with [plus_space] a space becomes ['+'] (form
    encoding). Inverse of [url_decode] under the same [plus_space]. *)
val url_encode : ?plus_space:bool -> string -> string

(** [encode_query q] re-serializes a parsed query string such that
    {!parse_query} [(encode_query q) = q] for any [q] — the router
    depends on this round-trip when proxying. *)
val encode_query : (string * string) list -> string

val url_decode : ?plus_space:bool -> string -> string
val parse_query : string -> (string * string) list

(** {1 Client half}

    The same buffered conn, framing code and exceptions, pointed at the
    other side of the wire. Used by the shard router for proxy legs,
    health probes and metrics scrapes. A response that cannot be parsed
    raises {!Bad_request} (the router maps it to a 502); EOF before or
    inside a response raises {!Disconnect} (retryable — the backend
    died); a stalled backend raises {!Timeout} via the socket receive
    timeout, never a hang. *)

type response = {
  status : int;
  reason : string;
  rheaders : (string * string) list;  (** names lowercased *)
  body : string;  (** fully buffered; chunked bodies are de-chunked *)
}

(** First value of response header [name] (give it lowercased). *)
val rheader : response -> string -> string option

(** [connect ~host ~port ~timeout ()] opens a TCP connection with
    [TCP_NODELAY] and both socket timeouts set to [timeout]. [scratch]
    as in {!make_conn}; a client conn's read buffer is a different
    scratch buffer from a server conn's, so one worker can hold one of
    each. [write_fault] names the fault point passed on every write
    (default [Some "serve.chunk_write"]; [None] writes clean, as the
    router's health probes and scrapes do); [read_fault], when given,
    names one passed on every buffered read — the router's proxy legs use
    ["router.proxy_write"] / ["router.proxy_read"] so chaos runs can
    fail either direction of a proxied request deterministically.
    Raises [Unix.Unix_error] on connect failure (the fd is closed). *)
val connect :
  ?scratch:Pn_util.Scratch.t ->
  ?write_fault:string option ->
  ?read_fault:string ->
  host:string ->
  port:int ->
  timeout:float ->
  unit ->
  conn

(** Close the underlying fd, ignoring errors. *)
val close : conn -> unit

(** [send_request_slab c ~meth ~target s] writes one request head,
    framed with [Content-Length], into the room in front of [s]'s body
    and sends head and body in one write. The body is left untouched,
    so a failover resends the same bytes. [headers] are written as-is;
    pass [("connection", "close")] for one-shot use. *)
val send_request_slab :
  conn ->
  meth:string ->
  target:string ->
  ?headers:(string * string) list ->
  slab ->
  unit

(** [send_request c ~meth ~target ()] is {!send_request_slab} over
    [body] (head and body copied once into one buffer), or a bare head
    without [Content-Length] when there is no body. *)
val send_request :
  conn ->
  meth:string ->
  target:string ->
  ?headers:(string * string) list ->
  ?body:string ->
  unit ->
  unit

(** [read_response_into c s] blocks for one response, appends its
    decoded body to [s] and returns its status and headers. The head is
    bounded at 16 KiB, the body only by what a string can hold. Raises
    {!Bad_request}, {!Disconnect}, {!Timeout} as described above. *)
val read_response_into : conn -> slab -> int * (string * string) list

(** [read_response c] is {!read_response_into} with the body returned
    as a string. *)
val read_response : conn -> response
