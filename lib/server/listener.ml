let log = Logs.Src.create "pn_server.listener" ~doc:"accept loop and worker pool"

module Log = (val Logs.src_log log)

type config = {
  host : string;
  port : int;
  domains : int;
  idle_timeout : float;
  backlog : int;
  queue_limit : int;
}

(* Blocking multi-producer/multi-consumer queue; [None] is the
   per-worker shutdown sentinel. *)
module Q = struct
  type 'a t = { q : 'a Queue.t; m : Mutex.t; c : Condition.t }

  let create () = { q = Queue.create (); m = Mutex.create (); c = Condition.create () }

  let push t v =
    Mutex.lock t.m;
    Queue.push v t.q;
    Condition.signal t.c;
    Mutex.unlock t.m

  let pop t =
    Mutex.lock t.m;
    while Queue.is_empty t.q do
      Condition.wait t.c t.m
    done;
    let v = Queue.pop t.q in
    Mutex.unlock t.m;
    v
end

(* One worker domain plus the flag it raises when it dies on an escaped
   exception. The listener polls the flag, joins the corpse, and
   respawns into the same slot (same index), so a crashed worker never
   shrinks the pool. *)
type worker_slot = {
  mutable domain : unit Domain.t;
  dead : bool Atomic.t;
}

type route =
  index:int ->
  scratch:Pn_util.Scratch.t ->
  keep:bool ->
  Http.conn ->
  Http.request ->
  Telemetry.endpoint * int * [ `Keep | `Close ]

type t = {
  who : string;
  config : config;
  telemetry : Telemetry.t;
  queue : Unix.file_descr option Q.t;
  queued : int Atomic.t;
  stop_req : bool Atomic.t;
  draining : bool Atomic.t;
  connections : int Atomic.t;
  overload_shed : int Atomic.t;
  worker_restarts : int Atomic.t;
  mutable port : int;
  mutable workers : worker_slot array;
  mutable listener : unit Domain.t option;
}

let create ~who config =
  let bad what = invalid_arg (who ^ ".start: " ^ what) in
  (match Unix.inet_addr_of_string config.host with
  | _ -> ()
  | exception Failure _ -> bad "host must be a numeric IP address");
  if config.domains < 1 || config.domains > 64 then
    bad "domains must be in 1..64";
  if config.port < 0 || config.port > 65535 then bad "port must be in 0..65535";
  (* Written so that NaN fails too. *)
  if not (config.idle_timeout > 0.0) then bad "idle_timeout";
  if config.backlog < 1 || config.backlog > 65535 then
    bad "backlog must be in 1..65535";
  if config.queue_limit < 1 then bad "queue_limit";
  {
    who;
    config;
    telemetry = Telemetry.create ~slots:config.domains;
    queue = Q.create ();
    queued = Atomic.make 0;
    stop_req = Atomic.make false;
    draining = Atomic.make false;
    connections = Atomic.make 0;
    overload_shed = Atomic.make 0;
    worker_restarts = Atomic.make 0;
    port = config.port;
    workers = [||];
    listener = None;
  }

let port t = t.port
let telemetry t = t.telemetry
let request_stop t = Atomic.set t.stop_req true
let draining t = Atomic.get t.draining
let queued t = Atomic.get t.queued
let queue_limit t = t.config.queue_limit
let connections t = Atomic.get t.connections
let overload_shed t = Atomic.get t.overload_shed
let worker_restarts t = Atomic.get t.worker_restarts

(* ------------------------------------------------------------------ *)
(* Worker domains                                                       *)
(* ------------------------------------------------------------------ *)

(* The routes that read a request body to its end, on both tiers. Any
   other request that carries a body closes its connection after the
   answer: the unread bytes must never be parsed as the next request. *)
let reads_body (req : Http.request) =
  req.meth = "POST" && (req.path = "/predict" || req.path = "/feedback")

(* One request, head to record. A bad head is a 400; the in-flight gauge
   admission reads is held while the route runs, and its decrement
   survives any exit path (a lost decrement would shrink capacity for
   good). A route may keep the connection only when the client asked
   for it, the tier is not draining, and no body byte is left unread.
   A client that vanished mid-request is recorded as nginx's 499; a
   route that raises is answered 500, so a handler bug never takes the
   worker down. *)
let request t ~route ~index ~scratch conn =
  let slot = Telemetry.slot t.telemetry index in
  match Http.read_request conn with
  | exception (Http.Disconnect | Http.Timeout) -> `Close
  | exception Http.Bad_request msg ->
    (try Http.respond conn ~status:400 ~body:(msg ^ "\n") () with _ -> ());
    Telemetry.observe slot Telemetry.Other ~status:400 ~seconds:0.0;
    `Close
  | req ->
    let t0 = Unix.gettimeofday () in
    Telemetry.in_flight_incr t.telemetry;
    Fun.protect
      ~finally:(fun () -> Telemetry.in_flight_decr t.telemetry)
      (fun () ->
        let keep =
          req.Http.keep_alive
          && (not (draining t))
          && (Http.unread_body conn = 0 || reads_body req)
        in
        let endpoint, status, outcome =
          match route ~index ~scratch ~keep conn req with
          | answer -> answer
          | exception (Http.Disconnect | Http.Timeout) -> (Telemetry.Other, 499, `Close)
          | exception e ->
            Log.err (fun m ->
                m "%s: request %s %s crashed: %s" t.who req.Http.meth req.Http.path
                  (Printexc.to_string e));
            (try Http.respond conn ~status:500 ~body:"internal error\n" () with _ -> ());
            (Telemetry.Other, 500, `Close)
        in
        Telemetry.observe slot endpoint ~status ~seconds:(Unix.gettimeofday () -. t0);
        Telemetry.add_retries slot (Http.take_io_retries conn);
        if keep && outcome = `Keep && Http.unread_body conn = 0 then `Keep else `Close)

(* One connection, start to close: keep-alive requests loop until the
   client leaves, the idle timeout fires, or a drain begins. Any
   exception that escapes [request] means the connection is beyond
   saving — close it, keep the worker. The one deliberate hole: an
   injected fault is re-raised so it kills the worker domain, which is
   exactly the crash the supervision path exists to recover from. After
   every request, however it ended, the worker's buffers are trimmed to
   the retention limit. The close sends FIN after the last answer
   before any body bytes left unread turn it into a reset, so the
   client reads that answer and then EOF. *)
let serve_conn t ~route ~index ~scratch fd =
  let conn = Http.make_conn ~scratch fd in
  let rec requests () =
    match
      Http.wait_readable conn ~timeout:t.config.idle_timeout ~stop:(fun () ->
          Atomic.get t.draining)
    with
    | `Timeout | `Stopped -> ()
    | `Readable -> (
      match
        Fun.protect
          ~finally:(fun () -> Pn_util.Scratch.trim scratch)
          (fun () -> request t ~route ~index ~scratch conn)
      with
      | `Keep -> requests ()
      | `Close -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Pn_util.Fault.check "server.worker";
        requests ()
      with
      | Pn_util.Fault.Injected _ as e -> raise e
      | _ -> ())

(* A worker never lets an exception escape its domain: it records the
   death in [dead] and returns, so [Domain.join] on the corpse is always
   clean and the listener can respawn it. Each worker (a respawned one
   included) owns a fresh set of request buffers, used by this domain
   alone. *)
let worker t ~route i dead () =
  let scratch = Pn_util.Scratch.create () in
  let rec loop () =
    match Q.pop t.queue with
    | None -> ()
    | Some fd ->
      ignore (Atomic.fetch_and_add t.queued (-1));
      serve_conn t ~route ~index:i ~scratch fd;
      loop ()
  in
  try loop ()
  with e ->
    Log.err (fun m ->
        m "%s: worker domain %d died: %s" t.who i (Printexc.to_string e));
    Atomic.set dead true

(* Supervision sweep, run from the listener loop: join any worker that
   flagged itself dead and respawn into the same slot. *)
let check_workers t ~route =
  Array.iteri
    (fun i ws ->
      if Atomic.get ws.dead then begin
        Domain.join ws.domain;
        ignore (Atomic.fetch_and_add t.worker_restarts 1);
        Log.warn (fun m -> m "%s: respawning dead worker domain %d" t.who i);
        Atomic.set ws.dead false;
        ws.domain <- Domain.spawn (worker t ~route i ws.dead)
      end)
    t.workers

(* ------------------------------------------------------------------ *)
(* Listener domain                                                      *)
(* ------------------------------------------------------------------ *)

let accept t lfd =
  match Unix.accept ~cloexec:true lfd with
  | fd, _ ->
    (* Bound every read so a stalled peer cannot pin a worker. *)
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.idle_timeout
     with Unix.Unix_error _ -> ());
    (* Responses are written as header + body chunks back to back;
       without TCP_NODELAY, Nagle + delayed ACK turns that into a
       ~40 ms stall per request. *)
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    ignore (Atomic.fetch_and_add t.connections 1);
    (* Admission control: refuse work beyond what the worker pool plus a
       bounded queue can absorb. A refusal is one canned write from this
       domain, so a saturated server sheds at accept speed instead of
       queueing work until deadlines fire. *)
    if Telemetry.in_flight_count t.telemetry + Atomic.get t.queued >= t.config.queue_limit
    then begin
      ignore (Atomic.fetch_and_add t.overload_shed 1);
      Http.deny fd ~status:429 ~retry_after:1 ~body:"over capacity; retry later\n";
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
    else begin
      ignore (Atomic.fetch_and_add t.queued 1);
      Q.push t.queue (Some fd)
    end
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
    ->
    ()
  | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
    (* The listening socket was closed under us (a stop racing the
       accept). Treat it as the stop it is instead of crashing the
       listener domain and hanging [join]. *)
    Atomic.set t.stop_req true

let listener t lfd ~route ~tick ~after_drain () =
  let rec loop () =
    tick ();
    check_workers t ~route;
    if not (Atomic.get t.stop_req) then begin
      (match Unix.select [ lfd ] [] [] 0.05 with
      | [ _ ], _, _ -> accept t lfd
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* Same race, seen by select: a closed socket must start the
           drain, not busy-loop or kill the domain. *)
        Atomic.set t.stop_req true);
      loop ()
    end
  in
  loop ();
  Log.info (fun m ->
      m "%s: draining %d worker domain(s)" t.who t.config.domains);
  Atomic.set t.draining true;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (* Sentinels queue behind any accepted-but-unserved connections, so
     those are served before the workers exit. *)
  Array.iter (fun _ -> Q.push t.queue None) t.workers;
  Array.iter (fun ws -> Domain.join ws.domain) t.workers;
  after_drain ();
  Log.info (fun m -> m "%s: drained" t.who)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

(* A TCP socket bound to [host:port], and the port actually bound. *)
let bind host port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> (fd, p)
    | Unix.ADDR_UNIX _ -> assert false
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let free_port host =
  let fd, port = bind host 0 in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  port

let start t ~route ~tick ~after_drain =
  (* SIGPIPE must die before the first write to a vanished client. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let lfd, port = bind t.config.host t.config.port in
  (try Unix.listen lfd t.config.backlog
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise e);
  t.port <- port;
  t.workers <-
    Array.init t.config.domains (fun i ->
        let dead = Atomic.make false in
        { domain = Domain.spawn (worker t ~route i dead); dead });
  t.listener <- Some (Domain.spawn (listener t lfd ~route ~tick ~after_drain))

let join t =
  match t.listener with
  | None -> ()
  | Some d ->
    t.listener <- None;
    Domain.join d
