let log = Logs.Src.create "pn_shard.router" ~doc:"shard router lifecycle"

module Log = (val Logs.src_log log)
module Http = Pn_server.Http
module Listener = Pn_server.Listener
module Telemetry = Pn_server.Telemetry

(* ------------------------------------------------------------------ *)
(* Configuration                                                        *)
(* ------------------------------------------------------------------ *)

type config = {
  host : string;
  port : int;
  domains : int;  (* router worker domains *)
  backends : int;  (* shard processes to supervise *)
  backend_argv : index:int -> port:int -> string array;
  backend_env : index:int -> string array option;
      (* [None] inherits the router's environment — the hook exists so
         tests can arm per-shard PNRULE_FAULTS *)
  max_body : int;
  idle_timeout : float;  (* client keep-alive idle bound *)
  probe_interval : float;  (* supervisor tick *)
  fail_threshold : int;  (* consecutive bad probes before escalating *)
  start_budget : float;  (* seconds a starting shard gets to go healthy *)
  queue_limit : int;  (* admission bound: queued + in-flight *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    domains = 1;
    backends = 2;
    backend_argv = (fun ~index:_ ~port:_ -> [||]);
    backend_env = (fun ~index:_ -> None);
    max_body = 64 * 1024 * 1024;
    idle_timeout = 5.0;
    probe_interval = 0.05;
    fail_threshold = 3;
    start_budget = 30.0;
    queue_limit = 256;
  }

let proxy_timeout = 30.0  (* per-IO bound on proxy legs *)
let probe_timeout = 2.0  (* per-IO bound on probes and scrapes *)
let flap_window = 10.0  (* healthy seconds before the backoff ladder resets *)
let respawn_cap = 8  (* backoff ladder cap (flap damping) *)
let drain_budget = 5.0  (* SIGTERM-to-SIGKILL grace per shard on drain *)
let backlog = 128  (* kernel listen(2) backlog of the client socket *)

(* ------------------------------------------------------------------ *)
(* Router telemetry                                                     *)
(* ------------------------------------------------------------------ *)

(* Requests, their latency and the in-flight gauge are recorded by the
   listener into its telemetry, rendered under [pnrule_router_*] so they
   never collide with the backend [pnrule_*] series merged into the same
   /metrics scrape. These are the router's own events, plain shared
   atomics: each happens at most once per request. *)
type rtel = {
  failovers : int Atomic.t;  (* re-dispatches to another shard *)
  proxy_retries : int Atomic.t;  (* transient IO retries on proxy legs *)
  respawns : int Atomic.t;  (* shard processes respawned *)
  spawn_failures : int Atomic.t;  (* spawn attempts that failed outright *)
  shed_no_backend : int Atomic.t;
  shed_draining : int Atomic.t;
}

let make_rtel () =
  {
    failovers = Atomic.make 0;
    proxy_retries = Atomic.make 0;
    respawns = Atomic.make 0;
    spawn_failures = Atomic.make 0;
    shed_no_backend = Atomic.make 0;
    shed_draining = Atomic.make 0;
  }

(* ------------------------------------------------------------------ *)
(* Router state                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  config : config;
  listener : Listener.t;
  backends : Backend.t array;
  stop_backends : bool Atomic.t;  (* raised only after workers drained *)
  chld : bool Atomic.t;  (* SIGCHLD arrived; reap promptly *)
  rr : int Atomic.t;  (* round-robin cursor *)
  rtel : rtel;
  admin : Mutex.t;  (* serializes rolling rollout/rollback *)
  mutable supervisor : unit Domain.t option;
}

let port t = Listener.port t.listener
let request_stop t = Listener.request_stop t.listener
let note_chld t = Atomic.set t.chld true

let healthy_count t =
  Array.fold_left
    (fun acc b -> if Atomic.get b.Backend.state = Backend.Healthy then acc + 1 else acc)
    0 t.backends

let backend_pid t i = Atomic.get t.backends.(i).Backend.pid
let backend_port t i = Atomic.get t.backends.(i).Backend.port
let backend_state t i = Atomic.get t.backends.(i).Backend.state

(* ------------------------------------------------------------------ *)
(* Proxy legs                                                           *)
(* ------------------------------------------------------------------ *)

(* The worker's relay buffers: the client's request body, read once and
   resent from the same bytes by every leg, and the backend's response
   body, read by each leg into an emptied slab. *)
let k_request = Pn_util.Scratch.key ()
let k_response = Pn_util.Scratch.key ()

(* One request/response exchange with one shard on a fresh connection,
   whose read buffer is the worker's. The response body lands in the
   worker's response slab, emptied first, so a failed leg leaves nothing
   behind for the next. The leg carries the [router.proxy_write] /
   [router.proxy_read] fault points, so chaos runs can kill either
   direction deterministically; transient retries inside the leg are
   drained into [pnrule_router_proxy_io_retries_total] whether the leg
   succeeds or not. *)
let attempt t b ~scratch ~meth ~target ~headers ~body =
  let port = Atomic.get b.Backend.port in
  match
    let c =
      Http.connect ~scratch ~host:t.config.host ~port ~timeout:proxy_timeout
        ~write_fault:(Some "router.proxy_write") ~read_fault:"router.proxy_read" ()
    in
    Fun.protect
      ~finally:(fun () ->
        ignore
          (Atomic.fetch_and_add t.rtel.proxy_retries (Http.take_io_retries c));
        Http.close c)
      (fun () ->
        (match body with
        | Some s -> Http.send_request_slab c ~meth ~target ~headers s
        | None -> Http.send_request c ~meth ~target ~headers ());
        let resp = Http.slab scratch k_response in
        let status, rheaders =
          Http.read_response_into c resp
        in
        (status, rheaders, resp))
  with
  | resp -> Ok resp
  | exception Http.Bad_request msg -> Error (`Malformed msg)
  | exception Http.Disconnect -> Error (`Io "connection lost")
  | exception Http.Timeout -> Error (`Io "timed out")
  | exception Unix.Unix_error (e, _, _) -> Error (`Io (Unix.error_message e))
  | exception Pn_util.Fault.Injected m -> Error (`Io ("injected fault " ^ m))

(* Probes and scrapes run on clean conns (no fault points): injected
   proxy chaos must not make the supervisor's view of shard health
   nondeterministic. *)
let scrape ?scratch t b target =
  match
    let c =
      Http.connect ?scratch ~write_fault:None ~host:t.config.host
        ~port:(Atomic.get b.Backend.port)
        ~timeout:probe_timeout ()
    in
    Fun.protect
      ~finally:(fun () -> Http.close c)
      (fun () ->
        Http.send_request c ~meth:"GET" ~target
          ~headers:[ ("connection", "close") ]
          ();
        Http.read_response c)
  with
  | resp -> Some resp
  | exception _ -> None

let probe ~scratch t b =
  match scrape ~scratch t b "/healthz" with
  | Some r -> r.Http.status = 200
  | None -> false

(* Round-robin over healthy shards with transparent failover: an IO
   failure trips the shard's breaker and re-dispatches the buffered
   request to the next healthy shard (each shard tried at most once) —
   scores are idempotent, so an admitted request is never lost to a
   crash. A parseable-but-malformed response is a protocol bug, not a
   crash: no retry, deterministic 502. *)
let dispatch_failover t ~scratch ~meth ~target ~headers ~body =
  let n = Array.length t.backends in
  let tried = Array.make n false in
  let start = Atomic.fetch_and_add t.rr 1 in
  let pick () =
    let rec go k =
      if k >= n then None
      else begin
        let b = t.backends.((start + k) mod n) in
        if
          (not tried.(b.Backend.index))
          && Atomic.get b.Backend.state = Backend.Healthy
        then Some b
        else go (k + 1)
      end
    in
    go 0
  in
  let rec go ntried =
    match pick () with
    | None -> if ntried = 0 then Error `No_backend else Error (`Exhausted ntried)
    | Some b -> (
      tried.(b.Backend.index) <- true;
      if ntried > 0 then ignore (Atomic.fetch_and_add t.rtel.failovers 1);
      match attempt t b ~scratch ~meth ~target ~headers ~body with
      | Ok resp -> Ok (b, resp)
      | Error (`Io msg) ->
        ignore (Backend.trip b);
        Log.warn (fun m ->
            m "backend %d (127.0.0.1:%d) failed mid-request (%s); failing over"
              b.Backend.index
              (Atomic.get b.Backend.port)
              msg);
        go (ntried + 1)
      | Error (`Malformed msg) ->
        ignore (Backend.trip b);
        Error (`Bad_gateway (b, msg)))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Aggregated endpoints                                                 *)
(* ------------------------------------------------------------------ *)

(* Merge Prometheus text bodies: series with the same name+labels sum,
   comment lines keep their first occurrence, order is first-seen.
   Backends are identical processes, so their HELP/TYPE lines agree. *)
let merge_scrapes bodies =
  let items = ref [] in
  let vals : (string, float) Hashtbl.t = Hashtbl.create 128 in
  let seen_comment : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun body ->
      String.split_on_char '\n' body
      |> List.iter (fun line ->
             if line = "" then ()
             else if line.[0] = '#' then begin
               if not (Hashtbl.mem seen_comment line) then begin
                 Hashtbl.add seen_comment line ();
                 items := `Comment line :: !items
               end
             end
             else
               match String.rindex_opt line ' ' with
               | None -> ()
               | Some sp -> (
                 let key = String.sub line 0 sp in
                 match
                   float_of_string_opt
                     (String.sub line (sp + 1) (String.length line - sp - 1))
                 with
                 | None -> ()
                 | Some v -> (
                   match Hashtbl.find_opt vals key with
                   | None ->
                     Hashtbl.add vals key v;
                     items := `Series key :: !items
                   | Some old -> Hashtbl.replace vals key (old +. v)))))
    bodies;
  let buf = Buffer.create 4096 in
  List.iter
    (function
      | `Comment l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n'
      | `Series k ->
        let v = Hashtbl.find vals k in
        if Float.is_integer v && Float.abs v < 1e15 then
          Printf.bprintf buf "%s %.0f\n" k v
        else Printf.bprintf buf "%s %.9g\n" k v)
    (List.rev !items);
  Buffer.contents buf

let router_metrics_text t =
  Telemetry.render (Listener.telemetry t.listener) ~prefix:"pnrule_router_" ~rows:false
    ~extra:(fun buf ->
      let series kind name help render =
        Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" name help name kind;
        render name
      in
      let scalar v name = Printf.bprintf buf "%s %d\n" name v in
      series "counter" "pnrule_router_failovers_total"
        "Requests transparently re-dispatched to another shard after a failure"
        (scalar (Atomic.get t.rtel.failovers));
      series "counter" "pnrule_router_proxy_io_retries_total"
        "Transient IO retries on router->shard proxy legs"
        (scalar (Atomic.get t.rtel.proxy_retries));
      series "counter" "pnrule_router_respawns_total" "Shard processes respawned"
        (scalar (Atomic.get t.rtel.respawns));
      series "counter" "pnrule_router_spawn_failures_total"
        "Shard spawn attempts that failed"
        (scalar (Atomic.get t.rtel.spawn_failures));
      series "counter" "pnrule_router_shed_total" "Requests refused by the router"
        (fun name ->
          Printf.bprintf buf "%s{reason=\"overload\"} %d\n" name
            (Listener.overload_shed t.listener);
          Printf.bprintf buf "%s{reason=\"no_backend\"} %d\n" name
            (Atomic.get t.rtel.shed_no_backend);
          Printf.bprintf buf "%s{reason=\"draining\"} %d\n" name
            (Atomic.get t.rtel.shed_draining));
      series "counter" "pnrule_router_connections_total" "Client connections accepted"
        (scalar (Listener.connections t.listener));
      series "gauge" "pnrule_router_backends" "Configured shard count"
        (scalar (Array.length t.backends));
      series "gauge" "pnrule_router_backends_healthy" "Shards currently in rotation"
        (scalar (healthy_count t));
      series "gauge" "pnrule_router_backend_up" "Per-shard health (1 = in rotation)"
        (fun name ->
          Array.iter
            (fun b ->
              Printf.bprintf buf "%s{backend=\"%d\"} %d\n" name b.Backend.index
                (if Atomic.get b.Backend.state = Backend.Healthy then 1 else 0))
            t.backends))

let metrics_body t =
  let bodies =
    Array.to_list t.backends
    |> List.filter_map (fun b ->
           if Atomic.get b.Backend.state = Backend.Healthy then
             match scrape t b "/metrics" with
             | Some r when r.Http.status = 200 -> Some r.Http.body
             | _ -> None
           else None)
  in
  router_metrics_text t ^ merge_scrapes bodies

let model_body t =
  let shards =
    Array.to_list t.backends
    |> List.map (fun b ->
           let st = Atomic.get b.Backend.state in
           if st = Backend.Healthy then
             match scrape t b "/model" with
             | Some r when r.Http.status = 200 ->
               Printf.sprintf
                 "{\"index\": %d, \"port\": %d, \"state\": \"healthy\", \
                  \"model\": %s}"
                 b.Backend.index
                 (Atomic.get b.Backend.port)
                 (String.trim r.Http.body)
             | _ ->
               Printf.sprintf
                 "{\"index\": %d, \"port\": %d, \"state\": \"unreachable\"}"
                 b.Backend.index
                 (Atomic.get b.Backend.port)
           else
             Printf.sprintf "{\"index\": %d, \"port\": %d, \"state\": %S}"
               b.Backend.index
               (Atomic.get b.Backend.port)
               (Backend.state_label st))
  in
  Printf.sprintf
    "{\"router\": {\"backends\": %d, \"healthy\": %d}, \"shards\": [%s]}\n"
    (Array.length t.backends) (healthy_count t)
    (String.concat ", " shards)

let backends_body t =
  let rows =
    Array.to_list t.backends
    |> List.map (fun b ->
           Printf.sprintf
             "{\"index\": %d, \"port\": %d, \"pid\": %d, \"state\": %S, \
              \"respawn_attempt\": %d, \"proxied\": %d}"
             b.Backend.index
             (Atomic.get b.Backend.port)
             (Atomic.get b.Backend.pid)
             (Backend.state_label (Atomic.get b.Backend.state))
             b.Backend.respawn_attempt
             (Atomic.get b.Backend.proxied))
  in
  Printf.sprintf "[%s]\n" (String.concat ", " rows)

(* ------------------------------------------------------------------ *)
(* Rolling admin fan-out                                                *)
(* ------------------------------------------------------------------ *)

(* Flip one shard at a time, in index order, aborting on the first
   failure: survivors keep serving the generation they already hold, so
   no response ever mixes generations, and the error names the stuck
   shard. Requires the whole fleet healthy up front — rolling over a
   degraded fleet would leave even less capacity mid-flip. *)
let rolling_admin t ~scratch ~back ~query =
  if not (Mutex.try_lock t.admin) then
    ( 503,
      [ ("retry-after", "1") ],
      "rolling admin operation already in progress; retry later\n" )
  else
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.admin)
      (fun () ->
        let action = if back then "rollback" else "rollout" in
        let n = Array.length t.backends in
        match
          Array.fold_left
            (fun acc b ->
              match acc with
              | Some _ -> acc
              | None ->
                if Atomic.get b.Backend.state <> Backend.Healthy then Some b
                else None)
            None t.backends
        with
        | Some b ->
          ( 503,
            [ ("retry-after", "1") ],
            Printf.sprintf
              "backend %d is %s; the whole fleet must be healthy to %s\n"
              b.Backend.index
              (Backend.state_label (Atomic.get b.Backend.state))
              action )
        | None ->
          let target =
            "/admin/" ^ action
            ^ match query with [] -> "" | q -> "?" ^ Http.encode_query q
          in
          let coverage i =
            if i = 0 then "no backends were flipped"
            else
              Printf.sprintf
                "backends 0..%d serve the new generation; %d..%d remain on \
                 the old"
                (i - 1) i (n - 1)
          in
          let rec flip i last_body =
            if i >= n then
              ( 200,
                [],
                Printf.sprintf
                  "{\"action\": %S, \"backends\": %d, \"result\": %s}\n" action
                  n (String.trim last_body) )
            else begin
              let b = t.backends.(i) in
              match
                attempt t b ~scratch ~meth:"POST" ~target
                  ~headers:[ ("connection", "close") ]
                  ~body:None
              with
              | Ok (200, _, resp) ->
                Log.info (fun m ->
                    m "%s: backend %d flipped" action b.Backend.index);
                flip (i + 1) (Http.slab_contents resp)
              | Ok (409, _, resp) when i = 0 ->
                (* Nothing flipped anywhere yet: relay the refusal
                   (e.g. nothing to roll out to). *)
                (409, [], Http.slab_contents resp)
              | Ok (status, _, resp) ->
                ( 500,
                  [],
                  Printf.sprintf
                    "%s aborted at backend %d (127.0.0.1:%d): HTTP %d: %s; %s\n"
                    action b.Backend.index
                    (Atomic.get b.Backend.port)
                    status
                    (String.trim (Http.slab_contents resp))
                    (coverage i) )
              | Error (`Io msg) | Error (`Malformed msg) ->
                ignore (Backend.trip b);
                ( 500,
                  [],
                  Printf.sprintf
                    "%s aborted at backend %d (127.0.0.1:%d): %s; %s\n" action
                    b.Backend.index
                    (Atomic.get b.Backend.port)
                    msg (coverage i) )
            end
          in
          flip 0 "{}")

(* ------------------------------------------------------------------ *)
(* Request handling                                                     *)
(* ------------------------------------------------------------------ *)

let encode_target req =
  let path =
    String.split_on_char '/' req.Http.path
    |> List.map Http.url_encode |> String.concat "/"
  in
  match req.Http.query with
  | [] -> path
  | q -> path ^ "?" ^ Http.encode_query q

(* Proxy one scoring request: read the body once into the worker's
   request slab (it must survive the first shard dying mid-exchange;
   each leg writes its head into the room in front of it and sends head
   and body in one write), dispatch with failover, and relay the winning
   response from the worker's response slab under Content-Length
   framing, again head and body in one write. The body bytes are
   relayed untouched, so predictions through the router are
   byte-identical to a direct backend (and to batch Serve). *)
let proxy t conn req ep ~keep ~scratch =
  let refuse ?headers status body =
    Http.respond conn ?headers ~status ~body ();
    (ep, status, `Close)
  in
  if Listener.draining t.listener then begin
    ignore (Atomic.fetch_and_add t.rtel.shed_draining 1);
    refuse ~headers:[ ("retry-after", "1") ] 503 "draining; retry later\n"
  end
  else if req.Http.chunked_body then
    refuse 411 "chunked request bodies are not supported; send Content-Length\n"
  else
    match req.Http.content_length with
    | None -> refuse 411 "Content-Length required\n"
    | Some len when len > t.config.max_body -> refuse 413 "request body too large\n"
    | Some _ -> (
      (match Http.header req "expect" with
      | Some e when String.lowercase_ascii e = "100-continue" ->
        Http.continue_100 conn
      | _ -> ());
      let body = Http.slab scratch k_request in
      Http.read_body_into conn body;
      let target = encode_target req in
      let headers =
        ("connection", "close")
        ::
        (match Http.header req "content-type" with
        | Some ct -> [ ("content-type", ct) ]
        | None -> [])
      in
      match
        dispatch_failover t ~scratch ~meth:req.Http.meth ~target ~headers
          ~body:(Some body)
      with
      | Ok (b, (status, rheaders, resp)) ->
        ignore (Atomic.fetch_and_add b.Backend.proxied 1);
        let content_type =
          Option.value
            (List.assoc_opt "content-type" rheaders)
            ~default:"text/plain; charset=utf-8"
        in
        let extra =
          match List.assoc_opt "retry-after" rheaders with
          | Some v -> [ ("retry-after", v) ]
          | None -> []
        in
        Http.respond_slab conn ~content_type ~keep_alive:keep ~headers:extra
          ~status resp;
        (ep, status, `Keep)
      | Error `No_backend ->
        ignore (Atomic.fetch_and_add t.rtel.shed_no_backend 1);
        refuse ~headers:[ ("retry-after", "1") ] 503
          "no healthy backends; retry later\n"
      | Error (`Exhausted ntried) ->
        refuse 502
          (Printf.sprintf "all %d healthy backends failed; retry later\n" ntried)
      | Error (`Bad_gateway (b, msg)) ->
        refuse 502
          (Printf.sprintf
             "backend %d (127.0.0.1:%d) returned a malformed response: %s\n"
             b.Backend.index
             (Atomic.get b.Backend.port)
             msg))

(* The router's endpoints; the listener runs the rest of each request.
   Every path answers its one method, anything else with a 405; a
   refusal counts under the path's endpoint, as on the daemon. *)
let route t ~index:_ ~scratch ~keep conn (req : Http.request) =
  let answer ?(content_type = "text/plain; charset=utf-8") ?headers ep status body =
    Http.respond conn ~content_type ?headers ~keep_alive:keep ~status ~body ();
    (ep, status, `Keep)
  in
  let json = "application/json; charset=utf-8" in
  let refused status body =
    answer (Telemetry.endpoint_of_path req.Http.path) status body
  in
  let only meth k =
    if req.Http.meth = meth then k () else refused 405 ("use " ^ meth ^ "\n")
  in
  let retry = [ ("retry-after", "1") ] in
  match req.Http.path with
  | "/healthz" ->
    only "GET" (fun () ->
        if Listener.draining t.listener then
          answer ~headers:retry Telemetry.Healthz 503 "draining\n"
        else
          let healthy = healthy_count t in
          if healthy > 0 then
            answer Telemetry.Healthz 200
              (Printf.sprintf "ok %d/%d backends healthy\n" healthy
                 (Array.length t.backends))
          else answer ~headers:retry Telemetry.Healthz 503 "no healthy backends\n")
  | "/metrics" -> only "GET" (fun () -> answer Telemetry.Metrics 200 (metrics_body t))
  | "/model" ->
    only "GET" (fun () -> answer ~content_type:json Telemetry.Model_info 200 (model_body t))
  | "/admin/backends" ->
    only "GET" (fun () -> answer ~content_type:json Telemetry.Admin 200 (backends_body t))
  | ("/admin/rollout" | "/admin/rollback") as path ->
    only "POST" (fun () ->
        if Listener.draining t.listener then
          answer ~headers:retry Telemetry.Admin 503 "draining\n"
        else
          let status, headers, body =
            rolling_admin t ~scratch ~back:(path = "/admin/rollback")
              ~query:req.Http.query
          in
          let content_type = if status = 200 then Some json else None in
          answer ?content_type ~headers Telemetry.Admin status body)
  | "/predict" -> only "POST" (fun () -> proxy t conn req Telemetry.Predict ~keep ~scratch)
  | "/feedback" -> only "POST" (fun () -> proxy t conn req Telemetry.Feedback ~keep ~scratch)
  | _ -> refused 404 "not found\n"

(* ------------------------------------------------------------------ *)
(* Backend supervision                                                  *)
(* ------------------------------------------------------------------ *)

(* Respawn pacing: jittered exponential from 50 ms, capped at 2 s, with
   the ladder position itself capped (flap damping) — a shard that
   crash-loops settles into a bounded respawn rate instead of a hot
   fork loop, and the ladder only resets after [flap_window] healthy
   seconds. *)
let schedule_respawn b =
  b.Backend.respawn_at <-
    Unix.gettimeofday ()
    +. Pn_util.Backoff.delay ~base:0.05 ~cap:2.0
         ~attempt:b.Backend.respawn_attempt ();
  b.Backend.respawn_attempt <-
    min (b.Backend.respawn_attempt + 1) respawn_cap

let kill_backend b signal =
  let pid = Atomic.get b.Backend.pid in
  if pid > 0 then try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* The [router.spawn] fault point: injected EINTR/EAGAIN are transient
   (retried with backoff, like any syscall); an injected Raise aborts
   this attempt and the backoff ladder schedules the next one. *)
let spawn_backend t b =
  let rec check attempts =
    match Pn_util.Fault.check "router.spawn" with
    | () -> ()
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      when attempts < 5 ->
      Pn_util.Backoff.sleep ~attempt:attempts ();
      check (attempts + 1)
  in
  check 0;
  let port = Listener.free_port t.config.host in
  let argv = t.config.backend_argv ~index:b.Backend.index ~port in
  if Array.length argv = 0 then invalid_arg "Router: backend_argv is empty";
  let env = t.config.backend_env ~index:b.Backend.index in
  (* [Unix.fork] is forbidden once other domains exist (OCaml 5), and
     the router always has worker domains by the time the supervisor
     spawns anything — [create_process] uses the spawn path instead and
     is domain-safe. The shard inherits the router's stdio. *)
  let pid =
    match env with
    | None ->
      Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
    | Some e ->
      Unix.create_process_env argv.(0) argv e Unix.stdin Unix.stdout
        Unix.stderr
  in
  Atomic.set b.Backend.port port;
  Atomic.set b.Backend.pid pid;
  if b.Backend.ever_spawned then
    ignore (Atomic.fetch_and_add t.rtel.respawns 1);
  b.Backend.ever_spawned <- true;
  Log.info (fun m ->
      m "spawned backend %d (pid %d, 127.0.0.1:%d)" b.Backend.index pid port)

(* Targeted reaping — each shard's pid is waited on individually so a
   router embedded in a larger process never steals another
   subsystem's children. *)
let reap t =
  Array.iter
    (fun b ->
      let pid = Atomic.get b.Backend.pid in
      if pid > 0 then begin
        let gone =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> false
          | _, _ -> true
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
        in
        if gone then begin
          Atomic.set b.Backend.pid 0;
          if Atomic.get b.Backend.state <> Backend.Dead then begin
            Log.warn (fun m ->
                m "backend %d (pid %d) exited; scheduling respawn"
                  b.Backend.index pid);
            Atomic.set b.Backend.state Backend.Dead;
            schedule_respawn b
          end
        end
      end)
    t.backends

let step t ~scratch b now =
  match Atomic.get b.Backend.state with
  | Backend.Dead ->
    if Atomic.get b.Backend.pid = 0 && now >= b.Backend.respawn_at then begin
      match spawn_backend t b with
      | () ->
        Atomic.set b.Backend.state Backend.Starting;
        b.Backend.started_at <- now;
        b.Backend.consec_failures <- 0
      | exception e ->
        ignore (Atomic.fetch_and_add t.rtel.spawn_failures 1);
        Log.err (fun m ->
            m "spawning backend %d failed: %s" b.Backend.index
              (Printexc.to_string e));
        schedule_respawn b
    end
  | Backend.Starting ->
    if probe ~scratch t b then begin
      Atomic.set b.Backend.state Backend.Healthy;
      b.Backend.healthy_since <- now;
      b.Backend.consec_failures <- 0;
      Log.info (fun m ->
          m "backend %d healthy (127.0.0.1:%d)" b.Backend.index
            (Atomic.get b.Backend.port))
    end
    else if now -. b.Backend.started_at > t.config.start_budget then begin
      Log.err (fun m ->
          m "backend %d failed to become healthy within %gs; killing"
            b.Backend.index t.config.start_budget);
      kill_backend b Sys.sigkill
      (* the reap path transitions to Dead and schedules the respawn *)
    end
  | Backend.Healthy ->
    if probe ~scratch t b then begin
      b.Backend.consec_failures <- 0;
      if
        b.Backend.respawn_attempt > 0
        && now -. b.Backend.healthy_since >= flap_window
      then b.Backend.respawn_attempt <- 0
    end
    else begin
      b.Backend.consec_failures <- b.Backend.consec_failures + 1;
      if b.Backend.consec_failures >= t.config.fail_threshold then begin
        ignore (Backend.trip b);
        b.Backend.consec_failures <- 0;
        Log.warn (fun m ->
            m "backend %d failed %d probes; suspect" b.Backend.index
              t.config.fail_threshold)
      end
    end
  | Backend.Suspect ->
    if probe ~scratch t b then begin
      Atomic.set b.Backend.state Backend.Healthy;
      b.Backend.healthy_since <- now;
      b.Backend.consec_failures <- 0;
      Log.info (fun m -> m "backend %d recovered" b.Backend.index)
    end
    else begin
      b.Backend.consec_failures <- b.Backend.consec_failures + 1;
      if b.Backend.consec_failures >= t.config.fail_threshold then begin
        Log.err (fun m ->
            m "backend %d unresponsive while suspect; killing for respawn"
              b.Backend.index);
        kill_backend b Sys.sigkill
      end
    end

(* Rolling drain: TERM each shard in turn, give it [drain_budget] to
   exit, then KILL. Runs after the router's own workers have finished,
   so no in-flight proxied request is cut. *)
let drain_backends t =
  Array.iter
    (fun b ->
      Atomic.set b.Backend.state Backend.Dead;
      let pid = Atomic.get b.Backend.pid in
      if pid > 0 then begin
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        let deadline = Unix.gettimeofday () +. drain_budget in
        let rec waitloop killed =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
            if (not killed) && Unix.gettimeofday () > deadline then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              waitloop true
            end
            else begin
              (try Unix.sleepf 0.02
               with Unix.Unix_error (Unix.EINTR, _, _) -> ());
              waitloop killed
            end
          | _, _ -> ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitloop killed
        in
        waitloop false;
        Atomic.set b.Backend.pid 0
      end)
    t.backends;
  Log.info (fun m -> m "backend fleet drained")

(* The supervisor's domain owns the probes' read buffer. *)
let supervisor t () =
  let scratch = Pn_util.Scratch.create () in
  let rec loop () =
    if Atomic.get t.stop_backends then ()
    else begin
      (* SIGCHLD interrupts the sleep below, so an exited shard is
         reaped now rather than at the next tick. *)
      if Atomic.exchange t.chld false then reap t;
      reap t;
      let now = Unix.gettimeofday () in
      Array.iter (fun b -> try step t ~scratch b now with _ -> ()) t.backends;
      (try Unix.sleepf t.config.probe_interval
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  (try loop ()
   with e ->
     Log.err (fun m -> m "supervisor died: %s" (Printexc.to_string e)));
  drain_backends t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let start ?(config = default_config) () =
  let listener =
    Listener.create ~who:"Router"
      {
        Listener.host = config.host;
        port = config.port;
        domains = config.domains;
        idle_timeout = config.idle_timeout;
        backlog;
        queue_limit = config.queue_limit;
      }
  in
  if config.backends < 1 || config.backends > 64 then
    invalid_arg "Router.start: backends must be in 1..64";
  if config.max_body <= 0 then invalid_arg "Router.start: max_body";
  if config.probe_interval <= 0.0 then
    invalid_arg "Router.start: probe_interval";
  if config.fail_threshold < 1 then invalid_arg "Router.start: fail_threshold";
  if config.start_budget <= 0.0 then invalid_arg "Router.start: start_budget";
  if Array.length (config.backend_argv ~index:0 ~port:0) = 0 then
    invalid_arg "Router.start: backend_argv";
  let t =
    {
      config;
      listener;
      backends = Array.init config.backends Backend.make;
      stop_backends = Atomic.make false;
      chld = Atomic.make false;
      rr = Atomic.make 0;
      rtel = make_rtel ();
      admin = Mutex.create ();
      supervisor = None;
    }
  in
  (* Drain order matters: the listener finishes queued and in-flight
     client requests (which may still be proxying) before [after_drain]
     lets the supervisor take the backend fleet down. *)
  Listener.start listener ~route:(route t) ~tick:ignore
    ~after_drain:(fun () -> Atomic.set t.stop_backends true);
  t.supervisor <- Some (Domain.spawn (supervisor t));
  Log.info (fun m ->
      m "router listening on %s:%d (%d worker domain(s), %d backend(s))"
        config.host (port t) config.domains config.backends);
  t

let join t =
  Listener.join t.listener;
  match t.supervisor with
  | None -> ()
  | Some d ->
    t.supervisor <- None;
    Domain.join d

let stop t =
  request_stop t;
  join t

let install_signals t =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_stop t));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> request_stop t));
  Sys.set_signal Sys.sigchld (Sys.Signal_handle (fun _ -> note_chld t))
