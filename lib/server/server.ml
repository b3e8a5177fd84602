let log = Logs.Src.create "pn_server.lifecycle" ~doc:"daemon lifecycle"

module Log = (val Logs.src_log log)

type config = {
  host : string;
  port : int;
  domains : int;
  policy : Pn_data.Ingest_report.policy;
  chunk_size : int;
  max_body : int;
  max_rows : int;
  idle_timeout : float;
  deadline : float;
  backlog : int;
  queue_limit : int;
  adapt : Pn_adapt.Retrainer.config option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    domains = 1;
    policy = Pn_data.Ingest_report.Strict;
    chunk_size = 8192;
    max_body = 64 * 1024 * 1024;
    max_rows = 1_000_000;
    idle_timeout = 5.0;
    deadline = 0.0;
    backlog = 128;
    queue_limit = 256;
    adapt = None;
  }

type t = {
  listener : Listener.t;
  handler : Handler.t;
  reload_req : bool Atomic.t;
}

let port t = Listener.port t.listener

let generation t = (Handler.state t.handler).Handler.generation

let reload t = Handler.reload t.handler

let request_reload t = Atomic.set t.reload_req true

let request_stop t = Listener.request_stop t.listener

let start ?(config = default_config) ~source () =
  let listener =
    Listener.create ~who:"Server"
      {
        Listener.host = config.host;
        port = config.port;
        domains = config.domains;
        idle_timeout = config.idle_timeout;
        backlog = config.backlog;
        queue_limit = config.queue_limit;
      }
  in
  if config.chunk_size <= 0 then invalid_arg "Server.start: chunk_size";
  if config.max_body <= 0 then invalid_arg "Server.start: max_body";
  if config.max_rows <= 0 then invalid_arg "Server.start: max_rows";
  if config.deadline < 0.0 then invalid_arg "Server.start: deadline";
  (match (config.adapt, source) with
  | Some _, Handler.Loader _ ->
    invalid_arg "Server.start: adapt requires a Registry source"
  | _ -> ());
  let handler =
    Handler.create ~source ~policy:config.policy
      ~chunk_size:config.chunk_size ~max_body:config.max_body
      ~max_rows:config.max_rows ~deadline:config.deadline ~listener
  in
  (* Built before the socket so a malformed adapt config raises without
     leaking the listener fd. *)
  let retrainer =
    match (config.adapt, source) with
    | None, _ | _, Handler.Loader _ -> None
    | Some acfg, Handler.Registry reg ->
      let r =
        Pn_adapt.Retrainer.create ~config:acfg ~slots:config.domains
          ~registry:reg
          ~model:(fun () -> (Handler.state handler).Handler.model)
          ~rollout:(fun ~gen ->
            match Handler.rollout handler ~back:false ~gen:(Some gen) with
            | Ok _ -> Ok ()
            | Error `Busy -> Error "admin lock busy"
            | Error `No_registry -> Error "no registry"
            | Error (`No_candidate msg) -> Error msg
            | Error (`Failed (_, msg)) -> Error msg)
          ()
      in
      Handler.set_adapt handler r;
      Some r
  in
  let t = { listener; handler; reload_req = Atomic.make false } in
  Listener.start listener ~route:(Handler.route handler)
    ~tick:(fun () ->
      if Atomic.exchange t.reload_req false then ignore (Handler.reload handler))
    ~after_drain:(fun () -> Option.iter Pn_adapt.Retrainer.stop retrainer);
  (* Started once the bind has succeeded. A stop can only be requested
     through the [t] returned below, so the drain's [Retrainer.stop]
     never races this start. *)
  Option.iter Pn_adapt.Retrainer.start retrainer;
  Log.info (fun m ->
      m "listening on %s:%d (%d worker domain(s), model generation %d)"
        config.host (port t) config.domains
        (Handler.state handler).Handler.generation);
  t

let join t = Listener.join t.listener

let stop t =
  request_stop t;
  join t

let install_signals t =
  Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> request_reload t));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_stop t));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> request_stop t))
