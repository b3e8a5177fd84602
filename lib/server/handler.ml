let log = Logs.Src.create "pn_server" ~doc:"PNrule prediction daemon"

module Log = (val Logs.src_log log)

type state = {
  model : Pnrule.Saved.t;
  generation : int;
  loaded_at : float;
  expectations : Pnrule.Saved.expectations option;
      (* the model file's v4 drift baseline; None idles the monitor *)
}

(* Where models come from: a plain loader (SIGHUP re-runs it, generation
   is a local counter) or a versioned registry directory (generations
   are on-disk facts; /admin/rollout flips between them). *)
type source =
  | Loader of (unit -> Pnrule.Saved.t)
  | Registry of Pnrule.Registry.t

(* A request that outlives its per-request deadline. Checked on every
   body refill and every response write, so even a client trickling one
   byte per timeout window cannot pin a worker past the deadline. *)
exception Deadline

type t = {
  state : state Atomic.t;
  source : source;
  policy : Pn_data.Ingest_report.policy;
  chunk_size : int;
  max_body : int;
  max_rows : int;
  deadline : float;
  listener : Listener.t;  (* draining flag, queue and accept counters *)
  reloads : int Atomic.t;
  reload_failures : int Atomic.t;
  (* Staged rollout: [admin] serializes flips, [warming] is the brief
     window in which a candidate generation is being canary-scored. *)
  admin : Mutex.t;
  warming : bool Atomic.t;
  rollouts : int Atomic.t;
  rollbacks : int Atomic.t;
  rollout_failures : int Atomic.t;
  shed_draining : int Atomic.t;
  shed_warming : int Atomic.t;
  (* Online adaptation, attached after construction by the server when
     --adapt is set; None = no monitor, no feedback reservoir. *)
  adapt : Pn_adapt.Retrainer.t option Atomic.t;
}

let initial_state source =
  let loaded_at = Unix.gettimeofday () in
  match source with
  | Loader load ->
    { model = load (); generation = 1; loaded_at; expectations = None }
  | Registry reg ->
    let generation, model, expectations = Pnrule.Registry.load_initial reg in
    { model; generation; loaded_at; expectations }

let create ~source ~policy ~chunk_size ~max_body ~max_rows ~deadline ~listener =
  {
    state = Atomic.make (initial_state source);
    source;
    policy;
    chunk_size;
    max_body;
    max_rows;
    deadline;
    listener;
    reloads = Atomic.make 0;
    reload_failures = Atomic.make 0;
    admin = Mutex.create ();
    warming = Atomic.make false;
    rollouts = Atomic.make 0;
    rollbacks = Atomic.make 0;
    rollout_failures = Atomic.make 0;
    shed_draining = Atomic.make 0;
    shed_warming = Atomic.make 0;
    adapt = Atomic.make None;
  }

let state t = Atomic.get t.state

let adapt t = Atomic.get t.adapt

(* Every model swap — boot, reload, rollout, adaptation — re-arms the
   drift monitor against the new generation's own baseline (or idles it
   when the file carries none), so counts from different rule index
   spaces never mix. *)
let sync_drift t st =
  match Atomic.get t.adapt with
  | None -> ()
  | Some r ->
    Pn_adapt.Drift.set_model (Pn_adapt.Retrainer.drift r)
      ~n_rules:(Pnrule.Saved.n_monitored st.model)
      ~target:(Pnrule.Saved.target st.model)
      st.expectations

let set_adapt t r =
  Atomic.set t.adapt (Some r);
  sync_drift t (Atomic.get t.state)

let note_shed t = function
  | `Draining -> ignore (Atomic.fetch_and_add t.shed_draining 1)
  | `Warming -> ignore (Atomic.fetch_and_add t.shed_warming 1)

(* SIGHUP semantics by source: a [Loader] re-runs the load function and
   bumps the generation; a [Registry] re-resolves the CURRENT pointer
   (falling back to the highest loadable generation), so an operator can
   repoint CURRENT by hand and SIGHUP into it — but a plain SIGHUP never
   advances past what the pointer names. Staged rollout stays an
   explicit /admin action. *)
let reload t =
  match
    match t.source with
    | Loader load -> (load (), (Atomic.get t.state).generation + 1, None)
    | Registry reg ->
      let g, m, exp = Pnrule.Registry.load_initial reg in
      (m, g, exp)
  with
  | model, generation, expectations ->
    let st =
      { model; generation; loaded_at = Unix.gettimeofday (); expectations }
    in
    Atomic.set t.state st;
    sync_drift t st;
    ignore (Atomic.fetch_and_add t.reloads 1);
    Log.info (fun m -> m "model reloaded (generation %d)" generation);
    Ok ()
  | exception e ->
    ignore (Atomic.fetch_and_add t.reload_failures 1);
    let msg = Printexc.to_string e in
    Log.warn (fun m -> m "model reload failed, keeping old model: %s" msg);
    Error msg

(* One staged flip: resolve the target generation, load it, warm it
   (compile + canary-score), persist the CURRENT pointer, and only then
   swap the serving snapshot. Any failure before the swap leaves the old
   generation serving untouched. [gen] overrides the default target (the
   next generation up for rollout, the previous one down for rollback);
   a concurrent flip is refused rather than queued, so the client
   retries against fresh state. *)
let rollout t ~back ~gen =
  match t.source with
  | Loader _ -> Error `No_registry
  | Registry reg ->
    if not (Mutex.try_lock t.admin) then Error `Busy
    else
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.admin)
        (fun () ->
          let cur = (Atomic.get t.state).generation in
          let target =
            match gen with
            | Some g ->
              if List.mem g (Pnrule.Registry.generations reg) then Ok g
              else
                Error
                  (`No_candidate
                     (Printf.sprintf "generation %d is not in the registry" g))
            | None -> (
              match
                if back then Pnrule.Registry.prev_below reg cur
                else Pnrule.Registry.next_above reg cur
              with
              | Some g -> Ok g
              | None ->
                Error
                  (`No_candidate
                     (if back then
                        Printf.sprintf "no generation below %d to roll back to"
                          cur
                      else
                        Printf.sprintf "no generation above %d to roll out" cur)))
          in
          match target with
          | Error _ as e -> e
          | Ok g ->
            Atomic.set t.warming true;
            Fun.protect
              ~finally:(fun () -> Atomic.set t.warming false)
              (fun () ->
                match
                  let model, exp = Pnrule.Registry.load_gen reg g in
                  Pnrule.Registry.warm model;
                  Pnrule.Registry.set_current reg g;
                  (model, exp)
                with
                | model, expectations ->
                  let st =
                    {
                      model;
                      generation = g;
                      loaded_at = Unix.gettimeofday ();
                      expectations;
                    }
                  in
                  Atomic.set t.state st;
                  sync_drift t st;
                  ignore
                    (Atomic.fetch_and_add
                       (if back then t.rollbacks else t.rollouts)
                       1);
                  Log.info (fun m ->
                      m "%s: generation %d -> %d"
                        (if back then "rollback" else "rollout")
                        cur g);
                  Ok g
                | exception e ->
                  ignore (Atomic.fetch_and_add t.rollout_failures 1);
                  let msg = Printexc.to_string e in
                  Log.warn (fun m ->
                      m "%s to generation %d failed, keeping generation %d: %s"
                        (if back then "rollback" else "rollout")
                        g cur msg);
                  Error (`Failed (cur, msg))))

(* ------------------------------------------------------------------ *)
(* Endpoints                                                            *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Hand-rolled on purpose: the repo carries no JSON dependency. *)
let model_json t =
  let st = Atomic.get t.state in
  let m = st.model in
  let classes = Pnrule.Saved.classes m in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"kind\": \"%s\",\n" (Pnrule.Saved.kind m);
  Printf.bprintf buf " \"target\": \"%s\",\n"
    (json_escape classes.(Pnrule.Saved.target m));
  Printf.bprintf buf " \"classes\": [%s],\n"
    (String.concat ", "
       (Array.to_list
          (Array.map (fun c -> Printf.sprintf "\"%s\"" (json_escape c)) classes)));
  (match m with
  | Pnrule.Saved.Single m ->
    let np, nn = Pnrule.Model.rule_counts m in
    Printf.bprintf buf " \"p_rules\": %d,\n \"n_rules\": %d,\n" np nn;
    Printf.bprintf buf " \"use_scoring\": %b,\n \"score_threshold\": %g,\n"
      m.Pnrule.Model.params.Pnrule.Params.use_scoring
      m.Pnrule.Model.params.Pnrule.Params.score_threshold
  | Pnrule.Saved.Boosted e ->
    Printf.bprintf buf " \"members\": %d,\n" (Pnrule.Ensemble.n_members e);
    Printf.bprintf buf " \"bias\": %g,\n \"threshold\": %g,\n"
      e.Pnrule.Ensemble.bias e.Pnrule.Ensemble.threshold);
  Printf.bprintf buf " \"source\": \"%s\",\n"
    (match t.source with Loader _ -> "file" | Registry _ -> "registry");
  Printf.bprintf buf " \"generation\": %d,\n \"loaded_at\": %.3f,\n" st.generation
    st.loaded_at;
  Printf.bprintf buf " \"uptime\": %.3f,\n"
    (Float.max 0.0 (Unix.gettimeofday () -. st.loaded_at));
  Printf.bprintf buf " \"attributes\": [";
  Array.iteri
    (fun i (a : Pn_data.Attribute.t) ->
      if i > 0 then Buffer.add_string buf ",";
      match a.kind with
      | Pn_data.Attribute.Numeric ->
        Printf.bprintf buf "\n  {\"name\": \"%s\", \"kind\": \"numeric\"}"
          (json_escape a.name)
      | Pn_data.Attribute.Categorical values ->
        Printf.bprintf buf
          "\n  {\"name\": \"%s\", \"kind\": \"categorical\", \"arity\": %d}"
          (json_escape a.name) (Array.length values))
    (Pnrule.Saved.attrs m);
  Buffer.add_string buf "\n ]}\n";
  Buffer.contents buf

let metrics_text t =
  Telemetry.render (Listener.telemetry t.listener) ~prefix:"pnrule_" ~rows:true
    ~extra:(fun buf ->
      let st = Atomic.get t.state in
      (* Generation semantics differ by source: a registry daemon
         serves the on-disk generation number (rollbacks move it DOWN),
         a file daemon counts loads up from 1. The help text must not
         promise the file behaviour for both. *)
      Printf.bprintf buf
        "# HELP pnrule_model_generation Serving model generation (file \
         source: 1 = initial load, +1 per reload; registry source: the \
         on-disk generation number, moved by rollout/rollback).\n\
         # TYPE pnrule_model_generation gauge\n\
         pnrule_model_generation %d\n"
        st.generation;
      Printf.bprintf buf
        "# HELP pnrule_model_loaded_at_seconds Unix time the serving model \
         was loaded.\n\
         # TYPE pnrule_model_loaded_at_seconds gauge\n\
         pnrule_model_loaded_at_seconds %.3f\n"
        st.loaded_at;
      Printf.bprintf buf
        "# HELP pnrule_model_reloads_total Successful hot reloads.\n\
         # TYPE pnrule_model_reloads_total counter\n\
         pnrule_model_reloads_total %d\n"
        (Atomic.get t.reloads);
      Printf.bprintf buf
        "# HELP pnrule_model_reload_failures_total Reload attempts that kept \
         the old model.\n\
         # TYPE pnrule_model_reload_failures_total counter\n\
         pnrule_model_reload_failures_total %d\n"
        (Atomic.get t.reload_failures);
      Printf.bprintf buf
        "# HELP pnrule_model_rollouts_total Staged rollouts completed via \
         POST /admin/rollout.\n\
         # TYPE pnrule_model_rollouts_total counter\n\
         pnrule_model_rollouts_total %d\n"
        (Atomic.get t.rollouts);
      Printf.bprintf buf
        "# HELP pnrule_model_rollbacks_total Rollbacks completed via \
         POST /admin/rollback.\n\
         # TYPE pnrule_model_rollbacks_total counter\n\
         pnrule_model_rollbacks_total %d\n"
        (Atomic.get t.rollbacks);
      Printf.bprintf buf
        "# HELP pnrule_model_rollout_failures_total Rollout/rollback attempts \
         that kept the serving generation.\n\
         # TYPE pnrule_model_rollout_failures_total counter\n\
         pnrule_model_rollout_failures_total %d\n"
        (Atomic.get t.rollout_failures);
      Printf.bprintf buf
        "# HELP pnrule_warming Whether a candidate generation is being \
         canary-scored right now.\n\
         # TYPE pnrule_warming gauge\n\
         pnrule_warming %d\n"
        (if Atomic.get t.warming then 1 else 0);
      Printf.bprintf buf
        "# HELP pnrule_shed_total Requests refused by load shedding, by \
         reason.\n\
         # TYPE pnrule_shed_total counter\n\
         pnrule_shed_total{reason=\"overload\"} %d\n\
         pnrule_shed_total{reason=\"draining\"} %d\n\
         pnrule_shed_total{reason=\"warming\"} %d\n"
        (Listener.overload_shed t.listener)
        (Atomic.get t.shed_draining)
        (Atomic.get t.shed_warming);
      Printf.bprintf buf
        "# HELP pnrule_queue_depth Connections accepted but not yet picked up \
         by a worker.\n\
         # TYPE pnrule_queue_depth gauge\n\
         pnrule_queue_depth %d\n"
        (Listener.queued t.listener);
      Printf.bprintf buf
        "# HELP pnrule_queue_limit Admission limit on in-flight plus queued \
         work.\n\
         # TYPE pnrule_queue_limit gauge\n\
         pnrule_queue_limit %d\n"
        (Listener.queue_limit t.listener);
      Printf.bprintf buf
        "# HELP pnrule_connections_total Connections accepted.\n\
         # TYPE pnrule_connections_total counter\n\
         pnrule_connections_total %d\n"
        (Listener.connections t.listener);
      Printf.bprintf buf
        "# HELP pnrule_worker_restarts_total Worker domains respawned after \
         dying on an escaped exception.\n\
         # TYPE pnrule_worker_restarts_total counter\n\
         pnrule_worker_restarts_total %d\n"
        (Listener.worker_restarts t.listener);
      match Atomic.get t.adapt with
      | None -> ()
      | Some r ->
        let dr = Pn_adapt.Retrainer.drift r in
        let snap = Pn_adapt.Drift.snapshot dr in
        Printf.bprintf buf
          "# HELP pnrule_drift_score Current Page-Hinkley drift score, by \
           monitored rule.\n\
           # TYPE pnrule_drift_score gauge\n";
        Array.iteri
          (fun k (rs : Pn_adapt.Drift.rule_stat) ->
            Printf.bprintf buf "pnrule_drift_score{rule=\"%d\"} %g\n" k
              rs.Pn_adapt.Drift.score)
          snap.Pn_adapt.Drift.rules;
        Printf.bprintf buf
          "# HELP pnrule_drift_detected_total Concept-drift detections.\n\
           # TYPE pnrule_drift_detected_total counter\n\
           pnrule_drift_detected_total %d\n"
          (Pn_adapt.Drift.detections_total dr);
        let s = Pn_adapt.Retrainer.stats r in
        Printf.bprintf buf
          "# HELP pnrule_retrains_total Background retrain attempts, by \
           outcome.\n\
           # TYPE pnrule_retrains_total counter\n\
           pnrule_retrains_total{outcome=\"ok\"} %d\n\
           pnrule_retrains_total{outcome=\"no_data\"} %d\n\
           pnrule_retrains_total{outcome=\"train_error\"} %d\n\
           pnrule_retrains_total{outcome=\"publish_error\"} %d\n\
           pnrule_retrains_total{outcome=\"rollout_error\"} %d\n"
          s.Pn_adapt.Retrainer.ok s.Pn_adapt.Retrainer.no_data
          s.Pn_adapt.Retrainer.train_error s.Pn_adapt.Retrainer.publish_error
          s.Pn_adapt.Retrainer.rollout_error;
        Printf.bprintf buf
          "# HELP pnrule_retrain_duration_seconds Wall-clock duration of the \
           last retrain attempt.\n\
           # TYPE pnrule_retrain_duration_seconds gauge\n\
           pnrule_retrain_duration_seconds %.6f\n"
          s.Pn_adapt.Retrainer.last_duration;
        Printf.bprintf buf
          "# HELP pnrule_feedback_reservoir_rows Labeled rows currently held \
           for background retraining.\n\
           # TYPE pnrule_feedback_reservoir_rows gauge\n\
           pnrule_feedback_reservoir_rows %d\n"
          s.Pn_adapt.Retrainer.reservoir_rows)

(* The body stream's refill buffer: the worker's own 64 KiB, reused by
   every request it serves. *)
let k_body = Pn_util.Scratch.key ()

(* The query options /predict and /feedback share, read before any body
   byte: the [on-error] policy; the body's format, a binary columnar
   body (by Content-Type) taking the [.pnc] fast path and anything else,
   including no Content-Type, the historical CSV one; and
   [class-column], which only a CSV body can use. *)
let body_options t (req : Http.request) =
  let q name = List.assoc_opt name req.query in
  let policy =
    match q "on-error" with
    | None -> Ok t.policy
    | Some v -> (
      match Pn_data.Ingest_report.policy_of_string v with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "unknown on-error policy %S" v))
  in
  let columnar =
    match Http.header req "content-type" with
    | None -> false
    | Some v ->
      let v =
        match String.index_opt v ';' with
        | Some i -> String.sub v 0 i
        | None -> v
      in
      String.lowercase_ascii (String.trim v) = "application/x-pnrule-columnar"
  in
  let class_column =
    match q "class-column" with
    | Some _ when columnar ->
      Error "class-column does not apply to columnar input (labels are in the file)"
    | c -> Ok c
  in
  (policy, columnar, class_column)

let respond_error conn status msg =
  Http.respond conn ~status ~body:(msg ^ "\n") ();
  (status, `Close)

(* The body framing both endpoints share: a chunked body or none of
   Content-Length is 411, one over [max_body] 413. Otherwise answer
   [Expect: 100-continue] and run [k] on the body with the deadline
   guard, which is checked on every body refill and every response
   write, the two points where a slow peer can stall the request
   indefinitely. A deadline of 0 disables it. *)
let with_body t conn (req : Http.request) ~scratch k =
  if req.Http.chunked_body then
    respond_error conn 411 "chunked request bodies are not supported; send Content-Length"
  else
    match req.Http.content_length with
    | None -> respond_error conn 411 "Content-Length required"
    | Some len when len > t.max_body ->
      respond_error conn 413
        (Printf.sprintf "body of %d bytes exceeds the %d byte limit" len t.max_body)
    | Some _ ->
      (match Http.header req "expect" with
      | Some v when String.lowercase_ascii v = "100-continue" -> Http.continue_100 conn
      | Some _ | None -> ());
      let deadline_at =
        if t.deadline > 0.0 then Unix.gettimeofday () +. t.deadline else Float.infinity
      in
      let guard () = if Unix.gettimeofday () > deadline_at then raise Deadline in
      let reader = Http.body_reader conn in
      k ~guard
        (Pn_data.Stream.of_refill ~buf:(Pn_util.Scratch.bytes scratch k_body 65536)
           (fun buf ->
             guard ();
             reader buf))

(* A body through the serving core's [.pnc] or CSV decoder. Serving
   pools: each worker domain is already one lane of parallelism, and
   Pool.map_array does not support concurrent submitters — so every
   request scores sequentially in its worker domain. *)
let serve_body t ~columnar ~policy ~class_column ~scores ~scratch ~observe ~model ~source
    ~write =
  let pool = Pn_util.Pool.sequential and max_rows = t.max_rows in
  if columnar then
    Pnrule.Serve.predict_columnar_stream ~policy ~scores ~max_rows ~pool ~scratch ?observe
      ~model ~source ~write ()
  else
    Pnrule.Serve.predict_stream ~policy ~chunk_size:t.chunk_size ?class_column ~scores
      ~max_rows ~pool ~scratch ?observe ~model ~source ~write ()

let predict t conn (req : Http.request) ~index ~scratch ~keep =
  let policy, columnar, class_column = body_options t req in
  let scores =
    match List.assoc_opt "scores" req.query with
    | None | Some "0" | Some "false" -> Ok false
    | Some "1" | Some "true" -> Ok true
    | Some v -> Error (Printf.sprintf "bad scores flag %S" v)
  in
  match (policy, class_column, scores) with
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg -> respond_error conn 400 msg
  | Ok policy, Ok class_column, Ok scores ->
    with_body t conn req ~scratch (fun ~guard source ->
        let st = Atomic.get t.state in
        let resp = Http.start_stream conn ~status:200 ~keep_alive:keep in
        let write s =
          guard ();
          Http.stream_write resp s
        in
        (* Predict traffic feeds the drift monitor's firing-rate side;
           labels (when a class column rides along) feed its
           false-positive side too. Only /feedback fills the retraining
           reservoir. *)
        let observe =
          match Atomic.get t.adapt with
          | None -> None
          | Some r ->
            let dr = Pn_adapt.Retrainer.drift r in
            Some
              (fun ~n ~columns:_ ~batch ~actuals ->
                Pn_adapt.Drift.observe dr ~slot:index ~n ~batch ~actuals)
        in
        (* Once the 200 head is on the wire, all a failure can do is
           truncate the chunked body so the client sees a failed
           transfer. *)
        let fail status msg =
          if Http.stream_started resp then (status, `Close) else respond_error conn status msg
        in
        match
          serve_body t ~columnar ~policy ~class_column ~scores ~scratch ~observe
            ~model:st.model ~source ~write
        with
        | report ->
          Http.stream_finish resp;
          let slot = Telemetry.slot (Listener.telemetry t.listener) index in
          let ingest = report.Pnrule.Serve.ingest in
          Telemetry.add_rows slot ~rows_in:ingest.Pn_data.Ingest_report.rows_read
            ~rows_out:report.Pnrule.Serve.rows_out;
          Telemetry.add_retries slot ingest.Pn_data.Ingest_report.io_retries;
          (200, `Keep)
        | exception Deadline ->
          fail 408 (Printf.sprintf "request exceeded the %gs deadline" t.deadline)
        | exception Pnrule.Serve.Error msg ->
          if Http.stream_started resp then
            Log.debug (fun m -> m "predict failed mid-stream: %s" msg);
          fail 400 msg
        | exception Pnrule.Serve.Limit msg -> fail 413 msg)

(* POST /feedback: the labeled-stream endpoint of online adaptation.
   The body rides the exact predict pipeline (same decoders, same
   policies, same scoring — so drift sees precisely what serving would
   have answered), but predictions are discarded instead of streamed
   back; labeled rows are copied out of the decoder's buffers into the
   retrainer's reservoir. A body that resolves no labels at all is a
   client error: feedback without labels cannot feed anything. *)
let feedback t conn (req : Http.request) ~index ~scratch ~keep =
  match Atomic.get t.adapt with
  | None ->
    Http.respond conn ~status:409
      ~body:"online adaptation is not enabled; start the daemon with --adapt\n"
      ();
    (409, `Close)
  | Some r -> (
    let policy, columnar, class_column = body_options t req in
    match (class_column, policy) with
    | Error msg, _ | _, Error msg -> respond_error conn 400 msg
    | Ok class_column, Ok policy ->
      with_body t conn req ~scratch (fun ~guard:_ source ->
          let st = Atomic.get t.state in
          let dr = Pn_adapt.Retrainer.drift r in
          let attrs = Pnrule.Saved.attrs st.model in
          let classes = Pnrule.Saved.classes st.model in
          let labeled_total = ref 0 in
          let observe ~n ~columns ~batch ~actuals =
            Pn_adapt.Drift.observe dr ~slot:index ~n ~batch ~actuals;
            let sel = ref [] in
            let cnt = ref 0 in
            for i = n - 1 downto 0 do
              if actuals.(i) >= 0 then begin
                sel := i :: !sel;
                incr cnt
              end
            done;
            if !cnt > 0 then begin
              labeled_total := !labeled_total + !cnt;
              let sel = Array.of_list !sel in
              (* Copy, never alias: [columns] may be decoder-owned
                 buffers that the next chunk overwrites. *)
              let sub =
                Array.map
                  (function
                    | Pn_data.Dataset.Num col ->
                      Pn_data.Dataset.Num (Array.map (Array.get col) sel)
                    | Pn_data.Dataset.Cat col ->
                      Pn_data.Dataset.Cat (Array.map (Array.get col) sel))
                  columns
              in
              let labels = Array.map (Array.get actuals) sel in
              Pn_adapt.Retrainer.add r
                (Pn_data.Dataset.create ~attrs ~columns:sub ~labels ~classes ())
            end
          in
          match
            serve_body t ~columnar ~policy ~class_column ~scores:false ~scratch
              ~observe:(Some observe) ~model:st.model ~source ~write:ignore
          with
          | report ->
            if !labeled_total = 0 then
              respond_error conn 400
                "no labeled rows in the feedback body; provide a class column (CSV) or \
                 a labeled .pnc file"
            else begin
              Http.respond conn ~status:200 ~keep_alive:keep
                ~content_type:"application/json; charset=utf-8"
                ~body:
                  (Printf.sprintf
                     "{\"status\": \"ok\", \"rows\": %d, \"labeled\": %d, \
                      \"reservoir_rows\": %d}\n"
                     report.Pnrule.Serve.rows_out !labeled_total
                     (Pn_adapt.Retrainer.reservoir_rows r))
                ();
              (200, `Keep)
            end
          | exception Deadline ->
            respond_error conn 408
              (Printf.sprintf "request exceeded the %gs deadline" t.deadline)
          | exception Pnrule.Serve.Error msg -> respond_error conn 400 msg
          | exception Pnrule.Serve.Limit msg -> respond_error conn 413 msg))

(* GET /admin/drift: one JSON snapshot of the whole adaptation loop —
   monitor state per rule plus the retrainer's outcome counters. *)
let drift_json r =
  let dr = Pn_adapt.Retrainer.drift r in
  let snap = Pn_adapt.Drift.snapshot dr in
  let s = Pn_adapt.Retrainer.stats r in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"monitoring\": %b,\n" snap.Pn_adapt.Drift.monitoring;
  Printf.bprintf buf " \"rows\": %d,\n \"labeled\": %d,\n \"windows\": %d,\n"
    snap.Pn_adapt.Drift.rows snap.Pn_adapt.Drift.labeled
    snap.Pn_adapt.Drift.windows;
  Printf.bprintf buf " \"detections\": %d,\n \"detections_total\": %d,\n"
    snap.Pn_adapt.Drift.detections
    (Pn_adapt.Drift.detections_total dr);
  (match snap.Pn_adapt.Drift.last with
  | None -> Buffer.add_string buf " \"last_detection\": null,\n"
  | Some d ->
    Printf.bprintf buf
      " \"last_detection\": {\"rule\": %d, \"score\": %g, \"window\": %d},\n"
      d.Pn_adapt.Drift.rule d.Pn_adapt.Drift.score d.Pn_adapt.Drift.window);
  Printf.bprintf buf
    " \"retrain\": {\"ok\": %d, \"no_data\": %d, \"train_error\": %d, \
     \"publish_error\": %d, \"rollout_error\": %d, \"pending\": %b, \
     \"attempt\": %d, \"reservoir_rows\": %d, \"last_duration\": %.6f, \
     \"last_error\": %s},\n"
    s.Pn_adapt.Retrainer.ok s.Pn_adapt.Retrainer.no_data
    s.Pn_adapt.Retrainer.train_error s.Pn_adapt.Retrainer.publish_error
    s.Pn_adapt.Retrainer.rollout_error s.Pn_adapt.Retrainer.pending
    s.Pn_adapt.Retrainer.attempt s.Pn_adapt.Retrainer.reservoir_rows
    s.Pn_adapt.Retrainer.last_duration
    (match s.Pn_adapt.Retrainer.last_error with
    | None -> "null"
    | Some e -> Printf.sprintf "\"%s\"" (json_escape e));
  Printf.bprintf buf " \"rules\": [";
  Array.iteri
    (fun k (rs : Pn_adapt.Drift.rule_stat) ->
      if k > 0 then Buffer.add_string buf ",";
      Printf.bprintf buf
        "\n  {\"rule\": %d, \"expected_rate\": %g, \"observed_rate\": %g, \
         \"expected_precision\": %g, \"observed_fp_rate\": %g, \"score\": %g}"
        k rs.Pn_adapt.Drift.expected_rate rs.Pn_adapt.Drift.observed_rate
        rs.Pn_adapt.Drift.expected_precision rs.Pn_adapt.Drift.observed_fp_rate
        rs.Pn_adapt.Drift.score)
    snap.Pn_adapt.Drift.rules;
  Buffer.add_string buf "\n ]}\n";
  Buffer.contents buf

let admin t conn (req : Http.request) ~back ~keep =
  let action = if back then "rollback" else "rollout" in
  match List.assoc_opt "gen" req.Http.query with
  | Some v when int_of_string_opt v = None ->
    Http.respond conn ~status:400
      ~body:(Printf.sprintf "bad gen %S: expected a generation number\n" v)
      ();
    (400, `Close)
  | gen_raw -> (
    match rollout t ~back ~gen:(Option.map int_of_string gen_raw) with
    | Ok g ->
      Http.respond conn ~status:200 ~keep_alive:keep
        ~content_type:"application/json; charset=utf-8"
        ~body:
          (Printf.sprintf
             "{\"status\": \"ok\", \"action\": \"%s\", \"generation\": %d}\n"
             action g)
        ();
      (200, `Keep)
    | Error `No_registry ->
      Http.respond conn ~status:409
        ~body:"no model registry configured; start the daemon with --registry DIR\n"
        ();
      (409, `Close)
    | Error `Busy ->
      note_shed t `Warming;
      Http.respond conn ~status:503
        ~headers:[ ("retry-after", "1") ]
        ~body:"another rollout is in progress; retry shortly\n" ();
      (503, `Close)
    | Error (`No_candidate msg) ->
      Http.respond conn ~status:409 ~body:(msg ^ "\n") ();
      (409, `Close)
    | Error (`Failed (cur, msg)) ->
      Http.respond conn ~status:500
        ~body:
          (Printf.sprintf "%s failed, still serving generation %d: %s\n" action
             cur msg)
        ();
      (500, `Close))

let route t ~index ~scratch ~keep conn (req : Http.request) =
  let with_ep ep (status, outcome) = (ep, status, outcome) in
  match (req.Http.meth, req.Http.path) with
  | "POST", "/predict" ->
    if Listener.draining t.listener then begin
      (* New work is refused during the drain with an explicit retry
         hint; requests already admitted keep running to completion. *)
      note_shed t `Draining;
      Http.respond conn ~status:503
        ~headers:[ ("retry-after", "1") ]
        ~body:"draining; retry against another instance\n" ();
      (Telemetry.Predict, 503, `Close)
    end
    else with_ep Telemetry.Predict (predict t conn req ~index ~scratch ~keep)
  | "POST", "/feedback" ->
    if Listener.draining t.listener then begin
      note_shed t `Draining;
      Http.respond conn ~status:503
        ~headers:[ ("retry-after", "1") ]
        ~body:"draining; retry against another instance\n" ();
      (Telemetry.Feedback, 503, `Close)
    end
    else with_ep Telemetry.Feedback (feedback t conn req ~index ~scratch ~keep)
  | "POST", "/admin/rollout" -> with_ep Telemetry.Admin (admin t conn req ~back:false ~keep)
  | "POST", "/admin/rollback" -> with_ep Telemetry.Admin (admin t conn req ~back:true ~keep)
  | "GET", "/admin/drift" -> (
    match Atomic.get t.adapt with
    | None ->
      Http.respond conn ~status:409
        ~body:
          "online adaptation is not enabled; start the daemon with --adapt\n"
        ();
      (Telemetry.Admin, 409, `Close)
    | Some r ->
      Http.respond conn ~status:200 ~keep_alive:keep
        ~content_type:"application/json; charset=utf-8" ~body:(drift_json r) ();
      (Telemetry.Admin, 200, `Keep))
  | "GET", "/healthz" ->
    if Listener.draining t.listener then begin
      Http.respond conn ~status:503
        ~headers:[ ("retry-after", "1") ]
        ~body:"draining\n" ();
      (Telemetry.Healthz, 503, `Close)
    end
    else begin
      Http.respond conn ~status:200 ~keep_alive:keep ~body:"ok\n" ();
      (Telemetry.Healthz, 200, `Keep)
    end
  | "GET", "/model" ->
    Http.respond conn ~status:200 ~keep_alive:keep
      ~content_type:"application/json; charset=utf-8" ~body:(model_json t) ();
    (Telemetry.Model_info, 200, `Keep)
  | "GET", "/metrics" ->
    Http.respond conn ~status:200 ~keep_alive:keep
      ~content_type:"text/plain; version=0.0.4; charset=utf-8"
      ~body:(metrics_text t) ();
    (Telemetry.Metrics, 200, `Keep)
  (* Refusals count under the path's endpoint, as on the router. *)
  | _, (("/predict" | "/feedback" | "/admin/rollout" | "/admin/rollback") as path) ->
    Http.respond conn ~status:405 ~body:"use POST\n" ();
    (Telemetry.endpoint_of_path path, 405, `Close)
  | _, (("/admin/drift" | "/healthz" | "/model" | "/metrics") as path) ->
    Http.respond conn ~status:405 ~body:"use GET\n" ();
    (Telemetry.endpoint_of_path path, 405, `Close)
  | _, path ->
    Http.respond conn ~status:404 ~body:(Printf.sprintf "no route %s\n" path) ();
    (Telemetry.endpoint_of_path path, 404, `Close)
