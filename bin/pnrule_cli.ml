(* Command-line interface to the PNrule library.

   Subcommands:
     train     train a classifier on a CSV file and print the model
     eval      train on one CSV, evaluate on another, print metrics
     predict   score a CSV or .pnc columnar file with a saved model
     ingest    convert a CSV/ARFF dataset to the binary columnar format
     serve     run the online HTTP prediction daemon
     gen       write one of the paper's synthetic datasets to CSV
     inspect   print a dataset summary *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Validated argument converters                                        *)
(* ------------------------------------------------------------------ *)

(* Range-checked ints so an out-of-range value is a cmdliner usage
   error at parse time, not a runtime exception mid-pipeline. *)
let ranged_int ~what ~lo ~hi =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some v when v >= lo && v <= hi -> Ok v
        | Some v ->
          Error (Printf.sprintf "%s must be in %d..%d, got %d" what lo hi v)
        | None -> Error (Printf.sprintf "%s must be an integer, got %S" what s)),
      Format.pp_print_int )

(* Same, for seconds-valued knobs (timeouts, deadlines). *)
let ranged_float ~what ~lo ~hi =
  Arg.conv'
    ( (fun s ->
        match float_of_string_opt s with
        | Some v when v >= lo && v <= hi -> Ok v
        | Some v ->
          Error (Printf.sprintf "%s must be in %g..%g, got %g" what lo hi v)
        | None -> Error (Printf.sprintf "%s must be a number, got %S" what s)),
      fun ppf v -> Format.fprintf ppf "%g" v )

let chunk_conv = ranged_int ~what:"chunk size" ~lo:1 ~hi:16_777_216

let chunk_arg =
  Arg.(
    value & opt chunk_conv 8192
    & info [ "chunk" ] ~docv:"ROWS"
        ~doc:"Rows decoded and scored per batch; bounds resident memory.")

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)
(* ------------------------------------------------------------------ *)

let target_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "target" ] ~docv:"CLASS" ~doc:"Name of the target class.")

let class_column_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "class-column" ] ~docv:"NAME"
        ~doc:"CSV column holding the class label (default: last column).")

let policy_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("strict", Pn_data.Ingest_report.Strict);
             ("skip", Pn_data.Ingest_report.Skip);
             ("impute", Pn_data.Ingest_report.Impute) ])
        Pn_data.Ingest_report.Strict
    & info [ "on-error" ] ~docv:"POLICY"
        ~doc:
          "What to do with rows that fail to decode: $(b,strict) aborts \
           (default), $(b,skip) drops and counts them, $(b,impute) fills \
           missing values and values outside a closed dictionary with the \
           column median/majority and drops only the other bad rows. A \
           $(b,?) or empty cell is missing under every policy, in every \
           format, for training and for serving alike; a row without a \
           class label is never kept for training.")

(* Dispatch on file extension: .arff loads as ARFF, .pnc as binary
   columnar (no text parsing at all), anything else as CSV. Under
   skip/impute the ingest accounting goes to stderr. *)
let load_dataset ?class_column ?(policy = Pn_data.Ingest_report.Strict) path =
  let lower = String.lowercase_ascii path in
  try
    let ds, report =
      if Filename.check_suffix lower ".pnc" then begin
        if class_column <> None then begin
          Printf.eprintf
            "error: --class-column does not apply to columnar input (labels \
             are in the file)\n";
          exit 1
        end;
        Pn_data.Columnar.load_with_report ~policy path
      end
      else if Filename.check_suffix lower ".arff" then
        Pn_data.Arff_io.load_with_report ?class_attribute:class_column ~policy
          path
      else Pn_data.Csv_io.load_with_report ?class_column ~policy path
    in
    if policy <> Pn_data.Ingest_report.Strict then
      Format.eprintf "%s: %a@." path Pn_data.Ingest_report.pp report;
    ds
  with
  | Pn_data.Csv_io.Parse_error msg | Pn_data.Arff_io.Parse_error msg ->
    Printf.eprintf "error: cannot parse %s: %s\n" path msg;
    exit 1
  | Pn_data.Columnar.Corrupt msg ->
    Printf.eprintf "error: cannot read %s: %s\n" path msg;
    exit 1
  | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

let resolve_target ds name =
  match Pn_data.Dataset.class_index ds name with
  | i -> i
  | exception Not_found ->
    Printf.eprintf "error: class %S not found; classes are: %s\n" name
      (String.concat ", " (Array.to_list ds.Pn_data.Dataset.classes));
    exit 1

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print learner progress.")

(* ------------------------------------------------------------------ *)
(* Method construction                                                  *)
(* ------------------------------------------------------------------ *)

let method_arg =
  Arg.(
    value
    & opt (enum [ ("pnrule", `Pnrule); ("boosted", `Boosted); ("ripper", `Ripper); ("c45rules", `C45rules); ("c45tree", `C45tree) ]) `Pnrule
    & info [ "method" ] ~docv:"METHOD"
        ~doc:"Classifier: $(b,pnrule), $(b,boosted), $(b,ripper), $(b,c45rules) or $(b,c45tree).")

let stratified_arg =
  Arg.(
    value & flag
    & info [ "stratified" ]
        ~doc:"Train on the stratified (\"-we\") re-weighted training set.")

let rp_arg =
  Arg.(
    value & opt float 0.95
    & info [ "rp" ] ~docv:"FRAC" ~doc:"PNrule: minimum target coverage of the P-phase.")

let rn_arg =
  Arg.(
    value & opt float 0.7
    & info [ "rn" ] ~docv:"FRAC" ~doc:"PNrule: recall floor guiding N-rule refinement.")

let p1_arg =
  Arg.(value & flag & info [ "p1" ] ~doc:"PNrule: restrict P-rules to one condition.")

let metric_arg =
  Arg.(
    value
    & opt (enum [ ("z-number", Pn_metrics.Rule_metric.Z_number); ("info-gain", Pn_metrics.Rule_metric.Info_gain); ("gini", Pn_metrics.Rule_metric.Gini); ("chi-squared", Pn_metrics.Rule_metric.Chi_squared) ]) Pn_metrics.Rule_metric.Z_number
    & info [ "metric" ] ~docv:"METRIC" ~doc:"PNrule rule-evaluation metric.")

let pnrule_params rp rn p1 metric =
  {
    Pnrule.Params.default with
    min_coverage = rp;
    recall_floor = rn;
    max_p_rule_length = (if p1 then Some 1 else None);
    metric;
  }

let spec_of_method meth stratified params =
  match meth with
  | `Pnrule -> Pn_harness.Methods.pnrule ~params ()
  | `Boosted ->
    Pn_harness.Methods.boosted
      ~params:
        {
          Pnrule.Ensemble.default_params with
          metric = params.Pnrule.Params.metric;
        }
      ()
  | `Ripper -> Pn_harness.Methods.ripper ~stratified ()
  | `C45rules -> Pn_harness.Methods.c45rules ~stratified ()
  | `C45tree -> Pn_harness.Methods.c45tree ~stratified ()

(* ------------------------------------------------------------------ *)
(* Sampling arguments (train)                                           *)
(* ------------------------------------------------------------------ *)

let instance_sample_conv =
  Arg.conv'
    ( Pn_induct.Sampling.instances_of_string,
      fun ppf v ->
        Format.pp_print_string ppf (Pn_induct.Sampling.instances_to_string v) )

let feature_sample_conv =
  Arg.conv'
    ( Pn_induct.Sampling.features_of_string,
      fun ppf v ->
        Format.pp_print_string ppf (Pn_induct.Sampling.features_to_string v) )

let instance_sample_arg =
  Arg.(
    value
    & opt instance_sample_conv Pn_induct.Sampling.All_instances
    & info [ "instance-sample" ] ~docv:"STRATEGY"
        ~doc:
          "Instance sub-sampling: $(b,none) (default), a fraction in (0,1] \
           (without replacement), $(b,bag:)$(i,FRAC) (with replacement), or \
           $(b,strat:)$(i,FRAC)[$(b,:)$(i,MIN)] (per-class, never fewer than \
           $(i,MIN) records of any class — the rare class is never starved).")

let feature_sample_arg =
  Arg.(
    value
    & opt feature_sample_conv Pn_induct.Sampling.All_features
    & info [ "feature-sample" ] ~docv:"STRATEGY"
        ~doc:
          "Per-rule feature sub-sampling: $(b,none) (default), $(b,sqrt) \
           (⌈√n⌉ attributes), or a fraction in (0,1].")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the sampling streams; a given strategy at a given seed \
           draws the same records and columns at any $(b,PNRULE_DOMAINS).")

(* ------------------------------------------------------------------ *)
(* train                                                                *)
(* ------------------------------------------------------------------ *)

let train_cmd =
  let run verbose data class_column policy target meth rounds shrinkage
      instances features seed rp rn p1 metric out =
    setup_logs verbose;
    let ds = load_dataset ?class_column ~policy data in
    let target = resolve_target ds target in
    let sampling = { Pn_induct.Sampling.instances; features; seed } in
    match meth with
    | `Pnrule ->
      let params = pnrule_params rp rn p1 metric in
      let model, stats =
        Pnrule.Learner.train_with_stats ~params ~sampling ds ~target
      in
      Format.printf "%a@." Pnrule.Model.pp model;
      Format.printf "P-phase coverage: %.3f@." stats.Pnrule.Learner.p_coverage;
      Format.printf "training-set performance: %a@." Pn_metrics.Confusion.pp
        stats.Pnrule.Learner.train_confusion;
      (match out with
      | Some path ->
        let sm = Pnrule.Saved.Single model in
        let exp = Pn_adapt.Expectations.derive sm ds in
        Pnrule.Serialize.save ~expectations:exp sm path;
        Printf.printf "model written to %s (with drift expectations)\n" path
      | None -> ())
    | `Boosted -> (
      let params =
        { Pnrule.Ensemble.default_params with rounds; shrinkage; metric }
      in
      let ensemble = Pnrule.Ensemble.train ~params ~sampling ds ~target in
      Format.printf "%a@." Pnrule.Ensemble.pp ensemble;
      Format.printf "training-set performance: %a@." Pn_metrics.Confusion.pp
        (Pnrule.Ensemble.evaluate ensemble ds);
      match out with
      | Some path ->
        let sm = Pnrule.Saved.Boosted ensemble in
        let exp = Pn_adapt.Expectations.derive sm ds in
        Pnrule.Serialize.save ~expectations:exp sm path;
        Printf.printf "model written to %s (with drift expectations)\n" path
      | None -> ())
  in
  let data =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DATA.csv")
  in
  let meth =
    Arg.(
      value
      & opt (enum [ ("pnrule", `Pnrule); ("boosted", `Boosted) ]) `Pnrule
      & info [ "method" ] ~docv:"METHOD"
          ~doc:
            "Learner: $(b,pnrule) (the two-phase rule list, default) or \
             $(b,boosted) (a confidence-rated boosted rule ensemble).")
  in
  let rounds =
    Arg.(
      value
      & opt (ranged_int ~what:"rounds" ~lo:1 ~hi:10_000) 30
      & info [ "rounds" ] ~docv:"N" ~doc:"Boosted: boosting rounds.")
  in
  let shrinkage =
    Arg.(
      value
      & opt (ranged_float ~what:"shrinkage" ~lo:1e-6 ~hi:1.0) 0.5
      & info [ "shrinkage" ] ~docv:"FRAC"
          ~doc:"Boosted: confidence multiplier in (0,1].")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Save the trained model to this file.")
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:
         "Train a model on a CSV, ARFF or binary columnar ($(b,.pnc)) dataset \
          and print it.")
    Term.(
      const run $ verbose_arg $ data $ class_column_arg $ policy_arg
      $ target_arg $ meth $ rounds $ shrinkage $ instance_sample_arg
      $ feature_sample_arg $ seed_arg $ rp_arg $ rn_arg $ p1_arg $ metric_arg
      $ out)

(* ------------------------------------------------------------------ *)
(* predict                                                              *)
(* ------------------------------------------------------------------ *)

let predict_cmd =
  let run model_file data class_column scores policy chunk out format =
    let model =
      try Pnrule.Serialize.load_saved model_file with
      | Pnrule.Serialize.Corrupt msg ->
        Printf.eprintf "error: cannot read model %s: %s\n" model_file msg;
        exit 1
      | Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    let columnar =
      match format with
      | `Auto -> Filename.check_suffix (String.lowercase_ascii data) ".pnc"
      | `Csv -> false
      | `Pnc -> true
    in
    if columnar && class_column <> None then begin
      Printf.eprintf
        "error: --class-column does not apply to columnar input (labels are in \
         the file)\n";
      exit 1
    end;
    let predict output =
      if columnar then
        Pnrule.Serve.predict_pnc ~policy ~scores ~model ~input:data ~output ()
      else
        Pnrule.Serve.predict_csv ~policy ~chunk_size:chunk ?class_column ~scores
          ~model ~input:data ~output ()
    in
    let report =
      try
        match out with
        | None -> predict stdout
        | Some path ->
          let oc = open_out path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> predict oc)
      with
      | Pnrule.Serve.Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
      | Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    Format.eprintf "%s: %a@." data Pn_data.Ingest_report.pp report.Pnrule.Serve.ingest;
    Printf.eprintf "%d predictions in %d chunk%s, %.2fs (%.0f rows/s)\n"
      report.Pnrule.Serve.rows_out report.Pnrule.Serve.chunks
      (if report.Pnrule.Serve.chunks = 1 then "" else "s")
      report.Pnrule.Serve.seconds
      (if report.Pnrule.Serve.seconds > 0.0 then
         float_of_int report.Pnrule.Serve.rows_out /. report.Pnrule.Serve.seconds
       else 0.0);
    if report.Pnrule.Serve.unknown_labels > 0 then
      Printf.eprintf "%d rows had labels outside the model's class table\n"
        report.Pnrule.Serve.unknown_labels;
    match report.Pnrule.Serve.confusion with
    | Some cm ->
      Printf.eprintf "recall=%.4f precision=%.4f F=%.4f\n"
        (Pn_metrics.Confusion.recall cm)
        (Pn_metrics.Confusion.precision cm)
        (Pn_metrics.Confusion.f_measure cm)
    | None -> ()
  in
  let model_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL.pn")
  in
  let data =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DATA.csv")
  in
  let scores =
    Arg.(
      value & flag
      & info [ "scores" ]
          ~doc:"Add a $(b,score) column with the probability-like score.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write predictions to this file instead of stdout.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("csv", `Csv); ("pnc", `Pnc) ]) `Auto
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Input format: $(b,csv), $(b,pnc) (binary columnar), or \
             $(b,auto) (default: by file extension). Columnar input is \
             scored one row group at a time, so $(b,--chunk) does not \
             apply.")
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Stream a CSV or binary columnar ($(b,.pnc)) file through a saved \
          model in fixed-size chunks, writing a predictions CSV (ingest \
          accounting and metrics on stderr). The input is validated against \
          the model's schema by column name, so column order may differ and \
          extra columns are ignored. Both formats produce byte-identical \
          predictions on the same rows; the columnar path skips text parsing \
          entirely.")
    Term.(
      const run $ model_file $ data $ class_column_arg $ scores $ policy_arg
      $ chunk_arg $ out $ format)

(* ------------------------------------------------------------------ *)
(* ingest                                                               *)
(* ------------------------------------------------------------------ *)

let ingest_cmd =
  let run data class_column policy group_size out =
    let ds = load_dataset ?class_column ~policy data in
    match Pn_data.Columnar.save ~group_size ds out with
    | () ->
      let n = Pn_data.Dataset.n_records ds in
      let groups = if n = 0 then 0 else ((n - 1) / group_size) + 1 in
      Printf.printf "wrote %d records in %d group%s of up to %d rows to %s\n" n
        groups
        (if groups = 1 then "" else "s")
        group_size out
    | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | exception Unix.Unix_error (err, fn, _) ->
      Printf.eprintf "error: cannot write %s: %s (%s)\n" out
        (Unix.error_message err) fn;
      exit 1
  in
  let data =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DATA.csv")
  in
  let group_size =
    Arg.(
      value
      & opt
          (ranged_int ~what:"group size" ~lo:1 ~hi:16_777_216)
          Pn_data.Columnar.default_group_size
      & info [ "group-size" ] ~docv:"ROWS"
          ~doc:
            "Rows per row group; readers decode and score one group at a \
             time, so this bounds serving memory like $(b,--chunk) does for \
             CSV.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE.pnc"
          ~doc:"Columnar file to write (atomically: temp file + rename).")
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Convert a CSV or ARFF dataset to the binary columnar format \
          ($(b,.pnc)): typed per-column blocks in fixed-size row groups, \
          dictionary-encoded categoricals, per-block CRC-32 checksums. \
          $(b,predict) and $(b,POST /predict) consume it with no per-cell \
          text parsing, which makes scoring large feeds several times \
          faster end to end.")
    Term.(
      const run $ data $ class_column_arg $ policy_arg $ group_size $ out)

(* ------------------------------------------------------------------ *)
(* Listener flags shared by serve and shard                             *)
(* ------------------------------------------------------------------ *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let port_arg ~doc =
  Arg.(
    value
    & opt (ranged_int ~what:"port" ~lo:0 ~hi:65535) 8080
    & info [ "port"; "p" ] ~docv:"PORT" ~doc)

let domains_arg ~doc =
  let default =
    match Sys.getenv_opt "PNRULE_DOMAINS" with
    | Some raw -> (
      match Pn_util.Pool.domains_of_env raw with Ok d -> d | Error _ -> 1)
    | None -> min 4 (Domain.recommended_domain_count ())
  in
  Arg.(
    value
    & opt (ranged_int ~what:"domains" ~lo:1 ~hi:64) default
    & info [ "domains" ] ~docv:"N" ~doc)

let max_body_arg =
  Arg.(
    value
    & opt (ranged_int ~what:"max body" ~lo:1 ~hi:4096) 64
    & info [ "max-body" ] ~docv:"MIB"
        ~doc:"Request body size limit in MiB; larger bodies get a 413.")

let max_rows_arg =
  Arg.(
    value
    & opt (ranged_int ~what:"max rows" ~lo:1 ~hi:1_000_000_000) 1_000_000
    & info [ "max-rows" ] ~docv:"ROWS"
        ~doc:"Rows-per-request limit; longer feeds get a 413.")

let idle_timeout_arg =
  Arg.(
    value
    & opt (ranged_float ~what:"idle timeout" ~lo:0.001 ~hi:86_400.0) 5.0
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:"Close keep-alive connections idle longer than this.")

let deadline_arg =
  Arg.(
    value
    & opt (ranged_float ~what:"deadline" ~lo:0.0 ~hi:86_400.0) 0.0
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-request wall-clock budget; a predict request that overruns it \
           is answered 408. 0 (the default) disables the deadline.")

let queue_limit_arg ~doc =
  Arg.(
    value
    & opt (ranged_int ~what:"queue limit" ~lo:1 ~hi:1_000_000) 256
    & info [ "queue-limit" ] ~docv:"N" ~doc)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run verbose model_file registry host port domains policy chunk max_body_mb
      max_rows idle deadline backlog queue_limit adapt window drift_threshold
      reservoir =
    setup_logs verbose;
    let source =
      match (model_file, registry) with
      | Some m, None ->
        Pn_server.Handler.Loader (fun () -> Pnrule.Serialize.load_saved m)
      | None, Some dir ->
        Pn_server.Handler.Registry (Pnrule.Registry.open_dir dir)
      | Some _, Some _ ->
        Printf.eprintf "error: --model and --registry are mutually exclusive\n";
        exit 1
      | None, None ->
        Printf.eprintf "error: one of --model or --registry is required\n";
        exit 1
    in
    let adapt_cfg =
      if not adapt then None
      else if registry = None then begin
        Printf.eprintf "error: --adapt requires --registry\n";
        exit 1
      end
      else
        Some
          {
            Pn_adapt.Retrainer.default_config with
            drift =
              {
                Pn_adapt.Drift.default_config with
                window;
                threshold = drift_threshold;
              };
            reservoir;
          }
    in
    let config =
      {
        Pn_server.Server.host;
        port;
        domains;
        policy;
        chunk_size = chunk;
        max_body = max_body_mb * 1024 * 1024;
        max_rows;
        idle_timeout = idle;
        deadline;
        backlog;
        queue_limit;
        adapt = adapt_cfg;
      }
    in
    match Pn_server.Server.start ~config ~source () with
    | server ->
      Pn_server.Server.install_signals server;
      Printf.printf
        "pnrule daemon listening on http://%s:%d/ (%d worker domain%s, \
         generation %d)\n\
         endpoints: POST /predict, GET /healthz, GET /model, GET /metrics%s\n\
         SIGHUP reloads the model, SIGTERM/SIGINT drains and exits\n\
         %!"
        host
        (Pn_server.Server.port server)
        domains
        (if domains = 1 then "" else "s")
        (Pn_server.Server.generation server)
        ((if registry <> None then
            ",\n           POST /admin/rollout, POST /admin/rollback"
          else "")
        ^
        if adapt then ",\n           POST /feedback, GET /admin/drift" else "");
      Pn_server.Server.join server
    | exception Pnrule.Serialize.Corrupt msg ->
      Printf.eprintf "error: cannot read model: %s\n" msg;
      exit 1
    | exception Pnrule.Registry.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | exception Unix.Unix_error (err, fn, _) ->
      Printf.eprintf "error: cannot bind %s:%d: %s (%s)\n" host port
        (Unix.error_message err) fn;
      exit 1
  in
  let model_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "model"; "m" ] ~docv:"MODEL.pn"
          ~doc:"Saved model to serve (exclusive with $(b,--registry)).")
  in
  let registry =
    Arg.(
      value
      & opt (some dir) None
      & info [ "registry" ] ~docv:"DIR"
          ~doc:
            "Versioned model registry directory: $(b,gen-N.model) files plus \
             a $(b,CURRENT) pointer. Serves the generation CURRENT names \
             (falling back to the highest loadable one) and enables staged \
             rollout via $(b,POST /admin/rollout) and one-command rollback \
             via $(b,POST /admin/rollback).")
  in
  let port =
    port_arg ~doc:"TCP port to listen on; 0 picks an ephemeral port."
  in
  let domains =
    domains_arg
      ~doc:
        "Worker domains serving requests in parallel (default: \
         $(b,PNRULE_DOMAINS) when set, else min(4, recommended))."
  in
  let backlog =
    Arg.(
      value
      & opt (ranged_int ~what:"backlog" ~lo:1 ~hi:65535) 128
      & info [ "backlog" ] ~docv:"N"
          ~doc:"Kernel listen(2) backlog of the accepting socket.")
  in
  let queue_limit =
    queue_limit_arg
      ~doc:
        "Admission limit: once in-flight requests plus accepted-but-unserved \
         connections reach this, new connections are refused with 429 and a \
         Retry-After header instead of queueing behind the worker pool."
  in
  let adapt =
    Arg.(
      value & flag
      & info [ "adapt" ]
          ~doc:
            "Online adaptation (requires $(b,--registry)): monitor per-rule \
             firing rates on predict/feedback traffic against the model's \
             training-time expectations, and on drift retrain in the \
             background from recent $(b,POST /feedback) labeled rows, \
             publish the result as the next registry generation and roll it \
             out through the staged (canary-warmed) path. Adds \
             $(b,POST /feedback) and $(b,GET /admin/drift).")
  in
  let window =
    Arg.(
      value
      & opt (ranged_int ~what:"window" ~lo:16 ~hi:100_000_000) 4096
      & info [ "window" ] ~docv:"ROWS"
          ~doc:
            "Drift window: rows scored between two firing-rate comparisons. \
             Smaller reacts faster but is noisier.")
  in
  let drift_threshold =
    Arg.(
      value
      & opt (ranged_float ~what:"drift threshold" ~lo:1e-6 ~hi:1e6) 3.0
      & info [ "drift-threshold" ] ~docv:"SCORE"
          ~doc:
            "Page-Hinkley score above which any single rule's accumulated \
             deviation counts as drift. Higher needs more (or stronger) \
             evidence.")
  in
  let reservoir =
    Arg.(
      value
      & opt (ranged_int ~what:"reservoir" ~lo:1 ~hi:1_000_000_000) 100_000
      & info [ "reservoir" ] ~docv:"ROWS"
          ~doc:
            "Most recent labeled feedback rows retained for background \
             retraining; older rows are evicted.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online prediction daemon: an HTTP/1.1 server that keeps the \
          model resident and scores POSTed CSV feeds through the same \
          streaming pipeline as $(b,predict). Endpoints: $(b,POST /predict) \
          (CSV body with header row, or a binary columnar body with \
          $(b,Content-Type: application/x-pnrule-columnar); query parameters \
          $(b,scores=1), $(b,on-error=strict|skip|impute), \
          $(b,class-column=NAME)), \
          $(b,GET /healthz), $(b,GET /model), $(b,GET /metrics) (Prometheus \
          text format), and — with $(b,--registry) — $(b,POST /admin/rollout) \
          / $(b,POST /admin/rollback) for staged model flips. With \
          $(b,--adapt): $(b,POST /feedback) (labeled rows scored and fed to \
          the drift monitor and retrain reservoir) and $(b,GET /admin/drift) \
          (monitor + retrainer state as JSON). SIGHUP \
          hot-reloads the model; SIGTERM drains gracefully. Load shedding: \
          beyond $(b,--queue-limit) the daemon answers 429 + Retry-After.")
    Term.(
      const run $ verbose_arg $ model_file $ registry $ host_arg $ port
      $ domains $ policy_arg $ chunk_arg $ max_body_arg $ max_rows_arg
      $ idle_timeout_arg $ deadline_arg $ backlog $ queue_limit $ adapt $ window $ drift_threshold $ reservoir)

(* ------------------------------------------------------------------ *)
(* shard                                                                *)
(* ------------------------------------------------------------------ *)

let shard_cmd =
  let run verbose registry host port backends domains policy chunk max_body_mb
      max_rows idle deadline queue_limit probe_interval fail_threshold =
    setup_logs verbose;
    (* Fail fast on a registry the backends could not serve from —
       otherwise the supervisor would spawn a crash-looping fleet. *)
    (match Pnrule.Registry.open_dir registry with
    | reg -> (
      match Pnrule.Registry.load_initial reg with
      | _ -> ()
      | exception Pnrule.Registry.Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1)
    | exception Pnrule.Registry.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1);
    let policy_str =
      match policy with
      | Pn_data.Ingest_report.Strict -> "strict"
      | Pn_data.Ingest_report.Skip -> "skip"
      | Pn_data.Ingest_report.Impute -> "impute"
    in
    let backend_argv ~index:_ ~port =
      [|
        Sys.executable_name;
        "serve";
        "--registry";
        registry;
        "--host";
        "127.0.0.1";
        "--port";
        string_of_int port;
        "--domains";
        string_of_int domains;
        "--on-error";
        policy_str;
        "--chunk";
        string_of_int chunk;
        "--max-body";
        string_of_int max_body_mb;
        "--max-rows";
        string_of_int max_rows;
        "--deadline";
        string_of_float deadline;
        "--queue-limit";
        string_of_int queue_limit;
      |]
    in
    let config =
      {
        Pn_shard.Router.default_config with
        host;
        port;
        domains = min 4 (backends + 1);
        backends;
        backend_argv;
        max_body = max_body_mb * 1024 * 1024;
        idle_timeout = idle;
        probe_interval;
        fail_threshold;
        queue_limit;
      }
    in
    match Pn_shard.Router.start ~config () with
    | router ->
      Pn_shard.Router.install_signals router;
      Printf.printf
        "pnrule shard router listening on http://%s:%d/ (%d backend%s x %d \
         worker domain%s)\n\
         endpoints: POST /predict, POST /feedback, GET /healthz, GET /model, \
         GET /metrics,\n\
        \           POST /admin/rollout, POST /admin/rollback, GET \
         /admin/backends\n\
         SIGTERM/SIGINT drains the router, then rolls the fleet down\n\
         %!"
        host
        (Pn_shard.Router.port router)
        backends
        (if backends = 1 then "" else "s")
        domains
        (if domains = 1 then "" else "s");
      Pn_shard.Router.join router
    | exception Unix.Unix_error (err, fn, _) ->
      Printf.eprintf "error: cannot bind %s:%d: %s (%s)\n" host port
        (Unix.error_message err) fn;
      exit 1
  in
  let registry =
    Arg.(
      required
      & opt (some dir) None
      & info [ "registry" ] ~docv:"DIR"
          ~doc:
            "Versioned model registry directory shared by every backend \
             shard. Required: the sharded tier exists to roll generations \
             across a fleet.")
  in
  let port =
    port_arg
      ~doc:
        "Router TCP port; 0 picks an ephemeral port. Backends bind \
         ephemeral loopback ports of their own."
  in
  let backends =
    Arg.(
      value
      & opt (ranged_int ~what:"backends" ~lo:1 ~hi:64) 2
      & info [ "backends" ] ~docv:"N"
          ~doc:"Backend shard processes to spawn and supervise.")
  in
  let domains =
    domains_arg
      ~doc:
        "Worker domains per backend shard (the router itself uses \
         $(b,min(4, backends+1)) domains for proxying)."
  in
  let queue_limit =
    queue_limit_arg
      ~doc:
        "Router admission limit: beyond it new connections get 429 + \
         Retry-After. Also passed to every backend."
  in
  let probe_interval =
    Arg.(
      value
      & opt (ranged_float ~what:"probe interval" ~lo:0.01 ~hi:60.0) 0.05
      & info [ "probe-interval" ] ~docv:"SECONDS"
          ~doc:"Supervisor tick: health probes, reaping, respawn checks.")
  in
  let fail_threshold =
    Arg.(
      value
      & opt (ranged_int ~what:"fail threshold" ~lo:1 ~hi:100) 3
      & info [ "fail-threshold" ] ~docv:"N"
          ~doc:
            "Consecutive failed probes before a healthy shard is marked \
             suspect (and a suspect shard is killed for respawn).")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run the sharded serving tier: spawn and supervise $(b,--backends) \
          $(b,pnrule serve) processes on loopback ports, all serving from the \
          same $(b,--registry), and route $(b,POST /predict) / \
          $(b,POST /feedback) across the healthy ones with transparent \
          failover — a shard that dies mid-request is retried on another, \
          reaped, and respawned with exponential backoff. $(b,GET /healthz), \
          $(b,GET /model) and $(b,GET /metrics) aggregate the fleet (backend \
          series summed; router series under $(b,pnrule_router_*)). \
          $(b,POST /admin/rollout) / $(b,/admin/rollback) flip generations \
          one shard at a time, aborting on the first warm failure. When every \
          shard is down the router answers 503 + Retry-After and keeps \
          running. SIGTERM drains the router, then rolls SIGTERM across the \
          fleet.")
    Term.(
      const run $ verbose_arg $ registry $ host_arg $ port $ backends
      $ domains $ policy_arg $ chunk_arg $ max_body_arg $ max_rows_arg
      $ idle_timeout_arg $ deadline_arg $ queue_limit $ probe_interval $ fail_threshold)

(* ------------------------------------------------------------------ *)
(* eval                                                                 *)
(* ------------------------------------------------------------------ *)

let eval_cmd =
  let run verbose train_file test_file class_column policy target meth stratified rp rn p1 metric =
    setup_logs verbose;
    let train = load_dataset ?class_column ~policy train_file in
    let test = load_dataset ?class_column ~policy test_file in
    let target = resolve_target train target in
    let params = pnrule_params rp rn p1 metric in
    let spec = spec_of_method meth stratified params in
    let r = Pn_harness.Experiment.run spec ~train ~test ~target in
    Printf.printf "%s: recall=%.4f precision=%.4f F=%.4f (train %.1fs)\n"
      r.Pn_harness.Experiment.method_name r.recall r.precision r.f_measure
      r.train_seconds
  in
  let train_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRAIN.csv")
  in
  let test_file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"TEST.csv")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Train on one CSV, evaluate on another.")
    Term.(
      const run $ verbose_arg $ train_file $ test_file $ class_column_arg
      $ policy_arg $ target_arg $ method_arg $ stratified_arg $ rp_arg
      $ rn_arg $ p1_arg $ metric_arg)

(* ------------------------------------------------------------------ *)
(* gen                                                                  *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let run model n seed out =
    let ds =
      match model with
      | "syngen" -> Pn_synth.General.generate Pn_synth.General.default ~seed ~n
      | "kdd-train" -> Pn_synth.Kddcup.train ~seed ~n
      | "kdd-test" -> Pn_synth.Kddcup.test ~seed ~n
      | name when String.length name = 5 && String.sub name 0 4 = "nsyn" ->
        Pn_synth.Numerical.generate
          (Pn_synth.Numerical.nsyn (int_of_string (String.sub name 4 1)))
          ~seed ~n
      | name when String.length name = 4 && String.sub name 0 3 = "coa" ->
        Pn_synth.Categorical.generate
          (Pn_synth.Categorical.coa (int_of_string (String.sub name 3 1)))
          ~seed ~n
      | name when String.length name = 5 && String.sub name 0 4 = "coad" ->
        Pn_synth.Categorical.generate
          (Pn_synth.Categorical.coad (int_of_string (String.sub name 4 1)))
          ~seed ~n
      | other ->
        Printf.eprintf
          "error: unknown model %S (try nsyn1..nsyn6, coa1..coa6, coad1..coad4, \
           syngen, kdd-train, kdd-test)\n"
          other;
        exit 1
    in
    let lower = String.lowercase_ascii out in
    if Filename.check_suffix lower ".arff" then Pn_data.Arff_io.save ds out
    else if Filename.check_suffix lower ".pnc" then Pn_data.Columnar.save ds out
    else Pn_data.Csv_io.save ds out;
    Printf.printf "wrote %d records to %s\n" (Pn_data.Dataset.n_records ds) out
  in
  let model =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")
  in
  let n =
    Arg.(value & opt int 100_000 & info [ "n" ] ~docv:"N" ~doc:"Records to generate.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let out =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate one of the paper's synthetic datasets; the output format \
          follows the extension ($(b,.csv), $(b,.arff), or binary columnar \
          $(b,.pnc)).")
    Term.(const run $ model $ n $ seed $ out)

(* ------------------------------------------------------------------ *)
(* inspect                                                              *)
(* ------------------------------------------------------------------ *)

let inspect_cmd =
  let run data class_column policy =
    let ds = load_dataset ?class_column ~policy data in
    Format.printf "%a@." Pn_data.Summary.pp ds
  in
  let data =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DATA.csv")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print a dataset's schema and class balance.")
    Term.(const run $ data $ class_column_arg $ policy_arg)

let () =
  let doc = "two-phase rule induction for rare classes (PNrule)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "pnrule" ~version:"1.0.0" ~doc)
          [ train_cmd; eval_cmd; predict_cmd; ingest_cmd; serve_cmd; shard_cmd;
            gen_cmd; inspect_cmd ]))
