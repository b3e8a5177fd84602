(* The versioned model registry: directory layout, CURRENT-pointer
   semantics, boot-time resolution, canary warming, and the full staged
   rollout / rollback lifecycle against a live daemon. Every prediction
   is checked byte-for-byte against the batch [Serve] pipeline on the
   generation that should be serving — a flip that changes bytes it
   should not change fails loudly here. *)

module R = Pnrule.Registry
module Server = Pn_server.Server

let contains = Test_server.contains

let one_shot = Test_server.one_shot

let with_registry_dir f =
  let dir = Filename.temp_file "pnrule_registry" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* A second, distinct model trained on its own sample, plus the batch
   pipeline's exact bytes for it on the shared fixture feed — the
   reference for "generation 2 is really the one answering". *)
let fixture2 =
  lazy
    (let _, body, _, _ = Lazy.force Test_server.fixture in
     let spec = Pn_synth.Numerical.nsyn 1 in
     let train = Pn_synth.Numerical.generate spec ~seed:73 ~n:4_000 in
     let model2 =
       Pnrule.Saved.Single
         (Pnrule.Learner.train train ~target:Pn_synth.Numerical.target_class)
     in
     let csv = Filename.temp_file "pnrule_reg" ".csv" in
     let out = Filename.temp_file "pnrule_reg" ".out" in
     Fun.protect
       ~finally:(fun () ->
         Sys.remove csv;
         Sys.remove out)
       (fun () ->
         write_file csv body;
         ignore
           (Out_channel.with_open_bin out (fun oc ->
                Pnrule.Serve.predict_csv ~chunk_size:256 ~model:model2
                  ~input:csv ~output:oc ()));
         (model2, In_channel.with_open_bin out In_channel.input_all)))

(* ------------------------------------------------------------------ *)
(* Layout and pointer                                                   *)
(* ------------------------------------------------------------------ *)

let test_layout_and_pointer () =
  let model, _, _, _ = Lazy.force Test_server.fixture in
  (match R.open_dir "/nonexistent/pnrule-registry" with
  | _ -> Alcotest.fail "open_dir on a missing directory succeeded"
  | exception R.Error _ -> ());
  with_registry_dir (fun dir ->
      let reg = R.open_dir dir in
      Alcotest.(check (list int)) "empty registry" [] (R.generations reg);
      Alcotest.(check (option int)) "no pointer yet" None (R.current reg);
      (match R.load_initial reg with
      | _ -> Alcotest.fail "load_initial on an empty registry succeeded"
      | exception R.Error _ -> ());
      Alcotest.(check int) "first publish is 1" 1 (R.publish reg model);
      Alcotest.(check int) "second publish is 2" 2 (R.publish reg model);
      Alcotest.(check (list int)) "both on disk" [ 1; 2 ] (R.generations reg);
      (* Torn-temp and foreign names never parse as generations. *)
      List.iter
        (fun junk -> write_file (Filename.concat dir junk) "junk")
        [ "gen-2.model.tmp.17"; "foo.model"; "gen-0.model"; "gen-x.model" ];
      Alcotest.(check (list int))
        "junk ignored" [ 1; 2 ]
        (R.generations reg);
      Alcotest.(check (option int))
        "publish leaves the pointer alone" None (R.current reg);
      R.set_current reg 2;
      Alcotest.(check (option int)) "pointer flipped" (Some 2) (R.current reg);
      Alcotest.(check string)
        "pointer file is one line" "gen-2.model\n"
        (In_channel.with_open_bin
           (Filename.concat dir "CURRENT")
           In_channel.input_all);
      (match R.set_current reg 7 with
      | () -> Alcotest.fail "set_current accepted a missing generation"
      | exception R.Error _ -> ());
      Alcotest.(check (option int))
        "failed flip left the pointer" (Some 2) (R.current reg))

(* ------------------------------------------------------------------ *)
(* Boot-time resolution                                                 *)
(* ------------------------------------------------------------------ *)

let test_load_initial_precedence () =
  let model, _, _, _ = Lazy.force Test_server.fixture in
  with_registry_dir (fun dir ->
      let reg = R.open_dir dir in
      ignore (R.publish reg model);
      ignore (R.publish reg model);
      let g, _, _ = R.load_initial reg in
      Alcotest.(check int) "no pointer: highest generation" 2 g;
      R.set_current reg 1;
      let g, _, _ = R.load_initial reg in
      Alcotest.(check int) "valid pointer wins" 1 g;
      (* A pointer at a corrupt file falls back to the highest loadable
         generation instead of refusing to boot. *)
      write_file (R.gen_path reg 3) "not a model";
      write_file (Filename.concat dir "CURRENT") "gen-3.model\n";
      let g, _, _ = R.load_initial reg in
      Alcotest.(check int) "corrupt pointer target skipped" 2 g;
      (* A mangled pointer is treated as missing, not fatal. *)
      write_file (Filename.concat dir "CURRENT") "???";
      let g, _, _ = R.load_initial reg in
      Alcotest.(check int) "mangled pointer ignored" 2 g;
      (* Nothing loadable at all: a clean error, not a crash. *)
      write_file (R.gen_path reg 1) "zap";
      write_file (R.gen_path reg 2) "zap";
      match R.load_initial reg with
      | _ -> Alcotest.fail "load_initial with nothing loadable succeeded"
      | exception R.Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Canary warming                                                       *)
(* ------------------------------------------------------------------ *)

let test_warm_canary () =
  let model, _, _, _ = Lazy.force Test_server.fixture in
  (* A healthy model warms silently. *)
  R.warm model;
  (* A model whose schema cannot produce a canary batch is rejected
     before it could ever be flipped live. *)
  let m =
    match model with
    | Pnrule.Saved.Single m -> m
    | Pnrule.Saved.Boosted _ -> Alcotest.fail "fixture model is Single"
  in
  let attrs = Array.copy m.Pnrule.Model.attrs in
  attrs.(0) <-
    { Pn_data.Attribute.name = "broken";
      kind = Pn_data.Attribute.Categorical [||]
    };
  let bad =
    Pnrule.Saved.Single
      (Pnrule.Model.make ~target:m.target ~classes:m.classes ~attrs ~p_rules:m.p_rules
         ~n_rules:m.n_rules ~scores:m.scores ~params:m.params)
  in
  match R.warm bad with
  | () -> Alcotest.fail "canary accepted an unscorable model"
  | exception R.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Staged rollout / rollback against a live daemon                      *)
(* ------------------------------------------------------------------ *)

let admin port action = one_shot port ~meth:"POST" ~path:("/admin/" ^ action) ()

let predict_bytes port ~body =
  let s, _, got = one_shot port ~meth:"POST" ~path:"/predict" ~body () in
  Alcotest.(check int) "predict status" 200 s;
  got

let test_rollout_rollback_e2e () =
  let model, body, expected, _ = Lazy.force Test_server.fixture in
  let model2, expected2 = Lazy.force fixture2 in
  with_registry_dir (fun dir ->
      let reg = R.open_dir dir in
      Alcotest.(check int) "gen-1 published" 1 (R.publish reg model);
      R.set_current reg 1;
      let config = { Server.default_config with chunk_size = 256 } in
      let boot () =
        Server.start ~config
          ~source:(Pn_server.Handler.Registry (R.open_dir dir))
          ()
      in
      let srv = boot () in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let port = Server.port srv in
          Alcotest.(check int) "boots on CURRENT" 1 (Server.generation srv);
          let _, _, j = one_shot port ~meth:"GET" ~path:"/model" () in
          Alcotest.(check bool)
            "/model names the registry source" true
            (contains j "\"source\": \"registry\"");
          Alcotest.(check bool)
            "/model generation 1" true
            (contains j "\"generation\": 1");
          Alcotest.(check string) "gen-1 answers" expected
            (predict_bytes port ~body);
          (* Nothing to roll out to yet. *)
          let s, _, b = admin port "rollout" in
          Alcotest.(check int) "rollout without candidate" 409 s;
          Alcotest.(check bool)
            "explains the missing candidate" true
            (contains b "no generation above");
          let s, _, _ = one_shot port ~meth:"GET" ~path:"/admin/rollout" () in
          Alcotest.(check int) "admin is POST-only" 405 s;
          (* Publish generation 2 and flip to it. *)
          Alcotest.(check int) "gen-2 published" 2 (R.publish reg model2);
          let s, _, b = admin port "rollout" in
          Alcotest.(check int) "rollout succeeds" 200 s;
          Alcotest.(check bool)
            "rollout reports the new generation" true
            (contains b "\"generation\": 2");
          Alcotest.(check int) "serving generation 2" 2 (Server.generation srv);
          Alcotest.(check (option int))
            "CURRENT persisted" (Some 2) (R.current reg);
          Alcotest.(check string) "gen-2 answers" expected2
            (predict_bytes port ~body);
          (* One-command rollback restores generation 1 exactly. *)
          let s, _, b = admin port "rollback" in
          Alcotest.(check int) "rollback succeeds" 200 s;
          Alcotest.(check bool)
            "rollback reports the generation" true
            (contains b "\"generation\": 1");
          Alcotest.(check int) "serving generation 1" 1 (Server.generation srv);
          Alcotest.(check (option int))
            "CURRENT rolled back" (Some 1) (R.current reg);
          Alcotest.(check string) "gen-1 answers again, byte-identical"
            expected (predict_bytes port ~body);
          let s, _, b = admin port "rollback" in
          Alcotest.(check int) "rollback below the floor" 409 s;
          Alcotest.(check bool)
            "explains the floor" true
            (contains b "no generation below");
          (* The generation gauge follows the rollback down — it tracks
             the on-disk generation number, not a load counter. *)
          let _, _, m = one_shot port ~meth:"GET" ~path:"/metrics" () in
          Alcotest.(check (float 0.0))
            "generation gauge rolled back" 1.0
            (Test_server.metric_value m "pnrule_model_generation");
          (* Explicit ?gen targeting. *)
          let s, _, _ =
            one_shot port ~meth:"POST" ~path:"/admin/rollout?gen=abc" ()
          in
          Alcotest.(check int) "non-numeric gen" 400 s;
          let s, _, b =
            one_shot port ~meth:"POST" ~path:"/admin/rollout?gen=9" ()
          in
          Alcotest.(check int) "absent gen" 409 s;
          Alcotest.(check bool)
            "names the absent generation" true
            (contains b "not in the registry");
          let s, _, _ =
            one_shot port ~meth:"POST" ~path:"/admin/rollout?gen=2" ()
          in
          Alcotest.(check int) "targeted rollout" 200 s;
          Alcotest.(check int) "targeted generation serving" 2
            (Server.generation srv);
          (* A corrupt candidate fails the staged load and keeps the
             serving generation untouched. *)
          write_file (R.gen_path reg 3) "not a model";
          let s, _, b = admin port "rollout" in
          Alcotest.(check int) "corrupt candidate refused" 500 s;
          Alcotest.(check bool)
            "still-serving generation named" true
            (contains b "still serving generation 2");
          Alcotest.(check int) "generation kept" 2 (Server.generation srv);
          Alcotest.(check (option int))
            "CURRENT kept" (Some 2) (R.current reg);
          Alcotest.(check string) "gen-2 still answers" expected2
            (predict_bytes port ~body);
          (* Flip telemetry reconciles with everything above. *)
          let _, _, m = one_shot port ~meth:"GET" ~path:"/metrics" () in
          let metric = Test_server.metric_value m in
          Alcotest.(check (float 0.0))
            "rollouts counted" 2.0
            (metric "pnrule_model_rollouts_total");
          Alcotest.(check (float 0.0))
            "rollbacks counted" 1.0
            (metric "pnrule_model_rollbacks_total");
          Alcotest.(check (float 0.0))
            "failures counted" 1.0
            (metric "pnrule_model_rollout_failures_total");
          Alcotest.(check (float 0.0))
            "not warming" 0.0 (metric "pnrule_warming");
          Alcotest.(check (float 0.0))
            "generation gauge" 2.0 (metric "pnrule_model_generation");
          (* SIGHUP-style reload re-resolves the pointer — an operator
             can repoint CURRENT by hand — but never advances past it. *)
          R.set_current reg 1;
          (match Server.reload srv with
          | Ok () -> ()
          | Error m -> Alcotest.failf "reload failed: %s" m);
          Alcotest.(check int) "reload follows the pointer" 1
            (Server.generation srv);
          Alcotest.(check string) "pointer's generation answers" expected
            (predict_bytes port ~body);
          R.set_current reg 2;
          match Server.reload srv with
          | Ok () -> ()
          | Error m -> Alcotest.failf "reload failed: %s" m);
      (* Restart persistence: a fresh daemon serves what CURRENT names. *)
      let srv = boot () in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let port = Server.port srv in
          Alcotest.(check int) "restart resumes CURRENT" 2
            (Server.generation srv);
          Alcotest.(check string) "restart answers byte-identically"
            expected2 (predict_bytes port ~body)))

let suite =
  [
    Alcotest.test_case "layout and CURRENT pointer" `Quick
      test_layout_and_pointer;
    Alcotest.test_case "load_initial precedence and fallbacks" `Quick
      test_load_initial_precedence;
    Alcotest.test_case "canary warming gates bad models" `Quick
      test_warm_canary;
    Alcotest.test_case "staged rollout, rollback, restart" `Quick
      test_rollout_rollback_e2e;
  ]
