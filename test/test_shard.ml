(* End-to-end tests for the sharded serving tier (lib/shard): an
   in-process router supervising real [pnrule serve] child processes
   (the built CLI binary), exercised by real TCP clients. The core
   robustness claims are tested literally: SIGKILL a shard under
   concurrent load and lose nothing; roll a generation across the fleet
   and abort cleanly on an injected warm failure; lose every shard and
   keep answering 503 with a retry hint. *)

module Router = Pn_shard.Router
module R = Pnrule.Registry
module F = Pn_util.Fault
module Client = Test_server.Client

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The router tests exec the real CLI binary: the test executable lives
   at _build/default/test/main.exe, the CLI one directory over (a dune
   dep keeps it fresh). *)
let cli_exe =
  lazy
    (let p =
       Filename.concat
         (Filename.dirname Sys.executable_name)
         "../bin/pnrule_cli.exe"
     in
     if Sys.file_exists p then p
     else Alcotest.failf "CLI binary missing at %s (dune dependency broken?)" p)

(* Tests that arm fault points programmatically must put the process
   back the way chaos CI set it up, or every later suite runs with the
   wrong schedule. *)
let with_faults arm body =
  F.reset ();
  arm ();
  Fun.protect
    ~finally:(fun () ->
      F.reset ();
      match Sys.getenv_opt "PNRULE_FAULTS" with
      | Some spec -> ignore (F.arm_spec spec)
      | None -> ())
    body

(* Under a chaos env (PNRULE_FAULTS set) the router's own proxy legs
   take scheduled faults, so "exactly N" accounting claims relax to
   ">= N" — correctness claims (statuses, bytes) never relax. *)
let chaos_env = Sys.getenv_opt "PNRULE_FAULTS" <> None

let wait_until ?(timeout = 30.0) msg f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

(* A fresh registry directory holding the shared fixture model as
   gen-1. *)
let make_registry () =
  let model, _, _, _ = Lazy.force Test_server.fixture in
  let dir = Filename.temp_file "pnrule_shard" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let reg = R.open_dir dir in
  let gen = R.publish reg model in
  Alcotest.(check int) "fixture generation" 1 gen;
  (dir, reg)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* Shards must score with the fixture's reference chunk size or the
   byte-identity checks are vacuous. One worker domain per shard keeps
   the fleet honest on small CI machines. *)
let serve_argv registry ~index:_ ~port =
  [|
    Lazy.force cli_exe;
    "serve";
    "--registry";
    registry;
    "--host";
    "127.0.0.1";
    "--port";
    string_of_int port;
    "--domains";
    "1";
    "--chunk";
    "256";
  |]

let router_config ?(backends = 2) ?(backend_env = fun ~index:_ -> None)
    ?(backend_argv = serve_argv) registry =
  {
    Router.default_config with
    backends;
    domains = 2;
    backend_argv = backend_argv registry;
    backend_env;
    probe_interval = 0.02;
    start_budget = 25.0;
  }

(* Boot a router over a fresh fixture registry, run [body], and always
   stop the fleet and remove the registry. [wait] (default true) blocks
   until every shard is in rotation. *)
let with_router ?(backends = 2) ?backend_env ?backend_argv ?(wait = true) body =
  let dir, reg = make_registry () in
  let t =
    Router.start
      ~config:(router_config ~backends ?backend_env ?backend_argv dir)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop t;
      rm_rf dir)
    (fun () ->
      if wait then
        wait_until "fleet healthy" (fun () -> Router.healthy_count t = backends);
      body t reg)

let scrape t =
  let s, _, body =
    Test_server.one_shot (Router.port t) ~meth:"GET" ~path:"/metrics" ()
  in
  Alcotest.(check int) "metrics scrape status" 200 s;
  body

let metric = Test_server.metric_value

let backend_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false

(* ------------------------------------------------------------------ *)
(* e2e: byte-identity through the router, merged metrics, rolling
   rollout, clean shutdown                                              *)
(* ------------------------------------------------------------------ *)

let test_sharded_e2e () =
  let _, body, expected, _ = Lazy.force Test_server.fixture in
  with_router ~backends:2 (fun t reg ->
      let port = Router.port t in
      let s, _, b = Test_server.one_shot port ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "healthz" 200 s;
      Alcotest.(check string) "healthz body" "ok 2/2 backends healthy\n" b;
      (* Concurrent keep-alive clients; every response must carry the
         batch pipeline's exact bytes even though any shard may serve
         any request. *)
      let clients = 3 and reqs = 4 in
      let results =
        List.init clients (fun _ ->
            Domain.spawn (fun () ->
                let c = Client.connect port in
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    List.init reqs (fun _ ->
                        Client.request c ~meth:"POST" ~path:"/predict" ~body ()))))
        |> List.map Domain.join
      in
      List.iter
        (List.iter (fun (status, _, got) ->
             Alcotest.(check int) "predict status" 200 status;
             Alcotest.(check string) "byte-identical through the router"
               expected got))
        results;
      let total = float_of_int (clients * reqs) in
      let m = scrape t in
      (* Router accounting and the merged fleet scrape must agree: the
         router saw N predicts, and the shards' summed
         pnrule_requests_total says they served N between them (a chaos
         schedule can add a failover re-dispatch, so >= under chaos). *)
      let router_seen = metric m "pnrule_router_requests_total{endpoint=\"predict\"}" in
      let fleet_served = metric m "pnrule_requests_total{endpoint=\"predict\"}" in
      Alcotest.(check (float 0.0)) "router predict count" total router_seen;
      if chaos_env then
        Alcotest.(check bool)
          "fleet served at least the admitted predicts" true
          (fleet_served >= total)
      else
        Alcotest.(check (float 0.0))
          "fleet served exactly the admitted predicts" total fleet_served;
      Alcotest.(check (float 0.0))
        "no predict errors" 0.0
        (metric m "pnrule_router_request_errors_total{endpoint=\"predict\"}");
      Alcotest.(check (float 0.0))
        "both shards in rotation" 2.0
        (metric m "pnrule_router_backends_healthy");
      (* Rolling rollout: publish gen-2, flip the fleet one shard at a
         time through the router, then confirm every shard serves it. *)
      let model, _, _, _ = Lazy.force Test_server.fixture in
      let gen2 = R.publish reg model in
      Alcotest.(check int) "second generation" 2 gen2;
      let s, _, rb =
        Test_server.one_shot port ~meth:"POST" ~path:"/admin/rollout" ()
      in
      Alcotest.(check int) "rollout status" 200 s;
      Alcotest.(check bool)
        "rollout response names the action" true
        (contains rb "\"action\": \"rollout\"");
      let s, _, mb = Test_server.one_shot port ~meth:"GET" ~path:"/model" () in
      Alcotest.(check int) "model status" 200 s;
      Alcotest.(check bool)
        "all shards on generation 2" true
        (contains mb "\"generation\": 2" && not (contains mb "\"generation\": 1"));
      (* Predictions are unchanged across the flip (same model bytes). *)
      let s, _, got =
        Test_server.one_shot port ~meth:"POST" ~path:"/predict" ~body ()
      in
      Alcotest.(check int) "post-rollout predict" 200 s;
      Alcotest.(check string) "post-rollout bytes" expected got;
      (* Rollback walks the fleet down again. *)
      let s, _, _ =
        Test_server.one_shot port ~meth:"POST" ~path:"/admin/rollback" ()
      in
      Alcotest.(check int) "rollback status" 200 s;
      let _, _, mb = Test_server.one_shot port ~meth:"GET" ~path:"/model" () in
      Alcotest.(check bool)
        "all shards back on generation 1" true
        (contains mb "\"generation\": 1" && not (contains mb "\"generation\": 2"));
      let pids = [ Router.backend_pid t 0; Router.backend_pid t 1 ] in
      Router.stop t;
      (* The drain rolled SIGTERM across the fleet and reaped it: no
         shard processes survive the router. *)
      wait_until ~timeout:10.0 "shards exit after drain" (fun () ->
          List.for_all (fun pid -> not (backend_alive pid)) pids))

(* ------------------------------------------------------------------ *)
(* Deterministic failover and retry accounting                          *)
(* ------------------------------------------------------------------ *)

(* Satellite: pnrule_router_failovers_total (whole requests re-dispatched
   to another shard) and pnrule_router_proxy_io_retries_total (transient
   IO retries inside one proxy leg) are distinct series and must
   reconcile with what was injected. *)
let test_failover_accounting () =
  let _, body, expected, _ = Lazy.force Test_server.fixture in
  with_router ~backends:2 (fun t _reg ->
      let port = Router.port t in
      (* A hard read fault on the first proxy leg: the shard is tripped
         and the buffered request transparently retries on the other
         shard — the client sees one clean 200. *)
      with_faults
        (fun () -> F.arm ~times:1 "router.proxy_read" F.Raise)
        (fun () ->
          let s, _, got =
            Test_server.one_shot port ~meth:"POST" ~path:"/predict" ~body ()
          in
          Alcotest.(check int) "predict despite dead leg" 200 s;
          Alcotest.(check string) "failover is byte-identical" expected got;
          let m = scrape t in
          Alcotest.(check (float 0.0))
            "exactly one failover" 1.0
            (metric m "pnrule_router_failovers_total");
          Alcotest.(check (float 0.0))
            "client saw no error" 0.0
            (metric m
               "pnrule_router_request_errors_total{endpoint=\"predict\"}"));
      (* Transient EINTRs on the write leg: absorbed in place by the
         bounded retry loop — retries are accounted, no failover. *)
      wait_until "fleet recovers from the tripped leg" (fun () ->
          Router.healthy_count t = 2);
      with_faults
        (fun () -> F.arm ~times:3 "router.proxy_write" F.Eintr)
        (fun () ->
          let s, _, got =
            Test_server.one_shot port ~meth:"POST" ~path:"/predict" ~body ()
          in
          Alcotest.(check int) "predict despite EINTR storm" 200 s;
          Alcotest.(check string) "retried leg is byte-identical" expected got;
          let m = scrape t in
          Alcotest.(check (float 0.0))
            "the three injected EINTRs are accounted as proxy retries" 3.0
            (metric m "pnrule_router_proxy_io_retries_total");
          Alcotest.(check (float 0.0))
            "retries did not inflate failovers" 1.0
            (metric m "pnrule_router_failovers_total"));
      (* Both legs hard-fail: the router answers a deterministic 502 —
         it never hangs and never fabricates a prediction. *)
      wait_until "fleet recovers again" (fun () -> Router.healthy_count t = 2);
      with_faults
        (fun () -> F.arm ~times:2 "router.proxy_read" F.Raise)
        (fun () ->
          let s, _, b =
            Test_server.one_shot port ~meth:"POST" ~path:"/predict" ~body ()
          in
          Alcotest.(check int) "502 when every healthy leg fails" 502 s;
          Alcotest.(check string) "502 names the exhaustion"
            "all 2 healthy backends failed; retry later\n" b);
      wait_until "fleet recovers from the double trip" (fun () ->
          Router.healthy_count t = 2))

(* ------------------------------------------------------------------ *)
(* Chaos: SIGKILL a shard under concurrent load                         *)
(* ------------------------------------------------------------------ *)

let test_shard_death_under_load () =
  let _, body, expected, _ = Lazy.force Test_server.fixture in
  with_router ~backends:3 (fun t _reg ->
      let port = Router.port t in
      let victim = Router.backend_pid t 0 in
      Alcotest.(check bool) "victim shard is running" true (victim > 0);
      let clients = 3 and reqs = 12 in
      let workers =
        List.init clients (fun _ ->
            Domain.spawn (fun () ->
                let c = Client.connect port in
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    List.init reqs (fun _ ->
                        Client.request c ~meth:"POST" ~path:"/predict" ~body ()))))
      in
      (* Kill -9 one shard mid-load. Requests in flight on it are
         transparently re-dispatched; no admitted request may fail. *)
      Unix.sleepf 0.05;
      Unix.kill victim Sys.sigkill;
      let results = List.map Domain.join workers in
      List.iter
        (List.iter (fun (status, _, got) ->
             Alcotest.(check int) "predict status across shard death" 200
               status;
             Alcotest.(check string) "bytes identical across shard death"
               expected got))
        results;
      let m = scrape t in
      Alcotest.(check (float 0.0))
        "zero client-visible predict errors" 0.0
        (metric m "pnrule_router_request_errors_total{endpoint=\"predict\"}");
      Alcotest.(check (float 0.0))
        "every admitted predict answered" (float_of_int (clients * reqs))
        (metric m "pnrule_router_requests_total{endpoint=\"predict\"}");
      (* The supervisor reaps the corpse and respawns within the backoff
         budget; the fleet returns to full strength. *)
      wait_until "respawn observed" (fun () ->
          metric (scrape t) "pnrule_router_respawns_total" >= 1.0);
      wait_until "fleet back to 3/3" (fun () -> Router.healthy_count t = 3);
      Alcotest.(check bool)
        "respawned shard has a fresh pid" true
        (Router.backend_pid t 0 > 0 && Router.backend_pid t 0 <> victim);
      let s, _, got =
        Test_server.one_shot port ~meth:"POST" ~path:"/predict" ~body ()
      in
      Alcotest.(check int) "predict after recovery" 200 s;
      Alcotest.(check string) "recovered shard serves identical bytes" expected
        got)

(* ------------------------------------------------------------------ *)
(* Graceful degradation: every shard down                               *)
(* ------------------------------------------------------------------ *)

let test_all_backends_down () =
  let broken _registry ~index:_ ~port:_ =
    [| "/nonexistent/pnrule-shard-backend"; "serve" |]
  in
  with_router ~backends:2 ~backend_argv:broken ~wait:false (fun t _reg ->
      let port = Router.port t in
      (* The supervisor keeps trying (and accounting) spawns that can
         never succeed... *)
      wait_until "spawn failures accounted" (fun () ->
          let m = scrape t in
          metric m "pnrule_router_spawn_failures_total" >= 1.0
          || metric m "pnrule_router_respawns_total" >= 1.0);
      Alcotest.(check int) "no shard in rotation" 0 (Router.healthy_count t);
      (* ...while the router itself stays up and degrades gracefully:
         503 + Retry-After, never a hang or a crash. *)
      let s, _, b = Test_server.one_shot port ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "healthz is 503" 503 s;
      Alcotest.(check string) "healthz names the condition"
        "no healthy backends\n" b;
      let s, hs, b =
        Test_server.one_shot port ~meth:"POST" ~path:"/predict" ~body:"x\n" ()
      in
      Alcotest.(check int) "predict is 503" 503 s;
      Alcotest.(check (option string))
        "predict carries Retry-After" (Some "1")
        (List.assoc_opt "retry-after" hs);
      Alcotest.(check string) "predict names the condition"
        "no healthy backends; retry later\n" b;
      let m = scrape t in
      Alcotest.(check bool)
        "shed accounted as no_backend" true
        (metric m "pnrule_router_shed_total{reason=\"no_backend\"}" >= 1.0))

(* ------------------------------------------------------------------ *)
(* Rolling rollout aborts on a warm failure                             *)
(* ------------------------------------------------------------------ *)

(* Shard 1 boots normally (its first registry.load pass is let through)
   but its next load — the rollout's — raises. The fan-out must stop
   there: shard 0 on gen-2, shards 1..2 still serving gen-1, and the
   500 names the stuck shard. *)
let test_rollout_warm_failure () =
  let env_with spec =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not
             (String.length kv >= 14 && String.sub kv 0 14 = "PNRULE_FAULTS="))
    |> List.cons ("PNRULE_FAULTS=" ^ spec)
    |> Array.of_list
  in
  let backend_env ~index =
    if index = 1 then Some (env_with "registry.load:raise,after=1") else None
  in
  with_router ~backends:3 ~backend_env (fun t reg ->
      let port = Router.port t in
      let gen2 = R.publish reg (let m, _, _, _ = Lazy.force Test_server.fixture in m) in
      Alcotest.(check int) "candidate generation" 2 gen2;
      let s, _, b =
        Test_server.one_shot port ~meth:"POST" ~path:"/admin/rollout" ()
      in
      Alcotest.(check int) "rollout aborts with 500" 500 s;
      Alcotest.(check bool)
        "error names the stuck shard" true
        (contains b "aborted at backend 1");
      Alcotest.(check bool)
        "error states the fleet coverage" true
        (contains b "backends 0..0 serve the new generation");
      (* Ground truth straight from each shard, bypassing the router. *)
      let shard_gen i =
        let _, _, mb =
          Test_server.one_shot
            (Router.backend_port t i)
            ~meth:"GET" ~path:"/model" ()
        in
        if contains mb "\"generation\": 2" then 2
        else if contains mb "\"generation\": 1" then 1
        else Alcotest.failf "shard %d reports no generation: %s" i mb
      in
      Alcotest.(check (list int))
        "gen-2 stops at the failed shard" [ 2; 1; 1 ]
        (List.map shard_gen [ 0; 1; 2 ]);
      (* The failed shard answered a well-formed 500: it is still
         healthy and still serving its old generation. *)
      Alcotest.(check int) "fleet still 3/3 healthy" 3 (Router.healthy_count t))

(* ------------------------------------------------------------------ *)
(* Admission control at the router                                      *)
(* ------------------------------------------------------------------ *)

let test_router_admission () =
  let _, body, expected, _ = Lazy.force Test_server.fixture in
  let dir, _reg = make_registry () in
  let t =
    Router.start
      ~config:{ (router_config ~backends:1 dir) with queue_limit = 1 }
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop t;
      rm_rf dir)
    (fun () ->
      wait_until "fleet healthy" (fun () -> Router.healthy_count t = 1);
      let port = Router.port t in
      (* Client A holds the only admission slot: head plus half the body
         keeps its /predict in flight at the router. *)
      let a = Client.connect port in
      Fun.protect
        ~finally:(fun () -> Client.close a)
        (fun () ->
          let cut = String.length body / 2 in
          Client.send a
            (Printf.sprintf
               "POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: %d\r\n\r\n%s"
               (String.length body) (String.sub body 0 cut));
          Unix.sleepf 0.3;
          List.iter
            (fun name ->
              let c = Client.connect port in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  let s, hs, _ = Client.read_response c in
                  Alcotest.(check int) (name ^ " refused") 429 s;
                  Alcotest.(check (option string))
                    (name ^ " carries retry-after") (Some "1")
                    (List.assoc_opt "retry-after" hs)))
            [ "first overflow"; "second overflow" ];
          Client.send a (String.sub body cut (String.length body - cut));
          let s, _, got = Client.read_response a in
          Alcotest.(check int) "admitted request completes" 200 s;
          Alcotest.(check string) "admitted request byte-identical" expected
            got);
      (* A's close frees the slot; give the in-flight decrement a beat. *)
      Unix.sleepf 0.2;
      Alcotest.(check (float 0.0))
        "sheds counted as overload" 2.0
        (metric (scrape t) "pnrule_router_shed_total{reason=\"overload\"}"))

(* ------------------------------------------------------------------ *)
(* Worker buffers are reused, never leaked, from request to request    *)
(* ------------------------------------------------------------------ *)

(* One worker serves requests of every size and outcome in a row, each
   reusing the buffers the one before left behind: a 2048-row .pnc body,
   a 3-row one, a 256-row CSV body, a schema mismatch (400), a body over
   max_rows (413), a .pnc body with missing cells under Impute, an
   8192-row body with scores (chunked output), then the first body
   again. Every answer must equal a fresh in-process one, byte for byte:
   through [serve] with one worker domain, and through a one-backend
   [shard] whose router and backend each run one worker. Then a router
   leg dies on an injected read fault, and the next clean request must
   still come back byte-identical. *)
let reuse_max_rows = 8192

let reuse_cases =
  lazy
    (let pnc = [ ("content-type", "application/x-pnrule-columnar") ] in
     let csv = [ ("content-type", "text/csv") ] in
     let first = Test_serve.pnc_body ~seed:91 ~rows:2048 () in
     let over =
       (* The header alone declares the rows: the body is refused before
          any group, and a short body is read in full before the 413. *)
       let s = Test_serve.pnc_body ~seed:92 ~rows:(reuse_max_rows + 1) () in
       let hlen = Int32.to_int (String.get_int32_le s 8) in
       String.sub s 0 (8 + 4 + hlen + 4)
     in
     let missing =
       let rows = 512 in
       let ds = Pn_synth.Numerical.generate (Pn_synth.Numerical.nsyn 3) ~seed:93 ~n:rows in
       let masks =
         Array.mapi
           (fun j _ ->
             if j < 2 then Some (Array.init rows (fun i -> (i + j) mod 7 = 0)) else None)
           ds.Pn_data.Dataset.attrs
       in
       Pn_data.Columnar.to_string ~missing:masks ~group_size:rows ds
     in
     [
       ("2048-row .pnc", "/predict", pnc, first);
       ("3-row .pnc", "/predict", pnc, Test_serve.pnc_body ~seed:94 ~rows:3 ());
       ("256-row CSV", "/predict", csv, Test_serve.csv_body ~seed:95 ~rows:256);
       ("schema mismatch", "/predict", csv, "foo,bar\n1,2\n");
       ("over max_rows", "/predict", pnc, over);
       ("missing cells, impute", "/predict?on-error=impute", pnc, missing);
       ( "8192 rows with scores",
         "/predict?scores=1",
         pnc,
         Test_serve.pnc_body ~seed:96 ~rows:8192 () );
       ("2048-row .pnc again", "/predict", pnc, first);
     ])

(* What a fresh in-process call answers: status and body. *)
let fresh_answer ~path ~headers body =
  let model = Lazy.force Test_serve.boosted in
  let policy =
    if contains path "on-error=impute" then Pn_data.Ingest_report.Impute
    else Pn_data.Ingest_report.Strict
  in
  let scores = contains path "scores=1" in
  let out = Buffer.create 4096 in
  let source = Pn_data.Stream.of_string body in
  let write = Buffer.add_string out in
  let pool = Pn_util.Pool.sequential and max_rows = reuse_max_rows in
  match
    if List.mem_assoc "content-type" headers
       && List.assoc "content-type" headers = "application/x-pnrule-columnar"
    then
      Pnrule.Serve.predict_columnar_stream ~policy ~scores ~max_rows ~pool ~model
        ~source ~write ()
    else
      Pnrule.Serve.predict_stream ~policy ~scores ~max_rows ~pool ~model ~source
        ~write ()
  with
  | _ -> (200, Buffer.contents out)
  | exception Pnrule.Serve.Error msg -> (400, msg ^ "\n")
  | exception Pnrule.Serve.Limit msg -> (413, msg ^ "\n")

let check_reuse_sequence ~tier port =
  List.iter
    (fun (name, path, headers, body) ->
      let want_status, want = fresh_answer ~path ~headers body in
      let s, _, got =
        Test_server.one_shot port ~meth:"POST" ~path ~headers ~body ()
      in
      Alcotest.(check int) (Printf.sprintf "%s: %s status" tier name) want_status s;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s is byte-identical (%d bytes)" tier name
           (String.length want))
        true (String.equal want got))
    (Lazy.force reuse_cases)

let test_reuse_never_leaks () =
  let model = Lazy.force Test_serve.boosted in
  (* Some answer must outgrow the 16 KiB threshold of streamed output. *)
  Alcotest.(check bool) "one answer streams chunked" true
    (List.exists
       (fun (_, path, headers, body) ->
         String.length (snd (fresh_answer ~path ~headers body)) > 16384)
       (Lazy.force reuse_cases));
  let srv =
    Test_server.boot
      ~config:
        {
          Pn_server.Server.default_config with
          domains = 1;
          max_rows = reuse_max_rows;
        }
      ~model ()
  in
  Fun.protect
    ~finally:(fun () -> Pn_server.Server.stop srv)
    (fun () -> check_reuse_sequence ~tier:"serve" (Pn_server.Server.port srv));
  let dir = Filename.temp_file "pnrule_reuse" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  ignore (R.publish (R.open_dir dir) model);
  let argv ~index:_ ~port =
    [|
      Lazy.force cli_exe;
      "serve";
      "--registry";
      dir;
      "--host";
      "127.0.0.1";
      "--port";
      string_of_int port;
      "--domains";
      "1";
      "--max-rows";
      string_of_int reuse_max_rows;
    |]
  in
  let t =
    Router.start
      ~config:
        {
          Router.default_config with
          backends = 1;
          domains = 1;
          backend_argv = argv;
          probe_interval = 0.02;
          start_budget = 25.0;
        }
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop t;
      rm_rf dir)
    (fun () ->
      wait_until "backend healthy" (fun () -> Router.healthy_count t = 1);
      let port = Router.port t in
      check_reuse_sequence ~tier:"shard" port;
      let name, path, headers, body = List.hd (Lazy.force reuse_cases) in
      with_faults
        (fun () -> F.arm ~times:1 "router.proxy_read" F.Raise)
        (fun () ->
          let s, _, got = Test_server.one_shot port ~meth:"POST" ~path ~headers ~body () in
          Alcotest.(check int) "a killed leg on the only backend is a 502" 502 s;
          Alcotest.(check string) "502 names the exhaustion"
            "all 1 healthy backends failed; retry later\n" got);
      wait_until "backend back in rotation" (fun () -> Router.healthy_count t = 1);
      let want_status, want = fresh_answer ~path ~headers body in
      let s, _, got = Test_server.one_shot port ~meth:"POST" ~path ~headers ~body () in
      Alcotest.(check int) (name ^ " after the killed leg: status") want_status s;
      Alcotest.(check bool) (name ^ " after the killed leg is byte-identical") true
        (String.equal want got))

(* ------------------------------------------------------------------ *)
(* One answer per request: a body no route reads closes the connection *)
(* ------------------------------------------------------------------ *)

(* A bodied GET /healthz, PUT /predict and POST /admin/rollout each get
   one answer and EOF, never a second answer to the request in the body;
   the rollout still rolls. The router's JSON answers say JSON. *)
let test_bodies_no_route_reads () =
  with_router ~backends:1 (fun t reg ->
      let port = Router.port t in
      let s, _, _ = Test_server.one_answer_then_eof port ~meth:"GET" ~path:"/healthz" in
      Alcotest.(check int) "bodied healthz" 200 s;
      let s, _, _ = Test_server.one_answer_then_eof port ~meth:"PUT" ~path:"/predict" in
      Alcotest.(check int) "bodied PUT /predict" 405 s;
      let model, _, _, _ = Lazy.force Test_server.fixture in
      Alcotest.(check int) "second generation" 2 (R.publish reg model);
      let json what hs =
        Alcotest.(check (option string)) (what ^ " content type")
          (Some "application/json; charset=utf-8")
          (List.assoc_opt "content-type" hs)
      in
      let s, hs, b =
        Test_server.one_answer_then_eof port ~meth:"POST" ~path:"/admin/rollout"
      in
      Alcotest.(check int) "bodied rollout" 200 s;
      json "rollout" hs;
      Alcotest.(check bool) "rollout reached generation 2" true
        (contains b "\"generation\": 2");
      List.iter
        (fun path ->
          let s, hs, _ = Test_server.one_shot port ~meth:"GET" ~path () in
          Alcotest.(check int) (path ^ " status") 200 s;
          json path hs)
        [ "/model"; "/admin/backends" ];
      Alcotest.(check (float 0.0))
        "no smuggled request reached a route" 0.0
        (metric (scrape t) "pnrule_router_requests_total{endpoint=\"other\"}"))

(* ------------------------------------------------------------------ *)
(* A refusal counts alike on both tiers                                 *)
(* ------------------------------------------------------------------ *)

(* A 405 on /healthz and a 404 under /admin/ count under the path's
   endpoint, healthz and admin, on the daemon as on the router. *)
let test_refusal_labels () =
  let refusals ~prefix port =
    let scrape () =
      let s, _, body = Test_server.one_shot port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check int) "metrics scrape status" 200 s;
      body
    in
    let errors text ep =
      metric text (Printf.sprintf "%srequest_errors_total{endpoint=\"%s\"}" prefix ep)
    in
    let before = scrape () in
    let s, _, _ = Test_server.one_shot port ~meth:"PUT" ~path:"/healthz" () in
    Alcotest.(check int) (prefix ^ ": PUT /healthz") 405 s;
    let s, _, _ = Test_server.one_shot port ~meth:"GET" ~path:"/admin/nope" () in
    Alcotest.(check int) (prefix ^ ": GET /admin/nope") 404 s;
    let after = scrape () in
    List.map (fun ep -> (ep, errors after ep -. errors before ep)) [ "healthz"; "admin"; "other" ]
  in
  let expected = [ ("healthz", 1.0); ("admin", 1.0); ("other", 0.0) ] in
  let counts = Alcotest.(list (pair string (float 0.0))) in
  let model, _, _, _ = Lazy.force Test_server.fixture in
  let srv = Test_server.boot ~model () in
  Fun.protect
    ~finally:(fun () -> Pn_server.Server.stop srv)
    (fun () ->
      Alcotest.check counts "daemon" expected
        (refusals ~prefix:"pnrule_" (Pn_server.Server.port srv)));
  with_router ~backends:1 (fun t _ ->
      Alcotest.check counts "router" expected
        (refusals ~prefix:"pnrule_router_" (Router.port t)))

(* ------------------------------------------------------------------ *)
(* Health probes write clean                                            *)
(* ------------------------------------------------------------------ *)

(* The router's probes and scrapes open conns with no write fault
   point, so a daemon write fault armed in the router process cannot
   keep a healthy backend out of rotation. The backend runs without
   any fault schedule; with probe writes passing [serve.chunk_write]
   it stayed [Starting] for seconds. *)
let test_probes_write_clean () =
  let clean_env ~index:_ =
    Some
      (Unix.environment () |> Array.to_list
      |> List.filter (fun kv -> not (String.starts_with ~prefix:"PNRULE_FAULTS=" kv))
      |> Array.of_list)
  in
  with_faults
    (fun () -> F.arm "serve.chunk_write" F.Raise)
    (fun () ->
      with_router ~backends:1 ~backend_env:clean_env ~wait:false (fun t _ ->
          wait_until ~timeout:2.0 "the backend healthy within 2 s" (fun () ->
              Router.healthy_count t = 1)))

let suite =
  [
    Alcotest.test_case "sharded e2e: bytes, merged metrics, rolling rollout"
      `Quick test_sharded_e2e;
    Alcotest.test_case "failover vs proxy-retry accounting reconciles" `Quick
      test_failover_accounting;
    Alcotest.test_case "SIGKILL a shard under load: zero lost requests" `Quick
      test_shard_death_under_load;
    Alcotest.test_case "all shards down: graceful 503 + Retry-After" `Quick
      test_all_backends_down;
    Alcotest.test_case "rolling rollout aborts on warm failure" `Quick
      test_rollout_warm_failure;
    Alcotest.test_case "router sheds 429 past its queue limit" `Quick
      test_router_admission;
    Alcotest.test_case "worker reuse never leaks between requests" `Quick
      test_reuse_never_leaks;
    Alcotest.test_case "a body no route reads is never a second request" `Quick
      test_bodies_no_route_reads;
    Alcotest.test_case "health probes write past an armed write fault" `Quick
      test_probes_write_clean;
    Alcotest.test_case "a refused request counts under one endpoint on both tiers" `Quick
      test_refusal_labels;
  ]
