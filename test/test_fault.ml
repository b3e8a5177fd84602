(* Chaos suite: the deterministic fault-injection registry itself, and
   the layers hardened with it — atomic model persistence
   (serialize.write), streaming ingestion (stream.refill), the columnar
   dataset format (columnar.read / columnar.write), and the daemon's
   worker supervision (server.worker). Every run is driven by an
   explicit seed so a failure replays exactly.

   Each test leaves the registry disarmed ([Fault.reset] in a finally),
   so chaos never leaks into the other suites. *)

module F = Pn_util.Fault
module S = Pnrule.Serialize
module Server = Pn_server.Server
module Client = Test_server.Client

let chaos_seed = 42

(* Acceptance rule for every chaos scenario: print the seed, so the
   failing schedule can be replayed with PNRULE_FAULTS="seed=N;...". *)
let with_chaos spec body =
  F.reset ();
  F.set_seed chaos_seed;
  (match F.arm_spec spec with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "bad chaos spec %S: %s" spec msg);
  Printf.printf "chaos: seed=%d spec=%S\n%!" (F.seed ()) spec;
  Fun.protect ~finally:F.reset body

(* ------------------------------------------------------------------ *)
(* The registry                                                         *)
(* ------------------------------------------------------------------ *)

let firing_pattern name n =
  List.init n (fun _ ->
      match F.check name with () -> false | exception F.Injected _ -> true)

let test_schedule_determinism () =
  Fun.protect ~finally:F.reset (fun () ->
      F.reset ();
      F.set_seed 1234;
      F.arm ~p:0.4 "det.point" F.Raise;
      let a = firing_pattern "det.point" 200 in
      Alcotest.(check int) "passes counted" 200 (F.passes "det.point");
      Alcotest.(check int)
        "fired matches the pattern"
        (List.length (List.filter Fun.id a))
        (F.fired "det.point");
      Alcotest.(check bool) "p=0.4 fires sometimes" true (List.exists Fun.id a);
      Alcotest.(check bool)
        "p=0.4 suppresses sometimes" true
        (List.exists not a);
      (* Same seed, same point name: the exact same coin flips. *)
      F.set_seed 1234;
      F.arm ~p:0.4 "det.point" F.Raise;
      let b = firing_pattern "det.point" 200 in
      Alcotest.(check bool) "same seed replays the schedule" true (a = b);
      (* A different seed diverges (200 flips cannot all coincide). *)
      F.set_seed 99;
      F.arm ~p:0.4 "det.point" F.Raise;
      let c = firing_pattern "det.point" 200 in
      Alcotest.(check bool) "different seed diverges" true (a <> c))

let test_schedule_modifiers () =
  Fun.protect ~finally:F.reset (fun () ->
      F.reset ();
      F.set_seed 0;
      F.arm ~after:2 ~every:3 ~times:2 "sched.point" F.Raise;
      let fires = firing_pattern "sched.point" 12 in
      (* after=2 skips passes 1-2; then every 3rd eligible pass fires,
         capped at times=2: passes 3 and 6, nothing after. *)
      let expected =
        [
          false; false; true; false; false; true; false; false; false; false;
          false; false;
        ]
      in
      Alcotest.(check bool) "after/every/times schedule" true (fires = expected);
      Alcotest.(check int) "fired" 2 (F.fired "sched.point");
      Alcotest.(check int) "passes" 12 (F.passes "sched.point");
      Alcotest.(check int) "suppressed" 10 (F.suppressed "sched.point"))

let test_outcomes () =
  Fun.protect ~finally:F.reset (fun () ->
      F.reset ();
      F.arm "errno.point" F.Eintr;
      (match F.check "errno.point" with
      | () -> Alcotest.fail "expected EINTR"
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      F.arm "errno.point" F.Eagain;
      (match F.check "errno.point" with
      | () -> Alcotest.fail "expected EAGAIN"
      | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ());
      (* Short caps the byte count, never below one byte. *)
      F.arm "io.short" (F.Short 10);
      Alcotest.(check int) "short caps" 10 (F.cap "io.short" 100);
      Alcotest.(check int) "short under cap" 5 (F.cap "io.short" 5);
      (* Crash_after: a byte budget, then Injected on every later pass. *)
      F.arm "io.crash" (F.Crash_after 10);
      Alcotest.(check int) "budget lets bytes through" 6 (F.cap "io.crash" 6);
      Alcotest.(check int) "budget cuts the last write" 4 (F.cap "io.crash" 6);
      (match F.cap "io.crash" 6 with
      | _ -> Alcotest.fail "expected Injected after budget"
      | exception F.Injected _ -> ());
      (* Byte-count outcomes never fire at countless points. *)
      F.check "io.short";
      F.check "io.crash";
      (* Unarmed names pass through even while the registry is armed. *)
      Alcotest.(check int) "unarmed cap passes" 64 (F.cap "not.armed" 64);
      F.check "not.armed";
      Alcotest.(check int) "unknown fired" 0 (F.fired "not.armed");
      F.reset ();
      Alcotest.(check int) "disarmed cap passes" 64 (F.cap "io.short" 64);
      Alcotest.(check (list (triple string int int))) "reset empties stats" []
        (F.stats ()))

let test_spec_parsing () =
  Fun.protect ~finally:F.reset (fun () ->
      F.reset ();
      (match F.arm_spec "seed=7;a.b:eintr,p=0.25;c.d:crash@4096,after=1" with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "spec rejected: %s" msg);
      Alcotest.(check int) "seed applied" 7 (F.seed ());
      Alcotest.(check (list string))
        "points armed" [ "a.b"; "c.d" ]
        (List.map (fun (n, _, _) -> n) (F.stats ()));
      List.iter
        (fun bad ->
          match F.arm_spec bad with
          | Ok () -> Alcotest.failf "accepted malformed spec %S" bad
          | Error _ -> ())
        [
          "nonsense";
          "x:wat";
          "x:short@";
          "x:short@zz";
          "x:eintr,zz=1";
          "x:eintr,p=nope";
          "seed=";
        ])

(* ------------------------------------------------------------------ *)
(* Crash-safe persistence                                               *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_atomic_save_survives_crash () =
  let model, _, _, _ = Lazy.force Test_server.fixture in
  let dir = Filename.temp_file "pnrule_atomic" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "model.pn" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      S.save model path;
      let good = read_file path in
      with_chaos "serialize.write:crash@128" (fun () ->
          (match S.save model path with
          | () -> Alcotest.fail "save should have crashed mid-write"
          | exception F.Injected _ -> ());
          Alcotest.(check bool)
            "the crash actually fired" true
            (F.fired "serialize.write" > 0));
      Alcotest.(check string) "old file intact after crashed save" good
        (read_file path);
      Alcotest.(check (list string))
        "no temp droppings" [ "model.pn" ]
        (List.sort compare (Array.to_list (Sys.readdir dir)));
      (* And the survivor still loads and round-trips. *)
      let back = S.load_saved path in
      Alcotest.(check string) "reload of survivor round-trips" good
        (S.to_string back))

let test_columnar_save_survives_crash () =
  let module C = Pn_data.Columnar in
  let ds = Test_columnar.mixed ~seed:31 ~n:3_000 in
  let dir = Filename.temp_file "pnrule_colatomic" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "data.pnc" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      C.save ds path;
      let good = read_file path in
      with_chaos "columnar.write:crash@4096" (fun () ->
          (match C.save (Test_columnar.mixed ~seed:32 ~n:3_000) path with
          | () -> Alcotest.fail "save should have crashed mid-write"
          | exception F.Injected _ -> ());
          Alcotest.(check bool)
            "the crash actually fired" true
            (F.fired "columnar.write" > 0));
      Alcotest.(check string) "old file intact after crashed save" good
        (read_file path);
      Alcotest.(check (list string))
        "no temp droppings" [ "data.pnc" ]
        (List.sort compare (Array.to_list (Sys.readdir dir)));
      Alcotest.(check bool)
        "survivor still decodes to the first dataset" true
        (Pn_data.Dataset.equal ds (C.load path)))

let test_columnar_short_reads_exact () =
  let module C = Pn_data.Columnar in
  let ds = Test_columnar.mixed ~seed:33 ~n:5_000 in
  let s = C.to_string ~group_size:512 ds in
  (* Every third block read is capped to 7 bytes: decoding degenerates
     into a trickle of fragments, which must change nothing about the
     result or the checksums. *)
  with_chaos "columnar.read:short@7,every=3" (fun () ->
      let back = C.of_string s in
      Alcotest.(check bool) "short reads decode exactly" true
        (Pn_data.Dataset.equal ds back);
      Alcotest.(check bool)
        "short reads actually injected" true
        (F.fired "columnar.read" > 0))

(* ------------------------------------------------------------------ *)
(* The daemon under chaos                                               *)
(* ------------------------------------------------------------------ *)

let test_reload_survives_corruption () =
  let model, body, expected, _ = Lazy.force Test_server.fixture in
  let path = Filename.temp_file "pnrule_reload" ".pn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.save model path;
      let good = read_file path in
      let config = { Server.default_config with chunk_size = 256 } in
      let srv =
        Server.start ~config
          ~source:(Pn_server.Handler.Loader (fun () -> S.load_saved path))
          ()
      in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let port = Server.port srv in
          (* A mid-write crash while publishing a new model leaves the
             old file byte-identical, so a reload keeps working. *)
          with_chaos "serialize.write:crash@256" (fun () ->
              match S.save model path with
              | () -> Alcotest.fail "save should have crashed"
              | exception F.Injected _ -> ());
          Alcotest.(check string) "model file survived the crash" good
            (read_file path);
          (match Server.reload srv with
          | Ok () -> ()
          | Error m -> Alcotest.failf "reload of intact file failed: %s" m);
          Alcotest.(check int) "generation advanced" 2 (Server.generation srv);
          (* Outright corruption on disk: the reload is rejected cleanly
             and the daemon keeps serving the generation it has. *)
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (String.sub good 0 (String.length good / 2)));
          (match Server.reload srv with
          | Ok () -> Alcotest.fail "reload of truncated file succeeded"
          | Error _ -> ());
          Alcotest.(check int) "generation kept" 2 (Server.generation srv);
          let s, _, b = Test_server.one_shot port ~meth:"GET" ~path:"/healthz" () in
          Alcotest.(check int) "healthz stays 200" 200 s;
          Alcotest.(check string) "healthz body" "ok\n" b;
          let s, _, got =
            Test_server.one_shot port ~meth:"POST" ~path:"/predict" ~body ()
          in
          Alcotest.(check int) "predict still serves" 200 s;
          Alcotest.(check string) "old generation answers identically" expected
            got))

let test_short_reads_byte_identical () =
  let model, body, expected, _ = Lazy.force Test_server.fixture in
  let srv = Test_server.boot ~model () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      (* Every third body refill is capped to 7 bytes: the request body
         arrives as a trickle of fragments, which must change nothing
         about the response bytes. *)
      with_chaos "stream.refill:short@7,every=3" (fun () ->
          let s, _, got =
            Test_server.one_shot port ~meth:"POST" ~path:"/predict" ~body ()
          in
          Alcotest.(check int) "predict under short reads" 200 s;
          Alcotest.(check string) "byte-identical to batch" expected got;
          Alcotest.(check bool)
            "short reads actually injected" true
            (F.fired "stream.refill" > 0)))

let test_eintr_retried_and_metered () =
  let model, body, expected, _ = Lazy.force Test_server.fixture in
  let srv = Test_server.boot ~model () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      (* Three EINTRs in a row on the body stream: under the retry
         budget of five, so the request must succeed — and the retries
         must reconcile exactly on /metrics. *)
      with_chaos "stream.refill:eintr,times=3" (fun () ->
          let s, _, got =
            Test_server.one_shot port ~meth:"POST" ~path:"/predict" ~body ()
          in
          Alcotest.(check int) "predict under EINTR storm" 200 s;
          Alcotest.(check string) "bytes unchanged by retries" expected got;
          Alcotest.(check int) "all three faults fired" 3
            (F.fired "stream.refill");
          let _, _, m = Test_server.one_shot port ~meth:"GET" ~path:"/metrics" () in
          Alcotest.(check (float 0.0))
            "io retries surfaced on /metrics" 3.0
            (Test_server.metric_value m "pnrule_io_retries_total")))

let rec poll_metrics port ~until ~deadline =
  if Unix.gettimeofday () > deadline then
    Alcotest.fail "metrics condition not reached before deadline"
  else
    match Test_server.one_shot port ~meth:"GET" ~path:"/metrics" () with
    | _, _, m when until m -> m
    | _ ->
      Unix.sleepf 0.05;
      poll_metrics port ~until ~deadline
    | exception (Unix.Unix_error _ | Failure _) ->
      Unix.sleepf 0.05;
      poll_metrics port ~until ~deadline

let test_worker_respawn () =
  let model, body, expected, _ = Lazy.force Test_server.fixture in
  let srv = Test_server.boot ~model () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      with_chaos "server.worker:raise,times=1" (fun () ->
          (* The doomed connection: the injected fault kills the only
             worker domain before it reads the request. *)
          (match Test_server.one_shot port ~meth:"GET" ~path:"/healthz" () with
          | _ -> Alcotest.fail "connection to a dying worker answered"
          | exception (Failure _ | Unix.Unix_error _) -> ());
          (* The listener notices within ~50 ms, respawns into the same
             slot, and the respawn is visible on /metrics. *)
          let m =
            poll_metrics port
              ~until:(fun m ->
                Test_server.metric_value m "pnrule_worker_restarts_total" >= 1.0)
              ~deadline:(Unix.gettimeofday () +. 5.0)
          in
          Alcotest.(check (float 0.0))
            "exactly one restart" 1.0
            (Test_server.metric_value m "pnrule_worker_restarts_total");
          (* The respawned worker serves correctly. *)
          let s, _, b = Test_server.one_shot port ~meth:"GET" ~path:"/healthz" () in
          Alcotest.(check int) "healthz after respawn" 200 s;
          Alcotest.(check string) "healthz body" "ok\n" b;
          let s, _, got =
            Test_server.one_shot port ~meth:"POST" ~path:"/predict" ~body ()
          in
          Alcotest.(check int) "predict after respawn" 200 s;
          Alcotest.(check string) "bytes identical after respawn" expected got))

(* ------------------------------------------------------------------ *)
(* Staged rollout under chaos                                           *)
(* ------------------------------------------------------------------ *)

module Reg = Pnrule.Registry

(* A registry with two generations and a daemon serving generation 1. *)
let with_rollout_daemon f =
  let model, body, expected, _ = Lazy.force Test_server.fixture in
  let model2, expected2 = Lazy.force Test_registry.fixture2 in
  Test_registry.with_registry_dir (fun dir ->
      let reg = Reg.open_dir dir in
      ignore (Reg.publish reg model);
      ignore (Reg.publish reg model2);
      Reg.set_current reg 1;
      let config = { Server.default_config with chunk_size = 256 } in
      let srv =
        Server.start ~config ~source:(Pn_server.Handler.Registry reg) ()
      in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () -> f ~dir ~srv ~body ~expected ~expected2))

let check_serving ~srv ~body ~gen ~bytes what =
  Alcotest.(check int) (what ^ ": generation") gen (Server.generation srv);
  let s, _, got =
    Test_server.one_shot (Server.port srv) ~meth:"POST" ~path:"/predict" ~body
      ()
  in
  Alcotest.(check int) (what ^ ": predict status") 200 s;
  Alcotest.(check string) (what ^ ": byte-identical") bytes got

let test_rollout_flip_crash_keeps_old () =
  with_rollout_daemon (fun ~dir ~srv ~body ~expected ~expected2 ->
      let port = Server.port srv in
      (* The process "dies" four bytes into the CURRENT pointer write:
         after the candidate loaded, warmed, and was about to go live. *)
      with_chaos "registry.flip:crash@4" (fun () ->
          let s, _, b =
            Test_server.one_shot port ~meth:"POST" ~path:"/admin/rollout" ()
          in
          Alcotest.(check int) "crashed flip answers 500" 500 s;
          Alcotest.(check bool)
            "names the surviving generation" true
            (Test_server.contains b "still serving generation 1");
          Alcotest.(check bool)
            "the crash actually fired" true
            (F.fired "registry.flip" > 0));
      (* The old generation serves on, byte-identical, and the registry
         is exactly as it was: pointer untouched, no torn temp files. *)
      check_serving ~srv ~body ~gen:1 ~bytes:expected "after crashed flip";
      Alcotest.(check string)
        "CURRENT untouched" "gen-1.model\n"
        (read_file (Filename.concat dir "CURRENT"));
      Alcotest.(check (list string))
        "no temp droppings"
        [ "CURRENT"; "gen-1.model"; "gen-2.model" ]
        (List.sort compare (Array.to_list (Sys.readdir dir)));
      let s, _, b = Test_server.one_shot port ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "healthz after crashed flip" 200 s;
      Alcotest.(check string) "healthz body" "ok\n" b;
      let _, _, m = Test_server.one_shot port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check (float 0.0))
        "failure metered" 1.0
        (Test_server.metric_value m "pnrule_model_rollout_failures_total");
      (* Disarmed, the identical rollout goes through. *)
      let s, _, _ =
        Test_server.one_shot port ~meth:"POST" ~path:"/admin/rollout" ()
      in
      Alcotest.(check int) "retried rollout succeeds" 200 s;
      Alcotest.(check string)
        "pointer flipped on retry" "gen-2.model\n"
        (read_file (Filename.concat dir "CURRENT"));
      check_serving ~srv ~body ~gen:2 ~bytes:expected2 "after retry")

let test_rollout_load_faults () =
  with_rollout_daemon (fun ~dir:_ ~srv ~body ~expected ~expected2 ->
      let port = Server.port srv in
      (* Transient EINTRs inside the retry budget are absorbed: the
         flip still happens. *)
      with_chaos "registry.load:eintr,times=3" (fun () ->
          let s, _, _ =
            Test_server.one_shot port ~meth:"POST" ~path:"/admin/rollout" ()
          in
          Alcotest.(check int) "rollout under EINTR storm" 200 s;
          Alcotest.(check int) "all three faults fired" 3
            (F.fired "registry.load"));
      check_serving ~srv ~body ~gen:2 ~bytes:expected2 "after EINTR rollout";
      (* A hard load failure keeps the serving generation untouched. *)
      with_chaos "registry.load:raise,times=1" (fun () ->
          let s, _, b =
            Test_server.one_shot port ~meth:"POST" ~path:"/admin/rollback" ()
          in
          Alcotest.(check int) "failed load answers 500" 500 s;
          Alcotest.(check bool)
            "names the surviving generation" true
            (Test_server.contains b "still serving generation 2"));
      check_serving ~srv ~body ~gen:2 ~bytes:expected2 "after failed load";
      (* Disarmed, the rollback restores generation 1 exactly. *)
      let s, _, _ =
        Test_server.one_shot port ~meth:"POST" ~path:"/admin/rollback" ()
      in
      Alcotest.(check int) "rollback succeeds disarmed" 200 s;
      check_serving ~srv ~body ~gen:1 ~bytes:expected "after rollback")

(* Regression for the in-flight accounting fix: a handler that dies on
   an escaped exception must still decrement the gauge — a leak here
   would eat admission capacity until the daemon sheds everything. *)
let test_in_flight_survives_crashed_handler () =
  let model, body, _, _ = Lazy.force Test_server.fixture in
  let srv = Test_server.boot ~model () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      with_chaos "serve.chunk_write:raise,times=1" (fun () ->
          (match
             Test_server.one_shot port ~meth:"POST" ~path:"/predict" ~body ()
           with
          | s, _, _ ->
            Alcotest.(check int) "faulted request surfaces an error" 500 s
          | exception (Failure _ | Unix.Unix_error _) ->
            (* The fault can also tear the response mid-stream. *)
            ());
          Alcotest.(check bool)
            "fault fired" true
            (F.fired "serve.chunk_write" > 0));
      (* Only the scrape itself is in flight: the crashed request's
         decrement ran. *)
      let _, _, m = Test_server.one_shot port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check (float 0.0))
        "in-flight gauge reconciles" 1.0
        (Test_server.metric_value m "pnrule_in_flight");
      let s, _, b = Test_server.one_shot port ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "healthz after crashed handler" 200 s;
      Alcotest.(check string) "healthz body" "ok\n" b)

let test_deadline_enforced () =
  let model, body, _, _ = Lazy.force Test_server.fixture in
  let config =
    { Server.default_config with chunk_size = 256; deadline = 0.3 }
  in
  let srv =
    Server.start ~config ~source:(Pn_server.Handler.Loader (fun () -> model)) ()
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      (* A client that trickles its body slower than the deadline: each
         individual read succeeds (so the idle timeout never fires), but
         the request as a whole overruns its budget and must get a 408
         instead of pinning the worker. *)
      let c = Client.connect port in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let cut = String.length body / 2 in
          Client.send c
            (Printf.sprintf
               "POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: %d\r\n\r\n%s"
               (String.length body) (String.sub body 0 cut));
          Unix.sleepf 0.6;
          Client.send c (String.sub body cut (String.length body - cut));
          let s, _, _ = Client.read_response c in
          Alcotest.(check int) "trickled request gets 408" 408 s))

let suite =
  [
    Alcotest.test_case "registry: same seed, same schedule" `Quick
      test_schedule_determinism;
    Alcotest.test_case "registry: after/every/times modifiers" `Quick
      test_schedule_modifiers;
    Alcotest.test_case "registry: outcomes and pass-through" `Quick
      test_outcomes;
    Alcotest.test_case "registry: PNRULE_FAULTS grammar" `Quick
      test_spec_parsing;
    Alcotest.test_case "persistence: crashed save leaves old file" `Quick
      test_atomic_save_survives_crash;
    Alcotest.test_case "columnar: crashed save leaves old file" `Quick
      test_columnar_save_survives_crash;
    Alcotest.test_case "columnar: short reads decode exactly" `Quick
      test_columnar_short_reads_exact;
    Alcotest.test_case "daemon: reload survives crash and corruption" `Quick
      test_reload_survives_corruption;
    Alcotest.test_case "daemon: short reads stay byte-identical" `Quick
      test_short_reads_byte_identical;
    Alcotest.test_case "daemon: EINTR storm retried and metered" `Quick
      test_eintr_retried_and_metered;
    Alcotest.test_case "daemon: dead worker respawns" `Quick
      test_worker_respawn;
    Alcotest.test_case "daemon: crash mid-flip keeps the old generation"
      `Quick test_rollout_flip_crash_keeps_old;
    Alcotest.test_case "daemon: rollout load faults retried or refused"
      `Quick test_rollout_load_faults;
    Alcotest.test_case "daemon: in-flight gauge survives crashed handler"
      `Quick test_in_flight_survives_crashed_handler;
    Alcotest.test_case "daemon: per-request deadline" `Quick
      test_deadline_enforced;
  ]
