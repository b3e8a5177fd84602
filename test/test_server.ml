(* End-to-end tests for the prediction daemon (lib/server): a real TCP
   client pointed at a server booted on an ephemeral port. Every
   response body is compared against the batch [Serve] pipeline's bytes
   on the same rows — the two paths share one core and must agree
   exactly. *)

module Server = Pn_server.Server

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* A minimal blocking HTTP/1.1 client                                   *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type t = {
    fd : Unix.file_descr;
    buf : Bytes.t;
    mutable pos : int;
    mutable len : int;
  }

  let connect port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  let send t s =
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write t.fd b !off (n - !off)
    done

  let refill t =
    let n = Unix.read t.fd t.buf 0 (Bytes.length t.buf) in
    if n = 0 then failwith "client: unexpected EOF";
    t.pos <- 0;
    t.len <- n

  let byte t =
    if t.pos >= t.len then refill t;
    let c = Bytes.get t.buf t.pos in
    t.pos <- t.pos + 1;
    c

  let line t =
    let b = Buffer.create 64 in
    let rec go () =
      match byte t with
      | '\n' -> ()
      | '\r' -> go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b

  let read_n t n =
    let b = Buffer.create n in
    for _ = 1 to n do
      Buffer.add_char b (byte t)
    done;
    Buffer.contents b

  let read_headers t =
    let rec go acc =
      match line t with
      | "" -> List.rev acc
      | l -> (
        match String.index_opt l ':' with
        | None -> go acc
        | Some i ->
          let k = String.lowercase_ascii (String.sub l 0 i) in
          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          go ((k, v) :: acc))
    in
    go []

  let read_chunked t =
    let b = Buffer.create 1024 in
    let rec go () =
      let size = int_of_string ("0x" ^ line t) in
      if size = 0 then ignore (line t)
      else begin
        Buffer.add_string b (read_n t size);
        ignore (line t);
        go ()
      end
    in
    go ();
    Buffer.contents b

  (* status, lowercased headers, fully decoded body *)
  let read_response t =
    let status_line = line t in
    let status =
      try Scanf.sscanf status_line "HTTP/1.1 %d" Fun.id
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        Alcotest.failf "bad status line %S" status_line
    in
    let hs = read_headers t in
    let body =
      match List.assoc_opt "transfer-encoding" hs with
      | Some te when String.lowercase_ascii te = "chunked" -> read_chunked t
      | _ -> (
        match List.assoc_opt "content-length" hs with
        | Some n -> read_n t (int_of_string n)
        | None -> "")
    in
    (status, hs, body)

  (* True when the server closed the connection with nothing more to
     read; a connection left open fails the read after 10 s. *)
  let at_eof t =
    Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO 10.0;
    t.pos >= t.len && Unix.read t.fd t.buf 0 (Bytes.length t.buf) = 0

  let request t ~meth ~path ?(headers = []) ?body () =
    let b = Buffer.create 256 in
    Printf.bprintf b "%s %s HTTP/1.1\r\nhost: test\r\n" meth path;
    List.iter (fun (k, v) -> Printf.bprintf b "%s: %s\r\n" k v) headers;
    (match body with
    | Some s -> Printf.bprintf b "content-length: %d\r\n" (String.length s)
    | None -> ());
    Buffer.add_string b "\r\n";
    (match body with Some s -> Buffer.add_string b s | None -> ());
    send t (Buffer.contents b);
    read_response t
end

(* One request on a throwaway connection. *)
let one_shot port ~meth ~path ?headers ?body () =
  let c = Client.connect port in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> Client.request c ~meth ~path ?headers ?body ())

(* A keep-alive request whose body is itself a complete request, on a
   route that does not read bodies: exactly one answer, which says
   [connection: close], then EOF — the body is never parsed as a second
   request. Returns the answer's status, headers and body. *)
let one_answer_then_eof port ~meth ~path =
  let smuggled = "GET /nope-smuggled HTTP/1.1\r\nhost: test\r\n\r\n" in
  let label = meth ^ " " ^ path in
  let c = Client.connect port in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      Client.send c
        (Printf.sprintf
           "%s %s HTTP/1.1\r\nhost: test\r\nconnection: keep-alive\r\n\
            content-length: %d\r\n\r\n%s"
           meth path (String.length smuggled) smuggled);
      let (_, hs, _) as answer = Client.read_response c in
      Alcotest.(check (option string))
        (label ^ ": answer closes") (Some "close")
        (List.assoc_opt "connection" hs);
      Alcotest.(check bool) (label ^ ": then EOF, no second answer") true
        (Client.at_eof c);
      answer)

let metric_value text name =
  let prefix = name ^ " " in
  let plen = String.length prefix in
  match
    List.find_map
      (fun l ->
        if String.length l > plen && String.sub l 0 plen = prefix then
          Some (String.sub l plen (String.length l - plen))
        else None)
      (String.split_on_char '\n' text)
  with
  | Some v -> float_of_string v
  | None -> Alcotest.failf "metric %s missing from scrape" name

let restore_signals () =
  Sys.set_signal Sys.sighup Sys.Signal_default;
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigint Sys.Signal_default

(* ------------------------------------------------------------------ *)
(* Shared fixture: one trained model, a CSV feed, and the batch
   pipeline's exact bytes on that feed.                                 *)
(* ------------------------------------------------------------------ *)

let fixture =
  lazy
    (let spec = Pn_synth.Numerical.nsyn 1 in
     let train = Pn_synth.Numerical.generate spec ~seed:71 ~n:10_000 in
     let test = Pn_synth.Numerical.generate spec ~seed:72 ~n:1_237 in
     let model =
       Pnrule.Saved.Single
         (Pnrule.Learner.train train ~target:Pn_synth.Numerical.target_class)
     in
     let csv = Filename.temp_file "pnrule_srv" ".csv" in
     let out = Filename.temp_file "pnrule_srv" ".out" in
     Fun.protect
       ~finally:(fun () ->
         Sys.remove csv;
         Sys.remove out)
       (fun () ->
         Pn_data.Csv_io.save test csv;
         ignore
           (Out_channel.with_open_bin out (fun oc ->
                Pnrule.Serve.predict_csv ~chunk_size:256 ~model ~input:csv
                  ~output:oc ()));
         let body = In_channel.with_open_bin csv In_channel.input_all in
         let expected = In_channel.with_open_bin out In_channel.input_all in
         (model, body, expected, Pn_data.Dataset.n_records test)))

(* The server must score with the same chunk size the batch reference
   used, so the two outputs are comparable chunk for chunk. *)
let boot ?(domains = 1) ?config ~model () =
  let config =
    match config with
    | Some c -> c
    | None -> { Server.default_config with domains; chunk_size = 256 }
  in
  Server.start ~config ~source:(Pn_server.Handler.Loader (fun () -> model)) ()

(* ------------------------------------------------------------------ *)
(* Concurrent keep-alive clients, byte-identical to batch              *)
(* ------------------------------------------------------------------ *)

let run_e2e ~domains () =
  let model, body, expected, rows = Lazy.force fixture in
  let srv = boot ~domains ~model () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let clients = 4 and reqs = 3 in
      (* Each client domain holds one keep-alive connection and reuses it
         for several predict requests. *)
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
             Alcotest.(check string) "byte-identical to batch Serve" expected
               got))
        results;
      (* One more connection interleaving every endpoint, keep-alive. *)
      let c = Client.connect port in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let s, _, b = Client.request c ~meth:"GET" ~path:"/healthz" () in
          Alcotest.(check int) "healthz" 200 s;
          Alcotest.(check string) "healthz body" "ok\n" b;
          let s, hs, b = Client.request c ~meth:"GET" ~path:"/model" () in
          Alcotest.(check int) "model" 200 s;
          Alcotest.(check bool)
            "model content type json" true
            (match List.assoc_opt "content-type" hs with
            | Some ct -> contains ct "application/json"
            | None -> false);
          Alcotest.(check bool)
            "model json names the target" true
            (contains b "\"target\"");
          Alcotest.(check bool)
            "model json generation" true
            (contains b "\"generation\": 1");
          Alcotest.(check bool)
            "model json load time" true
            (contains b "\"loaded_at\"");
          Alcotest.(check bool)
            "model json uptime" true
            (contains b "\"uptime\"");
          let s, _, got = Client.request c ~meth:"POST" ~path:"/predict" ~body () in
          Alcotest.(check int) "keep-alive predict" 200 s;
          Alcotest.(check string) "keep-alive predict bytes" expected got;
          (* The scrape reconciles with everything this test sent. *)
          let s, _, m = Client.request c ~meth:"GET" ~path:"/metrics" () in
          Alcotest.(check int) "metrics" 200 s;
          let predicts = float_of_int ((clients * reqs) + 1) in
          let total_rows = predicts *. float_of_int rows in
          Alcotest.(check (float 0.0))
            "predict requests" predicts
            (metric_value m "pnrule_requests_total{endpoint=\"predict\"}");
          Alcotest.(check (float 0.0))
            "healthz requests" 1.0
            (metric_value m "pnrule_requests_total{endpoint=\"healthz\"}");
          Alcotest.(check (float 0.0))
            "rows in" total_rows
            (metric_value m "pnrule_rows_in_total");
          Alcotest.(check (float 0.0))
            "rows out" total_rows
            (metric_value m "pnrule_rows_out_total");
          Alcotest.(check (float 0.0))
            "latency observations" predicts
            (metric_value m
               "pnrule_request_seconds_count{endpoint=\"predict\"}");
          (* The scrape itself is the one request in flight. *)
          Alcotest.(check (float 0.0))
            "in flight" 1.0
            (metric_value m "pnrule_in_flight");
          (* The load-time gauge is a live unix timestamp. *)
          Alcotest.(check bool)
            "model load time exported" true
            (metric_value m "pnrule_model_loaded_at_seconds" > 1e9)))

(* ------------------------------------------------------------------ *)
(* Error paths: the worker must survive every one of them              *)
(* ------------------------------------------------------------------ *)

let test_error_paths () =
  let model, _, _, _ = Lazy.force fixture in
  let config =
    {
      Server.default_config with
      domains = 2;
      chunk_size = 64;
      max_body = 2048;
      max_rows = 8;
    }
  in
  let srv = boot ~config ~model () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let attr_names =
        Array.to_list
          (Array.map
             (fun (a : Pn_data.Attribute.t) -> a.name)
             (Pnrule.Saved.attrs model))
      in
      (* Garbage instead of a request line. *)
      let c = Client.connect port in
      Client.send c "NOT-EVEN-HTTP\r\n\r\n";
      let s, _, _ = Client.read_response c in
      Alcotest.(check int) "garbage request" 400 s;
      Client.close c;
      (* Routing errors. *)
      let s, _, _ = one_shot port ~meth:"GET" ~path:"/nope" () in
      Alcotest.(check int) "unknown route" 404 s;
      let s, _, _ = one_shot port ~meth:"GET" ~path:"/predict" () in
      Alcotest.(check int) "GET /predict" 405 s;
      let s, _, _ = one_shot port ~meth:"POST" ~path:"/metrics" ~body:"" () in
      Alcotest.(check int) "POST /metrics" 405 s;
      (* Bad per-request override. *)
      let s, _, _ =
        one_shot port ~meth:"POST" ~path:"/predict?scores=maybe" ~body:"" ()
      in
      Alcotest.(check int) "bad scores flag" 400 s;
      (* Schema mismatch: the 400 body lists every missing attribute. *)
      let s, _, b =
        one_shot port ~meth:"POST" ~path:"/predict" ~body:"a,b\n1,2\n" ()
      in
      Alcotest.(check int) "schema mismatch" 400 s;
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "mismatch message mentions %s" name)
            true (contains b name))
        attr_names;
      (* Oversized body: rejected from the Content-Length alone, before
         any body byte is sent. *)
      let c = Client.connect port in
      Client.send c
        "POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: 4096\r\n\r\n";
      let s, _, _ = Client.read_response c in
      Alcotest.(check int) "oversized body" 413 s;
      Client.close c;
      (* Row-count limit (max_rows = 8). *)
      let feed = Buffer.create 256 in
      Buffer.add_string feed (String.concat "," attr_names ^ "\n");
      for _ = 1 to 20 do
        Buffer.add_string feed
          (String.concat "," (List.map (fun _ -> "0") attr_names) ^ "\n")
      done;
      let s, _, _ =
        one_shot port ~meth:"POST" ~path:"/predict?on-error=skip"
          ~body:(Buffer.contents feed) ()
      in
      Alcotest.(check int) "row limit" 413 s;
      (* Mid-request disconnect: head plus a truncated body, then gone. *)
      let c = Client.connect port in
      Client.send c
        "POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: 1000\r\n\r\nhalf";
      Client.close c;
      Unix.sleepf 0.2;
      (* Both workers are still alive and serving. *)
      let s, _, b = one_shot port ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "healthz after errors" 200 s;
      Alcotest.(check string) "healthz body" "ok\n" b;
      let _, _, m = one_shot port ~meth:"GET" ~path:"/metrics" () in
      (* 405 + bad flag + schema + oversize + row limit, all on the
         predict endpoint. *)
      Alcotest.(check (float 0.0))
        "predict errors counted" 5.0
        (metric_value m
           "pnrule_request_errors_total{endpoint=\"predict\"}"))

(* The columnar row limit is enforced from the header's row count,
   before any group is decoded: a body that declares 9 rows under the
   same max_rows = 8 config — header only, no groups — is 413, not a
   400 for the groups it lacks. *)
let test_columnar_header_row_limit () =
  let model, _, _, _ = Lazy.force fixture in
  let config =
    {
      Server.default_config with
      domains = 2;
      chunk_size = 64;
      max_body = 2048;
      max_rows = 8;
    }
  in
  let srv = boot ~config ~model () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let nine =
        Pn_synth.Numerical.generate (Pn_synth.Numerical.nsyn 1) ~seed:73 ~n:9
      in
      let pnc = Pn_data.Columnar.to_string nine in
      (* magic (8 bytes), header length, header payload, header CRC *)
      let hlen = Int32.to_int (String.get_int32_le pnc 8) in
      let header_only = String.sub pnc 0 (8 + 4 + hlen + 4) in
      let headers = [ ("content-type", "application/x-pnrule-columnar") ] in
      let s, _, b =
        one_shot port ~meth:"POST" ~path:"/predict" ~headers ~body:header_only ()
      in
      Alcotest.(check int) "9 declared rows over a limit of 8" 413 s;
      Alcotest.(check bool) "names the limit" true (contains b "row limit");
      (* The full 9-row body is refused the same way. *)
      let s, _, b = one_shot port ~meth:"POST" ~path:"/predict" ~headers ~body:pnc () in
      Alcotest.(check int) "full 9-row body" 413 s;
      Alcotest.(check bool) "full body names the limit" true (contains b "row limit"))

(* ------------------------------------------------------------------ *)
(* Percent-encoding: every malformed escape is a deterministic 400      *)
(* ------------------------------------------------------------------ *)

let test_bad_percent_encoding () =
  let model, _, _, _ = Lazy.force fixture in
  let srv = boot ~model () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let raw target =
        let c = Client.connect port in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            Client.send c
              (Printf.sprintf "GET %s HTTP/1.1\r\nhost: t\r\n\r\n" target);
            Client.read_response c)
      in
      (* A truncated escape ("%2" at end of input) and a non-hex escape
         ("%zz") take different branches in the decoder; both must fail
         the same way — 400 naming the bad escape — never a silent
         passthrough or a worker-killing exception. *)
      List.iter
        (fun (target, what) ->
          let s, _, b = raw target in
          Alcotest.(check int) (what ^ " is 400") 400 s;
          Alcotest.(check bool)
            (what ^ " names the escape") true
            (contains b "percent-encoding"))
        [
          ("/healthz%2", "truncated escape at end of path");
          ("/%zzmodel", "non-hex escape in path");
          ("/%2", "truncated escape alone");
          ("/predict?scores=%2", "truncated escape in query value");
          ("/predict?on-error=%g1", "half-hex escape in query value");
          ("/predict?%zz=1", "non-hex escape in query key");
        ];
      (* Deterministic: the same bad escape answers identically twice. *)
      let s1, _, b1 = raw "/healthz%2" in
      let s2, _, b2 = raw "/healthz%2" in
      Alcotest.(check int) "same status on repeat" s1 s2;
      Alcotest.(check string) "same body on repeat" b1 b2;
      (* Valid escapes still decode: %2F is '/', so this is /healthz. *)
      let s, _, b = raw "/healthz%2F" in
      Alcotest.(check int) "valid escape decodes" 404 s;
      Alcotest.(check bool) "decoded path in the 404" true (contains b "/healthz/");
      (* The worker survived all of it. *)
      let s, _, b = one_shot port ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "healthz after bad escapes" 200 s;
      Alcotest.(check string) "healthz body" "ok\n" b)

(* ------------------------------------------------------------------ *)
(* Admission control: saturation sheds 429, never drops admitted work   *)
(* ------------------------------------------------------------------ *)

let test_admission_sheds_overload () =
  let model, body, expected, _ = Lazy.force fixture in
  let config =
    { Server.default_config with chunk_size = 256; queue_limit = 1 }
  in
  let srv = boot ~config ~model () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      (* Client A occupies the only admission slot: head plus half the
         body keeps its request in flight until we finish it. *)
      let a = Client.connect port in
      Fun.protect
        ~finally:(fun () -> Client.close a)
        (fun () ->
          let cut = String.length body / 2 in
          Client.send a
            (Printf.sprintf
               "POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: %d\r\n\r\n%s"
               (String.length body) (String.sub body 0 cut));
          (* Wait for the worker to pick the request up (in_flight = 1). *)
          Unix.sleepf 0.3;
          (* Two more clients hit the saturated daemon: both are refused
             at accept speed with a canned 429 + Retry-After, without the
             listener ever reading their requests. *)
          List.iter
            (fun name ->
              let c = Client.connect port in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  let s, hs, b = Client.read_response c in
                  Alcotest.(check int) (name ^ " refused") 429 s;
                  Alcotest.(check (option string))
                    (name ^ " carries retry-after") (Some "1")
                    (List.assoc_opt "retry-after" hs);
                  Alcotest.(check bool)
                    (name ^ " explains itself") true
                    (contains b "capacity")))
            [ "first overflow"; "second overflow" ];
          (* The admitted request was never dropped: finishing the body
             yields the exact batch-pipeline bytes. *)
          Client.send a (String.sub body cut (String.length body - cut));
          let s, _, got = Client.read_response a in
          Alcotest.(check int) "admitted request completes" 200 s;
          Alcotest.(check string) "admitted request byte-identical" expected
            got);
      (* A's connection is closed, freeing the single worker; give the
         in-flight decrement a beat so the next accept is admitted, then
         keep one connection for every post-check — with queue_limit = 1
         a second accept would race its predecessor's decrement. *)
      Unix.sleepf 0.2;
      let c = Client.connect port in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let s, _, b = Client.request c ~meth:"GET" ~path:"/healthz" () in
          Alcotest.(check int) "healthz after saturation" 200 s;
          Alcotest.(check string) "healthz body" "ok\n" b;
          let _, _, m = Client.request c ~meth:"GET" ~path:"/metrics" () in
          Alcotest.(check (float 0.0))
            "sheds counted by reason" 2.0
            (metric_value m "pnrule_shed_total{reason=\"overload\"}");
          Alcotest.(check (float 0.0))
            "no draining sheds" 0.0
            (metric_value m "pnrule_shed_total{reason=\"draining\"}");
          Alcotest.(check (float 0.0))
            "queue drained" 0.0
            (metric_value m "pnrule_queue_depth");
          Alcotest.(check (float 0.0))
            "limit exported" 1.0
            (metric_value m "pnrule_queue_limit")))

(* ------------------------------------------------------------------ *)
(* Config validation                                                    *)
(* ------------------------------------------------------------------ *)

let test_config_validation () =
  let model, _, _, _ = Lazy.force fixture in
  let boot_with f =
    let config = f Server.default_config in
    Server.start ~config ~source:(Pn_server.Handler.Loader (fun () -> model)) ()
  in
  List.iter
    (fun (name, exn, f) -> Alcotest.check_raises name exn (fun () -> ignore (boot_with f)))
    [
      ( "zero backlog",
        Invalid_argument "Server.start: backlog must be in 1..65535",
        fun c -> { c with Server.backlog = 0 } );
      ( "oversized backlog",
        Invalid_argument "Server.start: backlog must be in 1..65535",
        fun c -> { c with Server.backlog = 65_536 } );
      ( "zero queue limit",
        Invalid_argument "Server.start: queue_limit",
        fun c -> { c with Server.queue_limit = 0 } );
      ( "nan idle timeout",
        Invalid_argument "Server.start: idle_timeout",
        fun c -> { c with Server.idle_timeout = nan } );
    ]

(* ------------------------------------------------------------------ *)
(* Hot reload                                                           *)
(* ------------------------------------------------------------------ *)

let test_reload_and_generation () =
  let model, body, expected, _ = Lazy.force fixture in
  let fail = ref false in
  let load () = if !fail then failwith "synthetic load failure" else model in
  let config = { Server.default_config with chunk_size = 256 } in
  let srv = Server.start ~config ~source:(Pn_server.Handler.Loader load) () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      restore_signals ())
    (fun () ->
      let port = Server.port srv in
      Alcotest.(check int) "initial generation" 1 (Server.generation srv);
      (match Server.reload srv with
      | Ok () -> ()
      | Error m -> Alcotest.failf "reload failed: %s" m);
      Alcotest.(check int) "generation bumped" 2 (Server.generation srv);
      let _, _, j = one_shot port ~meth:"GET" ~path:"/model" () in
      Alcotest.(check bool)
        "/model reports the new generation" true
        (contains j "\"generation\": 2");
      (* A failing load keeps the old model serving. *)
      fail := true;
      (match Server.reload srv with
      | Ok () -> Alcotest.fail "expected reload failure"
      | Error _ -> ());
      Alcotest.(check int) "generation unchanged" 2 (Server.generation srv);
      let s, _, got = one_shot port ~meth:"POST" ~path:"/predict" ~body () in
      Alcotest.(check int) "still serving" 200 s;
      Alcotest.(check string) "old model still answers" expected got;
      (* SIGHUP: the asynchronous path through the listener loop. *)
      fail := false;
      Server.install_signals srv;
      Unix.kill (Unix.getpid ()) Sys.sighup;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Server.generation srv < 3 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.02
      done;
      Alcotest.(check int) "SIGHUP reloaded" 3 (Server.generation srv);
      let _, _, m = one_shot port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check (float 0.0))
        "reloads counted" 2.0
        (metric_value m "pnrule_model_reloads_total");
      Alcotest.(check (float 0.0))
        "failures counted" 1.0
        (metric_value m "pnrule_model_reload_failures_total"))

(* ------------------------------------------------------------------ *)
(* Graceful drain                                                       *)
(* ------------------------------------------------------------------ *)

let test_sigterm_drains_in_flight () =
  let model, body, expected, _ = Lazy.force fixture in
  let srv = boot ~domains:2 ~model () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      restore_signals ())
    (fun () ->
      let port = Server.port srv in
      Server.install_signals srv;
      let mid_request = Atomic.make false in
      let client =
        Domain.spawn (fun () ->
            let c = Client.connect port in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                (* A completed first request guarantees a worker domain
                   owns this connection before the drain begins. *)
                let s, _, _ = Client.request c ~meth:"GET" ~path:"/healthz" () in
                Alcotest.(check int) "pre-drain healthz" 200 s;
                let cut = String.length body / 2 in
                Client.send c
                  (Printf.sprintf
                     "POST /predict HTTP/1.1\r\n\
                      host: t\r\n\
                      content-length: %d\r\n\
                      \r\n\
                      %s"
                     (String.length body)
                     (String.sub body 0 cut));
                Atomic.set mid_request true;
                (* Hold the request open across the SIGTERM. *)
                Unix.sleepf 0.6;
                Client.send c (String.sub body cut (String.length body - cut));
                Client.read_response c))
      in
      while not (Atomic.get mid_request) do
        Unix.sleepf 0.01
      done;
      (* Give the worker a moment to pick the request up, then drain. *)
      Unix.sleepf 0.15;
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      let status, _, got = Domain.join client in
      Alcotest.(check int) "in-flight request finished" 200 status;
      Alcotest.(check string) "complete, correct response" expected got;
      Server.join srv;
      (* Fully drained: the listener is gone. *)
      match Client.connect port with
      | c ->
        Client.close c;
        Alcotest.fail "server still accepting after drain"
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ())

(* ------------------------------------------------------------------ *)
(* URL codec: property round-trips and hostile edge cases               *)
(* ------------------------------------------------------------------ *)

module Http = Pn_server.Http

(* The router re-serializes every parsed query string when proxying, so
   decode∘encode must be the identity on arbitrary bytes — not just the
   strings a polite client would send. *)
let url_qcheck_tests =
  let any_string =
    QCheck.make
      ~print:(Printf.sprintf "%S")
      QCheck.Gen.(
        string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 40))
  in
  let query =
    let s =
      QCheck.Gen.(
        string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12))
    in
    QCheck.make
      ~print:(fun q ->
        String.concat "; "
          (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) q))
      QCheck.Gen.(list_size (int_bound 8) (pair s s))
  in
  [
    QCheck.Test.make ~count:500 ~name:"url_decode inverts url_encode"
      any_string (fun s -> Http.url_decode (Http.url_encode s) = s);
    QCheck.Test.make ~count:500
      ~name:"url_decode inverts url_encode under plus_space" any_string
      (fun s ->
        Http.url_decode ~plus_space:true (Http.url_encode ~plus_space:true s)
        = s);
    QCheck.Test.make ~count:500 ~name:"parse_query inverts encode_query" query
      (fun q -> Http.parse_query (Http.encode_query q) = q);
    (* Encoding is canonical: no unreserved byte is ever escaped, and
       everything else always is, so an encoded string never needs a
       second encoding pass. *)
    QCheck.Test.make ~count:500 ~name:"url_encode output is canonical"
      any_string (fun s ->
        let e = Http.url_encode s in
        Http.url_encode (Http.url_decode e) = e);
  ]

let test_url_edge_cases () =
  let bad_request f =
    match f () with
    | exception Http.Bad_request _ -> ()
    | s -> Alcotest.failf "expected Bad_request, decoded %S" s
  in
  (* '+' is a literal byte on the path side, a space only under form
     decoding — and %2B is a plus under both. *)
  Alcotest.(check string) "plus is literal" "a+b" (Http.url_decode "a+b");
  Alcotest.(check string) "plus is space under plus_space" "a b"
    (Http.url_decode ~plus_space:true "a+b");
  Alcotest.(check string) "%2B is a plus even under plus_space" "a+b"
    (Http.url_decode ~plus_space:true "a%2Bb");
  Alcotest.(check string) "space encodes as plus under plus_space" "a+b"
    (Http.url_encode ~plus_space:true "a b");
  (* Empty keys and empty values are preserved, not collapsed. *)
  Alcotest.(check (list (pair string string)))
    "empty key" [ ("", "v") ] (Http.parse_query "=v");
  Alcotest.(check (list (pair string string)))
    "empty values and bare keys"
    [ ("a", ""); ("", "b"); ("c", "") ]
    (Http.parse_query "a=&=b&c");
  Alcotest.(check (list (pair string string)))
    "empty pairs are dropped"
    [ ("a", ""); ("b", "") ]
    (Http.parse_query "a&&b");
  Alcotest.(check (list (pair string string)))
    "empty keys survive the proxy round-trip" [ ("", "v"); ("k", "") ]
    (Http.parse_query (Http.encode_query [ ("", "v"); ("k", "") ]));
  (* Double-encoded input decodes exactly one layer per pass. *)
  Alcotest.(check string) "one layer at a time" "%41" (Http.url_decode "%2541");
  Alcotest.(check string) "second pass finishes the job" "A"
    (Http.url_decode (Http.url_decode "%2541"));
  Alcotest.(check (list (pair string string)))
    "double-encoded values survive the proxy round-trip"
    [ ("k", "%2541") ]
    (Http.parse_query (Http.encode_query [ ("k", "%2541") ]));
  (* Malformed escapes fail deterministically, never mangle bytes. *)
  bad_request (fun () -> Http.url_decode "%");
  bad_request (fun () -> Http.url_decode "%2");
  bad_request (fun () -> Http.url_decode "%zz");
  bad_request (fun () -> Http.url_decode "ok%f");
  bad_request (fun () -> Http.url_decode ~plus_space:true "a+%G0")

(* ------------------------------------------------------------------ *)
(* Request-head hardening: bare CR, header budget boundary, malformed
   responses                                                            *)
(* ------------------------------------------------------------------ *)

(* Feed raw bytes to the protocol layer over a socketpair — no server,
   no TCP, fully deterministic. *)
let with_raw_conn raw parse =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let conn = Http.make_conn a in
      let w = Bytes.of_string raw in
      let n = Bytes.length w in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write b w !off (n - !off)
      done;
      Unix.shutdown b Unix.SHUTDOWN_SEND;
      parse conn)

let try_request ?max_header raw =
  with_raw_conn raw (fun conn ->
      match Http.read_request ?max_header conn with
      | req -> Ok req
      | exception Http.Bad_request m -> Error m)

let test_bare_cr_rejected () =
  let expect_bad label raw =
    match try_request raw with
    | Error m ->
      Alcotest.(check bool)
        (label ^ ": names the bare CR") true
        (contains m "bare CR")
    | Ok req ->
      Alcotest.failf "%s: parsed %s %s instead of rejecting" label
        req.Http.meth req.Http.path
  in
  (* CR-only "line endings": some stacks treat a lone CR as a line
     break, which would let a request smuggle a header we never saw.
     Reject the whole head instead. *)
  expect_bad "CR-only separator" "GET / HTTP/1.1\rhost: t\r\n\r\n";
  expect_bad "bare CR inside a header" "GET / HTTP/1.1\r\nh: a\rb\r\n\r\n";
  expect_bad "CR-only blank line" "GET / HTTP/1.1\r\nhost: t\r\n\r\r\n";
  (* CRLF and bare LF both still parse. *)
  (match try_request "GET /ok HTTP/1.1\r\nhost: t\r\n\r\n" with
  | Ok req -> Alcotest.(check string) "CRLF head parses" "/ok" req.Http.path
  | Error m -> Alcotest.failf "CRLF head rejected: %s" m);
  match try_request "GET /ok HTTP/1.1\nhost: t\n\n" with
  | Ok req -> Alcotest.(check string) "bare-LF head parses" "/ok" req.Http.path
  | Error m -> Alcotest.failf "bare-LF head rejected: %s" m

let test_header_budget_boundary () =
  let head = "GET /exact HTTP/1.1\r\nhost: boundary-test\r\n\r\n" in
  let budget = String.length head in
  (* Exactly at the budget: admitted. *)
  (match try_request ~max_header:budget head with
  | Ok req ->
    Alcotest.(check string) "exactly-at-budget head parses" "/exact"
      req.Http.path
  | Error m -> Alcotest.failf "exactly-at-budget head rejected: %s" m);
  (* One byte over (same budget, one more header byte): rejected with
     the deterministic oversize error, not a hang or a mangled parse. *)
  let over = "GET /exact HTTP/1.1\r\nhost: boundary-test!\r\n\r\n" in
  Alcotest.(check int) "over-head is one byte larger" (budget + 1)
    (String.length over);
  match try_request ~max_header:budget over with
  | Error m ->
    Alcotest.(check bool) "oversize error names the budget" true
      (contains m "too large")
  | Ok _ -> Alcotest.fail "one-over-budget head was admitted"

(* The router maps any Bad_request from a shard's response to a
   deterministic 502; this pins down that every malformed shape raises
   Bad_request promptly rather than hanging or leaking garbage. *)
let test_malformed_responses () =
  let try_response raw =
    with_raw_conn raw (fun conn ->
        match Http.read_response conn with
        | r -> Ok r
        | exception Http.Bad_request m -> Error m)
  in
  let expect_bad label raw =
    match try_response raw with
    | Error _ -> ()
    | Ok r -> Alcotest.failf "%s: parsed as HTTP %d" label r.Http.status
  in
  (* Well-formed framings parse. *)
  (match try_response "HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabc" with
  | Ok r ->
    Alcotest.(check int) "content-length status" 200 r.Http.status;
    Alcotest.(check string) "content-length body" "abc" r.Http.body
  | Error m -> Alcotest.failf "content-length response rejected: %s" m);
  (match
     try_response
       "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"
   with
  | Ok r -> Alcotest.(check string) "chunked body de-chunked" "abc" r.Http.body
  | Error m -> Alcotest.failf "chunked response rejected: %s" m);
  (match try_response "HTTP/1.1 204 No Content\r\n\r\n" with
  | Ok r -> Alcotest.(check string) "EOF-delimited empty body" "" r.Http.body
  | Error m -> Alcotest.failf "EOF-delimited response rejected: %s" m);
  (* Malformed shapes are deterministic Bad_request. *)
  expect_bad "garbage status line" "garbage\r\n\r\n";
  expect_bad "non-numeric status" "HTTP/1.1 abc OK\r\n\r\n";
  expect_bad "status out of range" "HTTP/1.1 999 Nope\r\n\r\n";
  expect_bad "negative content-length"
    "HTTP/1.1 200 OK\r\ncontent-length: -1\r\n\r\n";
  expect_bad "non-numeric content-length"
    "HTTP/1.1 200 OK\r\ncontent-length: lots\r\n\r\n";
  expect_bad "garbage chunk size"
    "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\nabc\r\n0\r\n\r\n";
  expect_bad "chunk missing its CRLF terminator"
    "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabcXY0\r\n\r\n";
  (* Truncation is Disconnect (retryable — the shard died), never a
     silent short body. *)
  match
    with_raw_conn "HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc"
      (fun conn ->
        match Http.read_response conn with
        | r -> Some r
        | exception Http.Disconnect -> None)
  with
  | None -> ()
  | Some r ->
    Alcotest.failf "truncated body parsed as %d-byte response"
      (String.length r.Http.body)

(* A successful rollout and rollback, each with a body no admin route
   reads: one answer per connection, and the flips still happen. *)
let test_bodied_admin_closes () =
  let model, _, _, _ = Lazy.force fixture in
  let dir = Filename.temp_file "pnrule_srv_reg" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let reg = Pnrule.Registry.open_dir dir in
  ignore (Pnrule.Registry.publish reg model);
  let srv = Server.start ~source:(Pn_server.Handler.Registry reg) () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let port = Server.port srv in
      ignore (Pnrule.Registry.publish reg model);
      List.iter
        (fun (path, gen) ->
          let s, _, b = one_answer_then_eof port ~meth:"POST" ~path in
          Alcotest.(check int) (path ^ " status") 200 s;
          Alcotest.(check bool) (path ^ " names the generation") true
            (contains b (Printf.sprintf "\"generation\": %d" gen));
          Alcotest.(check int) (path ^ " flipped") gen (Server.generation srv))
        [ ("/admin/rollout", 2); ("/admin/rollback", 1) ];
      let _, _, m = one_shot port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check (float 0.0))
        "no smuggled request reached a route" 0.0
        (metric_value m "pnrule_requests_total{endpoint=\"other\"}"))

let suite =
  [
    Alcotest.test_case "e2e: 1 worker domain" `Quick (run_e2e ~domains:1);
    Alcotest.test_case "e2e: 4 worker domains" `Quick (run_e2e ~domains:4);
    Alcotest.test_case "error paths leave workers alive" `Quick
      test_error_paths;
    Alcotest.test_case "bad percent-escapes are deterministic 400s" `Quick
      test_bad_percent_encoding;
    Alcotest.test_case "saturation sheds 429 without dropping work" `Quick
      test_admission_sheds_overload;
    Alcotest.test_case "backlog and queue-limit validation" `Quick
      test_config_validation;
    Alcotest.test_case "hot reload and generations" `Quick
      test_reload_and_generation;
    Alcotest.test_case "SIGTERM drains in-flight work" `Quick
      test_sigterm_drains_in_flight;
    Alcotest.test_case "url codec edge cases" `Quick test_url_edge_cases;
    Alcotest.test_case "bare CR in a request head is rejected" `Quick
      test_bare_cr_rejected;
    Alcotest.test_case "header budget boundary is exact" `Quick
      test_header_budget_boundary;
    Alcotest.test_case "malformed responses raise, never hang" `Quick
      test_malformed_responses;
    Alcotest.test_case "a bodied admin request gets one answer and closes" `Quick
      test_bodied_admin_closes;
    Alcotest.test_case "columnar row limit is checked from the header" `Quick
      test_columnar_header_row_limit;
  ]
  @ List.map QCheck_alcotest.to_alcotest url_qcheck_tests
