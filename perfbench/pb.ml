(* The in-process half of the benchmark. perfbench/run.py drives it and
   is the place to start reading.

     pb gen    --dir D --seed N --body-rows N --body-format csv|pnc
       Writes the run's inputs, all drawn from the seed: train-K.pnc,
       holdout.pnc, holdout.labels and bodies/NNN.csv or bodies/NNN.pnc.
       The data sizes are the constants below.

     pb load   --dir D --model M --port P --body-format F --seed N
               (--rate R --seconds S | --closed N) [--spans FILE]
       Computes every body's expected response in-process first, then
       sends POST /predict requests on one keep-alive connection and
       compares each response body byte for byte. Open loop: Poisson
       arrivals drawn from the seed, each request timed from its due
       time; a request due while the previous one is in flight waits
       for it. Closed loop: N requests back to back, each timed from its
       send.

     pb trace  --dir D --model M --workload W --body-format F --spans FILE
               --method boosted --rounds N --instance-sample S
       Times calls into each library layer on the run's inputs, each on
       the pool the program itself uses for that call: the default pool
       for training and batch scoring (the CLI), Pool.sequential for
       request scoring (the daemon). The boosted flags are the ones the
       benchmark passes to `pnrule train`, so both train the same
       ensemble.

   Each subcommand prints one JSON object on stdout. Spans go to the
   --spans file when the process exits. *)

let now = Unix.gettimeofday

(* Input sizes: nsyn3 (target fraction 0.003, as in the paper), several
   training files, a ten times larger holdout and a pool of request
   bodies. A run trains on every training file so that no one draw of
   the data sets its training time or accuracy. *)
let nsyn = 3

let train_sets = 5

let train_rows = 100_000

let holdout_rows = 1_000_000

let n_bodies = 32

(* ------------------------------------------------------------------ *)
(* Arguments and output                                                 *)
(* ------------------------------------------------------------------ *)

let dir = ref ""

let seed = ref 1

let body_rows = ref 0

let body_format = ref "csv"

let model_path = ref ""

let port = ref 0

let rate = ref 0.0

let seconds = ref 0.0

let closed = ref 0

let spans_path = ref ""

let workload = ref ""

let meth = ref ""

let rounds = ref 0

let instance_sample = ref ""

let specs =
  Arg.align
    [
      ("--dir", Arg.Set_string dir, "D run directory");
      ("--seed", Arg.Set_int seed, "N seed of every input");
      ("--body-rows", Arg.Set_int body_rows, "N rows per request body");
      ("--body-format", Arg.Symbol ([ "csv"; "pnc" ], ( := ) body_format), " body format");
      ("--model", Arg.Set_string model_path, "M served model");
      ("--port", Arg.Set_int port, "P daemon or router port");
      ("--rate", Arg.Set_float rate, "R open loop: mean arrivals per second");
      ("--seconds", Arg.Set_float seconds, "S open loop: schedule length");
      ("--closed", Arg.Set_int closed, "N closed loop: requests to send");
      ("--spans", Arg.Set_string spans_path, "FILE write spans here at exit");
      ("--workload", Arg.Set_string workload, "W workload name recorded in spans");
      ("--method", Arg.Set_string meth, "boosted (as for pnrule train)");
      ("--rounds", Arg.Set_int rounds, "N boosting rounds (as for pnrule train)");
      ("--instance-sample", Arg.Set_string instance_sample, "S sampling (as for pnrule train)");
    ]

let jnum f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let jstr s = Printf.sprintf "%S" s

let jobj kvs =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) kvs)
  ^ "}"

let jarr f a = "[" ^ String.concat ", " (Array.to_list (Array.map f a)) ^ "]"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

(* Linear interpolation between closest ranks. *)
let quantile a q =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then Float.nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median a = quantile a 0.5

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

(* Spans are kept in memory and written out at exit. A span's self time
   is its duration minus the union of its children's intervals. *)
module Trace = struct
  type span = {
    id : int;
    parent : int;  (** 0 = root *)
    name : string;
    start : float;
    stop : float;
  }

  let spans : span list ref = ref []

  let next_id = ref 0

  let fresh_id () =
    incr next_id;
    !next_id

  let add s = spans := s :: !spans

  (* Nesting for [with_span]. *)
  let stack = ref []

  let with_span name f =
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    let id = fresh_id () in
    stack := id :: !stack;
    let start = now () in
    let finish () =
      stack := List.tl !stack;
      add { id; parent; name; start; stop = now () }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e

  let self_times () =
    let children = Hashtbl.create 64 in
    List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) !spans;
    let by_name = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let kids =
          Hashtbl.find_all children s.id
          |> List.map (fun c -> (c.start, c.stop))
          |> List.sort compare
        in
        let covered, _ =
          List.fold_left
            (fun (acc, upto) (a, b) ->
              let a = Float.max a upto and b = Float.min b s.stop in
              if b > a then (acc +. (b -. a), b) else (acc, upto))
            (0.0, s.start) kids
        in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_name s.name) in
        Hashtbl.replace by_name s.name ((s.stop -. s.start -. covered) :: prev))
      !spans;
    by_name

  let write path =
    Out_channel.with_open_bin path (fun oc ->
        List.iter
          (fun s ->
            output_string oc
              (jobj
                 [
                   ("id", string_of_int s.id);
                   ("parent", string_of_int s.parent);
                   ("name", jstr s.name);
                   ("workload", jstr !workload);
                   ("start", jnum s.start);
                   ("end", jnum s.stop);
                 ]);
            output_char oc '\n')
          (List.rev !spans))
end

(* ------------------------------------------------------------------ *)
(* gen                                                                  *)
(* ------------------------------------------------------------------ *)

let gen () =
  let dir = !dir and seed = !seed in
  let spec = Pn_synth.Numerical.nsyn nsyn in
  (* Disjoint streams per seed: holdout, request feed, training files. *)
  let streams = 2 + train_sets in
  let draw stream n = Pn_synth.Numerical.generate spec ~seed:((streams * seed) + stream) ~n in
  let holdout = draw 0 holdout_rows in
  let rows = !body_rows and bodies = n_bodies in
  let feed = draw 1 (rows * bodies) in
  for k = 0 to train_sets - 1 do
    write_file
      (Filename.concat dir (Printf.sprintf "train-%d.pnc" k))
      (Pn_data.Columnar.to_string (draw (2 + k) train_rows))
  done;
  write_file (Filename.concat dir "holdout.pnc") (Pn_data.Columnar.to_string holdout);
  let labels = Buffer.create (4 * Pn_data.Dataset.n_records holdout) in
  Array.iter
    (fun l ->
      Buffer.add_string labels holdout.Pn_data.Dataset.classes.(l);
      Buffer.add_char labels '\n')
    holdout.Pn_data.Dataset.labels;
  write_file (Filename.concat dir "holdout.labels") (Buffer.contents labels);
  let bdir = Filename.concat dir "bodies" in
  if not (Sys.file_exists bdir) then Sys.mkdir bdir 0o755;
  let fmt = !body_format in
  for b = 0 to bodies - 1 do
    let part = Pn_data.Dataset.subset feed (Array.init rows (fun i -> (b * rows) + i)) in
    let path = Filename.concat bdir (Printf.sprintf "%03d.%s" b fmt) in
    if fmt = "pnc" then write_file path (Pn_data.Columnar.to_string ~group_size:rows part)
    else Pn_data.Csv_io.save part path
  done;
  print_endline (jobj [ ("ocaml", jstr Sys.ocaml_version) ])

(* ------------------------------------------------------------------ *)
(* Request bodies and their expected responses                          *)
(* ------------------------------------------------------------------ *)

let body_paths dir fmt =
  let bdir = Filename.concat dir "bodies" in
  Sys.readdir bdir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ("." ^ fmt))
  |> List.sort compare
  |> List.map (Filename.concat bdir)
  |> Array.of_list

(* What the daemon answers for [body]: the same streaming core with the
   daemon's defaults and its pool. *)
let serve_body ~model ~fmt body =
  let buf = Buffer.create 4096 in
  let source = Pn_data.Stream.of_string body in
  let write = Buffer.add_string buf in
  let pool = Pn_util.Pool.sequential in
  ignore
    (if fmt = "pnc" then
       Pnrule.Serve.predict_columnar_stream ~pool ~model ~source ~write ()
     else Pnrule.Serve.predict_stream ~pool ~model ~source ~write ());
  Buffer.contents buf

let content_type fmt =
  if fmt = "pnc" then "application/x-pnrule-columnar" else "text/csv"

(* ------------------------------------------------------------------ *)
(* load                                                                 *)
(* ------------------------------------------------------------------ *)

module Http = Pn_server.Http

type outcome = {
  mutable sent : bool;
  mutable ok : bool;
  mutable latency : float;
  mutable queued : float;  (** due time -> the connection was free *)
  mutable late : float;  (** generator lag past the due time *)
}

(* A request that could not start within this many seconds of its due
   time is not sent: the run fell behind and the backlog is growing. *)
let behind_limit = 2.0

(* The generator spins for this last stretch before a due time. *)
let spin = 0.002

let load () =
  let fmt = !body_format and port = !port and open_loop = !closed = 0 in
  let model = Pnrule.Serialize.load_saved !model_path in
  let bodies = Array.map read_file (body_paths !dir fmt) in
  let expected = Array.map (serve_body ~model ~fmt) bodies in
  let headers = [ ("content-type", content_type fmt) ] in
  let rng = Pn_util.Rng.create !seed in
  let due =
    if not open_loop then Array.make !closed 0.0
    else begin
      let arrivals = ref [] and t = ref 0.0 in
      let continue = ref true in
      while !continue do
        t := !t -. (log (1.0 -. Pn_util.Rng.float rng 1.0) /. !rate);
        if !t < !seconds then arrivals := !t :: !arrivals else continue := false
      done;
      Array.of_list (List.rev !arrivals)
    end
  in
  let n = Array.length due in
  let choice = Array.init n (fun _ -> Pn_util.Rng.int rng (Array.length bodies)) in
  let out =
    Array.init n (fun _ ->
        { sent = false; ok = false; latency = Float.nan; queued = 0.0; late = 0.0 })
  in
  let traced = !spans_path <> "" in
  let pass_id = Trace.fresh_id () in
  let conn = ref None in
  let connection () =
    match !conn with
    | Some c -> c
    | None ->
      let c = Http.connect ~host:"127.0.0.1" ~port ~timeout:30.0 () in
      conn := Some c;
      c
  in
  let drop () =
    Option.iter Http.close !conn;
    conn := None
  in
  ignore (connection ());
  let t0 = now () +. 0.01 in
  for i = 0 to n - 1 do
    let o = out.(i) in
    let due_at = t0 +. due.(i) in
    let take = now () in
    if open_loop && take < due_at then begin
      (* Sleep to just short of the due time, then spin: a core woken
         from idle on a small virtual machine can oversleep by
         milliseconds. *)
      if due_at -. take > spin then Unix.sleepf (due_at -. take -. spin);
      while now () < due_at do
        ()
      done
    end;
    let send = now () in
    let origin = if open_loop then due_at else send in
    if open_loop then begin
      o.queued <- Float.max 0.0 (take -. due_at);
      o.late <- (if take < due_at then send -. due_at else 0.0)
    end;
    if (not open_loop) || take -. due_at <= behind_limit then begin
      o.sent <- true;
      match
        let c = connection () in
        Http.send_request c ~meth:"POST" ~target:"/predict" ~headers
          ~body:bodies.(choice.(i)) ();
        Http.read_response c
      with
      | r ->
        let fin = now () in
        o.latency <- fin -. origin;
        o.ok <- r.Http.status = 200 && String.equal r.Http.body expected.(choice.(i));
        if traced then
          Trace.add
            { Trace.id = Trace.fresh_id (); parent = pass_id; name = "gen.request";
              start = origin; stop = fin };
        (match Http.rheader r "connection" with
        | Some v when String.lowercase_ascii v = "close" -> drop ()
        | _ -> ())
      | exception e ->
        o.latency <- now () -. origin;
        Printf.eprintf "pb load: request %d failed: %s\n%!" i (Printexc.to_string e);
        drop ()
    end
  done;
  drop ();
  let stop = now () in
  if traced then
    Trace.add { Trace.id = pass_id; parent = 0; name = "gen.pass"; start = t0; stop };
  let sent = List.filter (fun o -> o.sent) (Array.to_list out) |> Array.of_list in
  let count p = Array.fold_left (fun acc o -> if p o then acc + 1 else acc) 0 out in
  let mean_queued lo hi =
    if hi <= lo then 0.0
    else begin
      let s = ref 0.0 in
      for i = lo to hi - 1 do
        s := !s +. out.(i).queued
      done;
      1000.0 *. !s /. float_of_int (hi - lo)
    end
  in
  let fifth = n / 5 in
  print_endline
    (jobj
       [
         ("attempted", string_of_int (Array.length sent));
         ("ok", string_of_int (count (fun o -> o.sent && o.ok)));
         ("failed", string_of_int (count (fun o -> o.sent && not o.ok)));
         ("skipped", string_of_int (count (fun o -> not o.sent)));
         ("latencies_ms", jarr (fun o -> jnum (1000.0 *. o.latency)) sent);
         ("ok_flags", jarr (fun o -> if o.ok then "1" else "0") sent);
         ("queue_first_ms", jnum (mean_queued 0 fifth));
         ("queue_last_ms", jnum (mean_queued (n - fifth) n));
         ( "lateness_p99_ms",
           jnum (1000.0 *. quantile (Array.map (fun o -> o.late) sent) 0.99) );
         ("elapsed_s", jnum (stop -. t0));
       ])

(* ------------------------------------------------------------------ *)
(* trace                                                                *)
(* ------------------------------------------------------------------ *)

let drain_reader r =
  let rec go acc =
    match Pn_data.Columnar.read_group r with Some k -> go (acc + k) | None -> acc
  in
  go 0

let trace () =
  let fmt = !body_format in
  let file = Filename.concat !dir in
  let repeat k name f =
    let last = ref None in
    for _ = 1 to k do
      last := Some (Trace.with_span name f)
    done;
    Option.get !last
  in
  let few = 5 and many = 201 in
  (* Data layer: whole-file load, then the sort cache of a fresh dataset. *)
  let ds = repeat few "data.pnc_load" (fun () -> Pn_data.Columnar.load (file "train-0.pnc")) in
  let build_cache d =
    Array.iteri
      (fun col c ->
        match c with
        | Pn_data.Dataset.Num _ -> ignore (Pn_data.Dataset.sorted_order d ~col)
        | Pn_data.Dataset.Cat _ -> ())
      d.Pn_data.Dataset.columns
  in
  for _ = 1 to few do
    let fresh = Pn_data.Columnar.load (file "train-0.pnc") in
    Trace.with_span "data.sort_cache" (fun () -> build_cache fresh)
  done;
  build_cache ds;
  (* Training on the warm dataset, with the CLI's parameters. *)
  let target = Pn_data.Dataset.class_index ds "C" in
  let params =
    {
      Pnrule.Params.default with
      min_coverage = 0.95;
      recall_floor = 0.7;
      max_p_rule_length = None;
      metric = Pn_metrics.Rule_metric.Z_number;
    }
  in
  let model = repeat 3 "core.pnrule_train" (fun () -> Pnrule.Learner.train ~params ds ~target) in
  let ctx_of v ~negate =
    let pos, neg = Pn_data.View.binary_weights v ~target in
    if negate then { Pn_metrics.Rule_metric.pos_total = neg; neg_total = pos }
    else { Pn_metrics.Rule_metric.pos_total = pos; neg_total = neg }
  in
  let metric = params.Pnrule.Params.metric in
  let all = Pn_data.View.all ds in
  let ctx = ctx_of all ~negate:false in
  ignore
    (repeat few "induct.best_condition_p" (fun () ->
         Pn_induct.Grower.best_condition ~metric ~ctx ~target all));
  let covered = Pn_rules.Rule_list.covered ds model.Pnrule.Model.p_rules in
  let nctx = ctx_of covered ~negate:true in
  ignore
    (repeat few "induct.best_condition_n" (fun () ->
         Pn_induct.Grower.best_condition ~negate:true ~metric ~ctx:nctx ~target covered));
  if !meth <> "boosted" then failwith "pb trace: expects the boosted training flags";
  let instances =
    match Pn_induct.Sampling.instances_of_string !instance_sample with
    | Ok v -> v
    | Error msg -> failwith msg
  in
  let sampling = { Pn_induct.Sampling.none with instances } in
  let bparams = { Pnrule.Ensemble.default_params with rounds = !rounds } in
  let ensemble =
    repeat 1 "core.boosted_train" (fun () ->
        Pnrule.Ensemble.train ~params:bparams ~sampling ds ~target)
  in
  (* Serving layers, over the model the daemon serves and one body. *)
  let served = Pnrule.Serialize.load_saved !model_path in
  let body = read_file (body_paths !dir fmt).(0) in
  (* The data layer's share of the daemon's decode: the .pnc block
     reader, or the CSV tokenizer (the daemon converts the fields itself,
     inside the serving core). *)
  ignore
    (repeat many "data.body_decode" (fun () ->
         if fmt = "pnc" then
           drain_reader (Pn_data.Columnar.open_reader (Pn_data.Stream.of_string body))
         else
           Pn_data.Stream.fold_csv (Pn_data.Stream.of_string body) ~init:0
             ~f:(fun acc ~line:_ _ -> acc + 1)));
  let body_ds =
    if fmt = "pnc" then Pn_data.Columnar.of_string body
    else Pn_data.Csv_io.parse_string body
  in
  let seq = Pn_util.Pool.sequential in
  ignore
    (repeat many "core.eval_batch" (fun () ->
         Pnrule.Saved.eval_batch ~pool:seq served body_ds));
  let lists =
    match served with
    | Pnrule.Saved.Single m ->
      [| m.Pnrule.Model.p_rules.Pn_rules.Rule_list.rules;
         m.Pnrule.Model.n_rules.Pn_rules.Rule_list.rules |]
    | Pnrule.Saved.Boosted e ->
      Array.map (fun (mb : Pnrule.Ensemble.member) -> [| mb.rule |]) e.Pnrule.Ensemble.members
  in
  let prog = repeat many "rules.compile" (fun () -> Pn_rules.Compiled.compile lists) in
  ignore (repeat many "rules.eval" (fun () -> Pn_rules.Compiled.eval ~pool:seq prog body_ds));
  ignore (repeat many "core.serve_stream" (fun () -> serve_body ~model:served ~fmt body));
  let holdout = file "holdout.pnc" in
  ignore
    (repeat 3 "data.holdout_decode" (fun () ->
         In_channel.with_open_bin holdout (fun ic ->
             drain_reader (Pn_data.Columnar.open_reader (Pn_data.Stream.of_channel ic)))));
  ignore
    (repeat 3 "core.batch_predict" (fun () ->
         Out_channel.with_open_bin (file "trace-predict.csv") (fun oc ->
             Pnrule.Serve.predict_pnc ~model:served ~input:holdout ~output:oc ())));
  (* One keep-alive request through an in-process daemon. *)
  let server =
    Pn_server.Server.start
      ~config:{ Pn_server.Server.default_config with idle_timeout = 60.0 }
      ~source:(Pn_server.Handler.Loader (fun () -> served))
      ()
  in
  let c =
    Http.connect ~host:"127.0.0.1" ~port:(Pn_server.Server.port server) ~timeout:30.0 ()
  in
  let headers = [ ("content-type", content_type fmt) ] in
  let request () =
    Http.send_request c ~meth:"POST" ~target:"/predict" ~headers ~body ();
    let r = Http.read_response c in
    if r.Http.status <> 200 then failwith (Printf.sprintf "in-process daemon: HTTP %d" r.Http.status)
  in
  for _ = 1 to 20 do
    request ()
  done;
  repeat many "server.request" request;
  Http.close c;
  Pn_server.Server.stop server;
  (* Per-layer figures: median self time of each span name. *)
  let selfs = Trace.self_times () in
  let ms name = 1000.0 *. median (Array.of_list (Hashtbl.find selfs name)) in
  let p_rules, n_rules = Pnrule.Model.rule_counts model in
  let count v = (float_of_int v, "count") in
  let timed name = (ms name, "ms") in
  let metrics =
    [
      ("data.pnc_load_ms", timed "data.pnc_load");
      ("data.sort_cache_ms", timed "data.sort_cache");
      ("data.body_decode_ms", timed "data.body_decode");
      ("data.holdout_decode_ms", timed "data.holdout_decode");
      ("induct.best_condition_p_ms", timed "induct.best_condition_p");
      ("induct.best_condition_n_ms", timed "induct.best_condition_n");
      ("core.pnrule_train_ms", timed "core.pnrule_train");
      ("core.boosted_train_ms", timed "core.boosted_train");
      ("core.p_rules", count p_rules);
      ("core.n_rules", count n_rules);
      ("core.boosted_members", count (Pnrule.Ensemble.n_members ensemble));
      ("core.eval_batch_ms", timed "core.eval_batch");
      ("core.serve_stream_ms", timed "core.serve_stream");
      ("core.batch_predict_ms", timed "core.batch_predict");
      ("rules.compile_us", (1000.0 *. ms "rules.compile", "us"));
      ("rules.eval_ms", timed "rules.eval");
      ("rules.distinct_conditions", count (Pn_rules.Compiled.n_distinct_conditions prog));
      ("server.request_ms", timed "server.request");
    ]
  in
  print_endline
    (jobj
       (List.map
          (fun (name, (v, unit)) -> (name, jobj [ ("value", jnum v); ("unit", jstr unit) ]))
          metrics))

let () =
  let usage = "pb (gen|load|trace) [options]" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun a -> raise (Arg.Bad a)) usage with
  | Arg.Bad msg | Arg.Help msg ->
    prerr_string msg;
    exit 2);
  if !spans_path <> "" then at_exit (fun () -> Trace.write !spans_path);
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "gen" -> gen ()
  | "load" -> load ()
  | "trace" -> trace ()
  | other ->
    prerr_endline ("pb: unknown subcommand " ^ other ^ " (gen, load or trace)");
    exit 2
