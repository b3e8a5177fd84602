(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (ids t1..t6, f1, s4a..s4d, a1) and runs Bechamel timing
   micro-benchmarks (id: timing).

   Usage:
     dune exec bench/main.exe                 -- run everything at scale 0.2
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --only t1 --scale 0.05
     dune exec bench/main.exe -- --only timing --json BENCH_grower.json *)

let default_scale = 0.2

(* Every timing benchmark carries its own base row count, measured at
   the default scale: [rows ~scale base] is exactly [base] when [scale]
   is the default 0.2 and shrinks or grows proportionally from there
   (with a floor so a tiny --scale still measures something). The name
   keeps its base-size suffix at every scale — "pnrule-score-200k"
   stays a 200k-row benchmark by default instead of silently becoming a
   40k one — so re-runs merge into the same BENCH_grower.json entries,
   and the per-entry "scale" field records what each number was
   actually measured at. *)
let rows ~scale base =
  max 1_000 (int_of_float (float_of_int base *. (scale /. default_scale)))

(* ------------------------------------------------------------------ *)
(* Bechamel timing benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Where --json writes the timing estimates (None = stdout only). *)
let json_file : string option ref = ref None

(* Raw token following ["key":] in a JSON-ish line — the hand-rolled
   counterpart of the writer below. Only bare numbers match; quoted
   strings deliberately don't. *)
let find_sub s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else go (i + 1)
  in
  go 0

let field_token line key =
  match find_sub line (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some i ->
    let n = String.length line in
    let start = ref (i + String.length key + 3) in
    while !start < n && line.[!start] = ' ' do
      incr start
    done;
    let stop = ref !start in
    while
      !stop < n
      &&
      match line.[!stop] with
      | '0' .. '9' | 'a' .. 'z' | '.' | '+' | '-' -> true
      | _ -> false
    do
      incr stop
    done;
    if !stop > !start then Some (String.sub line !start (!stop - !start))
    else None

(* Parse a snapshot previously written by [write_json] back into
   (name, (ns, domains, scale)) entries with raw value strings. Anything
   foreign is ignored. *)
let read_snapshot path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let entries = ref [] in
    (try
       while true do
         let line = input_line ic in
         match
           Scanf.sscanf line " {%S: %S, %S: %[0-9a-z.+-]"
             (fun k1 name k2 value ->
               if k1 = "name" && k2 = "ns_per_run" && value <> "" then
                 Some (name, value)
               else None)
         with
         | Some (name, value) ->
           let field key = Option.value (field_token line key) ~default:"null" in
           entries := (name, (value, field "domains", field "scale")) :: !entries
         | None -> ()
         | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !entries
  end

(* Hand-rolled writer: the repo deliberately has no JSON dependency.
   Re-runs merge into an existing snapshot: a benchmark measured this
   run replaces its old line in place, benchmarks not re-measured keep
   theirs (including the domains/scale they were measured at), and
   genuinely new names append. Running one bench with
   [--only timing --json FILE] therefore never drops the others. *)
let write_json ~path ~scale estimates =
  let domains =
    string_of_int (Pn_util.Pool.size (Pn_util.Pool.get_default ()))
  in
  let scale_s = Printf.sprintf "%g" scale in
  let fresh =
    List.map
      (fun (name, estimate) ->
        let value =
          match estimate with
          | Some t when Float.is_finite t -> Printf.sprintf "%.1f" t
          | Some _ | None -> "null"
        in
        (name, (value, domains, scale_s)))
      estimates
  in
  let existing = read_snapshot path in
  let merged =
    List.map
      (fun (name, v) ->
        (name, Option.value (List.assoc_opt name fresh) ~default:v))
      existing
    @ List.filter (fun (name, _) -> not (List.mem_assoc name existing)) fresh
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"pnrule-bench-v2\",\n";
  Printf.fprintf oc "  \"scale\": %s,\n" scale_s;
  Printf.fprintf oc "  \"domains\": %s,\n" domains;
  Printf.fprintf oc "  \"unit\": \"ns/run\",\n";
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let last = List.length merged - 1 in
  List.iteri
    (fun k (name, (value, dom, sc)) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"ns_per_run\": %s, \"domains\": %s, \"scale\": %s}%s\n"
        name value dom sc
        (if k = last then "" else ","))
    merged;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %d timing estimate(s) to %s (%d merged from previous runs)\n%!"
    (List.length fresh) path
    (List.length merged - List.length fresh)

let timing_benchmarks ~scale =
  let open Bechamel in
  let benchmark test =
    let quota = Time.second 2.0 in
    Benchmark.all
      (Benchmark.cfg ~limit:200 ~quota ~kde:(Some 10) ())
      Toolkit.Instance.[ monotonic_clock ]
      test
  in
  let analyze raw =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let run_tests tests =
    List.concat_map
      (fun test ->
        let results = analyze (benchmark test) in
        Hashtbl.fold
          (fun name ols acc ->
            let estimate =
              match Analyze.OLS.estimates ols with
              | Some [ t ] -> Some t
              | Some _ | None -> None
            in
            (match estimate with
            | Some t -> Printf.printf "%-32s %14.0f ns/run\n%!" name t
            | None -> Printf.printf "%-32s (no estimate)\n%!" name);
            (name, estimate) :: acc)
          results [])
      tests
  in
  let spec = Pn_synth.Numerical.nsyn 3 in
  let ds = Pn_synth.Numerical.generate spec ~seed:11 ~n:(rows ~scale 20_000) in
  let target = Pn_synth.Numerical.target_class in
  let pn_model = Pnrule.Learner.train ds ~target in
  let bc_view = Pn_data.View.all ds in
  let bc_ctx =
    let pos, neg = Pn_data.View.binary_weights bc_view ~target in
    { Pn_metrics.Rule_metric.pos_total = pos; neg_total = neg }
  in
  Printf.printf "\n== Timing (Bechamel, monotonic clock) ==\n%!";
  (* Batch 1: everything that only needs the 20k training setup. The
     heavier serving datasets of batch 2 are deliberately not allocated
     yet: tens of MB of extra live heap makes every major GC slice
     dearer and was observed to inflate the allocation-heavy training
     measurements ~2x, which would break comparability with earlier
     snapshots of the same benchmarks. *)
  let batch1 =
    run_tests
      [
        Test.make ~name:"pnrule-train-20k"
          (Staged.stage (fun () -> ignore (Pnrule.Learner.train ds ~target)));
        Test.make ~name:"ripper-train-20k"
          (Staged.stage (fun () ->
               let params = { Pn_ripper.Params.default with optimization_passes = 0 } in
               ignore (Pn_ripper.Learner.train ~params ds ~target)));
        Test.make ~name:"c45-tree-train-20k"
          (Staged.stage (fun () -> ignore (Pn_c45.Tree.train ds)));
        Test.make ~name:"pnrule-score-20k"
          (Staged.stage (fun () -> ignore (Pnrule.Model.predict_all pn_model ds)));
        Test.make ~name:"covered-20k"
          (Staged.stage (fun () ->
               ignore (Pn_rules.Rule_list.covered ds pn_model.Pnrule.Model.p_rules)));
        (* The rule-growth hot path in isolation: one full candidate
           search over every attribute of the 20k-record view. *)
        Test.make ~name:"best-condition-20k"
          (Staged.stage (fun () ->
               ignore
                 (Pn_induct.Grower.best_condition
                    ~metric:Pn_metrics.Rule_metric.Z_number ~ctx:bc_ctx ~target
                    bc_view)));
        (* The fault registry's disarmed fast path: 1000 cap passes per
           run, so ns/run ÷ 1000 is the per-pass tax the permanently
           embedded fault points add to production IO loops. It should
           measure as a handful of ns — one atomic load and a branch. *)
        Test.make ~name:"fault-overhead-1k"
          (Staged.stage (fun () ->
               for _ = 1 to 1000 do
                 ignore (Pn_util.Fault.cap "bench.probe" 4096)
               done));
        (* The canary gate of a staged rollout: build a schema-exact
           synthetic batch and force the compile + score path. This is
           the latency a POST /admin/rollout pays before flipping (on
           top of loading the file), so it bounds how fast generations
           can be cycled. *)
        Test.make ~name:"rollout-warm"
          (Staged.stage (fun () ->
               Pnrule.Registry.warm (Pnrule.Saved.Single pn_model)));
        (* The drift monitor's serving-path tax over 10k rows: one
           [observe] of a pre-scored batch into the per-domain slot plus
           one [check] (window close + per-rule scoring). The batch is
           scored outside the measurement — serving already pays that —
           so this is purely what --adapt adds per 10k rows. Budget:
           per row, <= 2% of perfbench's pnrule-direct closed_p50_ms
           divided by its 256 rows per request. *)
        (let n10k = rows ~scale 10_000 in
         let sm = Pnrule.Saved.Single pn_model in
         let ds10k =
           Pn_data.Dataset.subset ds (Array.init n10k (fun i -> i))
         in
         let batch = Pnrule.Saved.eval_batch sm ds10k in
         let actuals =
           Array.init n10k (fun i -> Pn_data.Dataset.label ds10k i)
         in
         let exp = Pn_adapt.Expectations.derive sm ds in
         let monitor =
           Pn_adapt.Drift.create
             ~config:
               {
                 Pn_adapt.Drift.default_config with
                 (* An unreachable threshold: detection resets state and
                    would make runs non-uniform. *)
                 threshold = infinity;
               }
             ~slots:1 ()
         in
         Pn_adapt.Drift.set_model monitor
           ~n_rules:(Pnrule.Saved.n_monitored sm)
           ~target (Some exp);
         Test.make ~name:"drift-check-overhead"
           (Staged.stage (fun () ->
                Pn_adapt.Drift.observe monitor ~slot:0 ~n:n10k ~batch ~actuals;
                ignore (Pn_adapt.Drift.check monitor))));
      ]
  in
  (* Batch 2: serving-path benchmarks over their own, larger datasets. *)
  let ds200 = Pn_synth.Numerical.generate spec ~seed:12 ~n:(rows ~scale 200_000) in
  let kdd_test = Pn_synth.Kddcup.test ~seed:8 ~n:(rows ~scale 20_000) in
  let mc_model =
    Pnrule.Multiclass.train (Pn_synth.Kddcup.train ~seed:7 ~n:(rows ~scale 20_000))
  in
  (* The streaming benchmarks read a real file, so the IO cost (refills,
     syscalls) is part of the measurement by design. *)
  let csv200 = Filename.temp_file "pnrule_bench_" ".csv" in
  Pn_data.Csv_io.save ds200 csv200;
  let pnc200 = Filename.temp_file "pnrule_bench_" ".pnc" in
  Pn_data.Columnar.save ds200 pnc200;
  let batch2 =
    run_tests
      [
        (* Serving-path scale test: the 20k-trained model scores a fresh
           200k draw. The fresh dataset has no sort cache, so this also
           exercises the compiled engine's direct-comparison sweeps. *)
        Test.make ~name:"pnrule-score-200k"
          (Staged.stage (fun () -> ignore (Pnrule.Model.predict_all pn_model ds200)));
        (* One-vs-rest ensemble scoring: all five KDD class models fused
           into a single compiled program over the shifted test draw. *)
        Test.make ~name:"multiclass-score-20k"
          (Staged.stage (fun () ->
               ignore (Pnrule.Multiclass.predict_all mc_model kdd_test)));
        (* Streaming loader: two full decode passes over a 200k-row file. *)
        Test.make ~name:"ingest-200k"
          (Staged.stage (fun () -> ignore (Pn_data.Csv_io.load csv200)));
        (* Binary columnar loader over the same 200k rows: block reads,
           CRC verification and typed decode, but no text parsing.
           Compare against ingest-200k for the format's decode win. *)
        Test.make ~name:"ingest-columnar-200k"
          (Staged.stage (fun () -> ignore (Pn_data.Columnar.load pnc200)));
        (* The whole serving pipeline: stream the file in, score it in
           8k-row chunks through the compiled engine, stream predictions
           out. Compare against pnrule-score-200k for the decode+IO tax. *)
        Test.make ~name:"predict-e2e-200k"
          (Staged.stage (fun () ->
               let null = open_out "/dev/null" in
               Fun.protect
                 ~finally:(fun () -> close_out null)
                 (fun () ->
                   ignore
                     (Pnrule.Serve.predict_csv ~model:(Pnrule.Saved.Single pn_model) ~input:csv200
                        ~output:null ()))));
        (* Same pipeline over the columnar file: row groups decode
           straight into the scorer's buffers, so this should sit within
           a small factor of pnrule-score-200k — the end-to-end payoff
           the format exists for. *)
        Test.make ~name:"predict-e2e-columnar-200k"
          (Staged.stage (fun () ->
               let null = open_out "/dev/null" in
               Fun.protect
                 ~finally:(fun () -> close_out null)
                 (fun () ->
                   ignore
                     (Pnrule.Serve.predict_pnc ~model:(Pnrule.Saved.Single pn_model) ~input:pnc200
                        ~output:null ()))));
      ]
  in
  Sys.remove csv200;
  Sys.remove pnc200;
  let estimates = batch1 @ batch2 in
  match !json_file with
  | Some path -> write_json ~path ~scale estimates
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let registry =
  Pn_harness.Tables.all
  @ [ ("timing", "Bechamel timing micro-benchmarks", timing_benchmarks) ]

let () =
  let only = ref [] in
  let scale = ref default_scale in
  let list_only = ref false in
  let verbose = ref false in
  let spec =
    [
      ( "--only",
        Arg.String (fun s -> only := s :: !only),
        "ID run only this benchmark (repeatable)" );
      ("--scale", Arg.Set_float scale, "S dataset scale relative to the paper (default 0.2)");
      ( "--json",
        Arg.String (fun s -> json_file := Some s),
        "FILE write the Bechamel timing estimates to FILE as JSON (timing id only)" );
      ("--list", Arg.Set list_only, " list benchmark ids");
      ("-v", Arg.Set verbose, " verbose (method-level progress on stderr)");
    ]
  in
  Arg.parse spec (fun s -> only := s :: !only) "bench/main.exe [--only ID] [--scale S]";
  (* Fail fast on an unwritable --json target instead of discovering it
     after the timing quota has been spent. Append mode: probing must
     not truncate a snapshot the writer will later merge into. *)
  (match !json_file with
  | Some path -> (
    try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 path)
    with Sys_error msg ->
      Printf.eprintf "cannot write --json file: %s\n" msg;
      exit 1)
  | None -> ());
  if !verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  if !list_only then
    List.iter (fun (id, desc, _) -> Printf.printf "%-8s %s\n" id desc) registry
  else begin
    let selected =
      match !only with
      | [] -> registry
      | ids -> List.filter (fun (id, _, _) -> List.mem id ids) registry
    in
    if selected = [] then begin
      prerr_endline "no matching benchmark id; use --list";
      exit 1
    end;
    Printf.printf "running %d benchmark(s) at scale %.3f\n%!" (List.length selected) !scale;
    List.iter
      (fun (id, desc, run) ->
        Printf.printf "\n#### [%s] %s\n%!" id desc;
        let t0 = Unix.gettimeofday () in
        run ~scale:!scale;
        Printf.printf "#### [%s] done in %.1fs\n%!" id (Unix.gettimeofday () -. t0))
      selected
  end
