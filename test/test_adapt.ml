(* Online adaptation (lib/adapt): expectations derivation and format-v4
   persistence, the deterministic sliding-window drift monitor, the
   retrain→publish→rollout loop with its failure discipline, and the
   full adaptation cycle against a live daemon. The synthetic drift is a
   signature split — a model trained on single-peak nsyn1-style data is
   monitored on a four-peaks-per-subclass stream — so every run drifts
   the same way from the same seeds. *)

module D = Pn_adapt.Drift
module Rt = Pn_adapt.Retrainer
module E = Pn_adapt.Expectations
module R = Pnrule.Registry
module Server = Pn_server.Server

let contains = Test_server.contains

let one_shot = Test_server.one_shot

let with_registry_dir f =
  let dir = Filename.temp_file "pnrule_adapt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Strong-signal variant of the paper's nsyn1 model: a fat target class
   and wide peaks make both the trained rules and their drifted firing
   rates unambiguous at small sample sizes. *)
let base_spec =
  let s = Pn_synth.Numerical.nsyn 1 in
  Pn_synth.Numerical.with_widths
    { s with Pn_synth.Numerical.target_fraction = 0.3 }
    ~tr:30.0 ~nr:30.0

(* The drifted world: same schema, same classes, but every subclass's
   signature splits into four disjoint peaks — the distribution the
   trained single-peak rules have never seen. *)
let drift_spec = { base_spec with Pn_synth.Numerical.nsptc = 4; nspntc = 4 }

let target = Pn_synth.Numerical.target_class

let fixture =
  lazy
    (let train = Pn_synth.Numerical.generate base_spec ~seed:401 ~n:4_000 in
     let sm = Pnrule.Saved.Single (Pnrule.Learner.train train ~target) in
     let exp = E.derive sm train in
     (train, sm, exp))

(* ------------------------------------------------------------------ *)
(* Expectations derivation and serialization format v4                  *)
(* ------------------------------------------------------------------ *)

let check_exp_eq name (a : E.t) (b : E.t) =
  Alcotest.(check (array (float 0.0))) (name ^ " rates") a.rates b.rates;
  Alcotest.(check (array (float 0.0)))
    (name ^ " precisions") a.precisions b.precisions;
  Alcotest.(check int) (name ^ " support") a.support b.support

let test_derive_and_v4_roundtrip () =
  let train, sm, exp = Lazy.force fixture in
  let nm = Pnrule.Saved.n_monitored sm in
  Alcotest.(check bool) "model has monitored rules" true (nm > 0);
  Alcotest.(check int) "rates cover the rules" nm (Array.length exp.rates);
  Alcotest.(check int)
    "precisions cover the rules" nm
    (Array.length exp.precisions);
  Alcotest.(check int)
    "support is the training size"
    (Pn_data.Dataset.n_records train)
    exp.support;
  Array.iter
    (fun r -> Alcotest.(check bool) "rate in [0,1]" true (r >= 0.0 && r <= 1.0))
    exp.rates;
  Array.iter
    (fun p ->
      Alcotest.(check bool) "precision in [0,1]" true (p >= 0.0 && p <= 1.0))
    exp.precisions;
  let total = Array.fold_left ( +. ) 0.0 exp.rates in
  Alcotest.(check bool)
    "first-match rates partition at most the whole stream" true
    (total > 0.0 && total <= 1.0 +. 1e-9);
  (* The empty dataset cannot be a baseline. *)
  (match
     E.derive sm
       (Pn_data.Dataset.subset train [||])
   with
  | _ -> Alcotest.fail "derive accepted an empty dataset"
  | exception Invalid_argument _ -> ());
  (* Every file is v4; the expectations block is optional. *)
  let plain = Pnrule.Serialize.to_string sm in
  let v4 = Pnrule.Serialize.to_string ~expectations:exp sm in
  Alcotest.(check bool)
    "v4 header" true
    (String.length v4 > 16 && String.sub v4 0 16 = "pnrule-model v4\n");
  let sm', exp' = Pnrule.Serialize.of_string v4 in
  (match exp' with
  | None -> Alcotest.fail "v4 round-trip lost the expectations"
  | Some e -> check_exp_eq "v4 round-trip" exp e);
  Alcotest.(check string)
    "v4 round-trip preserves the model body" plain
    (Pnrule.Serialize.to_string sm');
  let _, e2 = Pnrule.Serialize.of_string plain in
  Alcotest.(check bool) "no block loads with no expectations" true (e2 = None);
  let ens =
    Pnrule.Ensemble.train
      ~params:{ Pnrule.Ensemble.default_params with rounds = 5 }
      train ~target
  in
  let smb = Pnrule.Saved.Boosted ens in
  let plainb = Pnrule.Serialize.to_string smb in
  let _, e3 = Pnrule.Serialize.of_string plainb in
  Alcotest.(check bool) "boosted loads with no expectations" true (e3 = None);
  (* Boosted v4 through the file API. *)
  let expb = E.derive smb train in
  Alcotest.(check int)
    "boosted expectations cover the members"
    (Pnrule.Saved.n_monitored smb)
    (Array.length expb.rates);
  let path = Filename.temp_file "pnrule_adapt" ".model" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pnrule.Serialize.save ~expectations:expb smb path;
      let smb', expb' = Pnrule.Serialize.load path in
      (match expb' with
      | None -> Alcotest.fail "boosted v4 file lost the expectations"
      | Some e -> check_exp_eq "boosted v4 file" expb e);
      Alcotest.(check string)
        "boosted v4 file preserves the body" plainb
        (Pnrule.Serialize.to_string smb'));
  (* Mismatched arrays are a writer bug, not a silent file. *)
  (match
     Pnrule.Serialize.to_string
       ~expectations:{ exp with E.rates = Array.sub exp.rates 0 0 }
       sm
   with
  | _ -> Alcotest.fail "writer accepted mismatched expectations"
  | exception Invalid_argument _ -> ());
  (* A flipped byte inside the expectations block fails the checksum:
     the block starts where [plain]'s footer does. *)
  let tampered = Bytes.of_string v4 in
  let pos = String.length plain + 4 in
  Bytes.set tampered pos
    (if Bytes.get tampered pos = '0' then '1' else '0');
  match Pnrule.Serialize.of_string (Bytes.to_string tampered) with
  | _ -> Alcotest.fail "tampered v4 accepted"
  | exception Pnrule.Serialize.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Drift monitor: window mechanics on a hand-fed stream                 *)
(* ------------------------------------------------------------------ *)

(* A synthetic scored chunk: per-row first-match rule indices. *)
let mk_batch fires =
  {
    Pnrule.Saved.preds = Array.map (fun k -> k >= 0) fires;
    scores_v = None;
    fires = Pnrule.Saved.First_match fires;
  }

(* [chunk n spec] builds [n] rows whose rule indices cycle through
   [spec] — e.g. [[| (0, 5); (-1, 5) |]] is rule 0 on half the rows. *)
let chunk spec =
  let fires =
    Array.concat
      (Array.to_list (Array.map (fun (k, c) -> Array.make c k) spec))
  in
  (Array.length fires, fires)

let no_labels n = Array.make n (-1)

let test_drift_window_mechanics () =
  let cfg =
    { D.window = 100; threshold = 1.5; delta = 0.05; min_labeled = 10; seed = 7 }
  in
  let m = D.create ~config:cfg ~slots:1 () in
  (* No model yet: the monitor idles. *)
  let n, f = chunk [| (0, 100) |] in
  D.observe m ~slot:0 ~n ~batch:(mk_batch f) ~actuals:(no_labels n);
  Alcotest.(check bool) "idle check" true (D.check m = None);
  Alcotest.(check bool) "idle snapshot" false (D.snapshot m).D.monitoring;
  D.set_model m ~n_rules:2 ~target:1
    (Some
       { E.rates = [| 0.5; 0.2 |]; precisions = [| 0.9; 0.8 |]; support = 1000 });
  Alcotest.(check bool) "monitoring now" true (D.snapshot m).D.monitoring;
  (* set_model must validate coverage. *)
  (match
     D.set_model m ~n_rules:3 ~target:1
       (Some { E.rates = [| 0.5 |]; precisions = [| 0.9 |]; support = 1 })
   with
  | _ -> Alcotest.fail "set_model accepted short expectations"
  | exception Invalid_argument _ ->
    D.set_model m ~n_rules:2 ~target:1
      (Some
         {
           E.rates = [| 0.5; 0.2 |];
           precisions = [| 0.9; 0.8 |];
           support = 1000;
         }));
  (* A conforming stream never detects: both windowed rates sit exactly
     on their expectations, so the PH scores stay at zero. *)
  let n, f = chunk [| (0, 50); (1, 20); (-1, 30) |] in
  for _ = 1 to 10 do
    D.observe m ~slot:0 ~n ~batch:(mk_batch f) ~actuals:(no_labels n);
    Alcotest.(check bool) "conforming window" true (D.check m = None)
  done;
  let s = D.snapshot m in
  Alcotest.(check int) "ten windows closed" 10 s.D.windows;
  Alcotest.(check int) "rows counted" 1000 s.D.rows;
  Alcotest.(check (float 1e-9)) "rule 0 PH at zero" 0.0 s.D.rules.(0).D.score;
  (* A short remainder does not close a window. *)
  D.observe m ~slot:0 ~n:40
    ~batch:(mk_batch (Array.make 40 0))
    ~actuals:(no_labels 40);
  Alcotest.(check bool) "partial window holds" true (D.check m = None);
  Alcotest.(check int) "still ten windows" 10 (D.snapshot m).D.windows;
  (* Sustained drift on rule 0 only (rule 1 stays on-expectation):
     divergence accumulates across windows and the detection names
     rule 0. The 40-row remainder joins the first drifted window — the
     span is everything since the last close, so rates stay exact. *)
  let n, f = chunk [| (0, 80); (1, 20) |] in
  let detection = ref None in
  let i = ref 0 in
  while !detection = None && !i < 30 do
    incr i;
    D.observe m ~slot:0 ~n ~batch:(mk_batch f) ~actuals:(no_labels n);
    detection := D.check m
  done;
  (match !detection with
  | None -> Alcotest.fail "sustained drift never detected"
  | Some d ->
    Alcotest.(check int) "attributed to the drifted rule" 0 d.D.rule;
    Alcotest.(check bool)
      "score crossed the threshold" true
      (d.D.score > cfg.D.threshold);
    Alcotest.(check bool)
      "took more than one window (accumulation, not a spike)" true (!i > 1));
  Alcotest.(check int) "one detection total" 1 (D.detections_total m);
  let s = D.snapshot m in
  Alcotest.(check int) "epoch detections" 1 s.D.detections;
  Alcotest.(check (float 1e-9))
    "scores reset after detection" 0.0 s.D.rules.(0).D.score;
  (* A model swap resets the epoch but not the monotonic counter. *)
  D.set_model m ~n_rules:2 ~target:1
    (Some
       { E.rates = [| 0.8; 0.2 |]; precisions = [| 0.9; 0.8 |]; support = 1000 });
  let s = D.snapshot m in
  Alcotest.(check int) "fresh epoch rows" 0 s.D.rows;
  Alcotest.(check int) "fresh epoch detections" 0 s.D.detections;
  Alcotest.(check int) "total detections survive" 1 (D.detections_total m)

(* Per_rule evidence: a boosted batch hands the monitor one coverage
   bitset per member. Its firing and false-positive counts — and the
   expectations derived through the same batch path — must equal a
   per-record count of each member's coverage. Chunks of 1, 62, 63 and
   64 rows hit the bitsets' tail word; two slots exercise the merge. *)
let test_drift_boosted_counts () =
  let train, _, _ = Lazy.force fixture in
  let ens =
    Pnrule.Ensemble.train
      ~params:{ Pnrule.Ensemble.default_params with rounds = 8 }
      train ~target
  in
  let sm = Pnrule.Saved.Boosted ens in
  let nm = Pnrule.Saved.n_monitored sm in
  Alcotest.(check bool) "ensemble has members" true (nm > 0);
  let covers ds l i =
    Pn_rules.Rule.matches ds ens.Pnrule.Ensemble.members.(l).Pnrule.Ensemble.rule i
  in
  let count n p =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if p i then incr c
    done;
    !c
  in
  let exp = E.derive sm train in
  let nt = Pn_data.Dataset.n_records train in
  for l = 0 to nm - 1 do
    let fired = count nt (covers train l) in
    let hits =
      count nt (fun i -> covers train l i && Pn_data.Dataset.label train i = target)
    in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "member %d expected rate" l)
      (float_of_int fired /. float_of_int nt)
      exp.rates.(l);
    Alcotest.(check (float 0.0))
      (Printf.sprintf "member %d expected precision" l)
      (if fired = 0 then 0.0 else float_of_int hits /. float_of_int fired)
      exp.precisions.(l)
  done;
  let m = D.create ~slots:2 () in
  D.set_model m ~n_rules:nm ~target (Some exp);
  let test = Pn_synth.Numerical.generate base_spec ~seed:403 ~n:2_000 in
  let n = Pn_data.Dataset.n_records test in
  let actuals =
    Array.init n (fun i -> if i mod 3 = 0 then -1 else Pn_data.Dataset.label test i)
  in
  let lo = ref 0 and k = ref 0 in
  List.iter
    (fun len ->
      let len = min len (n - !lo) in
      let chunk = Pn_data.Dataset.subset test (Array.init len (fun i -> !lo + i)) in
      let batch = Pnrule.Saved.eval_batch ~pool:Pn_util.Pool.sequential sm chunk in
      D.observe m ~slot:(!k mod 2) ~n:len ~batch ~actuals:(Array.sub actuals !lo len);
      lo := !lo + len;
      incr k)
    [ 1; 62; 63; 64; 700; n ];
  let s = D.snapshot m in
  let labeled = count n (fun i -> actuals.(i) >= 0) in
  Alcotest.(check int) "rows" n s.D.rows;
  Alcotest.(check int) "labeled rows" labeled s.D.labeled;
  for l = 0 to nm - 1 do
    let fired = count n (covers test l) in
    let fp =
      count n (fun i -> covers test l i && actuals.(i) >= 0 && actuals.(i) <> target)
    in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "member %d observed rate" l)
      (float_of_int fired /. float_of_int n)
      s.D.rules.(l).D.observed_rate;
    Alcotest.(check (float 0.0))
      (Printf.sprintf "member %d observed fp rate" l)
      (float_of_int fp /. float_of_int labeled)
      s.D.rules.(l).D.observed_fp_rate
  done

(* The false-positive channel: firing rates on-expectation, but labeled
   rows say the rule now fires on the wrong class. *)
let test_drift_false_positive_channel () =
  let cfg =
    { D.window = 100; threshold = 1.0; delta = 0.05; min_labeled = 50; seed = 7 }
  in
  let m = D.create ~config:cfg ~slots:1 () in
  D.set_model m ~n_rules:1 ~target:1
    (Some { E.rates = [| 0.5 |]; precisions = [| 0.95 |]; support = 1000 });
  (* Every row labeled; the rule fires at its expected rate but only
     half its firings hit the target class (expected: 95%). *)
  let n, f = chunk [| (0, 25); (0, 25); (-1, 50) |] in
  let actuals = Array.init n (fun i -> if i < 25 then 1 else 0) in
  let detection = ref None in
  let i = ref 0 in
  while !detection = None && !i < 30 do
    incr i;
    D.observe m ~slot:0 ~n ~batch:(mk_batch f) ~actuals;
    detection := D.check m
  done;
  (match !detection with
  | None -> Alcotest.fail "rising false-positive rate never detected"
  | Some d -> Alcotest.(check int) "attributed to the rule" 0 d.D.rule);
  let s = D.snapshot m in
  Alcotest.(check int) "labeled rows counted" (!i * n) s.D.labeled;
  Alcotest.(check bool)
    "observed fp rate surfaced" true
    (s.D.rules.(0).D.observed_fp_rate > 0.2)

(* Determinism: the same stream through any slot count and assignment
   produces the identical detection trace. *)
let qcheck_determinism =
  let run ~slots stream =
    let cfg =
      { D.window = 60; threshold = 0.8; delta = 0.05; min_labeled = 20; seed = 42 }
    in
    let m = D.create ~config:cfg ~slots () in
    D.set_model m ~n_rules:3 ~target:1
      (Some
         {
           E.rates = [| 0.4; 0.3; 0.1 |];
           precisions = [| 0.9; 0.8; 0.7 |];
           support = 500;
         });
    List.concat
      (List.mapi
         (fun i (fires, actuals) ->
           let fires = Array.of_list fires in
           D.observe m
             ~slot:(i mod slots)
             ~n:(Array.length fires)
             ~batch:(mk_batch fires)
             ~actuals:(Array.of_list actuals);
           match D.check m with
           | Some d -> [ (i, d.D.rule, d.D.window) ]
           | None -> [])
         stream)
  in
  let chunk_gen =
    QCheck.Gen.(
      list_size (int_range 10 50)
        (pair (int_range (-1) 2) (int_range (-1) 1)))
  in
  let stream_gen =
    QCheck.Gen.(
      map
        (List.map List.split)
        (list_size (int_range 5 25) chunk_gen))
  in
  QCheck.Test.make ~count:100
    ~name:"drift verdict is independent of slot count and assignment"
    (QCheck.make stream_gen)
    (fun stream ->
      let t1 = run ~slots:1 stream in
      let t3 = run ~slots:3 stream in
      let t8 = run ~slots:8 stream in
      if t1 <> t3 || t1 <> t8 then
        QCheck.Test.fail_reportf
          "detection traces diverge across slot counts (%d vs %d vs %d \
           detections)"
          (List.length t1) (List.length t3) (List.length t8)
      else true)

(* ------------------------------------------------------------------ *)
(* Retrainer: drifted stream → exactly one detection, one retrain       *)
(* ------------------------------------------------------------------ *)

(* What the daemon's rollout does after flipping CURRENT: swap the
   served model AND resync the monitor to the published generation's
   expectations — a fresh epoch against the new baseline, so the old
   model's drift cannot re-detect. [dr_cell] breaks the create-time
   cycle (the callback needs the retrainer's own monitor, which exists
   only after [Rt.create] returns). *)
let daemon_rollout reg dr_cell sm_cell rolled ~gen =
  rolled := gen :: !rolled;
  let sm', exp' = Pnrule.Serialize.load (R.gen_path reg gen) in
  sm_cell := sm';
  Option.iter
    (fun dr ->
      D.set_model dr
        ~n_rules:(Pnrule.Saved.n_monitored sm')
        ~target:(Pnrule.Saved.target sm')
        exp')
    !dr_cell;
  Ok ()

(* Deterministic harness around a retrainer: feeds the drifted labeled
   stream chunk by chunk through observe/add/tick — exactly what the
   daemon's feedback path plus the background loop do, minus the wall
   clock. [sm_cell] is the "serving" model slot a rollout may swap
   mid-stream. The stream ends at the first successful publish — the
   drift is resolved, there is no more evidence to stream — or after
   [chunks] chunks, whichever is first. Returns the generations [tick]
   published. *)
let drive_drifted_stream ?(seed = 402) ?(chunks = 10) ?(chunk_rows = 500) rt
    sm_cell =
  let dr = Rt.drift rt in
  let drifted =
    Pn_synth.Numerical.generate drift_spec ~seed ~n:(chunks * chunk_rows)
  in
  let published = ref [] in
  let c = ref 0 in
  while !published = [] && !c < chunks do
    let idx = Array.init chunk_rows (fun i -> (!c * chunk_rows) + i) in
    let ds = Pn_data.Dataset.subset drifted idx in
    let batch = Pnrule.Saved.eval_batch !sm_cell ds in
    let actuals =
      Array.init chunk_rows (fun i -> Pn_data.Dataset.label ds i)
    in
    D.observe dr ~slot:0 ~n:chunk_rows ~batch ~actuals;
    Rt.add rt ds;
    (match Rt.tick ~now:(float_of_int !c) rt with
    | Some g -> published := g :: !published
    | None -> ());
    incr c
  done;
  List.rev !published

let retrainer_config =
  {
    Rt.default_config with
    drift =
      { D.window = 500; threshold = 1.0; delta = 0.05; min_labeled = 100; seed = 42 };
    reservoir = 10_000;
    min_rows = 200;
    max_attempts = 3;
  }

let test_retrain_cycle () =
  let _, sm, exp = Lazy.force fixture in
  with_registry_dir (fun dir ->
      let reg = R.open_dir dir in
      Alcotest.(check int) "gen-1 published" 1 (R.publish ~expectations:exp reg sm);
      R.set_current reg 1;
      let rolled = ref [] in
      let dr_cell = ref None in
      let sm_cell = ref sm in
      let rt =
        Rt.create ~config:retrainer_config ~slots:1 ~registry:reg
          ~model:(fun () -> !sm_cell)
          ~rollout:(daemon_rollout reg dr_cell sm_cell rolled)
          ()
      in
      dr_cell := Some (Rt.drift rt);
      D.set_model (Rt.drift rt)
        ~n_rules:(Pnrule.Saved.n_monitored sm)
        ~target:(Pnrule.Saved.target sm)
        (Some exp);
      let published = drive_drifted_stream rt sm_cell in
      Alcotest.(check (list int)) "exactly one generation published" [ 2 ] published;
      Alcotest.(check (list int)) "rolled out once, to gen 2" [ 2 ] !rolled;
      Alcotest.(check int)
        "exactly one detection" 1
        (D.detections_total (Rt.drift rt));
      let st = Rt.stats rt in
      Alcotest.(check int) "one successful retrain" 1 st.Rt.ok;
      Alcotest.(check int) "no training failures" 0 st.Rt.train_error;
      Alcotest.(check bool) "nothing pending" false st.Rt.pending;
      Alcotest.(check bool) "duration recorded" true (st.Rt.last_duration > 0.0);
      Alcotest.(check (list int)) "registry holds both" [ 1; 2 ] (R.generations reg);
      (* The published generation carries fresh expectations, and no
         spill file lingers in the registry directory. *)
      let _, exp2 = Pnrule.Serialize.load (R.gen_path reg 2) in
      Alcotest.(check bool) "gen-2 is a v4 file" true (exp2 <> None);
      Array.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "no dropping %s" f)
            true
            (f = "CURRENT" || f = "gen-1.model" || f = "gen-2.model"))
        (Sys.readdir dir);
      (* Quiet aftermath: no new rows, no new windows, no re-detection. *)
      for i = 0 to 9 do
        Alcotest.(check bool)
          "quiet tick" true
          (Rt.tick ~now:(100.0 +. float_of_int i) rt = None)
      done;
      Alcotest.(check int)
        "still one detection" 1
        (D.detections_total (Rt.drift rt));
      Alcotest.(check int) "still one retrain" 1 (Rt.stats rt).Rt.ok)

(* An empty reservoir resolves a detection as no_data — never a crash,
   never a publish. *)
let test_retrain_no_data () =
  let _, sm, exp = Lazy.force fixture in
  with_registry_dir (fun dir ->
      let reg = R.open_dir dir in
      ignore (R.publish ~expectations:exp reg sm);
      let rt =
        Rt.create ~config:retrainer_config ~slots:1 ~registry:reg
          ~model:(fun () -> sm)
          ~rollout:(fun ~gen:_ -> Alcotest.fail "rollout on no data")
          ()
      in
      let dr = Rt.drift rt in
      D.set_model dr
        ~n_rules:(Pnrule.Saved.n_monitored sm)
        ~target:(Pnrule.Saved.target sm)
        (Some exp);
      (* Drift without feedback: observe only, never add. *)
      let drifted = Pn_synth.Numerical.generate drift_spec ~seed:403 ~n:5_000 in
      let fed = ref 0 in
      let i = ref 0 in
      while (Rt.stats rt).Rt.no_data = 0 && !fed + 500 <= 5_000 do
        let idx = Array.init 500 (fun k -> !fed + k) in
        let ds = Pn_data.Dataset.subset drifted idx in
        let batch = Pnrule.Saved.eval_batch sm ds in
        let actuals = Array.init 500 (fun k -> Pn_data.Dataset.label ds k) in
        D.observe dr ~slot:0 ~n:500 ~batch ~actuals;
        fed := !fed + 500;
        incr i;
        ignore (Rt.tick ~now:(float_of_int !i) rt)
      done;
      let st = Rt.stats rt in
      Alcotest.(check int) "resolved as no_data" 1 st.Rt.no_data;
      Alcotest.(check int) "no retrain happened" 0 st.Rt.ok;
      Alcotest.(check bool) "detection cleared" false st.Rt.pending;
      Alcotest.(check bool)
        "no_data explained" true
        (match st.Rt.last_error with
        | Some m -> contains m "min_rows"
        | None -> false);
      Alcotest.(check (list int)) "nothing published" [ 1 ] (R.generations reg))

(* ------------------------------------------------------------------ *)
(* Chaos: injected faults leave the serving state untouched             *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A crash mid-publish: the torn write removes its temp file, allocates
   no generation, and the retry (after backoff) publishes cleanly. *)
let test_retrain_publish_crash () =
  let _, sm, exp = Lazy.force fixture in
  with_registry_dir (fun dir ->
      let reg = R.open_dir dir in
      ignore (R.publish ~expectations:exp reg sm);
      R.set_current reg 1;
      let gen1_bytes = read_file (R.gen_path reg 1) in
      let rolled = ref [] in
      let dr_cell = ref None in
      let sm_cell = ref sm in
      let rt =
        Rt.create ~config:retrainer_config ~slots:1 ~registry:reg
          ~model:(fun () -> !sm_cell)
          ~rollout:(daemon_rollout reg dr_cell sm_cell rolled)
          ()
      in
      let dr = Rt.drift rt in
      dr_cell := Some dr;
      D.set_model dr
        ~n_rules:(Pnrule.Saved.n_monitored sm)
        ~target:(Pnrule.Saved.target sm)
        (Some exp);
      Fun.protect ~finally:Pn_util.Fault.reset (fun () ->
          Pn_util.Fault.arm "retrain.publish" (Pn_util.Fault.Crash_after 512);
          let published = drive_drifted_stream rt sm_cell in
          Alcotest.(check (list int)) "nothing published" [] published;
          Alcotest.(check (list int))
            "rollout never reached" [] !rolled;
          let st = Rt.stats rt in
          Alcotest.(check bool)
            "publish failures counted" true (st.Rt.publish_error >= 1);
          Alcotest.(check int) "no success" 0 st.Rt.ok;
          (* Serving state byte-identical, registry free of droppings:
             the crash consumed no generation number and left no temp. *)
          Alcotest.(check (list int))
            "generation 1 alone" [ 1 ] (R.generations reg);
          Alcotest.(check (option int)) "CURRENT kept" (Some 1) (R.current reg);
          Alcotest.(check string)
            "gen-1 bytes untouched" gen1_bytes
            (read_file (R.gen_path reg 1));
          Array.iter
            (fun f ->
              Alcotest.(check bool)
                (Printf.sprintf "no dropping %s" f)
                true
                (f = "CURRENT" || f = "gen-1.model"))
            (Sys.readdir dir);
          (* Backoff, not a hot loop: with the fault still armed the
             next attempt is pushed behind [not_before]. *)
          Alcotest.(check bool)
            "attempt pending behind backoff" true
            (st.Rt.pending || st.Rt.publish_error >= retrainer_config.Rt.max_attempts));
      (* Disarmed and past every backoff, the pending detection retries
         and the publish lands; if the attempts were exhausted, the
         still-drifted stream re-detects on fresh windows. *)
      let deadline = ref 1_000.0 in
      let published = ref None in
      let drifted = Pn_synth.Numerical.generate drift_spec ~seed:404 ~n:4_000 in
      let fed = ref 0 in
      while !published = None && !fed + 500 <= 4_000 do
        let idx = Array.init 500 (fun k -> !fed + k) in
        let ds = Pn_data.Dataset.subset drifted idx in
        let batch = Pnrule.Saved.eval_batch !sm_cell ds in
        let actuals = Array.init 500 (fun k -> Pn_data.Dataset.label ds k) in
        D.observe dr ~slot:0 ~n:500 ~batch ~actuals;
        Rt.add rt ds;
        fed := !fed + 500;
        deadline := !deadline +. 100.0;
        published := Rt.tick ~now:!deadline rt
      done;
      Alcotest.(check (option int)) "retry published gen 2" (Some 2) !published;
      Alcotest.(check (list int)) "rolled out gen 2" [ 2 ] !rolled;
      Alcotest.(check (option int))
        "CURRENT untouched by the retrainer itself" (Some 1) (R.current reg))

(* An injected training fault is a counted, retried failure — the
   attempt cap then drops the detection instead of spinning. *)
let test_retrain_train_fault () =
  let _, sm, exp = Lazy.force fixture in
  with_registry_dir (fun dir ->
      let reg = R.open_dir dir in
      ignore (R.publish ~expectations:exp reg sm);
      let rt =
        Rt.create ~config:retrainer_config ~slots:1 ~registry:reg
          ~model:(fun () -> sm)
          ~rollout:(fun ~gen:_ -> Alcotest.fail "rollout after failed training")
          ()
      in
      let dr = Rt.drift rt in
      D.set_model dr
        ~n_rules:(Pnrule.Saved.n_monitored sm)
        ~target:(Pnrule.Saved.target sm)
        (Some exp);
      Fun.protect ~finally:Pn_util.Fault.reset (fun () ->
          Pn_util.Fault.arm "retrain.train" Pn_util.Fault.Raise;
          let published = drive_drifted_stream rt (ref sm) in
          Alcotest.(check (list int)) "nothing published" [] published;
          let st = Rt.stats rt in
          Alcotest.(check bool)
            "training failures counted" true (st.Rt.train_error >= 1);
          Alcotest.(check bool)
            "failure surfaced" true
            (match st.Rt.last_error with
            | Some m -> contains m "train"
            | None -> false);
          Alcotest.(check (list int))
            "registry untouched" [ 1 ] (R.generations reg)))

(* ------------------------------------------------------------------ *)
(* End-to-end: a live daemon adapts through its own feedback endpoint   *)
(* ------------------------------------------------------------------ *)

let test_daemon_adaptation_e2e () =
  let _, sm, exp = Lazy.force fixture in
  with_registry_dir (fun dir ->
      let reg = R.open_dir dir in
      Alcotest.(check int) "gen-1 published" 1 (R.publish ~expectations:exp reg sm);
      R.set_current reg 1;
      let config =
        {
          Server.default_config with
          chunk_size = 256;
          adapt =
            Some
              {
                Rt.default_config with
                drift =
                  {
                    D.window = 400;
                    threshold = 0.8;
                    delta = 0.05;
                    min_labeled = 100;
                    seed = 42;
                  };
                reservoir = 20_000;
                min_rows = 200;
                poll_interval = 0.02;
                max_attempts = 3;
              };
        }
      in
      let srv =
        Server.start ~config
          ~source:(Pn_server.Handler.Registry (R.open_dir dir))
          ()
      in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let port = Server.port srv in
          Alcotest.(check int) "boots on gen 1" 1 (Server.generation srv);
          (* The monitor is live from boot: gen-1 is a v4 file. *)
          let s, _, j = one_shot port ~meth:"GET" ~path:"/admin/drift" () in
          Alcotest.(check int) "drift endpoint" 200 s;
          Alcotest.(check bool)
            "monitoring from the v4 baseline" true
            (contains j "\"monitoring\": true");
          let s, _, _ = one_shot port ~meth:"GET" ~path:"/feedback" () in
          Alcotest.(check int) "feedback is POST-only" 405 s;
          let s, _, _ = one_shot port ~meth:"POST" ~path:"/admin/drift" () in
          Alcotest.(check int) "drift is GET-only" 405 s;
          (* Unlabeled feedback is a client error. *)
          let drifted =
            Pn_synth.Numerical.generate drift_spec ~seed:405 ~n:4_000
          in
          let csv = Filename.temp_file "pnrule_adapt" ".csv" in
          Fun.protect
            ~finally:(fun () -> Sys.remove csv)
            (fun () ->
              Pn_data.Csv_io.save drifted csv;
              let body = read_file csv in
              let header_end = String.index body '\n' in
              let unlabeled_header =
                (* Drop the trailing ",class" column name: rows keep the
                   label cell, which then fails the schema match — so use
                   a genuinely label-free two-row body instead. *)
                String.concat ","
                  (List.filter
                     (fun c -> c <> "class")
                     (String.split_on_char ','
                        (String.sub body 0 header_end)))
              in
              let row =
                String.concat ","
                  (List.map
                     (fun _ -> "1.0")
                     (String.split_on_char ',' unlabeled_header))
              in
              let s, _, b =
                one_shot port ~meth:"POST" ~path:"/feedback"
                  ~body:(unlabeled_header ^ "\n" ^ row ^ "\n")
                  ()
              in
              Alcotest.(check int) "unlabeled feedback refused" 400 s;
              Alcotest.(check bool)
                "explains the missing labels" true
                (contains b "no labeled rows");
              (* The drifted labeled stream: one request is the whole
                 evidence. *)
              let s, _, b =
                one_shot port ~meth:"POST" ~path:"/feedback" ~body ()
              in
              Alcotest.(check int) "feedback accepted" 200 s;
              Alcotest.(check bool)
                "all rows labeled" true
                (contains b "\"labeled\": 4000");
              (* The background loop detects, retrains from the
                 reservoir, publishes gen-2 and flips CURRENT through
                 the canary-warmed rollout. *)
              let deadline = Unix.gettimeofday () +. 30.0 in
              while
                Server.generation srv < 2 && Unix.gettimeofday () < deadline
              do
                Unix.sleepf 0.05
              done;
              Alcotest.(check int) "serving generation 2" 2
                (Server.generation srv);
              Alcotest.(check (option int))
                "CURRENT flipped" (Some 2) (R.current reg);
              Alcotest.(check (list int))
                "registry holds both generations" [ 1; 2 ]
                (R.generations reg);
              let _, exp2 =
                Pnrule.Serialize.load (R.gen_path reg 2)
              in
              Alcotest.(check bool)
                "published generation carries expectations" true
                (exp2 <> None);
              (* /model reflects the flip and carries load times. *)
              let _, _, j = one_shot port ~meth:"GET" ~path:"/model" () in
              Alcotest.(check bool)
                "model generation 2" true
                (contains j "\"generation\": 2");
              Alcotest.(check bool) "uptime exported" true (contains j "\"uptime\"");
              (* /admin/drift tells the whole story. *)
              let s, _, j = one_shot port ~meth:"GET" ~path:"/admin/drift" () in
              Alcotest.(check int) "drift endpoint after adaptation" 200 s;
              Alcotest.(check bool)
                "detection counted" true
                (contains j "\"detections_total\": 1");
              Alcotest.(check bool)
                "retrain counted" true
                (contains j "\"ok\": 1");
              (* And the scrape exports the adaptation metrics. *)
              let _, _, m = one_shot port ~meth:"GET" ~path:"/metrics" () in
              let metric = Test_server.metric_value m in
              Alcotest.(check (float 0.0))
                "drift detections exported" 1.0
                (metric "pnrule_drift_detected_total");
              Alcotest.(check (float 0.0))
                "retrains exported" 1.0
                (metric "pnrule_retrains_total{outcome=\"ok\"}");
              Alcotest.(check (float 0.0))
                "generation gauge follows the rollout" 2.0
                (metric "pnrule_model_generation");
              Alcotest.(check bool)
                "per-rule drift scores exported" true
                (contains m "pnrule_drift_score{rule=\"0\"}");
              Alcotest.(check bool)
                "retrain duration exported" true
                (contains m "pnrule_retrain_duration_seconds");
              Alcotest.(check bool)
                "model load time exported" true
                (metric "pnrule_model_loaded_at_seconds" > 1e9);
              (* Predictions keep flowing on the adapted model. *)
              let s, _, _ =
                one_shot port ~meth:"POST" ~path:"/predict" ~body ()
              in
              Alcotest.(check int) "predict after adaptation" 200 s)))

(* Without --adapt the endpoints refuse cleanly, and Server.start
   rejects adaptation over a plain model file. *)
let test_adapt_off_and_validation () =
  let _, sm, _ = Lazy.force fixture in
  (match
     Server.start
       ~config:{ Server.default_config with adapt = Some Rt.default_config }
       ~source:(Pn_server.Handler.Loader (fun () -> sm))
       ()
   with
  | _ -> Alcotest.fail "adapt accepted without a registry"
  | exception Invalid_argument _ -> ());
  let srv =
    Server.start
      ~config:{ Server.default_config with chunk_size = 256 }
      ~source:(Pn_server.Handler.Loader (fun () -> sm))
      ()
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let s, _, b = one_shot port ~meth:"POST" ~path:"/feedback" ~body:"x\n" () in
      Alcotest.(check int) "feedback without adapt" 409 s;
      Alcotest.(check bool) "names the flag" true (contains b "--adapt");
      let s, _, b = one_shot port ~meth:"GET" ~path:"/admin/drift" () in
      Alcotest.(check int) "drift without adapt" 409 s;
      Alcotest.(check bool) "names the flag too" true (contains b "--adapt"))

let suite =
  [
    Alcotest.test_case "expectations derive and v4 round-trip" `Quick
      test_derive_and_v4_roundtrip;
    Alcotest.test_case "drift window mechanics and attribution" `Quick
      test_drift_window_mechanics;
    Alcotest.test_case "drift counts boosted member coverage" `Quick
      test_drift_boosted_counts;
    Alcotest.test_case "drift false-positive channel" `Quick
      test_drift_false_positive_channel;
    Alcotest.test_case "retrain cycle: one detection, one rollout" `Quick
      test_retrain_cycle;
    Alcotest.test_case "empty reservoir resolves as no_data" `Quick
      test_retrain_no_data;
    Alcotest.test_case "crashed publish leaves serving untouched" `Quick
      test_retrain_publish_crash;
    Alcotest.test_case "training fault is counted and bounded" `Quick
      test_retrain_train_fault;
    Alcotest.test_case "daemon adapts end-to-end" `Quick
      test_daemon_adaptation_e2e;
    Alcotest.test_case "adaptation off and config validation" `Quick
      test_adapt_off_and_validation;
  ]
  @ [ QCheck_alcotest.to_alcotest qcheck_determinism ]
