(* Sliding-window concept-drift monitor over the serving path's
   compiled-engine match counts.

   The accumulation side follows the Telemetry pattern: one slot of
   single-writer atomic counters per worker domain, bumped from the
   scored-chunk observer with plain get+set (each slot has exactly one
   writer, so no CAS is needed), merged by summation at check time.
   Summed counters are order-independent, which is what makes the
   detector's verdict a pure function of the observed row stream — the
   same rows through any number of workers, in any interleaving, close
   the same windows on the same counts.

   The detection side is a Page–Hinkley-style cumulative test per
   monitored rule. Each time [check] finds a full window of rows it
   computes the window's per-rule firing rate, takes the absolute
   log-divergence from the rule's training-time expectation (smoothed by
   1/span so empty cells stay finite), adds the one-sided
   false-positive divergence when enough labeled rows arrived, subtracts
   the per-window slack [delta] and accumulates into the rule's PH
   score, floored at 0. A single noisy window decays; sustained
   divergence grows linearly until some rule's score crosses
   [threshold] — one detection, after which all scores reset. *)

type config = {
  window : int;
  threshold : float;
  delta : float;
  min_labeled : int;
  seed : int;
}

let default_config =
  { window = 4096; threshold = 3.0; delta = 0.1; min_labeled = 64; seed = 42 }

type detection = { rule : int; score : float; window : int }

type rule_stat = {
  expected_rate : float;
  observed_rate : float;
  expected_precision : float;
  observed_fp_rate : float;
  score : float;
}

type snapshot = {
  monitoring : bool;
  rows : int;
  labeled : int;
  windows : int;
  detections : int;
  last : detection option;
  rules : rule_stat array;
}

type slot = {
  s_rows : int Atomic.t;
  s_labeled : int Atomic.t;
  s_fired : int Atomic.t array;
  s_fp : int Atomic.t array;
}

(* One epoch per served model: swapping the model atomically swaps the
   whole counting state, so counts from different rule index spaces can
   never mix. The window baselines, PH scores and tallies below the
   slots are owned by whoever holds the check mutex. *)
type epoch = {
  n_rules : int;
  target : int;
  exp : Pnrule.Saved.expectations option;
  slots : slot array;
  mutable win_rows0 : int;
  mutable win_labeled0 : int;
  win_fired0 : int array;
  win_fp0 : int array;
  ph : float array;
  mutable windows : int;
  mutable detections : int;
  mutable last : detection option;
}

type t = {
  config : config;
  n_slots : int;
  epoch : epoch Atomic.t;
  check_mutex : Mutex.t;
  total_detections : int Atomic.t;
      (* monotonic across model swaps, for the Prometheus counter *)
}

let make_slot n_rules =
  {
    s_rows = Atomic.make 0;
    s_labeled = Atomic.make 0;
    s_fired = Array.init n_rules (fun _ -> Atomic.make 0);
    s_fp = Array.init n_rules (fun _ -> Atomic.make 0);
  }

let make_epoch ~n_slots ~n_rules ~target exp =
  {
    n_rules;
    target;
    exp;
    slots = Array.init n_slots (fun _ -> make_slot n_rules);
    win_rows0 = 0;
    win_labeled0 = 0;
    win_fired0 = Array.make n_rules 0;
    win_fp0 = Array.make n_rules 0;
    ph = Array.make n_rules 0.0;
    windows = 0;
    detections = 0;
    last = None;
  }

let create ?(config = default_config) ~slots () =
  if slots < 1 then invalid_arg "Drift.create: slots";
  if config.window < 1 then invalid_arg "Drift.create: window";
  if config.threshold <= 0.0 then invalid_arg "Drift.create: threshold";
  if config.delta < 0.0 then invalid_arg "Drift.create: delta";
  if config.min_labeled < 1 then invalid_arg "Drift.create: min_labeled";
  {
    config;
    n_slots = slots;
    epoch = Atomic.make (make_epoch ~n_slots:slots ~n_rules:0 ~target:0 None);
    check_mutex = Mutex.create ();
    total_detections = Atomic.make 0;
  }

let config t = t.config

let set_model t ~n_rules ~target exp =
  (match exp with
  | Some (e : Pnrule.Saved.expectations) ->
    if Array.length e.rates <> n_rules || Array.length e.precisions <> n_rules
    then invalid_arg "Drift.set_model: expectations do not cover n_rules"
  | None -> ());
  Atomic.set t.epoch (make_epoch ~n_slots:t.n_slots ~n_rules ~target exp)

(* Single-writer bump: this slot's counters are only ever written by the
   worker owning [slot], so get+set is a data-race-free increment. *)
let bump a k = if k <> 0 then Atomic.set a (Atomic.get a + k)

let observe t ~slot ~n ~(batch : Pnrule.Saved.batch) ~actuals =
  let ep = Atomic.get t.epoch in
  match ep.exp with
  | None -> ()
  | Some _ ->
    let nr = ep.n_rules in
    (* Accumulate the chunk locally, then one atomic store per counter:
       the monitor's hot-path cost stays a couple of array passes. *)
    let fired = Array.make nr 0 in
    let fp = Array.make nr 0 in
    let labeled = ref 0 in
    for i = 0 to n - 1 do
      if Array.unsafe_get actuals i >= 0 then incr labeled
    done;
    (match batch.Pnrule.Saved.fires with
    | Pnrule.Saved.First_match pm ->
      for i = 0 to n - 1 do
        let k = Array.unsafe_get pm i in
        (* The index guard covers the benign race where a chunk scored
           by a freshly swapped model lands on the previous epoch. *)
        if k >= 0 && k < nr then begin
          fired.(k) <- fired.(k) + 1;
          let a = Array.unsafe_get actuals i in
          if a >= 0 && a <> ep.target then fp.(k) <- fp.(k) + 1
        end
      done
    | Pnrule.Saved.Per_rule cov ->
      let nl = min (Array.length cov) nr in
      for l = 0 to nl - 1 do
        fired.(l) <- Pn_util.Bitset.count cov.(l);
        if !labeled > 0 then
          Pn_util.Bitset.iter cov.(l) (fun i ->
              let a = Array.unsafe_get actuals i in
              if a >= 0 && a <> ep.target then fp.(l) <- fp.(l) + 1)
      done);
    let s = ep.slots.(slot) in
    bump s.s_rows n;
    bump s.s_labeled !labeled;
    for k = 0 to nr - 1 do
      bump s.s_fired.(k) fired.(k);
      bump s.s_fp.(k) fp.(k)
    done

let sum_slots slots f =
  Array.fold_left (fun acc s -> acc + Atomic.get (f s)) 0 slots

(* splitmix64 of (seed, rule): the seeded tie-break for the detection's
   attributed rule when two PH scores are bit-equal. *)
let mix seed k =
  let open Int64 in
  let z =
    ref (add (of_int seed) (mul (of_int (k + 1)) 0x9E3779B97F4A7C15L))
  in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  logxor !z (shift_right_logical !z 31)

let check t =
  Mutex.lock t.check_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.check_mutex)
    (fun () ->
      let ep = Atomic.get t.epoch in
      match ep.exp with
      | None -> None
      | Some exp ->
        let rows = sum_slots ep.slots (fun s -> s.s_rows) in
        if rows - ep.win_rows0 < t.config.window then None
        else begin
          let span = rows - ep.win_rows0 in
          let spanf = float_of_int span in
          let s = 1.0 /. spanf in
          let labeled = sum_slots ep.slots (fun s -> s.s_labeled) in
          let labeled_span = labeled - ep.win_labeled0 in
          (* The labeled (false-positive) window advances on its own
             cadence: only once [min_labeled] labeled rows arrived —
             under sparse feedback it spans several rate windows rather
             than being diluted away. *)
          let use_fp = labeled_span >= t.config.min_labeled in
          let lsf = float_of_int (max labeled_span 1) in
          let sl = 1.0 /. lsf in
          for k = 0 to ep.n_rules - 1 do
            let fired_k = sum_slots ep.slots (fun s -> s.s_fired.(k)) in
            let obs = float_of_int (fired_k - ep.win_fired0.(k)) /. spanf in
            let d_rate = Float.abs (log ((obs +. s) /. (exp.rates.(k) +. s))) in
            let d_fp =
              if not use_fp then 0.0
              else begin
                let fp_k = sum_slots ep.slots (fun s -> s.s_fp.(k)) in
                let obs_fp = float_of_int (fp_k - ep.win_fp0.(k)) /. lsf in
                let exp_fp = exp.rates.(k) *. (1.0 -. exp.precisions.(k)) in
                (* One-sided: only a RISING false-positive rate is
                   drift; a rule getting cleaner is not. *)
                Float.max 0.0 (log ((obs_fp +. sl) /. (exp_fp +. sl)))
              end
            in
            ep.ph.(k) <-
              Float.max 0.0 (ep.ph.(k) +. d_rate +. d_fp -. t.config.delta);
            ep.win_fired0.(k) <- fired_k;
            if use_fp then
              ep.win_fp0.(k) <- sum_slots ep.slots (fun s -> s.s_fp.(k))
          done;
          ep.win_rows0 <- rows;
          if use_fp then ep.win_labeled0 <- labeled;
          ep.windows <- ep.windows + 1;
          let best = ref (-1) in
          for k = 0 to ep.n_rules - 1 do
            if
              !best < 0
              || ep.ph.(k) > ep.ph.(!best)
              || (ep.ph.(k) = ep.ph.(!best)
                 && Int64.unsigned_compare (mix t.config.seed k)
                      (mix t.config.seed !best)
                    > 0)
            then best := k
          done;
          if !best >= 0 && ep.ph.(!best) > t.config.threshold then begin
            let d =
              { rule = !best; score = ep.ph.(!best); window = ep.windows }
            in
            Array.fill ep.ph 0 ep.n_rules 0.0;
            ep.detections <- ep.detections + 1;
            ep.last <- Some d;
            Atomic.set t.total_detections (Atomic.get t.total_detections + 1);
            Some d
          end
          else None
        end)

let detections_total t = Atomic.get t.total_detections

let snapshot t =
  Mutex.lock t.check_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.check_mutex)
    (fun () ->
      let ep = Atomic.get t.epoch in
      let rows = sum_slots ep.slots (fun s -> s.s_rows) in
      let labeled = sum_slots ep.slots (fun s -> s.s_labeled) in
      let rules =
        Array.init ep.n_rules (fun k ->
            let fired_k = sum_slots ep.slots (fun s -> s.s_fired.(k)) in
            let fp_k = sum_slots ep.slots (fun s -> s.s_fp.(k)) in
            let expected_rate, expected_precision =
              match ep.exp with
              | Some e -> (e.rates.(k), e.precisions.(k))
              | None -> (0.0, 0.0)
            in
            {
              expected_rate;
              observed_rate =
                (if rows = 0 then 0.0
                 else float_of_int fired_k /. float_of_int rows);
              expected_precision;
              observed_fp_rate =
                (if labeled = 0 then 0.0
                 else float_of_int fp_k /. float_of_int labeled);
              score = ep.ph.(k);
            })
      in
      {
        monitoring = ep.exp <> None;
        rows;
        labeled;
        windows = ep.windows;
        detections = ep.detections;
        last = ep.last;
        rules;
      })
