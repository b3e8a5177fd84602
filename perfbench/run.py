#!/usr/bin/env python3
"""Repeatable benchmark of the pnrule CLI and its serving daemons.

Run from the repository root:

    python3 perfbench/run.py --workload pnrule-direct --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare OLD NEW

A run builds `pnrule` and the in-process helper perfbench/pb.ml with dune,
draws every input from --seed, drives the built binary as child processes
(train, predict, serve, shard), checks every output, and prints one JSON
object as the last line of stdout: the end-to-end metrics of BENCHMARK.json
with --trace 0, the per-layer metrics with --trace 1. Progress goes to
stderr. Each run also writes a result record with its provenance to
.perfbench/results/ (or --results DIR); --compare reads two such
directories (or files) and gives a verdict per metric and workload.

Each workload runs the analyst's path and then the serving path for one
model kind:

  offline  `pnrule train` from a cold process (so each run pays the
           sort-cache argsort, unlike the Bechamel pnrule-train-20k entry,
           which reuses one dataset and so times warm-cache training),
           then `pnrule predict` over a larger holdout;
  online   the daemon (direct) or the shard router with one backend
           (routed) serves POST /predict from a generator process on one
           keep-alive connection: closed-loop slices spread over the run,
           then open-loop Poisson traffic at a reference rate and up a
           rate ladder. Every response is compared byte for byte with the
           in-process answer.

The daemons run as processes of their own: in OCaml 5 a minor GC stops
every domain of a process, so a generator sharing the daemon's heap would
add its pauses to the latency it measures.
"""

import argparse
import glob
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

CLI = "_build/default/bin/pnrule_cli.exe"
PB = "_build/default/perfbench/pb.exe"
STATE = ".perfbench"

# The boosted training flags, passed both to `pnrule train` and to
# `pb trace`, so the traced run trains the ensemble the workload serves.
BOOSTED = ["--method", "boosted", "--rounds", "100", "--instance-sample", "strat:0.1"]


def ladder(low, rungs):
    """Fixed eighth-octave rate ladder starting at `low` req/s."""
    return [round(low * 2 ** (k / 8), 2) for k in range(rungs)]


# Why these two: they differ in every property serving cost depends on --
# rule count (about 11 PNrule rules against about 100 distinct conditions
# in the boosted ensemble),
# rows per request (256 against 2048), body format (CSV text against .pnc
# blocks) and hop (direct against the router) -- so a change to one layer
# has a workload that exercises it and one that mostly bypasses it.
WORKLOADS = {
    "pnrule-direct": {
        "train": [],
        "body_format": "csv",
        "body_rows": 256,
        "tier": "direct",
        "ladder": ladder(50.0, 41),
        "ref_rung": 10,
        "p99_limit_ms": 25.0,
    },
    "boosted-routed": {
        "train": BOOSTED,
        "body_format": "pnc",
        "body_rows": 2048,
        "tier": "routed",
        "ladder": ladder(20.0, 41),
        "ref_rung": 6,
        "p99_limit_ms": 50.0,
    },
}


def ref_rate(wl):
    """The open-loop reference rate: about half the goodput measured on a
    2-core host (see CHANGES.md)."""
    return wl["ladder"][wl["ref_rung"]]


# The end-to-end metric (and workload) each per-layer metric should move.
MOVES = {
    "data.pnc_load_ms": "train_s",
    "data.sort_cache_ms": "train_s",
    "data.body_decode_ms": "closed_p50_ms",
    "data.holdout_decode_ms": "predict_rows_per_s",
    "induct.best_condition_p_ms": "train_s",
    "induct.best_condition_n_ms": "train_s",
    "core.pnrule_train_ms": "train_s (pnrule-direct)",
    "core.boosted_train_ms": "train_s (boosted-routed)",
    "core.p_rules": "explains train_s; fixed under a perf change",
    "core.n_rules": "explains train_s; fixed under a perf change",
    "core.boosted_members": "explains train_s; fixed under a perf change",
    "core.eval_batch_ms": "closed_p50_ms",
    "core.serve_stream_ms": "closed_p50_ms",
    "core.batch_predict_ms": "predict_rows_per_s",
    "rules.compile_us": "closed_p50_ms (boosted-routed)",
    "rules.eval_ms": "closed_p50_ms (boosted-routed)",
    "rules.distinct_conditions": "explains rules.eval_ms",
    "server.request_ms": "closed_p50_ms",
    "server.busy_ms": "open_p99_ms, goodput_rps",
    "server.requests": "equals requests sent",
    "server.errors": "correctness (0)",
    "server.shed": "correctness (0)",
    "server.io_retries": "open_p99_ms",
    "shard.proxy_hop_ms": "closed_p50_ms (boosted-routed)",
    "shard.failovers": "correctness (0)",
    "shard.proxy_io_retries": "open_p99_ms",
    "shard.shed": "correctness (0)",
    "gen.wait_ms": "open_p99_ms, goodput_rps",
    "gen.lateness_p99_ms": "validity of open_p50_ms, open_p99_ms",
    "gen.error_frac": "correctness (0)",
    "trace.closed_loop_ms": "closed_p50_ms (closed loop through the workload's tier)",
    "trace.inprocess_share": "in-process server.request_ms / out-of-process closed-loop p50",
    "trace.overhead_ms": "tracing cost: traced minus untraced p50",
}

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def pct(values, q):
    """Quantile by linear interpolation between closest ranks."""
    s = sorted(values)
    if not s:
        return float("nan")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(len(s) - 1, lo + 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def summary(samples):
    """Median and quartiles of a metric's in-run samples."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        return {"median": statistics.median(samples), "q1": q1, "q3": q3, "samples": samples}
    return {"median": samples[0], "q1": samples[0], "q3": samples[0], "samples": samples}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Run:
    """Bookkeeping of one benchmark run: operations, failures, children."""

    def __init__(self, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.children = []
        self.ocaml = None

    def fail(self, n, note):
        self.failed += n
        self.notes.append(note)
        log("FAIL: " + note)

    def note(self, note):
        self.notes.append(note)
        log("note: " + note)

    def tool(self, argv, timeout=120):
        """Run a CLI or helper command to completion; returns (seconds, stdout)."""
        t0 = time.perf_counter()
        p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout)
        elapsed = time.perf_counter() - t0
        if p.returncode != 0:
            raise BenchError("%s failed (exit %d): %s" % (" ".join(argv[:2]), p.returncode,
                                                          p.stderr.decode(errors="replace")[-2000:]))
        return elapsed, p.stdout.decode()

    def spawn(self, argv, logfile):
        with open(logfile, "wb") as out:
            p = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                 start_new_session=True)
        self.children.append(p)
        return p

    def stop(self, p):
        """SIGTERM (the daemons drain), then sweep the process group, which
        also holds the router's backends, and wait for all of it to end."""
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(15)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        if p in self.children:
            self.children.remove(p)

    def stop_all(self):
        for p in list(self.children):
            self.stop(p)


# ---------------------------------------------------------------------------
# HTTP helpers (loopback only)
# ---------------------------------------------------------------------------


def http_get(port, path, timeout=5.0):
    c = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        c.request("GET", path)
        r = c.getresponse()
        return r.status, r.read()
    finally:
        c.close()


def scrape(port):
    """Prometheus text from /metrics as {series: value}."""
    status, body = http_get(port, "/metrics")
    if status != 200:
        raise BenchError("/metrics answered %d" % status)
    out = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            key, _, val = line.rpartition(" ")
            out[key] = float(val)
    return out


def delta(before, after, prefix):
    return sum(v - before.get(k, 0.0) for k, v in after.items() if k.startswith(prefix))


class Tier:
    """A running daemon (direct) or shard router with one backend (routed)."""

    def __init__(self, run, routed, model, tag):
        work = run.work
        logfile = os.path.join(work, "tier-%s.log" % tag)
        if routed:
            reg = os.path.join(work, "registry-%s" % tag)
            shutil.rmtree(reg, ignore_errors=True)
            os.makedirs(reg)
            shutil.copyfile(model, os.path.join(reg, "gen-1.model"))
            with open(os.path.join(reg, "CURRENT"), "w") as f:
                f.write("gen-1.model\n")
            argv = [CLI, "shard", "--registry", reg, "--port", "0", "--backends", "1",
                    "--domains", "1"]
            banner = re.compile(rb"router listening on http://127\.0\.0\.1:(\d+)/")
        else:
            argv = [CLI, "serve", "--model", model, "--port", "0", "--domains", "1"]
            banner = re.compile(rb"daemon listening on http://127\.0\.0\.1:(\d+)/")
        self.run = run
        self.routed = routed
        t0 = time.perf_counter()
        self.proc = run.spawn(argv, logfile)
        self.port = None
        deadline = time.time() + 30
        while True:
            if self.port is None:
                with open(logfile, "rb") as f:
                    m = banner.search(f.read())
                if m:
                    self.port = int(m.group(1))
            if self.port is not None:
                try:
                    if http_get(self.port, "/healthz", timeout=1.0)[0] == 200:
                        break
                except OSError:
                    pass
            if self.proc.poll() is not None:
                raise BenchError("%s exited during start-up" % argv[1])
            if time.time() > deadline:
                raise BenchError("%s did not become healthy" % argv[1])
            time.sleep(0.002)
        self.start_s = time.perf_counter() - t0
        self.backend = None
        if routed:
            self.backend = json.loads(http_get(self.port, "/admin/backends")[1])[0]

    def peak_rss_mb(self):
        total = 0
        for pid in [self.proc.pid] + ([self.backend["pid"]] if self.backend else []):
            with open("/proc/%d/status" % pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        return total / 1024.0

    def stop(self):
        self.run.stop(self.proc)


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def gen_inputs(run, wl, seed):
    elapsed, out = run.tool([PB, "gen", "--dir", run.work, "--seed", str(seed),
                             "--body-rows", str(wl["body_rows"]),
                             "--body-format", wl["body_format"]])
    run.ocaml = json.loads(out.splitlines()[-1])["ocaml"]
    return elapsed


def train(run, wl, data, out):
    run.attempted += 1
    elapsed, _ = run.tool([CLI, "train", "--target", "C", data, "--out", out] + wl["train"])
    with open(out, "rb") as f:
        return elapsed, hashlib.sha256(f.read()).hexdigest()


def predict(run, model, out):
    run.attempted += 1
    elapsed, _ = run.tool([CLI, "predict", model, os.path.join(run.work, "holdout.pnc"),
                           "--out", out])
    with open(out, "rb") as f:
        return elapsed, f.read()


def f_measure(predictions, labels):
    """Rare-class F-measure of `pnrule predict` output against the labels."""
    lines = predictions.decode().splitlines()[1:]
    if len(lines) != len(labels):
        raise BenchError("predict wrote %d rows for %d holdout rows" % (len(lines), len(labels)))
    tp = fp = fn = 0
    for pred, label in zip(lines, labels):
        p, a = pred == "C", label == "C"
        tp += p and a
        fp += p and not a
        fn += a and not p
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def load(run, wl, tier, model, seed, rate=None, seconds=None, closed=None, spans=None):
    """One load pass through `pb load`, reconciled against /metrics."""
    argv = [PB, "load", "--dir", run.work, "--model", model, "--port", str(tier.port),
            "--body-format", wl["body_format"], "--seed", str(seed)]
    if closed:
        argv += ["--closed", str(closed)]
    else:
        argv += ["--rate", str(rate), "--seconds", str(seconds)]
    if spans:
        argv += ["--spans", spans]
    before = scrape(tier.port)
    _, out = run.tool(argv, timeout=150)
    res = json.loads(out.splitlines()[-1])
    # The daemon counts a request after its last byte is written; give the
    # counters a moment to catch up before reconciling.
    sent = res["attempted"]
    for _ in range(50):
        after = scrape(tier.port)
        seen = delta(before, after, 'pnrule_requests_total{endpoint="predict"}')
        routed_seen = delta(before, after, 'pnrule_router_requests_total{endpoint="predict"}')
        if seen == sent and (not tier.routed or routed_seen == sent):
            break
        time.sleep(0.01)
    else:
        run.fail(abs(int(seen) - sent) or 1, "/metrics counted %d predict requests (router %d) "
                 "for %d sent" % (seen, routed_seen, sent))
    res["deltas"] = {
        "requests": seen,
        "errors": delta(before, after, 'pnrule_request_errors_total{endpoint="predict"}'),
        "shed": delta(before, after, "pnrule_shed_total"),
        "io_retries": delta(before, after, "pnrule_io_retries_total"),
        "busy_s": delta(before, after, 'pnrule_request_seconds_sum{endpoint="predict"}'),
        "failovers": delta(before, after, "pnrule_router_failovers_total"),
        "proxy_io_retries": delta(before, after, "pnrule_router_proxy_io_retries_total"),
        "router_shed": delta(before, after, "pnrule_router_shed_total"),
    }
    for k in ("failovers", "proxy_io_retries", "router_shed", "shed", "io_retries"):
        if res["deltas"][k]:
            run.note("%s=%d during a load pass" % (k, res["deltas"][k]))
    run.attempted += sent
    if res["failed"]:
        run.fail(res["failed"], "%d of %d responses failed or differed from the in-process "
                 "answer" % (res["failed"], sent))
    lat = res["latencies_ms"]
    res["p50"] = pct(lat, 0.5)
    res["p99"] = pct(lat, 0.99)
    return res


# A pass whose generator overslept its schedule at p99 by more than this
# share of the workload's p99 limit timed the host's scheduler, not the
# program. It is run again; if it stays late, the run's open-loop figures
# are dropped from its result record (the bounded metrics do not use them).
LATE_SHARE = 0.1
ATTEMPTS = 3


def open_pass(run, wl, tier, model, seed, rate, seconds):
    """An open-loop pass at `rate`; res["late"] says the generator could not
    keep to its schedule."""
    for attempt in range(1, ATTEMPTS + 1):
        res = load(run, wl, tier, model, seed, rate=rate, seconds=seconds)
        res["late"] = res["lateness_p99_ms"] > LATE_SHARE * wl["p99_limit_ms"]
        if not res["late"]:
            return res
        run.note("generator ran %.2f ms late at p99 at %g req/s (attempt %d of %d)"
                 % (res["lateness_p99_ms"], rate, attempt, ATTEMPTS))
    return res


def passes(res, wl):
    """Rung conditions: p99 within the limit, nothing failed, no growing backlog."""
    grew = res["skipped"] > 0 or res["queue_last_ms"] > max(
        2 * res["queue_first_ms"], wl["p99_limit_ms"] / 4)
    return res["failed"] == 0 and not grew and res["p99"] <= wl["p99_limit_ms"]


def goodput(res, wl, seconds):
    good = sum(1 for ok, l in zip(res["ok_flags"], res["latencies_ms"])
               if ok and l <= wl["p99_limit_ms"])
    return good / seconds


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def offline(run, wl, samples):
    """Cold-process training on each training file and batch scoring with
    each model; fills `samples` and returns the first model, which is the
    one served."""
    sets = sorted(glob.glob(os.path.join(run.work, "train-*.pnc")))
    models = [os.path.join(run.work, "model-%d.pn" % k) for k in range(len(sets))]
    digests = []
    for data, model in zip(sets, models):
        elapsed, digest = train(run, wl, data, model)
        samples["train_s"].append(elapsed)
        digests.append(digest)
    # Training must be deterministic: the first file again, same bytes.
    again = os.path.join(run.work, "model-again.pn")
    if train(run, wl, sets[0], again)[1] != digests[0]:
        run.fail(1, "training the same file twice gave two different models")
    with open(os.path.join(run.work, "holdout.labels")) as f:
        labels = f.read().split()
    out = os.path.join(run.work, "predictions.csv")
    first = None
    for model in models:
        elapsed, data = predict(run, model, out)
        samples["predict_rows_per_s"].append(len(labels) / elapsed)
        samples["f1"].append(f_measure(data, labels))
        first = first or hashlib.sha256(data).hexdigest()
    if hashlib.sha256(predict(run, models[0], out)[1]).hexdigest() != first:
        run.fail(1, "predict output differs between identical runs")
    for k, f1 in enumerate(samples["f1"]):
        if f1 < 0.3:
            run.fail(1, "rare-class F-measure %.3f of model %d is implausibly low" % (f1, k))
    return models[0], digests


# How a run of --seconds is spent: the reference pass, then up to about
# six bisection rungs of the ladder.
REF_SHARE = 0.4
RUNG_SHARE = 0.1
SETUP_REPS = 3
# Closed-loop requests per slice; three slices spread over the run.
CLOSED_SLICE = {"direct": 600, "routed": 100}

# Figures kept in the result record and in --compare but left out of
# BENCHMARK.json: on a 2-core virtual machine their spread across ten
# seeds reached or passed 0.25, the largest bound allowed (CHANGES.md).
UNBOUNDED = {
    "train_s": {"unit": "s", "better": "lower"},
    "predict_rows_per_s": {"unit": "rows/s", "better": "higher"},
    "open_p50_ms": {"unit": "ms", "better": "lower"},
    "open_p99_ms": {"unit": "ms", "better": "lower"},
    "goodput_rps": {"unit": "req/s", "better": "higher"},
}


def end_to_end(run, wl, seed, seconds):
    samples = {m["name"]: [] for m in BENCH["end_to_end"]}
    samples.update({k: [] for k in UNBOUNDED})
    # Set-up is repeated so its median is steady: input generation here,
    # the serving tier's start after training.
    gen_s = [gen_inputs(run, wl, seed) for _ in range(SETUP_REPS)]
    model, digests = offline(run, wl, samples)
    tier = None
    start_s = []
    for _ in range(SETUP_REPS):
        if tier:
            tier.stop()
        tier = Tier(run, wl["tier"] == "routed", model, "e2e")
        start_s.append(tier.start_s)
    samples["setup_s"] = [g + s for g, s in zip(gen_s, start_s)]
    closed = []

    def closed_slice():
        res = load(run, wl, tier, model, seed + len(closed), closed=CLOSED_SLICE[wl["tier"]])
        closed.append(res["latencies_ms"])

    # Warm the tier up (its first requests run slower), then time.
    load(run, wl, tier, model, seed, closed=CLOSED_SLICE[wl["tier"]])
    closed_slice()
    ref_seconds = REF_SHARE * seconds
    rung_seconds = RUNG_SHARE * seconds
    lad = wl["ladder"]
    probes = {}
    ref = open_pass(run, wl, tier, model, seed * 1000, ref_rate(wl), ref_seconds)
    late = ref["late"]
    probes[wl["ref_rung"]] = (passes(ref, wl), goodput(ref, wl, ref_seconds))
    closed_slice()
    # In-run quartiles of the open-loop latencies come from four windows.
    lat = ref["latencies_ms"]
    quarter = max(1, len(lat) // 4)
    windows = [lat[i:i + quarter] for i in range(0, quarter * 4, quarter)]
    samples["open_p50_ms"] = [pct(w, 0.5) for w in windows]
    samples["open_p99_ms"] = [pct(w, 0.99) for w in windows]
    # Goodput: bisect the fixed ladder between the highest passing and the
    # lowest failing rung.
    lo = max([i for i, (ok, _) in probes.items() if ok], default=-1)
    hi = min([i for i, (ok, _) in probes.items() if not ok], default=len(lad))
    k = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        k += 1
        res = open_pass(run, wl, tier, model, seed * 1000 + k, lad[mid], rung_seconds)
        late = late or res["late"]
        probes[mid] = (passes(res, wl), goodput(res, wl, rung_seconds))
        if probes[mid][0]:
            lo = mid
        else:
            hi = mid
    best = lo if lo >= 0 else min(probes)
    samples["goodput_rps"] = [probes[best][1]]
    closed_slice()
    samples["closed_p50_ms"] = [pct(c, 0.5) for c in closed]
    samples["peak_rss_mb"] = [tier.peak_rss_mb()]
    tier.stop()
    extra = {"model_sha256": digests, "goodput_rung": lad[best] if lo >= 0 else None,
             "lateness_p99_ms": ref["lateness_p99_ms"],
             "probes": {str(lad[i]): ok for i, (ok, _) in sorted(probes.items())}}
    values = {k: statistics.median(v) for k, v in samples.items()}
    # Each training file counts once: the mean over them, not the median.
    values["train_s"] = statistics.mean(samples["train_s"])
    values["f1"] = statistics.mean(samples["f1"])
    values["predict_rows_per_s"] = (len(samples["predict_rows_per_s"])
                                    / sum(1.0 / r for r in samples["predict_rows_per_s"]))
    values["closed_p50_ms"] = pct([x for c in closed for x in c], 0.5)
    values["open_p50_ms"], values["open_p99_ms"] = ref["p50"], ref["p99"]
    if late:
        run.note("generator stayed late: open-loop figures dropped from this record")
        for k in ("open_p50_ms", "open_p99_ms", "goodput_rps"):
            del values[k], samples[k]
    return values, samples, extra


def traced(run, wl, seed, seconds):
    """Per-layer run: in-process layer calls, then closed-loop, untraced and
    traced passes against the real daemons."""
    gen_inputs(run, wl, seed)
    model = os.path.join(run.work, "model-0.pn")
    train(run, wl, os.path.join(run.work, "train-0.pnc"), model)
    spans = os.path.join(run.work, "spans-layers.jsonl")
    _, out = run.tool([PB, "trace", "--dir", run.work, "--model", model,
                       "--workload", wl["name"], "--body-format", wl["body_format"],
                       "--spans", spans] + BOOSTED, timeout=150)
    layer = {k: v["value"] for k, v in json.loads(out.splitlines()[-1]).items()}
    routed = wl["tier"] == "routed"
    tier = Tier(run, routed, model, "front")
    # The router hop: the same bodies in a closed loop through a router and
    # straight to a daemon serving the same model. The second tier is its
    # own process: a keep-alive connection held on the router's backend
    # would stall the router's health probes behind it.
    other = Tier(run, not routed, model, "other")
    router_tier, daemon_tier = (tier, other) if routed else (other, tier)
    closed_n = 200 if routed else 400
    for warm in (tier, other):
        load(run, wl, warm, model, seed, closed=closed_n // 4)
    via_router = load(run, wl, router_tier, model, seed, closed=closed_n)
    direct = load(run, wl, daemon_tier, model, seed, closed=closed_n)
    other.stop()
    layer["shard.proxy_hop_ms"] = via_router["p50"] - direct["p50"]
    layer["trace.closed_loop_ms"] = (via_router if routed else direct)["p50"]
    for name, key in (("shard.failovers", "failovers"),
                      ("shard.proxy_io_retries", "proxy_io_retries"), ("shard.shed", "router_shed")):
        layer[name] = via_router["deltas"][key]
    # Tracing overhead: the closed loop above again, with spans on.
    gen_spans = os.path.join(run.work, "spans-gen.jsonl")
    with_spans = load(run, wl, tier, model, seed, closed=closed_n, spans=gen_spans)
    # Server busy and waiting time: open loop at the reference rate.
    plain = open_pass(run, wl, tier, model, seed * 1000, ref_rate(wl), max(2.0, seconds / 3))
    tier.stop()
    if plain["late"]:
        run.note("generator stayed late: server.busy_ms and gen.wait_ms include its lag")
    d = plain["deltas"]
    busy_ms = 1000.0 * d["busy_s"] / d["requests"] if d["requests"] else float("nan")
    layer["server.busy_ms"] = busy_ms
    layer["gen.wait_ms"] = statistics.mean(plain["latencies_ms"]) - busy_ms
    layer["server.requests"] = d["requests"]
    layer["server.errors"] = d["errors"]
    layer["server.shed"] = d["shed"]
    layer["server.io_retries"] = d["io_retries"]
    layer["gen.lateness_p99_ms"] = plain["lateness_p99_ms"]
    layer["gen.error_frac"] = run.failed / max(1, run.attempted)
    layer["trace.overhead_ms"] = with_spans["p50"] - layer["trace.closed_loop_ms"]
    # A plain comparison, not a reconciliation: the same request in this
    # process against the daemon in its own process, both closed loop.
    layer["trace.inprocess_share"] = layer["server.request_ms"] / direct["p50"]
    log("per-layer metrics (value, unit, should move):")
    for m in BENCH["per_layer"]:
        log("  %-28s %14.4f %-6s %s" % (m["name"], layer[m["name"]], m["unit"], MOVES[m["name"]]))
    values = {m["name"]: layer[m["name"]] for m in BENCH["per_layer"]}
    return values, {k: [v] for k, v in values.items()}, {"spans": [spans, gen_spans]}


# ---------------------------------------------------------------------------
# Provenance, results, comparison
# ---------------------------------------------------------------------------


def provenance(args, run):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, timeout=10).stdout.decode().strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for path in sorted(glob.glob("lib/**/*.ml*", recursive=True) + glob.glob("bin/*.ml")
                       + glob.glob("perfbench/*.*")):
        with open(path, "rb") as f:
            digest.update(path.encode() + b"\0" + f.read())
    wl = WORKLOADS[args.workload]
    return {"commit": commit or "unknown", "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "ocaml": run.ocaml,
            "pnrule_domains": os.environ.get("PNRULE_DOMAINS", "unset"),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rate_ladder": wl["ladder"], "ref_rate": ref_rate(wl),
            "p99_limit_ms": wl["p99_limit_ms"],
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def load_results(path):
    files = [path] if os.path.isfile(path) else sorted(glob.glob(os.path.join(path, "*.json")))
    out = {}
    for fn in files:
        with open(fn) as f:
            r = json.load(f)
        out.setdefault((r["provenance"]["workload"], r["provenance"]["trace"]), []).append(r)
    return out


def spread(records, name):
    """Median and quartiles across runs, or a single run's in-run quartiles."""
    vals = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
    if not vals:
        return None
    if len(vals) == 1:
        m = [r["metrics"][name] for r in records if name in r["metrics"]][0]
        return m["value"], m["q1"], m["q3"]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return statistics.median(vals), q1, q3


def verdict(old, new, better, bound):
    """better / worse / within bound / unresolved, from medians and quartiles."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new[0] - old[0]) / abs(old[0]) if old[0] else 0.0
    # Quartile ranges that do not overlap resolve the direction.
    apart = new[1] > old[2] or new[2] < old[1]
    if bound is not None and abs(change) <= bound:
        return "within bound", change
    if change == 0:
        return "same", change
    if not apart:
        return "unresolved", change
    return ("worse" if change > 0 else "better"), change


def compare(old_path, new_path):
    old, new = load_results(old_path), load_results(new_path)
    spec = {m["name"]: m for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    spec.update({k: dict(v, name=k) for k, v in UNBOUNDED.items()})
    regressions = 0
    print("%-15s %-27s %11s %23s %11s %23s  %s" % ("workload", "metric", "old", "old q1..q3",
                                                    "new", "new q1..q3", "verdict"))
    for key in sorted(set(old) & set(new)):
        for name in sorted(spec):
            a, b = spread(old[key], name), spread(new[key], name)
            if a is None or b is None:
                continue
            m = spec[name]
            v, _ = verdict(a, b, m["better"], m.get("bound"))
            if v == "worse" and "bound" in m:
                regressions += 1
            moved = 100 * (b[0] - a[0]) / abs(a[0]) if a[0] else 0.0
            print("%-15s %-27s %11.5g %11.5g..%-11.5g %11.5g %11.5g..%-11.5g  %s (median %+.1f%%)"
                  % (key[0], name, a[0], a[1], a[2], b[0], b[1], b[2], v, moved))
    if regressions:
        print("%d end-to-end regression(s) beyond bound" % regressions)
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def build():
    dune = shutil.which("dune")
    argv = [dune] if dune else ["opam", "exec", "--", "dune"]
    p = subprocess.run(argv + ["build", "--root", ".", "./bin/pnrule_cli.exe",
                               "./perfbench/pb.exe"],
                       stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if p.returncode != 0:
        raise BenchError("dune build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=os.path.join(STATE, "results"))
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    for needed in ("dune-project", "bin/pnrule_cli.ml", "lib"):
        if not os.path.exists(needed):
            log("error: run from the root of a pnrule checkout (%s is missing)" % needed)
            return 2
    build()
    # One domain per child. On a small shared host the second core is not
    # always there: two-domain training of one file measured 0.33 s or
    # 0.73 s depending on whether that core had been idle, while one
    # domain measured 0.52-0.55 s every time.
    os.environ["PNRULE_DOMAINS"] = "1"
    wl = dict(WORKLOADS[args.workload], name=args.workload)
    work = os.path.join(STATE, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(work)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        body = traced if args.trace else end_to_end
        values, samples, extra = body(run, wl, args.seed, args.seconds)
    finally:
        run.stop_all()
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    units.update({k: v["unit"] for k, v in UNBOUNDED.items()})
    printed = [m["name"] for m in BENCH["per_layer" if args.trace else "end_to_end"]]
    record = {
        "provenance": provenance(args, run),
        "attempted": run.attempted, "failed": run.failed, "notes": run.notes, "extra": extra,
        "metrics": {k: dict(summary(samples[k]), value=values[k], unit=units[k]) for k in values},
    }
    os.makedirs(args.results, exist_ok=True)
    fn = os.path.join(args.results, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                                 args.trace))
    with open(fn, "w") as f:
        json.dump(record, f, indent=1)
    log("result record: %s" % fn)
    print(json.dumps({
        "correct": run.failed == 0, "attempted": max(1, run.attempted), "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in printed}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("error: %s" % e)
        sys.exit(1)
