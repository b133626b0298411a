#!/usr/bin/env python3
"""Campaign benchmark: times `run_campaign` grids end to end, or replays them
layer by layer under trace spans, and checks every output it measures.

    python3 campaign_bench/run.py --workload attack_sat --seed 20160605 \
        --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
harness (campaign_bench/harness.cpp plus the repository's src/ libraries)
into .bench_build/; scratch files go to .bench_work/. Human-readable lines
come first on stdout; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Workloads, metrics and the checks are described in campaign_bench/README.md.
"""
import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("flow_resume", "attack_sat", "attack_seq")
DEFAULT_SEED = 20160605
SETUP_REPEATS = 7
RUN_DEADLINE_S = 170  # the whole run, build excluded, must end well before 180 s

# Solver-trajectory columns: reported in telemetry_digest, never gated, so a
# solver change may move them. Every other results-CSV column is invariant.
TELEMETRY_COLUMNS = (
    "attack_success", "attack_outcome", "attack_queries", "attack_iters",
    "attack_conflicts", "attack_decisions", "attack_propagations",
    "attack_learned", "attack_peak_clauses", "attack_cnf_per_iter",
)
ROW_ID_COLUMNS = ("benchmark", "algorithm", "trial")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("campaign_bench: " + msg)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build_harness():
    """Configure (once) and build the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside campaign_bench/: run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "campaign_bench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "campaign_bench")


class Harness:
    def __init__(self, exe, args, work):
        self.exe = exe
        self.common = ["--workload", args.workload, "--seed", str(args.seed),
                       "--work", work]
        if args.smoke:
            self.common.append("--smoke")
        if args.forge_key:
            self.common.append("--forge-key")
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def call(self, mode, *extra):
        """Run one harness mode to completion; returns its JSON document."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            fail("out of time before '%s'" % mode)
        try:
            proc = subprocess.run([self.exe, mode] + self.common + list(extra),
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            fail("harness '%s' overran the %d s run deadline"
                 % (mode, RUN_DEADLINE_S))
        if proc.returncode != 0:
            fail("harness '%s' exited with %d" % (mode, proc.returncode))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_seconds(self):
        """Median wall time from process start to the validated grid."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            proc = subprocess.Popen([self.exe, "validate"] + self.common,
                                    stdout=subprocess.PIPE, text=True)
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.close()
            if proc.wait() != 0 or line.strip() != "validated":
                fail("validate failed")
        return statistics.median(times)


# --- output checks -----------------------------------------------------------

def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def digest(rows, columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]


def digests(rows):
    columns = list(rows[0].keys()) if rows else []
    invariant = [c for c in columns if c not in TELEMETRY_COLUMNS]
    telemetry = list(ROW_ID_COLUMNS) + [c for c in columns
                                        if c in TELEMETRY_COLUMNS]
    return digest(rows, invariant), digest(rows, telemetry)


class Checks:
    def __init__(self):
        self.problems = []

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)
            log("CHECK FAILED: " + what)

    def pinned_digest(self, args, invariant):
        path = args.digests or os.path.join(BENCH_DIR, "digests.json")
        with open(path) as f:
            pinned = json.load(f)
        key = "%s/%s/%d" % ("smoke" if args.smoke else "full",
                            args.workload, args.seed)
        if key in pinned:
            self.expect(pinned[key] == invariant,
                        "invariant digest %s != pinned %s for %s"
                        % (invariant, pinned[key], key))
        else:
            log("no pinned digest for %s (checked only for pinned seeds)" % key)

    def replay_matches(self, campaign, replay):
        self.expect(len(campaign) == len(replay),
                    "replay has %d rows, campaign %d"
                    % (len(replay), len(campaign)))
        for i, (a, b) in enumerate(zip(campaign, replay)):
            diff = [c for c in a if a[c] != b.get(c)]
            self.expect(not diff, "replay row %d (%s/%s/t%s) differs in %s"
                        % (i, a["benchmark"], a["algorithm"], a["trial"],
                           ",".join(diff)))

    def keys(self, keys):
        self.expect(keys["unverified"] == 0,
                    "%d claimed key(s) failed the equivalence check"
                    % keys["unverified"])


# --- metrics -----------------------------------------------------------------

def tail_percentile(n):
    """Highest of the usual percentiles that leaves >= 10 samples above it."""
    for p in (99.9, 99, 95, 90, 80, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def percentile(values, p):
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, harness, checks, work):
    prepared = harness.call("prepare") if args.workload == "flow_resume" else None
    setup_s = harness.setup_seconds()
    doc = harness.call("run", "--seconds", str(args.seconds))
    reps = doc["reps"]
    rows = read_rows(os.path.join(work, "campaign.csv"))
    invariant, telemetry = digests(rows)

    checks.expect(doc["reps_identical"],
                  "result rows differ between reps of one run")
    checks.pinned_digest(args, invariant)
    failed = sum(r["failed_rows"] for r in reps)
    if prepared is not None:
        failed += prepared["failed_rows"]
    attempted = sum(len(r["row_ms"]) for r in reps)

    # The percentile is fixed by the grid (as if two reps ran), so a run
    # that fits one more rep reports the same statistic.
    row_ms = [ms for r in reps for ms in r["row_ms"]]
    tail_p = tail_percentile(len(reps[0]["row_ms"]) * min(2, len(reps)))
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(r["wall_s"] for r in reps), "s"),
        "cpu_s": metric(statistics.median(r["cpu_s"] for r in reps), "s"),
        "row_ms_p50": metric(percentile(row_ms, 50), "ms"),
        "row_ms_tail": metric(percentile(row_ms, tail_p), "ms"),
        "peak_rss_mb": metric(doc["peak_rss_mb"], "MB"),
    }
    notes = [
        ("reps", len(reps), "count"),
        ("row_ms_tail.percentile", tail_p, "p"),
        ("row_ms_tail.rows", len(row_ms), "count"),
        ("failed_share", failed / max(1, attempted), "ratio"),
        ("invariant_digest", invariant, ""),
        ("telemetry_digest", telemetry, ""),
    ]
    return attempted, failed, metrics, notes


def span_seconds(trace_path):
    """Total seconds per span name in the Chrome trace, over all threads."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    totals = {}
    for e in events:
        totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"] / 1e6
    return totals


# Benchmark spans that charge replay time to a layer (harness.cpp).
LAYER_SPANS = ("synth.gen", "defense.apply", "verify.structural",
               "verify.audit", "verify.keydep", "sim.lower", "attack.sat",
               "attack.seq", "store.append", "store.replay")


def per_layer(args, harness, checks, work):
    if args.workload == "flow_resume":
        harness.call("prepare")
    doc = harness.call("trace")
    campaign = doc["campaign"]
    layers = doc["layers"]
    keys = doc["keys"]
    rows = read_rows(os.path.join(work, "campaign.csv"))
    replay_rows = read_rows(os.path.join(work, "replay.csv"))
    checks.replay_matches(
        read_rows(os.path.join(work, "campaign_executed.csv")), replay_rows)
    invariant, telemetry = digests(rows)
    checks.pinned_digest(args, invariant)
    checks.keys(keys)

    spans = span_seconds(os.path.join(work, "trace.json"))
    t = lambda name: spans.get(name, 0.0)
    replay_s = t("replay.worker")  # summed over the replay's threads
    attempted = len(replay_rows)
    failed = sum(1 for r in replay_rows if r["status"] != "ok")
    failed += keys["unverified"]
    n_attacked = layers["attack.rows"]
    threads = campaign["threads"]

    values = {
        "synth.gen_s": (t("synth.gen"), "s"),
        "synth.cells": (layers["synth.cells"], "count"),
        "defense.apply_s": (t("defense.apply"), "s"),
        "defense.attempts": (layers["defense.attempts"], "count"),
        "defense.key_bits": (layers["defense.key_bits"], "count"),
        "verify.structural_s": (t("verify.structural"), "s"),
        "verify.audit_s": (t("verify.audit"), "s"),
        "verify.keydep_s": (t("verify.keydep"), "s"),
        "verify.findings": (layers["verify.findings"], "count"),
        "sim.lower_s": (t("sim.lower"), "s"),
        "sim.words": (layers["sim.words"], "count"),
        "oracle.queries": (layers["oracle.queries"], "count"),
        "sat.warmup_s": (t("sat_warmup"), "s"),
        "sat.encode_s": (t("encode"), "s"),
        "sat.solve_s": (t("solve"), "s"),
        "sat.dips": (layers["sat.dips"], "count"),
        "sat.conflicts": (layers["sat.conflicts"], "count"),
        "sat.propagations": (layers["sat.propagations"], "count"),
        "sat.peak_clauses": (layers["sat.peak_clauses"], "count"),
        "sat.props_per_s": (layers["sat.propagations"] / t("solve")
                            if t("solve") > 0 else 0.0, "1/s"),
        "seq.run_s": (t("attack.seq"), "s"),
        "seq.dip_s": (t("seq_dip"), "s"),
        "seq.iters": (layers["seq.iters"], "count"),
        "attack.run_s": (t("attack.sat") + t("attack.seq"), "s"),
        "attack.solved_share": (layers["attack.solved"] / n_attacked
                                if n_attacked else 0.0, "ratio"),
        "attack.keys_claimed": (keys["claimed"], "count"),
        "attack.keys_verified": (keys["verified"], "count"),
        "attack.keys_bounded": (keys["bounded"], "count"),
        "store.replay_s": (t("store.replay"), "s"),
        "store.append_s": (t("store.append"), "s"),
        "store.appends": (layers["store.appends"], "count"),
        "store.bytes": (layers["store.bytes"], "bytes"),
        "runtime.queue_wait_s": (campaign["queue_wait_s"], "s"),
        "runtime.idle_share": (1 - campaign["cpu_s"]
                               / (campaign["wall_s"] * threads), "ratio"),
        "trace.coverage": (sum(t(n) for n in LAYER_SPANS) / replay_s
                           if replay_s > 0 else 0.0, "ratio"),
        "trace.overhead_share": (doc["replay_cpu_s"] / campaign["cpu_s"] - 1,
                                 "ratio"),
    }
    metrics = {k: metric(v, u) for k, (v, u) in values.items()}
    notes = [("failed_share", failed / max(1, attempted), "ratio"),
             ("invariant_digest", invariant, ""),
             ("telemetry_digest", telemetry, ""),
             ("replay_wall_s", doc["replay_wall_s"], "s"),
             ("replay_cpu_s", doc["replay_cpu_s"], "s"),
             ("campaign.cpu_s", campaign["cpu_s"], "s"),
             ("campaign.wall_s", campaign["wall_s"], "s")]
    return attempted, failed, metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long grids (self-test)")
    parser.add_argument("--digests",
                        help="pinned-digest file (default: campaign_bench/"
                             "digests.json)")
    parser.add_argument("--forge-key", action="store_true",
                        help="corrupt one claimed key before checking it "
                             "(self-test)")
    args = parser.parse_args()

    exe = build_harness()
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    harness = Harness(exe, args, work)
    checks = Checks()
    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics, notes = measure(args, harness, checks, work)

    for name, m in metrics.items():
        print("%-24s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, value, unit in notes:
        print("%-24s %14s %s" % (name, value, unit))
    correct = not checks.problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
