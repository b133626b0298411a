#!/usr/bin/env python3
"""Validate sttlock observability artifacts.

Checks that a Chrome trace JSON written by ``--trace`` is loadable by
chrome://tracing (structurally: a ``traceEvents`` list of complete "X"
events with the required keys) and that a metrics JSON written by
``--metrics`` has the counters/gauges/histograms shape.

Also validates a campaign JSON document written by ``--out-json``: every
``results`` row must carry the defense axis columns (``defense``,
``defense_tuning``, ``key_cells``, ``key_bits``, ``cells_added``,
``cells_replaced``) and every ``summary`` entry the per-defense aggregate
shape.

Metrics and campaign ``obs`` counters named ``sat.*`` must be solver
counters this build publishes (``SAT_COUNTERS``) and must be mutually
consistent (restarts never exceed conflicts, reductions never exceed
restarts).

Also validates a bench JSON document against its schema: ``--bench netlist``
checks the shape bench_netlist_perf writes (counts, matching structural
checksums, and the per-path/per-phase timing rows). ``--bench sat`` checks
bench_sat_perf output: one run, or ``{"runs": [...]}`` holding runs of
several builds on one machine, which must agree on the benchmark, the
reference key checksum and every mode's solver counters (the committed
history records builds that do not move the search).

Usage:
  scripts/validate_obs.py --trace trace.json [--require-cats job,flow-stage,...]
  scripts/validate_obs.py --metrics metrics.json [--require-counters a,b]
  scripts/validate_obs.py --campaign campaign.json \\
      [--require-defenses xor,latch] [--require-attacks sat,none]
  scripts/validate_obs.py --bench netlist --bench-json BENCH_netlist_perf.json
  scripts/validate_obs.py --bench sat --bench-json BENCH_sat_perf.json

Exits non-zero with a diagnostic on the first violation. Stdlib only.
"""

import argparse
import json
import sys

TRACE_EVENT_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid"}

CAMPAIGN_ROW_KEYS = {
    "benchmark", "algorithm", "defense", "defense_tuning", "trial",
    "circuit_seed", "selection_seed", "status", "attempts", "luts",
    "key_cells", "key_bits", "cells_added", "cells_replaced",
}
CAMPAIGN_ROW_COUNTS = ("key_cells", "key_bits", "cells_added",
                       "cells_replaced")
# Present only on rows whose lint stage ran (verify/keydep analysis).
CAMPAIGN_KEYDEP_KEYS = {"key_bits_static", "eff_key_bits", "analyze_verdict"}
CAMPAIGN_KEYDEP_COUNTS = ("key_bits_static", "eff_key_bits")
# "" marks a lint run whose keydep stage was skipped (no LUTs).
CAMPAIGN_ANALYZE_VERDICTS = {"", "empty", "broken", "degraded", "secure"}
CAMPAIGN_SUMMARY_KEYS = {
    "defense", "defense_tuning", "rows", "failed", "perf_pct_mean",
    "power_pct_mean", "area_pct_mean", "luts_mean", "key_bits_mean",
    "attacked", "attack_breaks",
}
# The "runtime" section (present in --out-json, absent from --stable-json)
# carries the resume/shard/dedup-cache accounting of the result store.
CAMPAIGN_RUNTIME_KEYS = {
    "threads", "wall_seconds", "job_cpu_seconds", "executed", "stolen",
    "failed_rows", "rows_resumed", "rows_executed", "shard_index",
    "shard_count", "cache_builds", "cache_reuses", "cache_saved_ms",
    "store_note", "obs",
}
CAMPAIGN_RUNTIME_COUNTS = ("rows_resumed", "rows_executed", "cache_builds",
                           "cache_reuses")
# Stable counters the SAT attack publishes once per attack (canonical solver
# plus the key-extraction solve). Zero deltas are omitted from snapshots, so
# an absent counter reads as 0.
SAT_COUNTERS = {"sat.dips", "sat.conflicts", "sat.propagations",
                "sat.restarts", "sat.db_reductions"}


def fail(msg):
    print(f"validate_obs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def validate_trace(path, require_cats):
    doc = load_json(path)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: top-level object must contain 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: 'traceEvents' must be a list")
    cats = set()
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"{path}: event {i} is not an object")
        missing = TRACE_EVENT_KEYS - e.keys()
        if missing:
            fail(f"{path}: event {i} missing keys {sorted(missing)}")
        if e["ph"] != "X":
            fail(f"{path}: event {i} has ph={e['ph']!r}, expected complete"
                 " event 'X'")
        for key in ("ts", "dur", "pid", "tid"):
            if not isinstance(e[key], int) or e[key] < 0:
                fail(f"{path}: event {i} field {key}={e[key]!r} must be a"
                     " non-negative integer")
        cats.add(e["cat"])
    for cat in require_cats:
        if cat not in cats:
            fail(f"{path}: required span category {cat!r} absent"
                 f" (present: {sorted(cats)})")
    print(f"validate_obs: OK: {path}: {len(events)} events,"
          f" categories {sorted(cats)}")


def validate_metrics(path, require_counters):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value must be an object")
    for section in ("counters", "gauges", "histograms"):
        if section not in doc or not isinstance(doc[section], dict):
            fail(f"{path}: missing or non-object section {section!r}")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {name!r} must be a non-negative integer")
    for name, value in doc["gauges"].items():
        if not isinstance(value, int):
            fail(f"{path}: gauge {name!r} must be an integer")
    for name, h in doc["histograms"].items():
        if not isinstance(h, dict) or not {"count", "sum"} <= h.keys():
            fail(f"{path}: histogram {name!r} must carry count and sum")
    for name in require_counters:
        if name not in doc["counters"]:
            fail(f"{path}: required counter {name!r} absent"
                 f" (present: {sorted(doc['counters'])})")
    validate_sim_isa_counters(path, doc["counters"])
    validate_sat_counters(path, doc["counters"])
    print(f"validate_obs: OK: {path}: {len(doc['counters'])} counters,"
          f" {len(doc['gauges'])} gauges, {len(doc['histograms'])} histograms")


def validate_sim_isa_counters(path, counters):
    """Cross-check the simulation engine's per-ISA word attribution.

    ``sim.words`` counts true pattern words; ``sim.isa.<name>`` and
    ``sim.lane_words.<K>`` attribute those same words to the kernel that
    evaluated them, so each family must sum to exactly ``sim.words``.
    """
    if "sim.words" not in counters:
        return
    total = counters["sim.words"]
    for prefix in ("sim.isa.", "sim.lane_words."):
        family = {k: v for k, v in counters.items() if k.startswith(prefix)}
        if not family:
            fail(f"{path}: sim.words present but no {prefix}* counters")
        attributed = sum(family.values())
        if attributed != total:
            fail(f"{path}: {prefix}* counters sum to {attributed},"
                 f" expected sim.words={total} ({family})")
    known_isas = {"sim.isa.scalar", "sim.isa.avx2", "sim.isa.avx512"}
    unknown = {k for k in counters if k.startswith("sim.isa.")} - known_isas
    if unknown:
        fail(f"{path}: unknown sim.isa counters {sorted(unknown)}")


def validate_sat_counters(path, counters):
    """Check the solver counters for unknown names and consistency.

    Every restart follows at least one conflict and every learnt-database
    reduction runs at a restart, so restarts <= conflicts and
    db_reductions <= restarts; a DIP comes from a SAT verdict, which needs
    propagation.
    """
    unknown = {k for k in counters if k.startswith("sat.")} - SAT_COUNTERS
    if unknown:
        fail(f"{path}: unknown sat counters {sorted(unknown)}"
             f" (known: {sorted(SAT_COUNTERS)})")
    get = lambda name: counters.get(name, 0)  # noqa: E731
    if get("sat.restarts") > get("sat.conflicts"):
        fail(f"{path}: sat.restarts={get('sat.restarts')} exceeds"
             f" sat.conflicts={get('sat.conflicts')}")
    if get("sat.db_reductions") > get("sat.restarts"):
        fail(f"{path}: sat.db_reductions={get('sat.db_reductions')} exceeds"
             f" sat.restarts={get('sat.restarts')}")
    if get("sat.dips") > 0 and get("sat.propagations") == 0:
        fail(f"{path}: sat.dips={get('sat.dips')} with no"
             " sat.propagations")


def validate_campaign(path, require_defenses, require_attacks):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value must be an object")
    for section in ("results", "summary"):
        if section not in doc or not isinstance(doc[section], list):
            fail(f"{path}: missing or non-list section {section!r}")
    defenses, attacks = set(), set()
    for i, row in enumerate(doc["results"]):
        if not isinstance(row, dict):
            fail(f"{path}: results[{i}] is not an object")
        missing = CAMPAIGN_ROW_KEYS - row.keys()
        if missing:
            fail(f"{path}: results[{i}] missing keys {sorted(missing)}")
        for key in CAMPAIGN_ROW_COUNTS:
            if not isinstance(row[key], int) or row[key] < 0:
                fail(f"{path}: results[{i}] field {key}={row[key]!r} must be"
                     " a non-negative integer")
        if "lint" in row:
            missing = CAMPAIGN_KEYDEP_KEYS - row.keys()
            if missing:
                fail(f"{path}: results[{i}] ran lint but is missing keydep"
                     f" keys {sorted(missing)}")
            for key in CAMPAIGN_KEYDEP_COUNTS:
                if not isinstance(row[key], int) or row[key] < 0:
                    fail(f"{path}: results[{i}] field {key}={row[key]!r}"
                         " must be a non-negative integer")
            if row["eff_key_bits"] > row["key_bits"]:
                fail(f"{path}: results[{i}] eff_key_bits"
                     f" {row['eff_key_bits']} exceeds key_bits"
                     f" {row['key_bits']}")
            if row["analyze_verdict"] not in CAMPAIGN_ANALYZE_VERDICTS:
                fail(f"{path}: results[{i}] analyze_verdict"
                     f" {row['analyze_verdict']!r} not in"
                     f" {sorted(CAMPAIGN_ANALYZE_VERDICTS)}")
        if row["algorithm"] != row["defense"]:
            fail(f"{path}: results[{i}] legacy 'algorithm' column"
                 f" {row['algorithm']!r} != 'defense' {row['defense']!r}")
        defenses.add(row["defense"])
        # Rows without an attack stage carry no "attack" key.
        attacks.add(row.get("attack", "none"))
    for i, entry in enumerate(doc["summary"]):
        if not isinstance(entry, dict):
            fail(f"{path}: summary[{i}] is not an object")
        missing = CAMPAIGN_SUMMARY_KEYS - entry.keys()
        if missing:
            fail(f"{path}: summary[{i}] missing keys {sorted(missing)}")
    obs = doc.get("obs")
    if isinstance(obs, dict) and isinstance(obs.get("counters"), dict):
        validate_sat_counters(path, obs["counters"])
    if "runtime" in doc:
        validate_campaign_runtime(path, doc["runtime"], len(doc["results"]))
    summarized = {e["defense"] for e in doc["summary"]}
    for kind in require_defenses:
        if kind not in defenses:
            fail(f"{path}: required defense {kind!r} absent from results"
                 f" (present: {sorted(defenses)})")
        if kind not in summarized:
            fail(f"{path}: required defense {kind!r} absent from summary"
                 f" (present: {sorted(summarized)})")
    for name in require_attacks:
        if name not in attacks:
            fail(f"{path}: required attack {name!r} absent from results"
                 f" (present: {sorted(attacks)})")
    print(f"validate_obs: OK: {path}: {len(doc['results'])} rows,"
          f" defenses {sorted(defenses)}, attacks {sorted(attacks)}")


def validate_campaign_runtime(path, rt, n_rows):
    if not isinstance(rt, dict):
        fail(f"{path}: 'runtime' must be an object")
    missing = CAMPAIGN_RUNTIME_KEYS - rt.keys()
    if missing:
        fail(f"{path}: runtime section missing keys {sorted(missing)}")
    for key in CAMPAIGN_RUNTIME_COUNTS:
        if not isinstance(rt[key], int) or rt[key] < 0:
            fail(f"{path}: runtime field {key}={rt[key]!r} must be a"
                 " non-negative integer")
    if not isinstance(rt["shard_index"], int) \
            or not isinstance(rt["shard_count"], int) \
            or not 1 <= rt["shard_index"] <= rt["shard_count"]:
        fail(f"{path}: runtime shard {rt['shard_index']!r}/"
             f"{rt['shard_count']!r} must satisfy 1 <= index <= count")
    # Every reported row was either replayed from the store or executed in
    # this process — the two counters partition the rows exactly.
    if rt["rows_resumed"] + rt["rows_executed"] != n_rows:
        fail(f"{path}: rows_resumed {rt['rows_resumed']} + rows_executed"
             f" {rt['rows_executed']} != {n_rows} result rows")
    if not isinstance(rt["cache_saved_ms"], (int, float)) \
            or rt["cache_saved_ms"] < 0:
        fail(f"{path}: runtime cache_saved_ms={rt['cache_saved_ms']!r} must"
             " be a non-negative number")
    if rt["cache_builds"] == 0 and rt["cache_reuses"] != 0:
        fail(f"{path}: runtime reports {rt['cache_reuses']} cache reuses"
             " with no cache builds")
    if not isinstance(rt["store_note"], str):
        fail(f"{path}: runtime store_note must be a string")
    # The same accounting flows through the runtime-tagged obs counters;
    # when present (enabled obs builds) they must agree with the fields.
    counters = rt["obs"].get("counters", {}) if isinstance(rt["obs"], dict) \
        else {}
    for counter, field in (("campaign.rows.resumed", "rows_resumed"),
                           ("campaign.rows.executed", "rows_executed"),
                           ("campaign.cache.builds", "cache_builds"),
                           ("campaign.cache.reuses", "cache_reuses")):
        if counter in counters and counters[counter] != rt[field]:
            fail(f"{path}: runtime obs counter {counter}="
                 f"{counters[counter]} disagrees with {field}={rt[field]}")


NETLIST_BENCH_KEYS = {
    "benchmark", "cells", "edges", "luts", "bench_bytes", "findings",
    "checksum", "seed_checksum", "load_lint_speedup", "phases",
}
NETLIST_BENCH_COUNTS = ("cells", "edges", "luts", "bench_bytes", "findings")
NETLIST_PHASE_KEYS = {"path", "phase", "reps", "seconds", "cells_per_sec"}
NETLIST_PATHS = {"current", "seed"}
# Every path must time at least these phases; "lower" runs on the current
# path only (the seed replica has no compiled-sim stage).
NETLIST_REQUIRED_PHASES = {"parse", "finalize", "topo", "lint"}


def validate_netlist_bench(path):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value must be an object")
    missing = NETLIST_BENCH_KEYS - doc.keys()
    if missing:
        fail(f"{path}: missing keys {sorted(missing)}")
    for key in NETLIST_BENCH_COUNTS:
        if not isinstance(doc[key], int) or doc[key] < 0:
            fail(f"{path}: field {key}={doc[key]!r} must be a non-negative"
                 " integer")
    if doc["cells"] <= 0:
        fail(f"{path}: cells must be positive")
    # The bench refuses to emit JSON on a checksum mismatch, so a committed
    # artifact with differing checksums is corrupt by construction.
    if doc["checksum"] != doc["seed_checksum"]:
        fail(f"{path}: checksum {doc['checksum']!r} != seed_checksum"
             f" {doc['seed_checksum']!r}")
    if not isinstance(doc["load_lint_speedup"], (int, float)) \
            or doc["load_lint_speedup"] <= 0:
        fail(f"{path}: load_lint_speedup must be a positive number")
    if not isinstance(doc["phases"], list) or not doc["phases"]:
        fail(f"{path}: 'phases' must be a non-empty list")
    timed = {p: set() for p in NETLIST_PATHS}
    for i, row in enumerate(doc["phases"]):
        if not isinstance(row, dict):
            fail(f"{path}: phases[{i}] is not an object")
        missing = NETLIST_PHASE_KEYS - row.keys()
        if missing:
            fail(f"{path}: phases[{i}] missing keys {sorted(missing)}")
        if row["path"] not in NETLIST_PATHS:
            fail(f"{path}: phases[{i}] path {row['path']!r} not in"
                 f" {sorted(NETLIST_PATHS)}")
        if not isinstance(row["reps"], int) or row["reps"] < 2:
            fail(f"{path}: phases[{i}] reps={row['reps']!r} must be an"
                 " integer >= 2 (the bench always times at least two reps)")
        for key in ("seconds", "cells_per_sec"):
            if not isinstance(row[key], (int, float)) or row[key] < 0:
                fail(f"{path}: phases[{i}] field {key}={row[key]!r} must be"
                     " a non-negative number")
        timed[row["path"]].add(row["phase"])
    for p in NETLIST_PATHS:
        missing = NETLIST_REQUIRED_PHASES - timed[p]
        if missing:
            fail(f"{path}: path {p!r} missing timed phases"
                 f" {sorted(missing)}")
    print(f"validate_obs: OK: {path}: {doc['benchmark']} with"
          f" {doc['cells']} cells, {len(doc['phases'])} phase rows,"
          f" {doc['load_lint_speedup']}x load+lint speedup")


SAT_BENCH_KEYS = {"benchmark", "algorithm", "luts", "key_bits", "threads",
                  "checksum", "modes"}
SAT_BENCH_MODES = ("naive", "pruned", "pruned_sim", "portfolio")
SAT_MODE_KEYS = {"name", "seconds", "iterations", "queries", "conflicts",
                 "decisions", "propagations", "learned", "peak_clauses",
                 "props_per_s", "speedup_vs_naive"}
# Solver counters every run in one history file must agree on.
SAT_TRAJECTORY_KEYS = ("iterations", "queries", "conflicts", "decisions",
                       "propagations", "learned", "peak_clauses")


def validate_sat_bench(path):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value must be an object")
    runs = doc["runs"] if "runs" in doc else [doc]
    if not isinstance(runs, list) or not runs:
        fail(f"{path}: 'runs' must be a non-empty list")
    for r, run in enumerate(runs):
        where = f"{path}: runs[{r}]"
        if not isinstance(run, dict):
            fail(f"{where} is not an object")
        missing = SAT_BENCH_KEYS - run.keys()
        if missing:
            fail(f"{where} missing keys {sorted(missing)}")
        names = [m.get("name") for m in run["modes"]]
        if tuple(names) != SAT_BENCH_MODES:
            fail(f"{where} modes {names} != {list(SAT_BENCH_MODES)}")
        for m in run["modes"]:
            missing = SAT_MODE_KEYS - m.keys()
            if missing:
                fail(f"{where} mode {m['name']} missing keys"
                     f" {sorted(missing)}")
            if m["seconds"] <= 0 or m["props_per_s"] <= 0:
                fail(f"{where} mode {m['name']} must report positive"
                     " seconds and props_per_s")
        # The bench only writes JSON after every mode's key matched the
        # reference chip, so runs of one benchmark must share the checksum.
        for key in ("benchmark", "algorithm", "checksum"):
            if run[key] != runs[0][key]:
                fail(f"{where} {key}={run[key]!r} differs from runs[0]"
                     f" {runs[0][key]!r}")
        for m, m0 in zip(run["modes"], runs[0]["modes"]):
            for key in SAT_TRAJECTORY_KEYS:
                if m[key] != m0[key]:
                    fail(f"{where} mode {m['name']} {key}={m[key]} !="
                         f" runs[0] {m0[key]} (trajectory moved)")
    print(f"validate_obs: OK: {path}: {len(runs)} run(s) of"
          f" {runs[0]['benchmark']}/{runs[0]['algorithm']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="Chrome trace JSON to validate")
    ap.add_argument("--metrics", help="metrics JSON to validate")
    ap.add_argument("--campaign", help="campaign --out-json document to"
                    " validate (defense axis columns)")
    ap.add_argument("--bench", choices=["netlist", "sat"],
                    help="bench JSON schema to validate (--bench-json)")
    ap.add_argument("--bench-json",
                    help="bench JSON path (default BENCH_<bench>_perf.json)")
    ap.add_argument("--require-cats", default="",
                    help="comma-separated span categories that must appear")
    ap.add_argument("--require-counters", default="",
                    help="comma-separated counters that must appear")
    ap.add_argument("--require-defenses", default="",
                    help="comma-separated defense kinds that must appear in"
                    " campaign results and summary")
    ap.add_argument("--require-attacks", default="",
                    help="comma-separated attack names that must appear in"
                    " campaign results")
    args = ap.parse_args()
    if not args.trace and not args.metrics and not args.campaign \
            and not args.bench:
        ap.error("at least one of --trace / --metrics / --campaign /"
                 " --bench is required")
    split = lambda s: [x for x in s.split(",") if x]  # noqa: E731
    if args.trace:
        validate_trace(args.trace, split(args.require_cats))
    if args.metrics:
        validate_metrics(args.metrics, split(args.require_counters))
    if args.campaign:
        validate_campaign(args.campaign, split(args.require_defenses),
                          split(args.require_attacks))
    bench_json = args.bench_json or f"BENCH_{args.bench}_perf.json"
    if args.bench == "netlist":
        validate_netlist_bench(bench_json)
    if args.bench == "sat":
        validate_sat_bench(bench_json)


if __name__ == "__main__":
    main()
