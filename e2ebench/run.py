#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of p2pse.

Runs one named workload (or all of them) for a fixed time budget and prints
its metrics, one per line with its unit, then one JSON object as the last
line of standard output:

    python3 e2ebench/run.py --workload sc_static_1m --seed 3 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics (wall_s, setup_s, msgs_per_s,
peak_rss_mb, ops_ok_frac); --trace 1 prints the per-layer metrics. Run from
a checkout of the repository: the first run builds the program from source
into .bench_build/ (see e2ebench/README.md).

Every repeat is a separate e2e_driver process with the same seed, so the
same inputs; the reported figure is the median over the repeats that fit in
--seconds (at least MIN_REPEATS). The run fails, and prints correct=false,
when a correctness gate fails: repeats must agree exactly on every count
and on the estimate series, no valid estimate may be NaN or non-positive,
and sc_static_1m must meet the paper's Sample&Collide accuracy band.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "out"

MIN_REPEATS = 3  # untraced repeats per run
MIN_TRACED_PAIRS = 2  # untraced/traced pairs per traced run
MAX_REPEATS = 40
REPEAT_TIMEOUT_S = 120
SC_BAND_PCT = 10.0  # paper: one-shot Sample&Collide within 10% (l=200)

# Specs in the p2pse_matrix dialect; --seed is appended. Every workload's
# series must match `p2pse_matrix` on the same flags (equivalence.py checks
# it at reduced size).
WORKLOADS = {
    "sc_static_1m": {
        "why": "S&C walk kernel at the paper's 1M size; graph build shows "
               "in setup_s; no churn, trace, topology or fan-out work",
        "args": ["--estimator", "sample_collide:l=200,T=10",
                 "--scenario", "static", "--nodes", "1000000",
                 "--estimations", "20", "--replicas", "1", "--threads", "1"],
        "sc_band": True,
    },
    "agg_shrinking_100k": {
        "why": "whole-overlay gossip rounds under 50% departures (the "
               "conservative effect); no walk, trivial churn",
        "args": ["--estimator", "aggregation:rounds=50",
                 "--scenario", "shrinking", "--nodes", "100000",
                 "--rounds-per-unit", "1", "--replicas", "1",
                 "--threads", "1"],
    },
    "hs_trace_clustered": {
        "why": "trace churn writes the graph; HS over the lossy per-link "
               "channel with the stats sink armed; 2 replica threads",
        # The trace is fixed (its own seed=1) so peak RSS compares across
        # --seed values; see README.md, "Run lengths".
        "args": ["--estimator", "hops_sampling",
                 "--scenario", "trace:weibull,duration=250,seed=1",
                 "--nodes", "100000",
                 "--topo", "topo:clustered,regions=8",
                 "--replicas", "2", "--threads", "2"],
        "stats_json": True,
    },
}

END_TO_END = [  # name, unit, better, bound (share of the parent median)
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("msgs_per_s", "msg/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("ops_ok_frac", "ratio", "higher", 0.05),
]

MESSAGE_CLASSES = ["walk_step", "sample_reply", "gossip_spread",
                   "poll_reply", "aggregation_push", "aggregation_pull",
                   "control"]

PER_LAYER = [  # name, unit, better
    ("trace.generate_s", "s", "lower"),
    ("trace.sessions", "count", "higher"),
    ("trace.ns_per_session", "ns", "lower"),
    ("net.build_s", "s", "lower"),
    ("net.nodes", "count", "higher"),
    ("net.edges", "count", "higher"),
    ("net.build_ns_per_node", "ns", "lower"),
    ("topo.embed_s", "s", "lower"),
    ("scenario.bind_s", "s", "lower"),
    ("scenario.churn_s", "s", "lower"),
    ("scenario.joins", "count", "higher"),
    ("scenario.leaves", "count", "higher"),
    ("scenario.churn_ns_per_change", "ns", "lower"),
    ("est.busy_s", "s", "lower"),
    ("est.calls", "count", "higher"),
    ("est.call_ms_p50", "ms", "lower"),
    ("est.ns_per_message", "ns", "lower"),
    ("est.valid_frac", "ratio", "higher"),
    ("est.mean_abs_error_pct", "%", "lower"),
    ("sim.messages", "count", "lower"),
] + [("sim.msgs." + c, "count", "lower") for c in MESSAGE_CLASSES] + [
    ("sim.bytes", "B", "lower"),
    ("sim.sends_iid", "count", "lower"),
    ("sim.sends_link", "count", "lower"),
    ("sim.drops", "count", "lower"),
    ("sim.retransmits", "count", "lower"),
    ("sim.arq_timeouts", "count", "lower"),
    ("sim.delivered_frac", "ratio", "higher"),
    ("obs.collect_s", "s", "lower"),
    ("obs.write_s", "s", "lower"),
    ("harness.fanout_s", "s", "lower"),
    ("harness.replica_busy_s", "s", "lower"),
    ("harness.fanout_efficiency", "ratio", "higher"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


# --- build ------------------------------------------------------------------

def build(targets=("e2e_driver",)):
    """Configures once and builds `targets` (a no-op when up to date)."""
    if not (ROOT / "src" / "p2pse").is_dir() or \
            not (ROOT / "CMakeLists.txt").is_file():
        raise SystemExit("e2ebench: the p2pse sources are missing; run from "
                         "a checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", *targets])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit("e2ebench: build failed: " + " ".join(step))
    OUT.mkdir(parents=True, exist_ok=True)
    return BUILD / "e2e_driver"


# --- host and working set ----------------------------------------------------

def host_facts():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches["L" + level] = size
    return {"nproc": os.cpu_count(), "l2": caches.get("L2", "unknown"),
            "l3": caches.get("L3", "unknown")}


# --- one repeat ----------------------------------------------------------------

def driver_args(name, seed, traced, tag):
    spec = WORKLOADS[name]
    args = spec["args"] + ["--seed", str(seed),
                           "--trace", "1" if traced else "0"]
    if spec.get("stats_json"):
        args += ["--stats-json", str(OUT / f"{name}-{tag}.stats.json")]
    if traced:
        args += ["--spans", str(OUT / f"{name}-{tag}.spans.json")]
    return args


def run_repeat(driver, name, seed, traced, tag):
    cmd = [str(driver)] + driver_args(name, seed, traced, tag)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=REPEAT_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"driver failed (exit {done.returncode}): "
                           + " ".join(cmd))
    return json.loads(lines[-1])


def run_repeats(driver, name, seed, seconds, traced):
    """Untraced repeats, or alternating untraced/traced pairs, until the
    next one would overrun `seconds` (at least MIN_REPEATS repeats or
    MIN_TRACED_PAIRS pairs)."""
    modes = [False, True] if traced else [False]
    minimum = MIN_TRACED_PAIRS if traced else MIN_REPEATS
    results = {False: [], True: []}
    started = time.perf_counter()
    step_s = []
    while True:
        step_start = time.perf_counter()
        for mode in modes:
            tag = f"s{seed}-{'t' if mode else 'u'}{len(results[mode])}"
            results[mode].append(run_repeat(driver, name, seed, mode, tag))
        step_s.append(time.perf_counter() - step_start)
        done = len(results[False])
        elapsed = time.perf_counter() - started
        if done >= MAX_REPEATS:
            break
        if done >= minimum and \
                elapsed + statistics.median(step_s) > seconds:
            break
    return results[False], results[True]


# --- gates -----------------------------------------------------------------------

LAYER_COUNTS = ["trace_sessions", "net_nodes", "net_edges", "joins", "leaves",
                "bytes", "sends_iid", "sends_link", "drops", "retransmits",
                "arq_timeouts"]


def gate(name, untraced, traced):
    """Returns the list of failed correctness gates (empty when correct)."""
    failures = []
    everything = untraced + traced
    for key in ("digest", "messages", "attempted", "invalid", "valid_frac"):
        values = {json.dumps(r[key]) for r in everything}
        if len(values) != 1:
            failures.append(f"repeats disagree on {key}: {sorted(values)}")
    for r in everything:
        if not r["calls_ok"]:
            failures.append("an overlay emptied: fewer estimator calls than "
                            "scheduled")
        if r["bad_valid"]:
            failures.append(f"{r['bad_valid']} valid estimates are NaN or "
                            "non-positive")
    for key in LAYER_COUNTS + ["messages"]:
        values = {json.dumps(r["layers"][key], sort_keys=True)
                  for r in traced}
        if len(values) > 1:
            failures.append(f"traced repeats disagree on {key}")
    for r in traced:
        layers = r["layers"]
        if sum(layers["messages"].values()) != r["messages"]:
            failures.append("per-class messages do not add up to the meter "
                            "total")
        if not layers["collect_matches"]:
            failures.append("obs::collect disagrees with the boundary counts")
    if WORKLOADS[name].get("sc_band"):
        error = everything[0]["mean_abs_error_pct"]
        if error > SC_BAND_PCT:
            failures.append(f"Sample&Collide mean |error| {error:.2f}% is "
                            f"outside the paper's {SC_BAND_PCT}% band")
    return sorted(set(failures))


# --- metrics ---------------------------------------------------------------------

def end_to_end(untraced):
    first = untraced[0]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "msgs_per_s": statistics.median(
            ratio(r["messages"], r["wall_s"] - r["setup_s"])
            for r in untraced),
        "peak_rss_mb": statistics.median(
            r["peak_rss_kb"] / 1024.0 for r in untraced),
        "ops_ok_frac": ratio(first["attempted"] - first["invalid"],
                             first["attempted"]),
    }


def layer_values(r):
    """The per-layer metrics of one traced repeat."""
    L = r["layers"]
    messages = r["messages"]
    changes = L["joins"] + L["leaves"]
    values = {
        "trace.generate_s": L["trace_generate_s"],
        "trace.sessions": L["trace_sessions"],
        "trace.ns_per_session": ratio(L["trace_generate_s"],
                                      L["trace_sessions"], 1e9),
        "net.build_s": L["net_build_s"],
        "net.nodes": L["net_nodes"],
        "net.edges": L["net_edges"],
        "net.build_ns_per_node": ratio(L["net_build_s"], L["net_nodes"], 1e9),
        "topo.embed_s": L["topo_embed_s"],
        "scenario.bind_s": L["scenario_bind_s"],
        "scenario.churn_s": L["scenario_churn_s"],
        "scenario.joins": L["joins"],
        "scenario.leaves": L["leaves"],
        "scenario.churn_ns_per_change": ratio(L["scenario_churn_s"],
                                              changes, 1e9),
        "est.busy_s": L["est_busy_s"],
        "est.calls": len(L["call_ms"]),
        "est.ns_per_message": ratio(L["est_busy_s"], messages, 1e9),
        "est.valid_frac": r["valid_frac"],
        "est.mean_abs_error_pct": r["mean_abs_error_pct"],
        "sim.messages": messages,
        "sim.bytes": L["bytes"],
        "sim.sends_iid": L["sends_iid"],
        "sim.sends_link": L["sends_link"],
        "sim.drops": L["drops"],
        "sim.retransmits": L["retransmits"],
        "sim.arq_timeouts": L["arq_timeouts"],
        "sim.delivered_frac": 1.0 - ratio(L["drops"], messages)
        if messages else 1.0,
        "obs.collect_s": L["obs_collect_s"],
        "obs.write_s": L["obs_write_s"],
        "harness.fanout_s": L["fanout_s"],
        "harness.replica_busy_s": L["replica_busy_s"],
        "harness.fanout_efficiency": ratio(L["replica_busy_s"],
                                           L["threads"] * L["fanout_s"]),
        "bench.unattributed_s": L["unattributed_s"],
    }
    for c in MESSAGE_CLASSES:
        values["sim.msgs." + c] = L["messages"][c]
    return values


def per_layer(untraced, traced):
    per_repeat = [layer_values(r) for r in traced]
    metrics = {}
    for key in per_repeat[0]:
        values = [v[key] for v in per_repeat]
        same = all(value == values[0] for value in values)
        metrics[key] = values[0] if same else statistics.median(values)
    calls = [ms for r in traced for ms in r["layers"]["call_ms"]]
    metrics["est.call_ms_p50"] = statistics.median(calls) if calls else 0.0
    metrics["bench.trace_overhead"] = ratio(
        statistics.median(r["wall_s"] for r in traced),
        statistics.median(r["wall_s"] for r in untraced)) - 1.0
    # p90 needs ten samples beyond it; it is printed, not tracked.
    extra = {"est.call_ms_samples": (len(calls), "count")}
    if len(calls) >= 100:
        extra["est.call_ms_p90"] = (statistics.quantiles(calls, n=10)[-1],
                                    "ms")
    return metrics, extra


# --- one workload ------------------------------------------------------------------

def run_workload(name, seed, seconds, traced):
    driver = build()
    host = host_facts()
    untraced, traced_runs = run_repeats(driver, name, seed, seconds, traced)
    failures = gate(name, untraced, traced_runs)
    first = untraced[0]
    print(f"# e2ebench workload={name} seed={seed} "
          f"trace={int(traced)} repeats={len(untraced)}"
          + (f"+{len(traced_runs)} traced" if traced else ""))
    print(f"# host: nproc={host['nproc']} L2={host['l2']} L3={host['l3']}")
    print(f"# working set: graph nodes={first['graph_nodes']} "
          f"edges={first['graph_edges']} adjacency_bytes(computed)="
          f"{first['graph_adjacency_bytes']} node_table_bytes(computed)="
          f"{first['graph_node_table_bytes']}")
    if traced:
        metrics, extra = per_layer(untraced, traced_runs)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(untraced)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        extra = {"ops_failed_frac": (1.0 - metrics["ops_ok_frac"], "ratio")}
    rows = [(key, metrics[key], unit) for key, unit in units.items()]
    rows += [(key, value, unit) for key, (value, unit) in extra.items()]
    for key, value, unit in rows:
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {key:32s} {shown} {unit}")
    print(f"# estimate series: mean |error| "
          f"{first['mean_abs_error_pct']:.3f}% (diagnostic; gated only "
          f"on sc_static_1m)")
    for failure in failures:
        print(f"# GATE FAILED: {failure}")
    repeats = untraced + traced_runs
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": sum(r["invalid"] for r in repeats),
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return not failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            ok = run_workload(name, args.seed, args.seconds,
                              bool(args.trace)) and ok
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                KeyError) as error:
            log(f"e2ebench: {name}: {error}")
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
