#!/usr/bin/env python3
"""Equivalence check: the benchmark driver runs the program's own code path.

For every workload of run.py at a reduced size, the per-replica estimate
series the driver produces (untraced and traced) must equal what
`p2pse_matrix --csv` writes for the same flags and seed, row by row on
(replica, time, truth, estimate, messages, valid). The untraced and traced
driver runs must also agree on the exact series digest. Exits 0 when every
workload matches.

    python3 e2ebench/equivalence.py [--seed N]
"""

import argparse
import csv
import json
import subprocess
import sys

import run

REDUCED = {  # flag overrides per workload: same spec, smaller overlay
    "sc_static_1m": {"--nodes": "20000", "--estimations": "5"},
    "agg_shrinking_100k": {"--nodes": "5000"},
    "hs_trace_clustered": {"--nodes": "5000"},
}
COLUMNS = ["replica", "time", "truth", "estimate", "messages", "valid"]


def reduced_args(name, seed):
    args = list(run.WORKLOADS[name]["args"])
    for flag, value in REDUCED[name].items():
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
    return args + ["--seed", str(seed)]


def read_rows(path):
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != COLUMNS:
            raise ValueError(f"{path}: columns {reader.fieldnames}")
        return [tuple(row[c] for c in COLUMNS) for row in reader]


def check(name, seed, driver, matrix):
    args = reduced_args(name, seed)
    stats = run.WORKLOADS[name].get("stats_json")
    out = run.OUT
    reference = out / f"equiv-{name}-matrix.csv"
    cmd = [str(matrix)] + args + ["--csv", str(reference)]
    if stats:
        cmd += ["--stats-json", str(out / f"equiv-{name}-matrix.stats.json")]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
    expected = read_rows(reference)

    problems = []
    digests = set()
    for traced in (False, True):
        mode = "traced" if traced else "untraced"
        series = out / f"equiv-{name}-{mode}.csv"
        cmd = [str(driver)] + args + ["--trace", str(int(traced)),
                                      "--csv", str(series)]
        if stats:
            cmd += ["--stats-json", str(out / f"equiv-{name}-{mode}.json")]
        if traced:
            cmd += ["--spans", str(out / f"equiv-{name}.spans.json")]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True)
        digests.add(json.loads(done.stdout.strip().splitlines()[-1])
                    ["digest"])
        rows = read_rows(series)
        if len(rows) != len(expected):
            problems.append(f"{mode}: {len(rows)} rows, p2pse_matrix "
                            f"wrote {len(expected)}")
        for i, (got, want) in enumerate(zip(rows, expected)):
            if got != want:
                problems.append(f"{mode}: row {i} is {got}, p2pse_matrix "
                                f"wrote {want}")
                break
    if len(digests) != 1:
        problems.append("untraced and traced series digests differ")
    status = "ok" if not problems else "MISMATCH"
    print(f"{name}: {len(expected)} rows, {status}")
    for problem in problems:
        print(f"  {problem}")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    driver = run.build(("e2e_driver", "p2pse_matrix"))
    matrix = run.BUILD / "p2pse_matrix"
    ok = all([check(name, args.seed, driver, matrix)
              for name in run.WORKLOADS])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
