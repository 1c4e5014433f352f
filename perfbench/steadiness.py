#!/usr/bin/env python3
"""Steadiness self-check: do two sets of runs of the same code agree?

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--trace-runs 1] [--out PATH]

Runs every workload ``--runs`` times per set, two sets, each run on its
own seed (set A: seeds 1..runs, set B: the next ``runs`` seeds; none is
the default seed 0), interleaving workloads so that slow spells on the
host spread over all of them.  For each end-to-end metric it reports,
per set, the median and the spread (third minus first quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median), and
the drift of set B's median from set A's, signed so that positive is
the metric's worse direction.  A metric passes when both spreads and the
size of the drift, in either direction, stay within its bound from
BENCHMARK.json; it is *steady* when they all stay within a third of it.
The spread of ``setup_s`` is exempt from passing (only its drift
counts), as in the benchmark's acceptance rules: set-up is a few hundred
milliseconds of process start and imports, which the host's contention
moves by more than any bound.  Its spread is still recorded, and still
decides whether it is steady.  ``--trace-runs`` traced runs per
workload check that every per-layer metric is reported.  Every run
must be correct with zero failed operations.

The record goes to ``perfbench/results/steadiness.json`` (or ``--out``); the exit
code is 1 if any run failed or any metric is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": proc.stderr[-2000:]}
    result.update(workload=workload, seed=seed, trace=trace,
                  returncode=proc.returncode, wall_s=wall)
    return result


def quartile_spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def summarize(spec: dict, runs: list[dict]) -> dict:
    out: dict = {}
    for wl in [w["name"] for w in spec["workloads"]]:
        rows = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = []
            for label in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in runs
                        if r["workload"] == wl and r["set"] == label and r["trace"] == 0
                        and name in r["metrics"]]
                if len(vals) < 2:
                    break
                med, spread = quartile_spread(vals)
                sets.append({"median": med, "spread": spread, "values": vals})
            if len(sets) < 2:
                continue
            a, b = sets[0]["median"], sets[1]["median"]
            drift = (b - a) / a if m["better"] == "lower" else (a - b) / a
            spreads = [sets[0]["spread"], sets[1]["spread"]]
            gated = spreads if name != "setup_s" else []
            rows[name] = {
                "bound": bound,
                "A": sets[0],
                "B": sets[1],
                "drift": drift,
                "within_bound": max(gated + [abs(drift)]) <= bound,
                "steady": max(spreads + [abs(drift)]) <= bound / 3,
            }
        if rows:
            out[wl] = rows
    return out


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace-runs", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(HERE, "results", "steadiness.json"))
    args = ap.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    seconds = spec["run_seconds"]

    runs: list[dict] = []
    for label in "AB":
        base = 1 if label == "A" else 1 + args.runs
        for i in range(args.runs):
            for wl in workloads:
                r = run_once(wl, base + i, seconds, 0)
                r["set"] = label
                runs.append(r)
                print(f"set {label} {wl:16s} seed {r['seed']:3d} correct={r['correct']} "
                      f"failed={r['failed']} wall={r['wall_s']:.1f}s", flush=True)
    declared = {m["name"] for m in spec["per_layer"]}
    for i in range(args.trace_runs):
        for wl in workloads:
            r = run_once(wl, 100 + i, seconds, 1)
            r["set"] = "trace"
            r["missing_per_layer"] = sorted(declared - set(r["metrics"]))
            runs.append(r)
            print(f"traced {wl:16s} correct={r['correct']} failed={r['failed']} "
                  f"missing={r['missing_per_layer']} wall={r['wall_s']:.1f}s", flush=True)

    summary = summarize(spec, runs)
    bad_runs = [
        (r["workload"], r["seed"], r["trace"]) for r in runs
        if not r["correct"] or r["failed"] or r["returncode"] or r.get("missing_per_layer")
    ]
    record = {
        "run_seconds": seconds,
        "runs_per_set": args.runs,
        "host": {"cpu_count": os.cpu_count()},
        "bad_runs": bad_runs,
        "summary": summary,
        "runs": [{k: v for k, v in r.items() if k != "error"} for r in runs],
    }
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)

    ok = not bad_runs
    for wl, rows in summary.items():
        for name, row in rows.items():
            flag = "steady" if row["steady"] else ("ok" if row["within_bound"] else "OUT")
            ok &= row["within_bound"]
            print(f"{wl:16s} {name:20s} bound {row['bound']:.2f}  "
                  f"spread A {row['A']['spread']:.3f} B {row['B']['spread']:.3f}  "
                  f"drift {row['drift']:+.3f}  {flag}")
    if bad_runs:
        print("runs with failures:", bad_runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
