#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is the separate traced pass that reports the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The run
exits 1 if any correctness check failed.  A fuller record (regime,
sample counts, solution digests, failures and, when traced, the
library's span tree and counters) is written under ``perfbench/out/``.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread per process, set before numpy loads so that socket
# ranks and the serve daemon inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402

def _import_stack():
    """Everything a workload imports, plus the lazy machine probe."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import repro.core.solver  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.serve  # noqa: F401
    from repro.perfmodel.machine import probed_machine

    return probed_machine()


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Imports, machine probe and input generation, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def declared_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


#: the calls whose sum is a traced pipeline's time to solution.
SERIAL_STAGES = ("tree", "sampling", "skeleton", "factorize", "solve")


def run_inproc(p, seconds, trace, tally, info, setup):
    """direct-adaptive.  Returns (samples, traced)."""
    import inproc
    from harness import Layers, now
    from traced import layer_pipeline, layer_sweep
    from workloads import new_solver

    if not trace:
        return inproc.measure(p, seconds, tally, info, setup), None
    solver = new_solver(p)
    t = now()
    solver.fit(p.X)
    solver.factorize(p.lam)
    solver.solve(p.panel)
    untraced = now() - t
    L = Layers()
    h, fact, snap, cstats = layer_pipeline(p, L, tally)
    layer_sweep(p, L, tally, solver, h, fact)
    return None, (L, h, snap, cstats, sum(L.seconds[k] for k in SERIAL_STAGES) - untraced)


def run_serve(p, seconds, trace, tally, info, setup):
    """serve-mixed.  Set-up includes daemon spawn + warm-load."""
    import serving
    from harness import Layers
    from traced import layer_pipeline, layer_sweep, load_metrics, update_metrics

    s, solver = serving.measure(p, seconds, tally, info, setup)
    if not trace:
        return s, None
    L = Layers()
    h, fact, snap, cstats = layer_pipeline(p, L, tally)
    layer_sweep(p, L, tally, solver, h, fact, with_update=False)
    served = info["serve"]
    update_metrics(L, [u for u in served["updates"] if u])
    load_metrics(L, s.lag, batch_size_mean=served["requests"] / max(served["batches"], 1),
                 shed=served["shed"], retries=served["retries"])
    return None, (L, h, snap, cstats, sum(L.seconds[k] for k in SERIAL_STAGES) - s.time_to_solution())


def stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker, if one started.

    Spawning processes (the traced pass's socket-rank launches) starts a
    tracker process that Python does not wait for: it would outlive this
    run, briefly running and then unreaped.  Closing its pipe and waiting
    here ends it before the run exits.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


RUNNERS = {
    "direct-adaptive": run_inproc,
    "serve-mixed": run_serve,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=RUNNERS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, probe and generate inputs; print the seconds taken")
    args = ap.parse_args(argv)

    machine = _import_stack()
    from workloads import PROBLEMS

    p = PROBLEMS[args.workload](args.seed)
    if args.setup_only:
        print(time.perf_counter() - T_START)
        return 0

    import resource

    from repro.obs import registry

    from harness import (
        Tally, median, out_path, peak_rss_mb, percentile, regime, regime_metrics,
    )

    declared = declared_metrics(args.trace)
    # fresh set-ups, which the workloads spread over the measured work so
    # that their median does not rest on one moment of the host's life;
    # the traced pass reports no set-up time and skips them
    setup_fresh: list[float] = []

    def setup() -> None:
        if not args.trace:
            setup_fresh.append(fresh_setup_seconds(args.workload, args.seed))

    tally = Tally()
    info: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds}
    samples, traced = RUNNERS[args.workload](p, args.seconds, args.trace, tally, info, setup)
    counters = registry().snapshot()["counters"]
    for name in ("gmres.unconverged", "gmres.breakdowns"):
        n = sum(e["value"] for e in counters.get(name, []))
        tally.record(name, n == 0, f"{n} GMRES solves ended without reaching tol")
    reg = regime(p.rank_mode)
    info["regime"] = reg
    info["setup_fresh_s"] = setup_fresh

    if args.trace:
        from traced import layer_metrics

        L, h, snap, cstats, overhead = traced
        info["telemetry"] = snap
        layer_metrics(L, h, snap, cstats, machine)
        L.put("tracing.overhead_s", overhead, "s")
        L.put("children.peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MiB")
        for name, (value, unit) in regime_metrics(reg).items():
            L.put(name, value, unit)
        metrics = dict(L.metrics)
    else:
        setup_s = median(setup_fresh) + info.get("setup_extra_s", 0.0)
        metrics = samples.end_to_end(setup_s, peak_rss_mb())
        info["samples_s"] = samples.raw()
        info["request_ms_percentiles"] = {
            q: 1e3 * percentile(samples.requests(), q) for q in (50, 90, 95, 99, 100)
        }
        info["children_peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)

    got = {k: u for k, (_, u) in metrics.items()}
    if got != declared:
        raise RuntimeError(f"metrics and units differ from BENCHMARK.json: {got} vs {declared}")
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        raise RuntimeError(f"non-finite metric: {metrics}")
    info["failures"] = tally.failures
    info["total_s"] = time.perf_counter() - T_START
    with open(out_path(f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"info": info, "metrics": metrics}, f, indent=1, default=str)

    correct = tally.failed == 0
    print(json.dumps({"regime": reg, "failures": tally.failures,
                      "digests": info.get("digests", [])}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # a SIGTERM unwinds like an error, so the daemon and the resource
    # tracker are still stopped and waited for
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
