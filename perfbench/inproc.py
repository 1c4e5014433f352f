"""direct-adaptive: the in-process pipeline.

One *pipeline* is what a library user does: ``fit`` (tree +
skeletonization), ``factorize(lam)``, solve a 16-column panel (and
again), lambda ``update`` calls, then single right-hand-side requests
at the last lambda, whose residuals also check the updates.  Every
pipeline runs the same lambda sequence, so every request costs alike.  A run
repeats whole pipelines; it reports the fastest fit, factorization and
panel solve, and the update and request latency percentiles over the
fastest quarter of its windows.
"""

from __future__ import annotations

import gc
from typing import Callable

from harness import (
    Samples, Tally, build_solver, closed_loop_requests, now, pipelines_for, relative_residuals,
)
from workloads import Problem


#: per workload: (extra fit + factorize builds, panel solves, requests)
#: in one pipeline, and the pipeline's nominal seconds on the host
#: NOTES.md describes; a run does round(seconds / nominal) pipelines.
SHAPE = {
    "direct-adaptive": (0, 3, 24),
}
#: back-to-back requests in one window of latencies (harness.fastest_quarter).
REQUEST_WINDOW = 2
NOMINAL_SECONDS = {
    "direct-adaptive": 6.5,
}


def pipeline(p: Problem, rep: int, s: Samples, tally: Tally, info: dict) -> None:
    builds, panels, requests = SHAPE[p.name]
    for _ in range(builds):
        build_solver(p, s, tally, info, solves=0)
    solver = build_solver(p, s, tally, info, solves=panels)

    updates = []
    for lam in p.update_lams:
        t = now()
        solver.update(lam=lam)
        updates.append(now() - t)
        report = solver.last_update
        tally.record("update", report.mode == "lambda", f"update mode {report.mode}")

    cols, sols, lat, lag = closed_loop_requests(
        solver.solve, p.singles, rep * requests, requests
    )
    s.update.append(updates)
    s.request += [lat[i:i + REQUEST_WINDOW] for i in range(0, len(lat), REQUEST_WINDOW)]
    s.lag += lag
    tally.check_residuals(
        "request", relative_residuals(solver, lam, p.singles[:, cols], sols), p.residual_tol
    )


def measure(p: Problem, seconds: float, tally: Tally, info: dict,
            setup: Callable[[], None]) -> Samples:
    """Whole pipelines, as many as fit ``seconds`` at the nominal pace.

    ``setup()`` (one fresh-process set-up) runs before each pipeline and
    after the last, so the set-up samples span the run.
    """
    s = Samples()
    reps = pipelines_for(seconds, NOMINAL_SECONDS[p.name])
    for rep in range(reps):
        setup()
        pipeline(p, rep, s, tally, info)
        gc.collect()  # drop the last pipeline's cached blocks before the next
    setup()
    info["pipelines"] = reps
    return s
