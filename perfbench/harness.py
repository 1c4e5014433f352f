"""Shared pieces of the benchmark: the regime stamp, timing statistics,
failure accounting and the per-layer recorder used by traced runs.

``run.py`` pins the BLAS thread count in the environment before this
module (and numpy) is imported; everything here only reads it back.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import resource
import time

import numpy as np


now = time.perf_counter


# ---------------------------------------------------------------------------
# regime
# ---------------------------------------------------------------------------
def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "/" in line}
    except OSError:
        return []
    return sorted(
        p for p in paths
        if "openblas" in os.path.basename(p).lower() and ".so" in os.path.basename(p)
    )


def blas_runtime_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    out: dict[str, int] = {}
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def regime(rank_mode: str) -> dict:
    """The facts every result is stamped with."""
    from repro.perfmodel.machine import probed_machine

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    spec = probed_machine()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_env": {
            k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")
        },
        "blas_threads_runtime": blas_runtime_threads(),
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "rank_mode": rank_mode,
        "probed_peak_gflops": spec.peak_gflops,
        "probed_stream_bw_gbs": spec.stream_bw_gbs,
        "numpy": np.__version__,
    }


def regime_metrics(reg: dict) -> dict:
    """The regime as per-layer metrics, so the traced result carries it."""
    runtime = list(reg["blas_threads_runtime"].values())
    env = int(reg["blas_threads_env"].get("OPENBLAS_NUM_THREADS", 0))
    return {
        "regime.cpu_count": (reg["cpu_count"], "count"),
        "regime.blas_threads": (max(runtime) if runtime else env, "count"),
        "regime.adaptive_rank": (1 if reg["rank_mode"] == "adaptive" else 0, "bool"),
        "regime.peak_gflops": (reg["probed_peak_gflops"], "GFLOP/s"),
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def fastest(xs) -> float:
    """The shortest of a run's repeats of one operation.

    Contention from other tenants of a shared host only ever adds time,
    in spells of a few seconds, so the fastest repeat is the steadiest
    estimate of what the operation itself costs (NOTES.md, Steadiness).
    """
    return float(np.min(np.asarray(xs, dtype=np.float64)))


def fastest_quarter(windows, q: float) -> float:
    """The ``q``-th percentile of the samples of a run's fastest quarter
    of windows, ranked by median.

    A window is one repeat of a workload's load: 2 back-to-back requests
    or one update of a pipeline, or one update cycle of the daemon.

    The same reasoning as :func:`fastest`, for figures that are a
    percentile by definition: contention spells over less than three
    quarters of the run do not move them, and pooling a quarter of the
    windows keeps enough samples for a tail (NOTES.md, Steadiness).
    """
    ranked = sorted((w for w in windows if w), key=median)
    return percentile([x for w in ranked[: -(-len(ranked) // 4)] for x in w], q)


def median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=np.float64)))


def percentile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q))


def out_path(name: str) -> str:
    """A path under ``perfbench/out/``: run records and scratch checkpoints."""
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set (MiB) of this process or of its waited-for children."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def digest(a: np.ndarray) -> str:
    """Short sha256 of an array's bytes: shows run-to-run bit changes."""
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def relative_residuals(solver, lam: float, U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Column-wise ``||(lam I + K~) w - u|| / ||u||``."""
    R = U - solver.regularized_matvec(lam, W)
    return np.linalg.norm(R, axis=0) / np.linalg.norm(U, axis=0)


def build_solver(p, s: "Samples", tally: "Tally", info: dict, solves: int = 1,
                 factorize: bool = True):
    """Fit a new solver on ``p``, factorize it at ``p.lam`` and solve the
    panel ``solves`` times, appending every timing to ``s``.

    Every panel's residuals are checked and the first solution's digest
    is recorded.  Returns the solver.
    """
    from workloads import new_solver

    solver = new_solver(p)
    t0 = now()
    solver.fit(p.X)
    t1 = now()
    s.fit.append(t1 - t0)
    if not factorize:
        return solver
    solver.factorize(p.lam)
    t2 = now()
    s.factorize.append(t2 - t1)
    for k in range(solves):
        t = now()
        W = solver.solve(p.panel)
        s.solve.append(now() - t)
        if k == 0:
            info.setdefault("digests", []).append(digest(W))
        tally.check_residuals(
            "solve", relative_residuals(solver, p.lam, p.panel, W), p.residual_tol
        )
    return solver


def pipelines_for(seconds: float, nominal: float) -> int:
    """Repetitions of a ``nominal``-second unit of work in ``seconds`` (>= 2).

    A run's work is fixed by ``--seconds``, not by how fast the host is.
    """
    return max(2, round(seconds / nominal))


def closed_loop_requests(solve, singles: np.ndarray, start: int, count: int):
    """Single right-hand-side requests sent back to back by one caller.

    Each request is due when the previous reply arrives, so its latency
    is measured from then and its send lag is the caller's own
    turnaround.  Returns ``(columns used, solutions, latencies, lags)``.
    """
    cols = [(start + j) % singles.shape[1] for j in range(count)]
    sols, lat, lag = [], [], []
    due = now()
    for c in cols:
        sent = now()
        sols.append(solve(singles[:, c]))
        done = now()
        lat.append(done - due)
        lag.append(sent - due)
        due = done
    return cols, np.stack(sols, axis=1), lat, lag


class Samples:
    """Timings one run collects, in seconds.

    Request and update latencies are kept per window (see
    :func:`fastest_quarter`).
    """

    def __init__(self) -> None:
        self.fit: list[float] = []
        self.factorize: list[float] = []
        self.solve: list[float] = []
        self.update: list[list[float]] = []
        self.request: list[list[float]] = []
        self.lag: list[float] = []

    def requests(self) -> list[float]:
        """Every request latency of the run, all windows together."""
        return [x for w in self.request for x in w]

    def time_to_solution(self) -> float:
        """Fit + factorize + panel solve, as the sum of the fastest of each."""
        return fastest(self.fit) + fastest(self.factorize) + fastest(self.solve)

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict:
        return {
            "setup_s": (setup_s, "s"),
            "time_to_solution_s": (self.time_to_solution(), "s"),
            "fit_s": (fastest(self.fit), "s"),
            "factorize_s": (fastest(self.factorize), "s"),
            "solve_s": (fastest(self.solve), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "request_p50_ms": (1e3 * fastest_quarter(self.request, 50), "ms"),
            "request_p95_ms": (1e3 * fastest_quarter(self.request, 95), "ms"),
            "update_p50_ms": (1e3 * fastest_quarter(self.update, 50), "ms"),
        }

    def raw(self) -> dict:
        return {k: list(v) for k, v in vars(self).items()}


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------
class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op}: {detail}")
        return ok

    def check_residuals(self, op: str, res, tol: float) -> None:
        for r in np.atleast_1d(res):
            self.record(op, bool(r <= tol), f"relative residual {r:.3e} > {tol:g}")


# ---------------------------------------------------------------------------
# per-layer recorder (traced runs)
# ---------------------------------------------------------------------------
class Layers:
    """Collects per-layer metrics as ``name -> (value, unit)``.

    :meth:`call` times one call into a layer's public function from
    outside, inside a :class:`repro.util.flops.FlopCounter`, and keeps
    the counter so callers can read the layer's counted work.
    """

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.counters: dict = {}
        self.seconds: dict[str, float] = {}

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @contextlib.contextmanager
    def call(self, layer: str):
        from repro.util.flops import FlopCounter

        with FlopCounter() as fc:
            t0 = now()
            yield fc
            self.seconds[layer] = now() - t0
        self.counters[layer] = fc


def counter_total(snapshot: dict, name: str) -> float:
    """Sum of one counter across its labels in a telemetry snapshot."""
    return float(sum(e["value"] for e in snapshot["metrics"]["counters"].get(name, [])))
