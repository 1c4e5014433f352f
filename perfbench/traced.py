"""The traced pass: per-layer numbers measured from outside the library.

Every layer is timed by calling its public function directly, inside a
:class:`repro.util.flops.FlopCounter`; the library's own counters are
read from :func:`repro.obs.telemetry_snapshot`.  Nothing here adds a
span or counter to the library.

All workloads report the same per-layer metrics.  Layers a workload's
pipeline does not use are still run once on that workload's model (a
no-op rank spawn, the thread-backend distributed solve, an
unpreconditioned GMRES solve, a checkpoint write, a lambda update), so
every reported time is measured; counts of work the workload never
does (requests shed or re-sent without a daemon) read 0.
"""

from __future__ import annotations

import os
import pickle
import shutil

import numpy as np

from repro.config import GMRESConfig

from harness import (
    Layers,
    Tally,
    closed_loop_requests,
    counter_total,
    median,
    now,
    out_path,
    percentile,
    relative_residuals,
)
from workloads import Problem

#: probe vectors of the sampled ||K - K~|| / ||K|| estimate.
APPROX_PROBES = 4
#: relative distance allowed between a distributed and the serial solve.
DIST_TOL = 1e-10
#: the traced GMRES layer run: relative residual tolerance, iteration cap.
GMRES_CONFIG = GMRESConfig(tol=1e-10, max_iters=300)


def _noop(comm):
    return comm.rank


class _ByteCount:
    """A write-only sink that counts what a pickler writes to it."""

    def __init__(self) -> None:
        self.n = 0

    def write(self, b) -> None:
        self.n += memoryview(b).nbytes


def pickled_bytes(obj) -> int:
    sink = _ByteCount()
    pickle.Pickler(sink, protocol=5).dump(obj)
    return sink.n


def layer_pipeline(p: Problem, L: Layers, tally: Tally):
    """tree -> sampling -> skeleton -> factorize -> solve, one call per layer.

    Mirrors what :meth:`FastKernelSolver.fit` / ``factorize`` / ``solve``
    do, on a fresh block cache and a reset telemetry registry.  Returns
    ``(hmatrix, factorization, telemetry snapshot, cache stats)``.
    """
    from repro.hmatrix import HMatrix
    from repro.obs import reset_telemetry, telemetry_snapshot
    from repro.perf import configure_default_cache
    from repro.sampling.neighbors import approximate_knn
    from repro.skeleton import skeletonize
    from repro.solvers import factorize
    from repro.tree import BallTree

    reset_telemetry()
    cache = configure_default_cache()
    cfg = p.skeleton_config
    with L.call("tree"):
        tree = BallTree(p.X, p.tree_config)
    with L.call("sampling"):
        # the same seed draw skeletonize() would make for its own table
        seed = int(np.random.default_rng(cfg.seed).integers(2**31))
        neighbors = approximate_knn(
            tree.points, min(cfg.num_neighbors, p.n - 1), seed=seed
        )
    with L.call("skeleton"):
        sset = skeletonize(tree, p.kernel, cfg, neighbors=neighbors)
    h = HMatrix(tree, p.kernel, sset, summation=p.solver_config.summation)
    Ut = p.panel[tree.perm]
    with L.call("factorize"):
        fact = factorize(h, p.lam, p.solver_config)
    with L.call("solve"):
        W = fact.solve(Ut)
    R = Ut - (h.matvec(W) + p.lam * W)
    res = np.linalg.norm(R, axis=0) / np.linalg.norm(Ut, axis=0)
    tally.check_residuals("traced solve", res, p.residual_tol)
    return h, fact, telemetry_snapshot(), cache.stats()


def layer_metrics(L: Layers, h, snap: dict, cstats, machine) -> None:
    """Per-layer metrics of :func:`layer_pipeline`'s calls."""
    sec, fc = L.seconds, L.counters
    L.put("tree.build_s", sec["tree"], "s")
    L.put("sampling.knn_s", sec["sampling"], "s")
    L.put("skeleton.skeletonize_s", sec["skeleton"], "s")
    L.put("skeleton.flops", fc["skeleton"].flops, "flop-counted")
    L.put("skeleton.kernel_evals", fc["skeleton"].kernel_evals, "count")
    L.put("skeleton.gflops", fc["skeleton"].flops / sec["skeleton"] / 1e9, "GFLOP/s")
    ranks = [sk.rank for sk in h.skeletons.skeletons.values()]
    L.put("skeleton.nodes", len(ranks), "count")
    L.put("skeleton.rank_sum", sum(ranks), "count")
    L.put("skeleton.rank_max", max(ranks), "count")

    f = fc["factorize"]
    gflops = f.flops / sec["factorize"] / 1e9
    L.put("factorize.seconds", sec["factorize"], "s")
    L.put("factorize.flops", f.flops, "flop-counted")
    L.put("factorize.gflops", gflops, "GFLOP/s")
    # roofline of the probed host at the counted intensity (mops are
    # 8-byte words): min(peak, stream bandwidth x flops per byte).
    intensity = f.flops / (8.0 * f.mops) if f.mops else float("inf")
    bound = min(machine.peak_gflops, machine.stream_bw_gbs * intensity)
    L.put("factorize.roofline_frac", gflops / bound, "ratio")
    batched = counter_total(snap, "levelbatch.nodes")
    fallback = counter_total(snap, "levelbatch.fallback")
    L.put("levelbatch.batched_nodes", batched, "count")
    L.put("levelbatch.fallback_nodes", fallback, "count")
    L.put("levelbatch.nodes_total", batched + fallback, "count")

    L.put("blockcache.hit_rate", cstats.hit_rate, "ratio")
    L.put("blockcache.lookups", cstats.lookups, "count")
    L.put("blockcache.peak_words", cstats.peak_words, "words")

    L.put("solve.seconds", sec["solve"], "s")
    L.put("solve.flops", fc["solve"].flops, "flop-counted")
    L.put("gsks.tiles", counter_total(snap, "gsks.tiles"), "count")


def layer_sweep(p: Problem, L: Layers, tally: Tally, solver, h, fact, *, with_update=True):
    """The layers every workload reports, run on this workload's model.

    ``h``/``fact`` are :func:`layer_pipeline`'s H-matrix and serial
    factorization; ``solver`` is the workload's fitted facade.
    """
    from repro.hmatrix.errors import estimate_matrix_error
    from repro.parallel import distributed_factorize, distributed_solve, run_spmd
    from repro.solvers.gmres import gmres

    u = p.singles[:, 0][h.tree.perm]
    times = []
    for _ in range(5):
        t = now()
        h.matvec(u)
        times.append(now() - t)
    L.put("hmatrix.matvec_s", median(times), "s")

    err = estimate_matrix_error(h, n_probes=APPROX_PROBES, seed=0)
    tally.record("approximation_error", err <= p.approx_bound,
                 f"sampled ||K-K~||/||K|| {err:.3e} > {p.approx_bound:g}")
    L.put("approx.error", err, "ratio")

    spawns = []
    for _ in range(3):
        t = now()
        run_spmd(_noop, 2, backend="socket")
        spawns.append(now() - t)
    L.put("vmpi.spawn_s", median(spawns), "s")

    # The GMRES layer, which the workloads' direct solvers do not use:
    # one unpreconditioned solve of (lam I + K~) w = u on this model.
    with L.call("gmres"):
        res = gmres(lambda v: h.matvec(v) + p.lam * v, u, GMRES_CONFIG)
    r = np.linalg.norm(u - (h.matvec(res.x) + p.lam * res.x)) / np.linalg.norm(u)
    tally.record("gmres solve", bool(res.converged and r <= 10 * GMRES_CONFIG.tol),
                 f"GMRES relative residual {r:.3e} after {res.n_iters} iterations")
    L.put("gmres.iterations", res.n_iters, "count")

    from repro import SolverConfig

    cfg = SolverConfig()
    t = now()
    d = distributed_factorize(h, p.lam, 2, config=cfg, backend="thread")
    L.put("dist.thread_factorize_s", now() - t, "s")
    times = []
    for _ in range(3):
        t = now()
        w, stats = distributed_solve(d, u)
        times.append(now() - t)
    L.put("dist.thread_solve_s", median(times), "s")
    ref = fact.solve(u)
    gap = float(np.max(np.abs(w - ref)) / np.max(np.abs(ref)))
    tally.record("thread distributed solve", gap <= DIST_TOL,
                 f"distance to serial solve {gap:.3e}")
    L.put("vmpi.messages", d.factor_stats.messages + stats.messages, "count")
    L.put("vmpi.bytes", d.factor_stats.bytes + stats.bytes, "B-computed")
    L.put("vmpi.ship_bytes.factorize", pickled_bytes((h, p.lam, cfg)), "B-computed")
    L.put("vmpi.ship_bytes.solve", pickled_bytes((d, u)), "B-computed")

    ckpt = out_path(f"ckpt-{os.getpid()}")
    try:
        t = now()
        solver.save_checkpoint(ckpt)
        L.put("checkpoint.write_s", now() - t, "s")
        L.put("checkpoint.bytes", sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(ckpt) for f in files
        ), "B")
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)

    if with_update:
        lam = p.update_lams[0]
        solver.update(lam=lam)
        report = solver.last_update
        tally.record("update", report.mode == "lambda", f"update mode {report.mode}")
        update_metrics(L, [report.to_payload()])
        cols, sols, _, lag = closed_loop_requests(solver.solve, p.singles, 0, 2)
        tally.check_residuals(
            "request", relative_residuals(solver, lam, p.singles[:, cols], sols),
            p.residual_tol,
        )
        load_metrics(L, lag, batch_size_mean=1.0, shed=0, retries=0)


def update_metrics(L: Layers, reports: list[dict]) -> None:
    L.put("update.seconds", median([r["seconds"] for r in reports]), "s")
    L.put("update.nodes_refactored", median([r["nodes_refactored"] for r in reports]), "count")
    L.put("update.nodes_total", median([r["nodes_total"] for r in reports]), "count")


def load_metrics(L: Layers, lag: list[float], *, batch_size_mean: float, shed: int,
                 retries: int) -> None:
    L.put("load.generator_lag_ms", 1e3 * percentile(lag, 95), "ms")
    L.put("serve.batch_size_mean", batch_size_mean, "ratio")
    L.put("serve.shed", shed, "count")
    L.put("serve.retries", retries, "count")
