"""The workloads' inputs and configurations.

Every input is generated from the run's ``--seed``; configurations are
fixed.  Why each workload exists, and which layer dominates it, is
recorded in NOTES.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import GaussianKernel, SkeletonConfig, SolverConfig, TreeConfig
from repro.datasets import load_dataset, paper_parameters

#: columns of the right-hand-side panel every workload solves.
PANEL_COLUMNS = 16
#: distinct single right-hand sides the request phases cycle through.
REQUEST_POOL = 64


@dataclass
class Problem:
    """One workload's generated inputs plus its fixed configuration."""

    name: str
    X: np.ndarray
    kernel: GaussianKernel
    lam: float
    tree_config: TreeConfig
    skeleton_config: SkeletonConfig
    solver_config: SolverConfig
    panel: np.ndarray
    singles: np.ndarray
    #: lambda values of the update operations: each in-process pipeline
    #: runs this whole sequence, the other workloads cycle through it.
    update_lams: tuple[float, ...]
    rank_mode: str
    #: a solve whose relative residual exceeds this counts as failed.
    residual_tol: float
    #: a sampled ||K - K~|| / ||K|| above this counts as failed (traced run).
    approx_bound: float

    @property
    def n(self) -> int:
        return self.X.shape[0]


def _rhs(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, 1])
    return (
        rng.standard_normal((n, PANEL_COLUMNS)),
        rng.standard_normal((n, REQUEST_POOL)),
    )


def direct_adaptive(seed: int) -> Problem:
    """SUSY stand-in at its Table II h and lambda; library default configs.

    The points are one fixed stand-in sample and only the right-hand
    sides follow the seed: with adaptive ranks, fit and factorization
    cost follow the sample (factorization took 1.6 s on one seed's points
    and 2.4 s on another's, run after run), which no bound could absorb.
    """
    n = 8192
    params = paper_parameters("susy")
    X = load_dataset("susy", n, n_test=0, seed=0).X_train
    panel, singles = _rhs(seed, n)
    lam = params["lam"]
    return Problem(
        name="direct-adaptive",
        X=X,
        kernel=GaussianKernel(bandwidth=params["h"]),
        lam=lam,
        tree_config=TreeConfig(),
        skeleton_config=SkeletonConfig(),
        solver_config=SolverConfig(),
        panel=panel,
        singles=singles,
        update_lams=(lam * 2,),
        rank_mode="adaptive",
        residual_tol=1e-12,
        approx_bound=0.1,
    )


def points_3d(name: str, seed: int, n: int) -> Problem:
    """3-D standard-normal points, direct telescoping solver, smax=64."""
    rng = np.random.default_rng([seed, 0])
    X = rng.standard_normal((n, 3))
    panel, singles = _rhs(seed, n)
    return Problem(
        name=name,
        X=X,
        kernel=GaussianKernel(bandwidth=1.0),
        lam=0.5,
        tree_config=TreeConfig(leaf_size=64),
        skeleton_config=SkeletonConfig(max_rank=64),
        solver_config=SolverConfig(),
        panel=panel,
        singles=singles,
        update_lams=(1.0, 2.0, 0.25, 4.0, 0.5),
        rank_mode="adaptive",
        residual_tol=1e-10,
        approx_bound=0.05,
    )


def serve_mixed(seed: int) -> Problem:
    # N=2048: `repro serve` reads each request as one line through
    # asyncio's default 64 KiB stream limit, and a JSON right-hand side
    # longer than about 2900 values overflows it (the daemon then drops
    # the connection).  2048 values keep a request near 45 KB.
    return points_3d("serve-mixed", seed, 2048)


PROBLEMS = {
    "direct-adaptive": direct_adaptive,
    "serve-mixed": serve_mixed,
}


def new_solver(p: Problem):
    from repro import FastKernelSolver

    return FastKernelSolver(
        p.kernel,
        tree_config=p.tree_config,
        skeleton_config=p.skeleton_config,
        solver_config=p.solver_config,
    )
