"""Level-synchronous batched numerics: bitwise parity and payload seams.

The invariant under test (docs/PERFORMANCE.md, level batching): the
shape-batched factorization is purely an *execution strategy*.  Stacked
GEMM / batched LAPACK over a whole tree level must produce bit-for-bit
the same factors, solutions, log-determinants, and flop accounting as
the per-node loops, and every serialization seam — level/node payload
export, checkpoint round-trips, pickling — must keep working when the
per-node factors are views into contiguous level stacks.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.linalg

from repro.config import (
    RecoveryConfig,
    ResilienceConfig,
    SkeletonConfig,
    SolverConfig,
    TreeConfig,
)
from repro.core import FastKernelSolver
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.parallel import distributed_factorize, distributed_solve
from repro.perf.levelbatch import (
    BatchPolicy,
    batching_enabled,
    group_by_key,
    one_norms_stacked,
    stacked_kernel_blocks,
)
from repro.skeleton.skeletonize import skeletonize
from repro.solvers import factorize
from repro.tree import BallTree
from repro.util import lapack
from repro.util.flops import FlopCounter

RNG = np.random.default_rng(31)
X = RNG.standard_normal((512, 3))
U = RNG.standard_normal(512)
KERNEL = GaussianKernel(bandwidth=1.5)

# many small same-shaped nodes: the regime level batching targets.
TREE_CFG = TreeConfig(leaf_size=16, seed=0)
SKEL_CFG = SkeletonConfig(rank=12, num_samples=96, num_neighbors=8, seed=1)


def build_problem():
    return build_hmatrix(
        X, KERNEL, tree_config=TREE_CFG, skeleton_config=SKEL_CFG
    )


@pytest.fixture(scope="module")
def hmat():
    return build_problem()


@pytest.fixture(scope="module")
def parity(hmat):
    """(batched, per-node) factorizations of the same H-matrix."""
    batched = factorize(hmat, 0.7, SolverConfig(level_batch=True))
    pernode = factorize(hmat, 0.7, SolverConfig(level_batch=False))
    assert batched._batch_policy is not None, "batched path did not arm"
    assert pernode._batch_policy is None
    return batched, pernode


# ----------------------------------------------------------------------
# grouping and policy units
# ----------------------------------------------------------------------

class TestGroupingAndPolicy:
    def test_group_by_key_preserves_order(self):
        items = ["aa", "b", "cc", "d", "ee"]
        groups = group_by_key(items, len)
        assert groups == {2: [0, 2, 4], 1: [1, 3]}
        # insertion order of the buckets follows first occurrence
        assert list(groups) == [2, 1]

    def test_worth_needs_at_least_two(self):
        policy = BatchPolicy(dispatch_us=10.0, stream_bw_gbs=20.0)
        assert not policy.worth(1, 256)
        assert policy.worth(64, 256)

    def test_min_batch_floor(self):
        policy = BatchPolicy(dispatch_us=10.0, stream_bw_gbs=20.0, min_batch=8)
        assert not policy.worth(7, 16)
        assert policy.worth(8, 16)

    def test_huge_items_not_worth_stacking(self):
        # copying gigawords to save microseconds of dispatch loses.
        policy = BatchPolicy(dispatch_us=1.0, stream_bw_gbs=10.0)
        assert not policy.worth(2, 10**9)

    def test_env_kill_switch(self, monkeypatch):
        for off in ("0", "false", "OFF"):
            monkeypatch.setenv("REPRO_LEVEL_BATCH", off)
            assert not batching_enabled()
        monkeypatch.setenv("REPRO_LEVEL_BATCH", "1")
        assert batching_enabled()
        monkeypatch.delenv("REPRO_LEVEL_BATCH")
        assert batching_enabled()  # default on

    def test_env_min_batch_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEVEL_BATCH_MIN", "9")
        assert BatchPolicy.current().min_batch == 9
        monkeypatch.setenv("REPRO_LEVEL_BATCH_MIN", "not-a-number")
        assert BatchPolicy.current().min_batch == 2

    def test_kill_switch_forces_per_node_path(self, hmat, monkeypatch):
        monkeypatch.setenv("REPRO_LEVEL_BATCH", "0")
        fact = factorize(hmat, 0.7, SolverConfig(level_batch=True))
        assert fact._batch_policy is None
        assert not fact.level_stacks


# ----------------------------------------------------------------------
# batched LAPACK: bitwise identity with the per-slice wrappers
# ----------------------------------------------------------------------

def _stack(b=7, n=9, k=4):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((b, n, n)) + n * np.eye(n)
    B = rng.standard_normal((b, n, k))
    return A, B


class TestBatchedLapack:
    def test_lu_factor_batched_bitwise(self):
        A, _ = _stack()
        lu, piv = lapack.lu_factor_batched(A)
        for i in range(A.shape[0]):
            lu_i, piv_i = scipy.linalg.lu_factor(A[i], check_finite=False)
            assert np.array_equal(lu[i], lu_i)
            assert np.array_equal(piv[i], piv_i)
            assert lu[i].flags.f_contiguous

    def test_lu_solve_batched_bitwise_and_f_sliced(self):
        A, B = _stack()
        lu, piv = lapack.lu_factor_batched(A)
        out = lapack.lu_solve_batched((lu, piv), B)
        for i in range(A.shape[0]):
            ref = scipy.linalg.lu_solve(
                (lu[i], piv[i]), B[i], check_finite=False
            )
            assert np.array_equal(out[i], ref)
            # F-strided slices on purpose: np.matmul picks layout-
            # dependent GEMM paths, and per-node lu_solve returns
            # F-ordered solutions.
            assert out[i].flags.f_contiguous

    def test_fused_matches_factor_then_solve(self):
        A, B = _stack()
        lu1, piv1 = lapack.lu_factor_batched(A)
        x1 = lapack.lu_solve_batched((lu1, piv1), B)
        lu2, piv2, x2 = lapack.lu_factor_solve_batched(A, B)
        assert np.array_equal(lu1, lu2)
        assert np.array_equal(piv1, piv2)
        assert np.array_equal(x1, x2)

    def test_overwrite_runs_in_place_when_f_sliced(self):
        A, B = _stack()
        b, n, k = B.shape
        Af = np.empty((b, n, n)).transpose(0, 2, 1)
        Af[...] = A
        Bf = np.empty((b, k, n)).transpose(0, 2, 1)
        Bf[...] = B
        lu, piv, x = lapack.lu_factor_solve_batched(
            Af, Bf, overwrite_a=True, overwrite_b=True
        )
        assert lu is Af and x is Bf  # no copies were made
        ref_lu, ref_piv = lapack.lu_factor_batched(A)
        assert np.array_equal(lu, ref_lu)
        assert np.array_equal(x, lapack.lu_solve_batched((ref_lu, ref_piv), B))

    def test_overwrite_declined_for_c_ordered_input(self):
        A, _ = _stack()
        Ac = np.ascontiguousarray(A)
        lu, _ = lapack.lu_factor_batched(Ac, overwrite_a=True)
        assert lu is not Ac  # C slices: must copy to the F-sliced stack
        assert np.array_equal(Ac, A)  # input untouched

    def test_gecon_batched_matches_per_slice(self):
        A, _ = _stack()
        anorms = np.array([np.linalg.norm(A[i], 1) for i in range(len(A))])
        lu, piv = lapack.lu_factor_batched(A)
        rconds = lapack.gecon_batched(lu, anorms)
        for i in range(len(A)):
            ref, info = lapack.gecon(lu[i], anorms[i])
            assert info == 0
            assert rconds[i] == ref

    def test_empty_stacks(self):
        lu, piv = lapack.lu_factor_batched(np.empty((0, 4, 4)))
        assert lu.shape == (0, 4, 4) and piv.shape == (0, 4)
        lu, piv = lapack.lu_factor_batched(np.empty((3, 0, 0)))
        assert lu.shape == (3, 0, 0)
        out = lapack.lu_solve_batched((lu, piv), np.empty((3, 0, 2)))
        assert out.shape == (3, 0, 2)
        assert np.array_equal(
            lapack.gecon_batched(np.empty((2, 0, 0)), np.zeros(2)), np.ones(2)
        )


# ----------------------------------------------------------------------
# stacked kernel evaluation and norms
# ----------------------------------------------------------------------

class TestStackedKernelOps:
    def test_stacked_kernel_blocks_bitwise(self):
        rng = np.random.default_rng(8)
        XA = rng.standard_normal((5, 12, 3))
        XB = rng.standard_normal((5, 10, 3))
        na = np.einsum("bij,bij->bi", XA, XA)
        nb = np.einsum("bij,bij->bi", XB, XB)
        stacked = stacked_kernel_blocks(KERNEL, XA, XB, na, nb)
        for i in range(5):
            ref = KERNEL(XA[i], XB[i], norms_a=na[i], norms_b=nb[i])
            assert np.array_equal(stacked[i], ref)

    def test_distance_kernels_require_norms(self):
        XA = np.zeros((2, 3, 2))
        with pytest.raises(ValueError, match="norms"):
            stacked_kernel_blocks(KERNEL, XA, XA)

    def test_one_norms_stacked_bitwise(self):
        A = np.random.default_rng(9).standard_normal((6, 17, 17))
        norms = one_norms_stacked(A)
        for i in range(6):
            assert norms[i] == np.linalg.norm(A[i], 1)

    def test_one_norms_empty(self):
        assert one_norms_stacked(np.empty((0, 3, 3))).shape == (0,)
        assert np.array_equal(one_norms_stacked(np.empty((2, 0, 0))), np.zeros(2))


# ----------------------------------------------------------------------
# factorization parity: batched vs per-node, bit for bit
# ----------------------------------------------------------------------

class TestFactorizationParity:
    def test_leaf_factors_bitwise(self, parity):
        batched, pernode = parity
        assert list(batched.leaf_factors) == list(pernode.leaf_factors)
        for nid, bf in batched.leaf_factors.items():
            pf = pernode.leaf_factors[nid]
            assert np.array_equal(bf.lu[0], pf.lu[0])
            assert np.array_equal(bf.lu[1], pf.lu[1])
            if pf.phat is None:
                assert bf.phat is None
            else:
                assert np.array_equal(bf.phat, pf.phat)
            assert bf.rcond == pf.rcond

    def test_internal_factors_bitwise(self, parity):
        batched, pernode = parity
        assert list(batched.node_factors) == list(pernode.node_factors)
        for nid, bf in batched.node_factors.items():
            pf = pernode.node_factors[nid]
            assert np.array_equal(bf.z_lu[0], pf.z_lu[0])
            assert np.array_equal(bf.z_lu[1], pf.z_lu[1])
            assert (bf.s_l, bf.s_r) == (pf.s_l, pf.s_r)
            if pf.phat is None:
                assert bf.phat is None
            else:
                assert np.array_equal(bf.phat, pf.phat)
            assert bf.rcond == pf.rcond

    def test_solve_bitwise(self, parity):
        batched, pernode = parity
        assert np.array_equal(batched.solve(U), pernode.solve(U))

    def test_multi_rhs_solve_bitwise(self, parity):
        batched, pernode = parity
        rhs = np.random.default_rng(3).standard_normal((512, 3))
        assert np.array_equal(batched.solve(rhs), pernode.solve(rhs))

    def test_slogdet_identical(self, parity):
        batched, pernode = parity
        assert batched.slogdet() == pernode.slogdet()

    def test_solution_is_correct_not_just_consistent(self, parity):
        batched, _ = parity
        w = batched.solve(U)
        assert batched.residual(U, w) < 1e-10

    def test_parity_without_stability_checks(self, hmat):
        # check_stability=False takes the in-place (overwrite) Z path;
        # it must still match the per-node run bit for bit.
        cfg = dict(check_stability=False)
        b = factorize(hmat, 0.7, SolverConfig(level_batch=True, **cfg))
        p = factorize(hmat, 0.7, SolverConfig(level_batch=False, **cfg))
        assert np.array_equal(b.solve(U), p.solve(U))
        assert b.slogdet() == p.slogdet()

    def test_parity_with_recovery_enabled(self, hmat):
        cfg = dict(recovery=RecoveryConfig(enabled=True))
        b = factorize(hmat, 0.7, SolverConfig(level_batch=True, **cfg))
        p = factorize(hmat, 0.7, SolverConfig(level_batch=False, **cfg))
        assert np.array_equal(b.solve(U), p.solve(U))
        assert b.recovery_events == p.recovery_events

    def test_parity_with_irregular_level_shapes(self):
        # regression: a tree whose levels mix block shapes makes the
        # phat gather fall back to copying (non-uniform slot steps);
        # the copy must preserve each block's layout (F for leaf P^,
        # C for internal P^) — an F-sliced copy of C-ordered internal
        # blocks flips np.matmul's GEMM path and broke bitwise parity.
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((1500, 4))
        h = build_hmatrix(
            Y,
            GaussianKernel(bandwidth=1.8),
            tree_config=TREE_CFG,
            skeleton_config=SKEL_CFG,
        )
        u = rng.standard_normal(1500)
        b = factorize(h, 0.8, SolverConfig(level_batch=True))
        p = factorize(h, 0.8, SolverConfig(level_batch=False))
        assert np.array_equal(b.solve(u), p.solve(u))
        assert b.slogdet() == p.slogdet()

    def test_flop_accounting_parity(self):
        # fresh H-matrices (fresh block caches) so both runs see the
        # same cache misses; the same floats then imply the same charges.
        with FlopCounter() as fc_b:
            factorize(build_problem(), 0.7, SolverConfig(level_batch=True))
        with FlopCounter() as fc_p:
            factorize(build_problem(), 0.7, SolverConfig(level_batch=False))
        assert fc_b.by_label == fc_p.by_label
        assert fc_b.flops == fc_p.flops
        assert fc_b.mops == fc_p.mops
        assert fc_b.kernel_evals == fc_p.kernel_evals


# ----------------------------------------------------------------------
# contiguous level stacks, strided phat gathers
# ----------------------------------------------------------------------

class TestLevelStacksAndViews:
    def test_batched_run_built_stacks_and_slots(self, parity):
        batched, _ = parity
        assert batched.level_stacks
        assert batched._phat_slots
        for nid, (stack, i, view) in batched._phat_slots.items():
            node = batched.hmatrix.tree.node(nid)
            assert batched._phat(node) is view
            assert np.shares_memory(view, stack)

    def test_gather_phats_returns_strided_view(self, parity):
        batched, _ = parity
        tree = batched.hmatrix.tree
        for nid in batched.node_factors:
            left, right = tree.children(tree.node(nid))
            if (
                left.id in batched._phat_slots
                and right.id in batched._phat_slots
                and batched._phat_slots[left.id][0]
                is batched._phat_slots[right.id][0]
            ):
                stack = batched._phat_slots[left.id][0]
                gathered = batched._gather_phats([left, right])
                assert np.shares_memory(gathered, stack)
                assert np.array_equal(gathered[0], batched._phat(left))
                assert np.array_equal(gathered[1], batched._phat(right))
                return
        pytest.fail("no internal node with both children in phat slots")

    def test_gather_phats_falls_back_after_rewrite(self, hmat):
        # simulate a recovery rung rewriting one child's factor: the
        # slot's view-identity check must detect it and copy instead of
        # returning a stale strided view.
        fact = factorize(hmat, 0.7, SolverConfig(level_batch=True))
        tree = fact.hmatrix.tree
        for nid in fact.node_factors:
            left, right = tree.children(tree.node(nid))
            if left.id in fact._phat_slots and right.id in fact._phat_slots:
                break
        else:  # pragma: no cover - problem always has slotted siblings
            pytest.fail("no slotted sibling pair")
        stale = fact._phat(left).copy()
        if tree.is_leaf(left):
            fact.leaf_factors[left.id].phat = stale
        else:
            fact.node_factors[left.id].phat = stale
        stack = fact._phat_slots[left.id][0]
        gathered = fact._gather_phats([left, right])
        assert not np.shares_memory(gathered, stack)
        assert np.array_equal(gathered[0], stale)
        assert np.array_equal(gathered[1], fact._phat(right))
        # the fallback preserves the blocks' layout (the rewritten copy
        # is C-ordered, so the stack must be too): np.matmul bits follow
        # operand strides, and a layout flip would break parity.
        assert gathered[0].flags.c_contiguous == stale.flags.c_contiguous
        assert gathered[0].flags.f_contiguous == stale.flags.f_contiguous


# ----------------------------------------------------------------------
# serialization seams: pickling, level payloads, node payloads
# ----------------------------------------------------------------------

class TestSerializationSeams:
    def test_pickle_drops_stacks_keeps_answers(self, parity):
        batched, _ = parity
        loaded = pickle.loads(pickle.dumps(batched))
        assert loaded.level_stacks == {}
        assert loaded._phat_slots == {}
        assert np.array_equal(loaded.solve(U), batched.solve(U))
        assert loaded.slogdet() == batched.slogdet()

    def test_level_payload_resume_bitwise(self, hmat, parity):
        batched, _ = parity
        payloads = {
            lvl: batched.export_level_payload(lvl)
            for lvl in batched.completed_levels
        }
        resumed = factorize(
            hmat,
            0.7,
            SolverConfig(level_batch=True),
            resume_levels=payloads,
        )
        assert np.array_equal(resumed.solve(U), batched.solve(U))
        assert resumed.slogdet() == batched.slogdet()

    def test_node_payloads_match_per_node_run(self, parity):
        # the task-DAG executor ships these between worker processes;
        # views into level stacks must export the same bytes the
        # per-node path would, and survive a pickle round-trip.
        batched, pernode = parity
        for nid, pf in pernode.leaf_factors.items():
            payload = pickle.loads(pickle.dumps(batched.export_node_payload(nid)))
            assert payload["kind"] == "leaf"
            assert np.array_equal(payload["lu"], pf.lu[0])
            assert np.array_equal(payload["piv"], pf.lu[1])
            assert payload["rcond"] == pf.rcond
        for nid, pf in pernode.node_factors.items():
            payload = pickle.loads(pickle.dumps(batched.export_node_payload(nid)))
            assert payload["kind"] == "internal"
            assert np.array_equal(payload["z_lu"], pf.z_lu[0])
            assert np.array_equal(payload["piv"], pf.z_lu[1])


# ----------------------------------------------------------------------
# checkpoint round-trip with batching on (and across modes)
# ----------------------------------------------------------------------

def make_solver(checkpoint_dir=None, level_batch=True):
    return FastKernelSolver(
        GaussianKernel(bandwidth=1.5),
        tree_config=TREE_CFG,
        skeleton_config=SKEL_CFG,
        solver_config=SolverConfig(
            level_batch=level_batch,
            resilience=ResilienceConfig(
                checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None
            ),
        ),
    )


class TestCheckpointRoundTrip:
    def test_resume_matches_uninterrupted(self, tmp_path):
        baseline = make_solver().fit(X)
        baseline.factorize(0.5)
        w_base = baseline.solve(U)

        first = make_solver(tmp_path / "cp").fit(X)
        first.factorize(0.5)
        second = make_solver(tmp_path / "cp").fit(X)
        second.factorize(0.5)  # restores every level from disk
        np.testing.assert_allclose(second.solve(U), w_base, rtol=0, atol=1e-12)

    def test_checkpoint_portable_across_batching_modes(self, tmp_path):
        # level_batch is an execution strategy, not part of the problem:
        # a snapshot written by the batched run must resume under the
        # per-node path (and agree bitwise, since the factors are the
        # same floats).
        first = make_solver(tmp_path / "cp", level_batch=True).fit(X)
        first.factorize(0.5)
        w = first.solve(U)
        second = make_solver(tmp_path / "cp", level_batch=False).fit(X)
        second.factorize(0.5)
        assert np.array_equal(second.solve(U), w)

    def test_level_batch_excluded_from_fingerprint(self):
        from repro.resilience import config_fingerprint

        k = GaussianKernel(bandwidth=1.5)
        assert config_fingerprint(
            X, k, SolverConfig(level_batch=True)
        ) == config_fingerprint(X, k, SolverConfig(level_batch=False))


# ----------------------------------------------------------------------
# skeletonization parity
# ----------------------------------------------------------------------

class TestSkeletonizeParity:
    def test_batched_skeletons_bitwise(self):
        tree = BallTree(X, TREE_CFG)
        on = skeletonize(tree, KERNEL, SKEL_CFG, level_batch=True)
        off = skeletonize(tree, KERNEL, SKEL_CFG, level_batch=False)
        assert list(on.skeletons) == list(off.skeletons)
        for nid, a in on.skeletons.items():
            b = off.skeletons[nid]
            assert np.array_equal(a.skeleton, b.skeleton)
            assert np.array_equal(a.candidates, b.candidates)
            assert np.array_equal(a.proj, b.proj)
            assert a.achieved_tol == b.achieved_tol


# ----------------------------------------------------------------------
# distributed / backend seam (runs under REPRO_VMPI_BACKEND=socket in CI)
# ----------------------------------------------------------------------

class TestDistributedSeam:
    def test_distributed_agrees_with_batched_serial(self, hmat, parity):
        batched, _ = parity
        w_serial = batched.solve(U)
        dist = distributed_factorize(hmat, 0.7, 4)
        w, _ = distributed_solve(dist, U)
        assert np.abs(w - w_serial).max() < 1e-10 * max(1.0, np.abs(w_serial).max())


# ----------------------------------------------------------------------
# dtype regression through the batched path
# ----------------------------------------------------------------------

class TestFloat32Regression:
    def test_float32_input_through_batched_path(self):
        X32 = X.astype(np.float32)
        solver = make_solver()  # level_batch=True
        solver.fit(X32).factorize(0.5)
        w = solver.solve(U)
        assert w.dtype == np.float64 and np.all(np.isfinite(w))
        # coercion happens at the validation boundary, so the float32
        # input must give bitwise the same answer as its float64 image.
        solver64 = make_solver()
        solver64.fit(X32.astype(np.float64)).factorize(0.5)
        assert np.array_equal(solver64.solve(U), w)
