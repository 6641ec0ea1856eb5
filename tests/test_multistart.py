"""Multi-start sampling and clustering tests."""

import importlib
import math
import threading

import numpy as np
import pytest

from dscfw.errors import AsymmetricMatrix, PoolTooSmall, TooManySeeds
from dscfw.matrix import ShiftedMatrix, new_similarity_matrix
from dscfw.metrics import ari
from dscfw.multistart import (
    SamplePlan,
    SamplerKind,
    dpp_sample,
    make_diagonally_dominant,
    multistart_cluster,
    rescale_expected_size,
    seed_starting_points,
    two_step_dpp_sample,
    uniform_block_sample,
)
from dscfw.peel import shift_offdiag
from dscfw.solvers import InitKind, SolverConfig, SolverKind, run

from conftest import extract_support, rand_sim


class TestSamplePlan:
    def test_defaults(self):
        plan = SamplePlan()
        assert plan.ell == 4
        assert plan.sampler is SamplerKind.UNI
        assert plan.overlap_threshold == 0.10

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplePlan(ell=0)
        with pytest.raises(ValueError):
            SamplePlan(overlap_threshold=1.0)


class TestUniformBlockSample:
    def test_too_many_seeds(self, A3):
        with pytest.raises(TooManySeeds):
            uniform_block_sample(A3, 4, np.random.default_rng(0))

    def test_one_pick_per_row_sum_block(self):
        rng = np.random.default_rng(0)
        A = rand_sim(12, rng)
        order = np.argsort(-A.row_sums(), kind="stable")
        picks = uniform_block_sample(A, 4, np.random.default_rng(1))
        assert len(picks) == 4
        blocks = [order[i:i + 3] for i in range(0, 12, 3)]
        for pick, block in zip(picks, blocks):
            assert pick in block

    @pytest.mark.parametrize("n, ell", [(9, 4), (5, 4), (10, 4), (7, 3)])
    def test_exactly_ell_picks_one_per_block(self, n, ell):
        # ceil(n / ell)-sized blocks would give fewer than ell blocks here
        # (9 = 3 + 3 + 3); blocks of sizes differing by one give ell.
        A = rand_sim(n, np.random.default_rng(n))
        order = np.argsort(-A.row_sums(), kind="stable")
        for seed in range(5):
            picks = uniform_block_sample(A, ell, np.random.default_rng(seed))
            assert len(picks) == ell
            for pick, block in zip(picks, np.array_split(order, ell)):
                assert pick in block

    def test_ell_equals_n_returns_row_sum_order(self, A3):
        picks = uniform_block_sample(A3, 3, np.random.default_rng(0))
        assert picks == [1, 2, 0]  # row sums (3, 5, 4) descending


class TestDiagonallyDominant:
    def test_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rand_sim(8, rng)
            ens = make_diagonally_dominant(A.entries)
            assert ens.eigenvalues.min() >= -1e-9

    def test_diagonal_is_offdiag_row_sum(self):
        L = np.array([[0.0, 1.0], [1.0, 0.0]])
        ens = make_diagonally_dominant(L)
        assert ens.likelihood[0, 0] == pytest.approx(1.0, rel=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricMatrix):
            make_diagonally_dominant([[0.0, 1.0], [2.0, 0.0]])


class TestRescaleExpectedSize:
    def test_hits_target(self):
        rng = np.random.default_rng(5)
        ens = make_diagonally_dominant(rand_sim(20, rng).entries)
        scaled = rescale_expected_size(ens, 4.0)
        lam = scaled.eigenvalues
        assert np.sum(lam / (1.0 + lam)) == pytest.approx(4.0, abs=1e-6)

    def test_noop_when_target_unreachable(self):
        rng = np.random.default_rng(6)
        ens = make_diagonally_dominant(rand_sim(5, rng).entries)
        assert rescale_expected_size(ens, 50.0) is ens


class TestDppSample:
    def test_sorted_distinct_indices(self):
        rng = np.random.default_rng(7)
        ens = make_diagonally_dominant(rand_sim(10, rng).entries)
        ens = rescale_expected_size(ens, 3.0)
        for _ in range(20):
            picks = dpp_sample(ens, rng)
            assert picks == sorted(set(picks))
            assert all(0 <= i < 10 for i in picks)

    def test_expected_size_near_target(self):
        rng = np.random.default_rng(8)
        ens = rescale_expected_size(
            make_diagonally_dominant(rand_sim(15, rng).entries), 4.0)
        sizes = [len(dpp_sample(ens, rng)) for _ in range(500)]
        assert 3.0 <= float(np.mean(sizes)) <= 5.0


class TestTwoStepDppSample:
    def test_returns_exactly_ell(self):
        rng = np.random.default_rng(9)
        A = rand_sim(100, rng)
        picks = two_step_dpp_sample(A, 4, rng)
        assert len(picks) == 4
        assert picks == sorted(set(picks))

    def test_a_shifted_operator_samples_as_its_dense_matrix(self):
        # The pool's entries are those of the dense shifted matrix, bit for
        # bit, and integer weights keep its row sums in the same order.
        upper = np.triu(np.random.default_rng(16).integers(
            0, 4, size=(60, 60)).astype(float), 1)
        A = new_similarity_matrix(upper + upper.T)
        for seed in range(5):
            picks = [sample(B, 4, np.random.default_rng(seed))
                     for sample in (two_step_dpp_sample,
                                    uniform_block_sample)
                     for B in (ShiftedMatrix(A, 4.0), shift_offdiag(A, 4.0))]
            assert picks[0] == picks[1] and picks[2] == picks[3]

    def test_pool_too_small(self):
        rng = np.random.default_rng(10)
        # n=30 gives a stage-1 pool of 10 candidates; asking for 11 fails.
        A = rand_sim(30, rng)
        with pytest.raises(PoolTooSmall):
            two_step_dpp_sample(A, 11, rng)


class TestSeedStartingPoints:
    def test_frozen(self):
        vertex, biased = seed_starting_points(1, 4)
        assert np.array_equal(vertex, [0.0, 1.0, 0.0, 0.0])
        assert extract_support(vertex, 0.0) == [1]
        assert np.allclose(biased, [1 / 6, 0.5, 1 / 6, 1 / 6])
        assert extract_support(biased, 0.0) == [0, 1, 2, 3]

    def test_needs_two_objects(self):
        with pytest.raises(ValueError):
            seed_starting_points(0, 1)


class TestMultistartCluster:
    @pytest.mark.parametrize("sampler", [SamplerKind.UNI, SamplerKind.DPP])
    def test_recovers_two_blocks(self, two_blocks, sampler):
        plan = SamplePlan(ell=2, sampler=sampler, seed=0)
        cfg = SolverConfig(SolverKind.PFW, InitKind.VERTEX, max_iters=200)
        result, passes = multistart_cluster(two_blocks, plan, cfg,
                                            max_clusters=2)
        assert passes >= 1
        assert ari(result.labels, [1, 1, 2, 2]) == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        A = rand_sim(40, rng)
        plan = SamplePlan(ell=4, seed=3)
        cfg = SolverConfig(SolverKind.AFW, InitKind.VERTEX, max_iters=500)
        r1, p1 = multistart_cluster(A, plan, cfg, max_clusters=4)
        r2, p2 = multistart_cluster(A, plan, cfg, max_clusters=4)
        assert p1 == p2
        assert np.array_equal(r1.labels, r2.labels)
        assert r1.clusters == r2.clusters

    def test_starts_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("multistart started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        rng = np.random.default_rng(14)
        A = rand_sim(40, rng)
        plan = SamplePlan(ell=4, sampler=SamplerKind.DPP, seed=5)
        cfg = SolverConfig(SolverKind.AFW, InitKind.VERTEX, max_iters=500)
        result, passes = multistart_cluster(A, plan, cfg, max_clusters=4)
        assert passes >= 1
        assert result.clusters

    def test_first_pass_solves_a_itself(self, monkeypatch):
        solved = []

        def recording_run(A, config, x0=None):
            solved.append(A)
            return run(A, config, x0=x0)

        module = importlib.import_module("dscfw.multistart")
        monkeypatch.setattr(module, "run", recording_run)
        A = rand_sim(30, np.random.default_rng(15))
        plan = SamplePlan(ell=2, seed=3)
        cfg = SolverConfig(SolverKind.FW, InitKind.VERTEX, max_iters=500)
        _, passes = multistart_cluster(A, plan, cfg, max_clusters=3)
        assert passes >= 2
        first = [B for B in solved if B.n == A.n]
        assert len(first) == 2 and all(B is A for B in first)
        assert all(B.n < A.n for B in solved[2:])

    def test_later_passes_keep_the_shift(self, monkeypatch):
        solved = []

        def recording_run(A, config, x0=None):
            solved.append(A)
            return run(A, config, x0=x0)

        module = importlib.import_module("dscfw.multistart")
        monkeypatch.setattr(module, "run", recording_run)
        A = rand_sim(30, np.random.default_rng(15))
        op = ShiftedMatrix(A, 0.5)
        plan = SamplePlan(ell=2, seed=3)
        cfg = SolverConfig(SolverKind.FW, InitKind.VERTEX, max_iters=500)
        _, passes = multistart_cluster(op, plan, cfg, max_clusters=3)
        assert passes >= 2
        assert solved[0] is op and solved[1] is op
        later = solved[2:]
        assert later and all(B.n < A.n for B in later)
        assert all(B.shift == 0.5 and B.active is None for B in later)

    def test_rejects_an_operator_with_an_active_mask(self, A3):
        cfg = SolverConfig(SolverKind.FW, InitKind.VERTEX)
        masked = ShiftedMatrix(A3, 0.0, np.array([True, True, False]))
        with pytest.raises(ValueError, match="active mask"):
            multistart_cluster(masked, SamplePlan(ell=2, seed=0), cfg,
                               max_clusters=1)

    def test_rejects_bad_cutoff(self, A3):
        cfg = SolverConfig(SolverKind.FW, InitKind.VERTEX)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                multistart_cluster(A3, SamplePlan(ell=2, seed=0), cfg,
                                   max_clusters=1, cutoff=bad)

    def test_rejects_max_clusters_below_one(self, A3):
        cfg = SolverConfig(SolverKind.FW, InitKind.VERTEX)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_clusters"):
                multistart_cluster(A3, SamplePlan(ell=2, seed=0), cfg,
                                   max_clusters=bad)

    def test_respects_max_clusters(self):
        rng = np.random.default_rng(12)
        A = rand_sim(30, rng)
        plan = SamplePlan(ell=4, seed=1)
        cfg = SolverConfig(SolverKind.PFW, InitKind.VERTEX, max_iters=500)
        result, _ = multistart_cluster(A, plan, cfg, max_clusters=2)
        assert len(result.clusters) <= 2

    def test_labels_match_clusters(self):
        rng = np.random.default_rng(13)
        A = rand_sim(25, rng)
        plan = SamplePlan(ell=3, seed=2)
        cfg = SolverConfig(SolverKind.FW, InitKind.VERTEX, max_iters=500)
        result, _ = multistart_cluster(A, plan, cfg, max_clusters=5)
        for label, members in enumerate(result.clusters, start=1):
            assert all(result.labels[m] == label for m in members)
        assert result.assigned_count == sum(len(c) for c in result.clusters)
