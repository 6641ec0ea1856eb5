"""Peel-off clustering driver tests."""

import importlib

import numpy as np
import pytest

from dscfw.errors import EmptyCluster, NoClusters
from dscfw.matrix import new_similarity_matrix, simplex_point
from dscfw.peel import (
    ClusteringResult,
    PeelConfig,
    extract_support,
    peel,
    post_assign,
    shift_offdiag,
)
from dscfw.solvers import InitKind, SolverConfig, SolverKind, run


class TestExtractSupport:
    def test_threshold(self):
        x = simplex_point([0.5, 0.5, 0.0])
        assert extract_support(x, 2e-12) == [0, 1]

    def test_cutoff_excludes_small_mass(self):
        x = simplex_point([1.0 - 1e-13, 1e-13, 0.0])
        assert extract_support(x, 2e-12) == [0]

    def test_empty_cluster(self):
        x = simplex_point([0.5, 0.5])
        with pytest.raises(EmptyCluster):
            extract_support(x, 0.9)


class TestShiftOffdiag:
    def test_zero_shift_returns_same_object(self, A3):
        assert shift_offdiag(A3, 0.0) is A3

    def test_shift_adds_offdiagonal_only(self, A3):
        B = shift_offdiag(A3, 1.5)
        assert B.entries[0, 1] == pytest.approx(3.5)
        assert np.all(np.diagonal(B.entries) == 0.0)


class TestPeelConfig:
    def test_rejects_bad_max_clusters(self):
        with pytest.raises(ValueError):
            PeelConfig(max_clusters=0)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            PeelConfig(max_clusters=1, cutoff=0.0)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            PeelConfig(max_clusters=1, shift=-1.0)


class TestPeel:
    def test_two_blocks(self, two_blocks):
        cfg = PeelConfig(max_clusters=2)
        result = peel(two_blocks, cfg)
        assert np.array_equal(result.labels, [1, 1, 2, 2])
        assert result.clusters == [[0, 1], [2, 3]]
        assert result.assignment_rate == 1.0

    def test_max_clusters_limits_rounds(self, two_blocks):
        cfg = PeelConfig(max_clusters=1)
        result = peel(two_blocks, cfg)
        assert np.array_equal(result.labels, [1, 1, 0, 0])
        assert result.assignment_rate == 0.5

    def test_singleton_remainder_gets_own_label(self):
        A = new_similarity_matrix([[0.0, 1.0, 0.0],
                                   [1.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0]])
        result = peel(A, PeelConfig(max_clusters=3))
        assert np.array_equal(result.labels, [1, 1, 2])
        assert result.clusters == [[0, 1], [2]]

    @pytest.mark.parametrize("shift", [0.0, 2.0])
    def test_round_one_solves_a_itself_without_a_shift(self, monkeypatch,
                                                       two_blocks, shift):
        solved = []

        def recording_run(A, config, x0=None):
            solved.append(A)
            return run(A, config, x0=x0)

        module = importlib.import_module("dscfw.peel")
        monkeypatch.setattr(module, "run", recording_run)
        peel(two_blocks, PeelConfig(max_clusters=2, shift=shift))
        assert (solved[0] is two_blocks) == (shift == 0.0)
        assert np.array_equal(solved[0].entries,
                              shift_offdiag(two_blocks, shift).entries)

    def test_characteristic_vectors_full_length(self, two_blocks):
        result = peel(two_blocks, PeelConfig(max_clusters=2))
        assert all(v.shape == (4,) for v in result.characteristic_vectors)
        assert np.allclose(result.characteristic_vectors[0],
                           [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        assert np.allclose(result.characteristic_vectors[1],
                           [0.0, 0.0, 0.5, 0.5], atol=1e-12)

    def test_shift_spreads_support(self):
        # On a random 16-clique the local maximizer has a small support;
        # a large off-diagonal shift pushes it to the whole clique.
        rng = np.random.default_rng(0)
        upper = np.triu(rng.uniform(size=(16, 16)), 1)
        A = new_similarity_matrix(upper + upper.T)
        narrow = peel(A, PeelConfig(max_clusters=1, shift=0.0))
        wide = peel(A, PeelConfig(max_clusters=1, shift=4.0))
        assert len(narrow.clusters[0]) < 16
        assert len(wide.clusters[0]) == 16

    def test_works_with_replicator_solver(self):
        # Blocks with different weights so the barycenter is not already
        # a replicator fixed point.
        A = new_similarity_matrix([[0.0, 2.0, 0.0, 0.0],
                                   [2.0, 0.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0, 1.0],
                                   [0.0, 0.0, 1.0, 0.0]])
        cfg = PeelConfig(
            max_clusters=2,
            solver=SolverConfig(SolverKind.RD, InitKind.BARYCENTER,
                                max_iters=500),
        )
        result = peel(A, cfg)
        assert result.clusters == [[0, 1], [2, 3]]


class TestPostAssign:
    def test_requires_clusters(self, A3):
        empty = ClusteringResult(labels=np.zeros(3, dtype=int), clusters=[],
                                 characteristic_vectors=[], assigned_count=0)
        with pytest.raises(NoClusters):
            post_assign(empty, A3)

    def test_assigns_to_most_similar_cluster(self):
        A = new_similarity_matrix([[0.0, 1.0, 0.0, 0.2],
                                   [1.0, 0.0, 0.0, 0.2],
                                   [0.0, 0.0, 0.0, 0.9],
                                   [0.2, 0.2, 0.9, 0.0]])
        partial = ClusteringResult(
            labels=np.array([1, 1, 2, 0]), clusters=[[0, 1], [2]],
            characteristic_vectors=[], assigned_count=3)
        result = post_assign(partial, A)
        # Object 3: mean similarity 0.2 to cluster 1, 0.9 to cluster 2.
        assert result.labels[3] == 2
        assert result.clusters[1] == [2, 3]
        assert result.assignment_rate == 1.0

    def test_tie_goes_to_lowest_label(self):
        A = new_similarity_matrix([[0.0, 1.0, 0.0, 0.5],
                                   [1.0, 0.0, 0.0, 0.5],
                                   [0.0, 0.0, 0.0, 0.5],
                                   [0.5, 0.5, 0.5, 0.0]])
        partial = ClusteringResult(
            labels=np.array([1, 1, 2, 0]), clusters=[[0, 1], [2]],
            characteristic_vectors=[], assigned_count=3)
        result = post_assign(partial, A)
        assert result.labels[3] == 1

    def test_noop_when_all_assigned(self, two_blocks):
        result = peel(two_blocks, PeelConfig(max_clusters=2))
        assert post_assign(result, two_blocks) is result

    def test_via_peel_config(self, two_blocks):
        cfg = PeelConfig(max_clusters=1, post_assign=True)
        result = peel(two_blocks, cfg)
        assert result.assignment_rate == 1.0
