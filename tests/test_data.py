"""Similarity pipelines and synthetic generator tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscfw.data import (
    block_noise_matrix,
    cosine_similarity,
    gauss_dataset,
    max_transform,
    minimax_distances,
    pairwise_euclidean,
)
from dscfw.errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NonSquareMatrix,
    TooSmall,
    ZeroNormRow,
)

from conftest import bruteforce_minimax, formula_euclidean, prim_order_minimax


class TestCosineSimilarity:
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_matches_whole_matrix_formula(self, n):
        F = np.random.default_rng(n).normal(size=(n, 3))
        norms = np.linalg.norm(F, axis=1)
        G = (F / norms[:, None]) @ (F / norms[:, None]).T
        A = (G + G.T) / 2.0 + 1.0
        np.fill_diagonal(A, 0.0)
        A[np.abs(A) <= 1e-12] = 0.0
        assert cosine_similarity(F, shift=1.0).entries.tobytes() == A.tobytes()

    def test_frozen(self):
        F = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        A = cosine_similarity(F, shift=1.0)
        assert A.entries[0, 1] == pytest.approx(1.0, rel=1e-12)
        assert A.entries[0, 2] == pytest.approx(1.0 + 1.0 / np.sqrt(2.0),
                                                rel=1e-12)
        assert np.all(np.diagonal(A.entries) == 0.0)

    def test_zero_norm_row(self):
        with pytest.raises(ZeroNormRow):
            cosine_similarity([[0.0, 0.0], [1.0, 0.0]])

    def test_scale_invariance_of_rows(self):
        rng = np.random.default_rng(2)
        F = rng.normal(size=(5, 3))
        A = cosine_similarity(F, shift=1.0)
        B = cosine_similarity(F * rng.uniform(0.5, 2.0, size=(5, 1)),
                              shift=1.0)
        assert np.allclose(A.entries, B.entries, atol=1e-12)


@pytest.mark.parametrize("build", [pairwise_euclidean, cosine_similarity])
@pytest.mark.parametrize("bad, error", [
    ([1.0, 2.0], DimensionMismatch),
    (np.ones((2, 2, 1)), DimensionMismatch),
    (np.zeros((0, 2)), TooSmall),
    ([[np.nan], [1.0]], NonFiniteEntry),
    ([[np.inf], [1.0]], NonFiniteEntry),
], ids=["1-d", "3-d", "no-rows", "nan", "inf"])
def test_builders_reject_malformed_features(build, bad, error):
    with pytest.raises(error):
        build(bad)


class TestPairwiseEuclidean:
    def test_frozen_345_triangle(self):
        D = pairwise_euclidean([[0.0, 0.0], [3.0, 4.0]])
        assert D[0, 1] == pytest.approx(5.0, rel=1e-12)
        assert D[0, 0] == 0.0

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(4)
        D = pairwise_euclidean(rng.normal(size=(10, 2)))
        assert np.allclose(D, D.T)
        assert np.all(D >= 0)

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_bit_identical_to_whole_matrix_formula(self, n):
        # Integer features from a small range repeat points, so exact
        # zeros and clipped negative rounding are common.
        rng = np.random.default_rng(n)
        for F in (rng.integers(0, 3, size=(n, 2)).astype(float),
                  rng.normal(size=(n, 3))):
            D = pairwise_euclidean(F)
            assert D.tobytes() == formula_euclidean(F).tobytes()


class TestMinimaxDistances:
    def test_frozen_chain(self):
        # Points 0, 1, 5 on a line: the bottleneck between the endpoints
        # goes through the middle point (max edge 4 instead of direct 5).
        D = pairwise_euclidean([[0.0], [1.0], [5.0]])
        M = minimax_distances(D)
        assert M[0, 2] == 4.0
        assert M[0, 1] == 1.0
        assert M[1, 2] == 4.0
        assert np.all(np.diagonal(M) == 0.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricMatrix):
            minimax_distances([[0.0, 1.0], [2.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # A NaN distance passes the symmetry test (NaN > 0 is False) and
        # Prim's comparisons skip it; it must not yield a finite matrix.
        D = pairwise_euclidean([[0.0], [1.0], [5.0]])
        D[0, 2] = D[2, 0] = bad
        with pytest.raises(NonFiniteEntry):
            minimax_distances(D)

    def test_never_exceeds_direct_distance(self):
        rng = np.random.default_rng(9)
        D = pairwise_euclidean(rng.normal(size=(12, 2)))
        M = minimax_distances(D)
        assert np.all(M <= D + 1e-12)
        assert np.allclose(M, M.T)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.integers(0, 3), min_size=n * (n - 1) // 2,
        max_size=n * (n - 1) // 2).map(lambda w: (n, w))))
    def test_matches_bruteforce_with_ties(self, case):
        # Integer weights from a small range make equal edges common, so
        # Prim's tie-breaking and the order of the fill are exercised.
        n, weights = case
        D = np.zeros((n, n))
        D[np.triu_indices(n, 1)] = weights
        D = D + D.T
        assert np.array_equal(minimax_distances(D), bruteforce_minimax(D))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2**32 - 1), st.booleans())
    def test_bit_identical_to_prim_order_fill(self, n, seed, euclidean):
        # Integer weights 0-3 tie often; Euclidean distances of float
        # features are what the minimax similarity pipeline feeds in.
        rng = np.random.default_rng(seed)
        if euclidean:
            D = pairwise_euclidean(rng.normal(size=(n, 2)))
        else:
            D = np.triu(rng.integers(0, 4, size=(n, n)), 1).astype(float)
            D = D + D.T
        assert minimax_distances(D).tobytes() == prim_order_minimax(D).tobytes()

    @pytest.mark.parametrize("bad, error", [
        (np.zeros((0, 0)), TooSmall),
        (np.zeros((2, 3)), NonSquareMatrix),
        (np.zeros(3), NonSquareMatrix),
        (np.array([[0.0, -1.0], [-1.0, 0.0]]), NegativeEntry),
    ], ids=["empty", "2x3", "1-d", "negative"])
    def test_rejects_malformed_input(self, bad, error):
        # The fill takes out[p, p] = 0 as the distance from p to itself,
        # which would raise a negative edge to 0: negative input is refused.
        with pytest.raises(error):
            minimax_distances(bad)


class TestMaxTransform:
    def test_frozen(self):
        A = max_transform([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0],
                           [3.0, 2.0, 0.0]])
        assert np.allclose(A.entries, [[0.0, 2.0, 0.0],
                                       [2.0, 0.0, 1.0],
                                       [0.0, 1.0, 0.0]])

    def test_diagonal_forced_to_zero(self):
        A = max_transform([[0.0, 1.0], [1.0, 0.0]])
        assert np.all(np.diagonal(A.entries) == 0.0)

    @pytest.mark.parametrize("bad, error", [
        (np.zeros((0, 0)), TooSmall),
        (np.zeros((2, 3)), NonSquareMatrix),
        (np.zeros(3), NonSquareMatrix),
        (np.zeros((2, 2, 3)), NonSquareMatrix),
    ], ids=["empty", "2x3", "1-d", "3-d"])
    def test_rejects_malformed_input(self, bad, error):
        with pytest.raises(error):
            max_transform(bad)


class TestBlockNoiseMatrix:
    def test_structure(self):
        A, truth = block_noise_matrix(50, 4, 0.3, seed=0)
        assert A.n == 50
        assert truth.shape == (50,)
        assert set(np.unique(truth)) <= {1, 2, 3, 4}
        # Cross-cluster entries are exactly zero.
        diff = truth[:, None] != truth[None, :]
        assert np.all(A.entries[diff] == 0.0)

    def test_noise_zeroes_within_block_entries(self):
        A0, truth = block_noise_matrix(60, 2, 0.0, seed=1)
        A9, _ = block_noise_matrix(60, 2, 0.9, seed=1)
        same = (truth[:, None] == truth[None, :]) & ~np.eye(60, dtype=bool)
        frac0 = np.count_nonzero(A0.entries[same]) / same.sum()
        frac9 = np.count_nonzero(A9.entries[same]) / same.sum()
        assert frac0 == 1.0
        assert frac9 < 0.25

    def test_seed_determinism(self):
        A1, t1 = block_noise_matrix(30, 3, 0.2, seed=7)
        A2, t2 = block_noise_matrix(30, 3, 0.2, seed=7)
        assert np.array_equal(A1.entries, A2.entries)
        assert np.array_equal(t1, t2)

    def test_validation(self):
        with pytest.raises(ValueError):
            block_noise_matrix(10, 2, 1.5)
        for k in (5, 0, -1):
            with pytest.raises(ValueError, match=r"k must lie in \[1, n\]"):
                block_noise_matrix(3, k, 0.0)


class TestGaussDataset:
    def test_shapes_and_sizes(self):
        F, truth = gauss_dataset(100, 0.2, seed=0)
        assert F.shape == (100, 2)
        assert truth.shape == (100,)
        counts = {c: int(np.sum(truth == c)) for c in np.unique(truth)}
        # 20 background points; 80 split as 10/20/30/40 percent.
        assert counts == {1: 8, 2: 16, 3: 24, 4: 32, 5: 20}

    def test_background_label_convention(self):
        _, truth = gauss_dataset(100, 0.2, seed=0,
                                 background_as_class=False)
        assert int(np.sum(truth == 0)) == 20
        assert 5 not in truth

    def test_no_noise_has_no_background(self):
        _, truth = gauss_dataset(50, 0.0, seed=3)
        assert set(np.unique(truth)) == {1, 2, 3, 4}

    def test_seed_determinism(self):
        F1, t1 = gauss_dataset(40, 0.1, seed=5)
        F2, t2 = gauss_dataset(40, 0.1, seed=5)
        assert np.array_equal(F1, F2)
        assert np.array_equal(t1, t2)

    def test_clusters_are_separated(self):
        F, truth = gauss_dataset(200, 0.0, seed=1)
        centers = np.array([F[truth == c].mean(axis=0) for c in (1, 2, 3, 4)])
        D = pairwise_euclidean(centers)
        off = D[~np.eye(4, dtype=bool)]
        assert off.min() > 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_dataset(10, -0.1)


def test_feature_errors_are_value_errors():
    # The CLI reports ValueErrors as data errors (exit 2).
    assert issubclass(ZeroNormRow, ValueError)
