"""Matrix-core unit tests: validation contracts, dense oracles, CSV I/O."""

import bz2
import gzip
import lzma

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dscfw.errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NonSquareMatrix,
    NonzeroDiagonal,
    TooSmall,
)
from dscfw.matrix import (
    SimilarityMatrix,
    _asymmetry,
    _row_chunks,
    load_features_csv,
    load_matrix_csv,
    matvec,
    new_similarity_matrix,
    offdiag_extremes,
    quadratic_form,
    renormalize_if_needed,
    save_matrix_csv,
    simplex_point,
)

from conftest import rand_sim


class TestNewSimilarityMatrix:
    def test_accepts_valid(self, A3):
        assert A3.n == 3
        assert A3.entries[0, 1] == 2.0

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            new_similarity_matrix([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricMatrix):
            new_similarity_matrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntry):
            new_similarity_matrix([[0.0, -1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN and inf pass the symmetry check (inf - inf is NaN).
        with pytest.raises(NonFiniteEntry) as info:
            new_similarity_matrix([[0.0, bad], [bad, 0.0]])
        assert isinstance(info.value, ValueError)  # CLI data error

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_any_non_finite_entry_is_rejected(self, n, data):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        raw = rand_sim(n, np.random.default_rng(n)).entries.copy()
        raw[i, j] = bad
        with pytest.raises(NonFiniteEntry):
            new_similarity_matrix(raw)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            new_similarity_matrix([[0.5, 1.0], [1.0, 0.0]])

    def test_tiny_diagonal_forced_to_zero(self):
        A = new_similarity_matrix([[1e-13, 1.0], [1.0, -1e-13]])
        assert A.entries[0, 0] == 0.0
        assert A.entries[1, 1] == 0.0

    def test_entries_are_write_locked(self, A3):
        with pytest.raises(ValueError):
            A3.entries[0, 1] = 9.0

    def test_row_sums(self, A3):
        assert np.allclose(A3.row_sums(), [3.0, 5.0, 4.0])

    def test_caller_array_is_copied(self, A3):
        raw = A3.entries.copy()
        A = new_similarity_matrix(raw)
        assert raw.flags.writeable
        assert not np.shares_memory(raw, A.entries)


class TestTiledAsymmetry:
    # 127, 128 and 129 straddle one tile; 300 ends in a partial tile.
    @pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 300])
    def test_equals_whole_array_max(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        near = rand_sim(n, rng).entries + 1e-10 * rng.normal(size=(n, n))
        for arr in (a, near):
            assert _asymmetry(arr) == np.max(np.abs(arr - arr.T), initial=0.0)

    @pytest.mark.parametrize("i, j", [(299, 260), (7, 290), (290, 295)])
    def test_one_entry_in_the_last_partial_tile(self, i, j):
        raw = rand_sim(300, np.random.default_rng(3)).entries.copy()
        raw[i, j] += 1e-6
        with pytest.raises(AsymmetricMatrix):
            new_similarity_matrix(raw)



class TestSimplexPoint:
    def test_valid_point(self):
        pt = simplex_point([0.2, 0.3, 0.5])
        assert pt.support == {0, 1, 2}
        assert pt.n == 3

    def test_zero_coordinate_excluded_from_support(self):
        pt = simplex_point([0.5, 0.0, 0.5])
        assert pt.support == {0, 2}

    def test_negative_coordinate(self):
        with pytest.raises(NegativeEntry):
            simplex_point([1.2, -0.2])

    def test_sum_drift(self):
        with pytest.raises(DimensionMismatch):
            simplex_point([0.5, 0.4])

    def test_support_desync_detected(self):
        pt = simplex_point([0.5, 0.5])
        pt.mask[1] = False
        with pytest.raises(DimensionMismatch):
            pt.validate()

    def test_copy_is_independent(self):
        pt = simplex_point([0.5, 0.5])
        other = pt.copy()
        other.coords[0] = 0.0
        other.mask[0] = False
        assert pt.coords[0] == 0.5
        assert pt.support == {0, 1}

    def test_renormalize_if_needed(self):
        pt = simplex_point([0.5, 0.5])
        pt.coords *= 1.0 + 1e-9
        renormalize_if_needed(pt.coords)
        assert abs(pt.coords.sum() - 1.0) <= 1e-12


class TestDenseOracles:
    def test_matvec_frozen(self, A3):
        x = simplex_point([0.2, 0.3, 0.5])
        assert np.allclose(matvec(A3, x), [1.1, 1.9, 1.1], atol=1e-15)

    def test_quadratic_form_frozen(self, A3):
        x = simplex_point([0.2, 0.3, 0.5])
        assert quadratic_form(A3, x) == pytest.approx(1.34, rel=1e-12)

    def test_accepts_raw_arrays(self, A3):
        assert np.allclose(matvec(A3, [0.2, 0.3, 0.5]), [1.1, 1.9, 1.1])
        assert quadratic_form(A3, [0.2, 0.3, 0.5]) == pytest.approx(1.34)

    def test_dimension_mismatch(self, A3):
        with pytest.raises(DimensionMismatch):
            matvec(A3, [0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            quadratic_form(A3, [0.5, 0.5])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(0, 10**9))
    def test_quadratic_form_matches_matvec(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rand_sim(n, rng)
        x = rng.dirichlet(np.ones(n))
        f = quadratic_form(A, x)
        assert f == pytest.approx(float(x @ matvec(A, x)), rel=1e-12, abs=1e-15)


class TestOffdiagExtremes:
    def test_frozen(self, A3):
        assert offdiag_extremes(A3) == (1.0, 3.0)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            offdiag_extremes(new_similarity_matrix([[0.0]]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        A = rand_sim(8, rng)
        perm = rng.permutation(8)
        B = new_similarity_matrix(A.entries[np.ix_(perm, perm)])
        assert offdiag_extremes(A) == offdiag_extremes(B)

    @pytest.mark.parametrize("n", [2, 127, 128, 129, 300])
    def test_equals_masked_copy(self, n):
        # Asymmetric below SYM_TOL, so the lower triangle can hold an
        # extreme of its own.
        rng = np.random.default_rng(n)
        raw = rand_sim(n, rng).entries + 1e-10 * rng.uniform(size=(n, n))
        np.fill_diagonal(raw, 0.0)
        A = new_similarity_matrix(raw)
        off = A.entries[~np.eye(n, dtype=bool)]
        assert offdiag_extremes(A) == (off.min(), off.max())


def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.uint64)


# Tokens of every width "%.18e" gives a finite float64: 24 characters,
# 25 for a sign or a three-digit exponent, 26 for both.
SPECIAL = [0.0, -0.0, 5e-324, 1e-300, 1e300, -1e-300, 0.5, 1.0]


class TestCsvIO:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = np.array(rand_sim(6, rng).entries)
        for (i, j), v in zip([(0, 1), (0, 2), (1, 2)], [-0.0, 5e-324, 1e300]):
            raw[i, j] = raw[j, i] = v
        A = new_similarity_matrix(raw)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, A)
        B = load_matrix_csv(path)
        assert np.array_equal(_bits(A.entries), _bits(B.entries))

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 5, 200]),
           kind=st.sampled_from(["equal", "repeated", "distinct"]),
           palette=st.lists(st.one_of(st.sampled_from(SPECIAL),
                                      st.floats(allow_nan=False,
                                                allow_infinity=False)),
                            min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2, kind="repeated", palette=[0.0, -0.0], seed=0)
    # Tokens of 24 and 26 characters: a whole mean width, yet not one width.
    @example(n=2, kind="repeated", palette=[0.0, -1e-300], seed=0)
    @example(n=200, kind="repeated", palette=SPECIAL, seed=1)
    @example(n=200, kind="distinct", palette=SPECIAL, seed=2)
    def test_save_writes_the_bytes_of_savetxt(self, tmp_path_factory, n,
                                              kind, palette, seed):
        # Any float64 array, not only a valid similarity matrix: the
        # writer must match np.savetxt on every bit pattern it is given.
        # n = 200 spans several row runs of the writer.
        assert len(_row_chunks(200)) > 1
        rng = np.random.default_rng(seed)
        values = np.array(palette)
        if kind == "equal":
            E = np.full((n, n), values[0])
        elif kind == "repeated":
            E = values[rng.integers(values.size, size=(n, n))]
        else:
            E = rng.standard_normal((n, n)) * 10.0 ** rng.integers(
                -300, 300, size=(n, n))
            E.flat[: values.size] = values[: E.size]
        out = tmp_path_factory.mktemp("csv")
        save_matrix_csv(out / "new.csv", SimilarityMatrix(E))
        np.savetxt(out / "ref.csv", E, delimiter=",")
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()

    @pytest.mark.parametrize("suffix, opener", [
        (".gz", gzip.open), (".bz2", bz2.open), (".xz", lzma.open)])
    def test_save_compresses_like_savetxt(self, tmp_path, suffix, opener):
        A = rand_sim(5, np.random.default_rng(6))
        save_matrix_csv(tmp_path / f"new.csv{suffix}", A)
        np.savetxt(tmp_path / f"ref.csv{suffix}", A.entries, delimiter=",")
        with opener(tmp_path / f"new.csv{suffix}") as new, \
                opener(tmp_path / f"ref.csv{suffix}") as ref:
            assert new.read() == ref.read()
        B = load_matrix_csv(tmp_path / f"new.csv{suffix}")
        assert np.array_equal(_bits(A.entries), _bits(B.entries))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_load_features_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "f.csv"
        path.write_text(f"0.0,1.0\n{bad},2.0\n3.0,4.0\n")
        with pytest.raises(NonFiniteEntry):
            load_features_csv(path)

    @pytest.mark.parametrize("rows", [1, 2, 4, 6])
    def test_load_rejects_a_non_square_csv(self, tmp_path, rows):
        path = tmp_path / "m.csv"
        path.write_text("0,1,1\n" * rows)
        with pytest.raises(NonSquareMatrix):
            load_matrix_csv(path)

    def test_load_features(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        F = load_features_csv(path)
        assert F.shape == (2, 2)
        assert F[1, 0] == 3.0
