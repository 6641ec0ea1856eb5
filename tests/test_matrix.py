"""Matrix-core unit tests: validation contracts, dense oracles, CSV I/O."""

import bz2
import contextlib
import gzip
import io
import lzma
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dscfw import matrix
from dscfw.cli import main
from dscfw.data import (
    block_noise_matrix,
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
    NonzeroDiagonal,
    TooSmall,
)
from dscfw.matrix import (
    _CHUNK,
    _POW10_HI,
    _POW10_LO,
    _Q0,
    ShiftedMatrix,
    SimilarityMatrix,
    _asymmetry,
    _read_fixed_width,
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

from conftest import extract_support, rand_sim


class TestNewSimilarityMatrix:
    def test_accepts_valid(self, A3):
        assert A3.n == 3
        assert A3.entries[0, 1] == 2.0

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            new_similarity_matrix([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_rejects_empty(self):
        # n = 0 would leave peel's assignment rate 0/0.
        with pytest.raises(TooSmall):
            new_similarity_matrix(np.zeros((0, 0)))

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


class TestShiftedMatrix:
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_bad_shift(self, A3, bad):
        with pytest.raises(ValueError, match="shift"):
            ShiftedMatrix(A3, bad)

    def test_rejects_a_shifted_base(self, A3):
        with pytest.raises(TypeError):
            ShiftedMatrix(ShiftedMatrix(A3, 1.0), 1.0)


class TestTiledAsymmetry:
    # 127, 128 and 129 straddle one tile; 300 ends in a partial tile.
    @pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 300])
    def test_equals_whole_array_max(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        # rand_sim's entries, built unvalidated: n = 0 is no similarity
        # matrix, but _asymmetry takes any square array.
        upper = np.triu(rng.uniform(size=(n, n)), 1)
        near = upper + upper.T + 1e-10 * rng.normal(size=(n, n))
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
        assert extract_support(pt, 0.0) == [0, 1, 2]
        assert pt.dtype == np.float64 and pt.shape == (3,)

    def test_zero_coordinate_excluded_from_support(self):
        pt = simplex_point([0.5, 0.0, 0.5])
        assert extract_support(pt, 0.0) == [0, 2]

    def test_negative_coordinate(self):
        with pytest.raises(NegativeEntry):
            simplex_point([1.2, -0.2])

    def test_sum_drift(self):
        with pytest.raises(DimensionMismatch):
            simplex_point([0.5, 0.4])

    @pytest.mark.parametrize("coords", [[np.nan, 1.0], [np.inf, 0.0],
                                        [0.5, -np.inf]])
    def test_non_finite_coordinate(self, coords):
        with pytest.raises(NonFiniteEntry):
            simplex_point(coords)

    @pytest.mark.parametrize("coords", [[[0.5], [0.5]], 1.0])
    def test_not_one_dimensional(self, coords):
        with pytest.raises(DimensionMismatch):
            simplex_point(coords)

    def test_renormalize_if_needed(self):
        pt = simplex_point([0.5, 0.5])
        pt *= 1.0 + 1e-9
        renormalize_if_needed(pt)
        assert abs(pt.sum() - 1.0) <= 1e-12


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


def _fixed_width(v: float) -> bool:
    """The "%.18e" token of v takes 24 bytes: v is nonnegative and its
    exponent has two digits."""
    return len("%.18e" % v) == 24


def _scaled(digits: float, exponent: int) -> float:
    return digits * 10.0**exponent


# Values whose tokens the fixed-width reader takes: zero, powers of two
# and their neighbours, magnitudes from 1e-99 to 1e99, and both ends of
# the exact range q = 18 - exponent in [0, 27] with one step past each.
FIXED_VALUES = st.one_of(
    st.just(0.0),
    st.integers(-328, 332).flatmap(lambda k: st.sampled_from(
        [np.nextafter(2.0**k, 0.0), 2.0**k, np.nextafter(2.0**k, np.inf)])),
    st.builds(_scaled, st.floats(1.0, 10.0, exclude_max=True),
              st.integers(-99, 99)),
    st.builds(_scaled, st.floats(1.0, 10.0, exclude_max=True),
              st.sampled_from([-10, -9, 18, 19])),
    st.floats(1e-99, 1e99),
).filter(_fixed_width)


def _symmetric(n: int, values: list[float], rng) -> np.ndarray:
    """n x n, symmetric, zero diagonal, off-diagonal entries drawn from
    values: a matrix load_matrix_csv accepts."""
    E = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    E[iu] = np.array(values)[rng.integers(len(values), size=iu[0].size)]
    E.T[iu] = E[iu]
    return E


def _token(d: Decimal, rounding: str) -> str:
    """d > 0 in np.savetxt's "%.18e" form, rounded to 19 digits."""
    e = d.adjusted()
    digits = d.scaleb(-e).quantize(Decimal("1." + "0" * 18), rounding)
    return f"{digits}e{e:+03d}"


def _midpoint_tokens(z: float) -> list[str]:
    """The 19-digit tokens just below and just above the midpoint of z and
    its successor."""
    with localcontext() as ctx:
        ctx.prec = 1000
        mid = (Decimal(z) + Decimal(float(np.nextafter(z, np.inf)))) / 2
        return [_token(mid, ROUND_FLOOR), _token(mid, ROUND_CEILING)]


# 2^53 + 1 and 2^53 + 3 are midpoints written exactly in 19 digits; they
# round to even. The next two lie within 2^-64 of a midpoint, relatively,
# on the side away from its even neighbour, where a scaling good to 64
# bits would land on the midpoint itself and round to the wrong
# neighbour. The rest lie next to midpoints at magnitudes from 1e-99 to
# 9e99. Each lies about spacing(z) / 2 from the nearest double z, so the
# reader's margin test fails on it and it goes to float().
MIDPOINT_TOKENS = [
    "9.007199254740993000e+15", "9.007199254740992999e+15",
    "9.007199254740993001e+15", "9.007199254740995000e+15",
    "9.554173266933418199e+04", "9.271797576704404646e-09",
] + [t for z in [1.0, 0.1, 3.0, 2.0**-30, 5e-9, 3e18, 1e-10, 7e19, 1e-99,
                 9e99]
     for t in _midpoint_tokens(z)]


# Hand-written tokens at the ends of the reader's range, with whether they
# go to float(), as the ones too near a rounding midpoint do: the ends of
# the two-digit exponents; the largest 19-digit integers, above 2^63,
# where m = a + b leaves b the most bits; 2^64 / 10^18; the digits of the
# smallest subnormal, 4.94...e-324, at the exponent -99. The last four
# start with zeros, so m is small and a must carry all of it: on the
# first two, splitting a = m & ~2047 would leave m to b, whose rounded
# product passes the margin test with a wrong value.
RANGE_END_TOKENS = [
    ("1.000000000000000000e-99", False),
    ("9.999999999999999999e-99", True),
    ("1.000000000000000000e+99", True),
    ("9.999999999999999999e+99", False),
    ("9.999999999999999999e+18", False),
    ("1.844674407370955161e+01", True),
    ("4.940656458412465442e-99", True),
    ("0.000000000000004012e-04", True),
    ("0.000000000000000101e+81", True),
    ("0.000000000000000001e-99", True),
    ("0.000000000000000001e+99", True),
]


_POWERS_OF_TEN = [float(f"1e{e}") for e in range(-99, 100)]
# Values for the writer, with the number of their tokens it sends to %:
# the exact ties, or None when tokens of other widths send every line.
# 2^-28 = 3.7252902984619140625e-09, 3.8964386146156421875e+13 and the
# double below 1e14, 9.9999999999999984375e+13, are exact ties at the 19th
# digit. 1e-99 and the largest double below 1e100 are the ends of the
# two-digit exponents, their neighbours outside them the first three-digit
# ones.
WRITER_EDGES = {
    "exact ties": ([2.0**-28, 3.8964386146156421875e+13,
                    np.nextafter(1e14, 0.0)], 3),
    "powers of ten and their neighbours": (sorted(
        {np.nextafter(p, d) for p in _POWERS_OF_TEN for d in (0.0, np.inf)}
        - {np.nextafter(1e-99, 0.0)} | set(_POWERS_OF_TEN)), 1),
    "two-digit ends": ([1e-99, np.nextafter(1e100, 0.0)], 0),
    "three-digit ends": ([np.nextafter(1e-99, 0.0), 1e100], None),
    "subnormal and zeros": ([5e-324, -0.0, 0.0], None),
}


def _write_symmetric_tokens(path, tokens: list[str]) -> None:
    """A symmetric matrix CSV holding the tokens above its diagonal, zero
    tokens elsewhere."""
    n = 2
    while n * (n - 1) // 2 < len(tokens):
        n += 1
    T = np.full((n, n), "0.000000000000000000e+00", dtype=object)
    for i, j, tok in zip(*np.triu_indices(n, 1), tokens):
        T[i, j] = T[j, i] = tok
    path.write_text("".join(",".join(row) + "\n" for row in T))


def _token_floats(fallback: mock.Mock) -> int:
    """How many tokens went to float(): the calls on a token's bytes."""
    return sum(isinstance(c.args[0], bytes) for c in fallback.call_args_list)


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)


def _cluster_exit_code(path, out) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["cluster", "--input", str(path), "--max-clusters", "1",
                     "--max-iters", "5", "--out", str(out)])


def _last_line(edit):
    """A defect that rewrites the last line of a CSV, given as its lines."""
    def defect(lines: list[str]) -> None:
        lines[-1] = edit(lines[-1])
    return defect


def _byte(at: int, byte: str):
    return _last_line(lambda line: line[:at] + byte + line[at + 1:])


def _shift_token(lines: list[str]) -> None:
    # The next-to-last line gives its last token to the last line: the file
    # keeps its size.
    head, tail = lines[-2].rsplit(",", 1)
    lines[-2] = head + "\n"
    lines[-1] = lines[-1][:-1] + "," + tail


def _crlf(lines: list[str]) -> None:
    lines[:] = [line[:-1] + "\r\n" for line in lines]


# Defects in the last lines of a 120 x 120 fixed-width CSV, past its first
# chunk, with the outcome of np.loadtxt's reader: the exception (None when
# the file loads) and the exit code of `dscfw cluster --input`. The last
# four put a byte one bit away from the '.', 'e', '+' or ',' in its place.
MALFORMED = {
    "non-digit byte": (_byte(30, "x"), ValueError, 2),
    "line of n - 1 tokens": (
        _last_line(lambda line: line.rsplit(",", 1)[0] + "\n"),
        ValueError, 2),
    "line of n + 1 tokens": (_last_line(lambda line: line[:25] + line),
                             ValueError, 2),
    "lines of n - 1 and n + 1 tokens": (_shift_token, ValueError, 2),
    "extra last row": (lambda lines: lines.append(lines[-1]),
                       NonSquareMatrix, 2),
    "truncated last row": (_last_line(lambda line: line[: len(line) // 2]),
                           ValueError, 2),
    "CRLF line ends": (_crlf, None, 0),
    "nan token": (_last_line(lambda line: "nan" + line[24:]),
                  NonFiniteEntry, 2),
    "'/' for '.'": (_byte(1, "/"), ValueError, 2),
    "'d' for 'e'": (_byte(20, "d"), ValueError, 2),
    "'/' for '+'": (_byte(21, "/"), ValueError, 2),
    "'-' for ','": (_byte(24, "-"), ValueError, 2),
}


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

    @pytest.mark.parametrize("case", sorted(WRITER_EDGES))
    def test_save_writes_the_edges_as_savetxt_does(self, tmp_path, case):
        values, ties = WRITER_EDGES[case]
        k = 1
        while k * k < len(values):
            k += 1
        E = np.zeros(k * k)
        E[: len(values)] = values
        E = E.reshape(k, k)
        with mock.patch.object(matrix, "_percent_line",
                               wraps=matrix._percent_line) as fallback:
            save_matrix_csv(tmp_path / "new.csv", SimilarityMatrix(E))
        np.savetxt(tmp_path / "ref.csv", E, delimiter=",")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())
        sent = [c.args[0].size for c in fallback.call_args_list]
        if ties is None:  # every row of the matrix's one run, line by line
            assert sent == [k] * k
        else:  # one call on the run's ties, if it has any
            assert sent == ([ties] if ties else [])

    def test_save_mixes_the_two_paths_run_by_run(self, tmp_path):
        # One -0.0 sends its run of rows, and no other, line by line to %.
        E = np.random.default_rng(7).uniform(size=(200, 200))
        second = _row_chunks(200)[1]
        E[second.start + 3, 5] = -0.0
        with mock.patch.object(matrix, "_percent_line",
                               wraps=matrix._percent_line) as fallback:
            save_matrix_csv(tmp_path / "new.csv", SimilarityMatrix(E))
        np.savetxt(tmp_path / "ref.csv", E, delimiter=",")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())
        sent = np.array([c.args[0] for c in fallback.call_args_list])
        assert np.array_equal(_bits(sent), _bits(E[second]))

    @pytest.mark.parametrize("kind", ["block", "minimax", "euclidean-max"])
    def test_save_sends_no_token_of_generated_data_to_percent(self, tmp_path,
                                                              kind):
        if kind == "block":
            A, _ = block_noise_matrix(300, 5, 0.3, seed=0)
        else:
            F, _ = gauss_dataset(300, 0.3, seed=0)
            D = pairwise_euclidean(F)
            A = max_transform(minimax_distances(D) if kind == "minimax"
                              else D)
        with mock.patch.object(matrix, "_percent_line",
                               wraps=matrix._percent_line) as fallback:
            save_matrix_csv(tmp_path / "new.csv", A)
        assert fallback.call_count == 0
        np.savetxt(tmp_path / "ref.csv", A.entries, delimiter=",")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

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

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 240]),
           palette=st.lists(FIXED_VALUES, min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    @example(n=240, palette=[1.0, 2.0**-328, 1e-99, 9.5e99, 3e18, 5e-9],
             seed=0)
    # The ends of the reader's scaling: q = 18 - exponent is 117 at the
    # exponent -99 and -81 at 99.
    @example(n=3, palette=[1e-99, 2.5e-99], seed=0)
    @example(n=3, palette=[np.nextafter(1e100, 0.0), 1.5e99], seed=0)
    def test_load_reads_the_bits_of_loadtxt(self, tmp_path_factory, n,
                                            palette, seed):
        # n = 240 spans several chunks of the fixed-width reader.
        assert 240 * 240 > 4 * _CHUNK
        E = _symmetric(n, palette, np.random.default_rng(seed))
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        np.savetxt(path, E, delimiter=",")
        ref = _bits(np.loadtxt(path, delimiter=",", ndmin=2))
        assert _read_fixed_width(path) is not None
        # Every token np.savetxt writes passes the margin test.
        with mock.patch.object(matrix, "float", create=True,
                               side_effect=float) as fallback:
            A = load_matrix_csv(path)
        assert _token_floats(fallback) == 0
        assert np.array_equal(_bits(A.entries), ref)

    def test_load_rounds_tokens_next_to_midpoints(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_symmetric_tokens(path, MIDPOINT_TOKENS)
        ref = _bits(np.loadtxt(path, delimiter=",", ndmin=2))
        assert _read_fixed_width(path) is not None
        # Tokens the double-double arithmetic cannot settle go to float().
        with mock.patch.object(matrix, "float", create=True,
                               side_effect=float) as fallback:
            A = load_matrix_csv(path)
        assert _token_floats(fallback) > 0
        assert np.array_equal(_bits(A.entries), ref)
        values = A.entries[np.triu_indices(A.n, 1)][: len(MIDPOINT_TOKENS)]
        assert values.tolist() == [float(t) for t in MIDPOINT_TOKENS]
        assert A.entries[0, 1] == 2.0**53  # a tie, rounded to even

    @pytest.mark.parametrize("token, to_float", RANGE_END_TOKENS)
    def test_load_reads_hand_written_range_ends(self, tmp_path, token,
                                                to_float):
        path = tmp_path / "m.csv"
        _write_symmetric_tokens(path, [token])
        with mock.patch.object(matrix, "float", create=True,
                               side_effect=float) as fallback:
            E = _read_fixed_width(path)
        assert E[0, 1] == E[1, 0] == float(token)
        # Both copies of the token go to float(), or neither does.
        assert _token_floats(fallback) == 2 * to_float

    def test_the_powers_of_ten(self):
        # One table for the reader's 10^-117..10^81 and the writer's
        # 10^-81..10^117: every H + L is 10^k within 2^-106, relatively.
        assert _POW10_HI.size == _POW10_LO.size == 2 * _Q0 + 1 == 235
        for k, hi, lo in zip(range(-_Q0, _Q0 + 1), _POW10_HI, _POW10_LO,
                             strict=True):
            exact = Fraction(10) ** k
            error = abs(Fraction(hi) + Fraction(lo) - exact) / exact
            assert error <= Fraction(1, 2**106)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_fixed_width_keeps_the_loadtxt_outcome(self, tmp_path,
                                                            case):
        defect, error, code = MALFORMED[case]
        A, _ = block_noise_matrix(120, 3, 0.3, seed=1)
        # The defects lie in the last two lines, in the reader's second
        # chunk.
        assert 120 * 118 > _CHUNK
        path = tmp_path / "m.csv"
        np.savetxt(path, A.entries, delimiter=",")
        lines = path.read_text().splitlines(keepends=True)
        defect(lines)
        path.write_text("".join(lines))
        outcome = _outcome(load_matrix_csv, path)
        with mock.patch.object(matrix, "_read_fixed_width",
                               return_value=None):
            reference = _outcome(load_matrix_csv, path)
            assert _cluster_exit_code(path, tmp_path / "ref") == code
        assert _cluster_exit_code(path, tmp_path / "run") == code
        if error is None:
            assert np.array_equal(outcome.entries, reference.entries)
        else:
            assert outcome == reference
            assert outcome[0] is error

    def test_savetxt_layout_never_reaches_loadtxt(self, tmp_path,
                                                  monkeypatch):
        A = rand_sim(50, np.random.default_rng(7))
        path = tmp_path / "m.csv"
        save_matrix_csv(path, A)

        def loadtxt(*args, **kwargs):
            raise AssertionError("a fixed-width CSV went to np.loadtxt")

        monkeypatch.setattr(matrix.np, "loadtxt", loadtxt)
        B = load_matrix_csv(path)
        assert np.array_equal(_bits(A.entries), _bits(B.entries))
