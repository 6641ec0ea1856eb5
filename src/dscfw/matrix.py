"""Similarity matrices and simplex points with their validity contracts.

One validator, `_validated`, checks every similarity matrix. It takes
ownership of a fresh float64 array, checks it in place and freezes it,
so constructors that build their own array hand it over without a copy;
`new_similarity_matrix` copies its argument first. Whole-matrix scans
(symmetry, off-diagonal extremes) walk square tiles of _TILE x _TILE, so
their scratch is one tile, not an n x n temporary.

`ShiftedMatrix(A, s, S)` stands for B = A_SS + s(11' - I), the matrix a
clustering round solves over the objects S it has not clustered yet, without
building it: the solvers read rows of the one immutable A, add the scalar
shift s and keep their Frank-Wolfe vertex inside S. A `SimilarityMatrix`
is the same operator with s = 0 and S = all, so both expose `base`,
`shift` and `active`.

The dense primitives here (matvec, quadratic_form) are deliberately O(n^2):
they serve as oracles against the solvers' O(n) incremental updates.

`save_matrix_csv` writes the bytes np.savetxt(path, A.entries,
delimiter=",") writes, one run of rows (a tile's worth of entries) at a
time, so its scratch is O(block * n), never n x n. Within a run it
formats each distinct float64 bit pattern once and gathers the run's
lines from those tokens; a run whose values are mostly distinct, or
whose tokens differ in width, is formatted line by line instead.
Matrices from the block generator or the minimax pipeline hold few
distinct values, so they are written several times faster than by
np.savetxt.
"""

from __future__ import annotations

import bz2
import gzip
import lzma
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NonSquareMatrix,
    NonzeroDiagonal,
    TooSmall,
)

SUM_TOL = 1e-12
SYM_TOL = 1e-9
DIAG_TOL = 1e-12
_TILE = 128


@dataclass(frozen=True)
class SimilarityMatrix:
    """Dense symmetric nonnegative n x n matrix with zero diagonal.

    Immutable after construction; safe to share across concurrent solver
    runs. Use :func:`new_similarity_matrix` to build a validated instance.
    """

    entries: np.ndarray
    # As an operator, the matrix is itself, unshifted, over all objects.
    shift: ClassVar[float] = 0.0
    active: ClassVar[None] = None

    @property
    def base(self) -> "SimilarityMatrix":
        return self

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)


@dataclass(frozen=True)
class ShiftedMatrix:
    """B = A + shift * (11' - I) on the face of the simplex spanned by
    `active` (a boolean mask over A's objects; None means all), held
    implicitly over the immutable A.

    Maximizing x'Bx over that face is the StQP of the compacted matrix
    A_SS + shift * (11' - I). For x supported in S, Bx = Ax + shift * (1 - x)
    on every coordinate, so the solvers read rows of A and add the scalar
    shift; only the Frank-Wolfe vertex is restricted to S. Coordinates stay
    global: a solve returns x over all n objects, zero off S. The shift,
    finite and nonnegative, is stated here and nowhere else.
    """

    base: SimilarityMatrix
    shift: float = 0.0
    active: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.base, SimilarityMatrix):
            raise TypeError("a ShiftedMatrix shifts a SimilarityMatrix")
        if not 0.0 <= self.shift < np.inf:  # NaN fails too
            raise ValueError("shift must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def entries(self) -> np.ndarray:
        """Dense A + shift * (11' - I) as a fresh array, built on each call
        in O(n^2): an oracle for tests and diagnostics; the solvers never
        read it."""
        arr = self.base.entries + self.shift
        np.fill_diagonal(arr, 0.0)
        return arr


@dataclass
class SimplexPoint:
    """Point on the standard simplex with exact support bookkeeping.

    ``mask`` is a boolean array marking the support. The step logic
    maintains it: a component is set when it enters and cleared on a drop
    step, never re-derived by thresholding. ``support`` is a read-only
    view of the same bookkeeping as a frozenset of indices.
    """

    coords: np.ndarray
    mask: np.ndarray

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def support(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.mask).tolist())

    def copy(self) -> "SimplexPoint":
        return SimplexPoint(self.coords.copy(), self.mask.copy())

    def validate(self) -> None:
        if np.any(self.coords < 0):
            raise NegativeEntry("simplex point has a negative coordinate")
        if abs(self.coords.sum() - 1.0) > SUM_TOL:
            raise DimensionMismatch(
                f"simplex sum drifted: {self.coords.sum()!r}"
            )
        if not np.array_equal(self.mask, self.coords > 0):
            raise DimensionMismatch("support bookkeeping out of sync")


def renormalize_if_needed(coords: np.ndarray) -> None:
    """Divide simplex coordinates by their sum, in place, when the sum has
    drifted from 1 by more than SUM_TOL."""
    s = coords.sum()
    if abs(s - 1.0) > SUM_TOL:
        coords /= s


def simplex_point(coords) -> SimplexPoint:
    """Build a SimplexPoint from raw coordinates, deriving the support."""
    arr = np.asarray(coords, dtype=float)
    pt = SimplexPoint(arr, arr > 0)
    pt.validate()
    return pt


def _row_chunks(n: int) -> list[slice]:
    """Runs of consecutive rows of an n x n array, each holding about one
    tile's worth of entries, so per-chunk temporaries stay tile-sized."""
    step = max(1, _TILE * _TILE // max(n, 1))
    return [slice(k, k + step) for k in range(0, n, step)]


def _tiles(n: int) -> list[tuple[slice, slice]]:
    """Pairs of square tiles (I, J) with J at or right of I; with their
    mirrors (J, I) they cover the n x n index set once."""
    cuts = [slice(k, min(k + _TILE, n)) for k in range(0, n, _TILE)]
    return [(I, J) for a, I in enumerate(cuts) for J in cuts[a:]]


def _asymmetry(arr: np.ndarray) -> float:
    """max |a_ij - a_ji| over the whole square array (0 when it is empty),
    exactly as np.max(np.abs(arr - arr.T), initial=0.0), tile by tile.
    fl(a - b) = -fl(b - a), so tiles at or right of the diagonal suffice;
    NaN propagates as in the whole-array maximum."""
    worst = np.float64(0.0)
    buf = np.empty((_TILE, _TILE))
    for I, J in _tiles(arr.shape[0]):
        tile = buf[: I.stop - I.start, : J.stop - J.start]
        np.subtract(arr[I, J], arr[J, I].T, out=tile)
        np.abs(tile, out=tile)
        worst = np.maximum(worst, tile.max())
    return float(worst)


def _validated(arr: np.ndarray) -> SimilarityMatrix:
    """The one similarity-matrix validator. Takes ownership of `arr`, a
    fresh float64 array that nobody else holds: checks it in place, forces
    tiny diagonal entries to zero and freezes it."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareMatrix(f"expected a square matrix, got {arr.shape}")
    if arr.shape[0] == 0:
        raise TooSmall("a similarity matrix needs at least one object")
    # min and max propagate NaN, so both are finite exactly when every
    # entry is.
    if not (np.isfinite(arr.min(initial=0.0))
            and np.isfinite(arr.max(initial=0.0))):
        raise NonFiniteEntry("similarities must be finite (no NaN or inf)")
    if _asymmetry(arr) > SYM_TOL:
        raise AsymmetricMatrix("matrix is not symmetric")
    diag = np.diagonal(arr)
    if np.any(np.abs(diag) > DIAG_TOL):
        raise NonzeroDiagonal("self-similarities must be zero")
    np.fill_diagonal(arr, 0.0)
    if arr.min(initial=0.0) < 0:
        raise NegativeEntry("similarities must be nonnegative")
    arr.setflags(write=False)
    return SimilarityMatrix(arr)


def new_similarity_matrix(raw) -> SimilarityMatrix:
    """Validate a copy of a raw square array as a similarity matrix; the
    caller's array is never frozen or aliased.

    Raises NonSquareMatrix, TooSmall, NonFiniteEntry, AsymmetricMatrix,
    NegativeEntry or NonzeroDiagonal (all ValueErrors) when the respective
    contract is violated. Diagonal entries within 1e-12 of zero are forced
    to exactly zero.
    """
    return _validated(np.array(raw, dtype=float))


Operator = SimilarityMatrix | ShiftedMatrix


def matvec(A: Operator, x: SimplexPoint | np.ndarray) -> np.ndarray:
    """Dense B @ x for the matrix B that A stands for; O(n^2) reads of A,
    O(n) scratch. This is the oracle, not the hot path."""
    v = x.coords if isinstance(x, SimplexPoint) else np.asarray(x, dtype=float)
    if v.shape[0] != A.n:
        raise DimensionMismatch(f"dim {v.shape[0]} vs matrix n={A.n}")
    out = A.base.entries @ v
    if A.shift:
        out += A.shift * (v.sum() - v)
    return out


def quadratic_form(A: Operator, x: SimplexPoint | np.ndarray) -> float:
    """Dense x' B x."""
    v = x.coords if isinstance(x, SimplexPoint) else np.asarray(x, dtype=float)
    return float(v @ matvec(A, v))


def offdiag_extremes(A: Operator) -> tuple[float, float]:
    """(min, max) over the off-diagonal entries of B on its active objects,
    tile by tile: tiles off the diagonal are read in place (copied, when
    only some objects are active), diagonal tiles through one tile of
    scratch with their diagonal masked. Rounding is monotone, so adding
    the shift to the extremes of A gives the extremes of B exactly."""
    idx = None if A.active is None else np.flatnonzero(A.active)
    m = A.n if idx is None else idx.size
    if m < 2:
        raise TooSmall("need n >= 2 for off-diagonal extremes")
    E = A.base.entries

    def read(I: slice, J: slice) -> np.ndarray:
        return E[I, J] if idx is None else E[np.ix_(idx[I], idx[J])]

    lo, hi = np.inf, -np.inf
    buf = np.empty((_TILE, _TILE))
    for I, J in _tiles(m):
        if I == J:
            tile = buf[: I.stop - I.start, : I.stop - I.start]
            tile[...] = read(I, I)
            np.fill_diagonal(tile, np.inf)
            lo = min(lo, tile.min())
            np.fill_diagonal(tile, -np.inf)
            hi = max(hi, tile.max())
        else:
            for tile in (read(I, J), read(J, I)):
                lo = min(lo, tile.min())
                hi = max(hi, tile.max())
    return float(lo) + A.shift, float(hi) + A.shift


# The suffixes that np.savetxt compresses and np.loadtxt decompresses.
_COMPRESSED = {".gz": gzip.open, ".bz2": bz2.open,
               ".xz": lzma.open, ".lzma": lzma.open}


def _require_rows(path, what: str) -> None:
    """Raise TooSmall where np.loadtxt would find no rows and warn."""
    with _COMPRESSED.get(Path(path).suffix, open)(path, "rb") as fh:
        if not any(line.split(b"#", 1)[0].strip() for line in fh):
            raise TooSmall(f"{what} has no rows")


def load_matrix_csv(path) -> SimilarityMatrix:
    """Read a header-free CSV of n rows of n comma-separated values.

    The first row gives n, and the matrix is read with a row limit of
    n + 1: numpy then allocates its output once instead of growing it, so
    the load holds one n x n array, not the pieces of a growing one. An
    (n + 1)-th row means the matrix is not square."""
    _require_rows(path, "matrix CSV")
    n = np.loadtxt(path, delimiter=",", ndmin=2, max_rows=1).shape[1]
    arr = np.loadtxt(path, delimiter=",", ndmin=2, max_rows=n + 1)
    if arr.shape[0] > n:
        raise NonSquareMatrix(
            f"expected a square matrix, got more than {n} rows of {n}")
    return _validated(arr)


_FMT = "%.18e"


def save_matrix_csv(path, A: SimilarityMatrix) -> None:
    """Write the bytes of np.savetxt(path, A.entries, delimiter=","): n
    lines of n comma-separated "%.18e" tokens, compressed when the suffix
    is one np.savetxt compresses.

    Each run of rows from _row_chunks is formatted and written on its own,
    so the scratch is a few runs' worth, never an n x n temporary."""
    E = A.entries
    row_fmt = ",".join([_FMT] * E.shape[1]) + "\n"
    with _COMPRESSED.get(Path(path).suffix, open)(path, "wb") as fh:
        for r in _row_chunks(E.shape[0]):
            _write_rows(fh, np.ascontiguousarray(E[r]), row_fmt)


def _write_rows(fh, rows: np.ndarray, row_fmt: str) -> None:
    """Write the CSV lines of `rows`, formatting each distinct float64 bit
    pattern once (so -0.0 and +0.0 stay apart) and gathering the lines
    from a table of fixed-width tokens.

    Rows are formatted line by line, as np.savetxt does, when their values
    are mostly distinct (deduplicating them would cost more than it saves)
    or when the tokens differ in width, which only a negative value, -0.0
    or a three-digit exponent brings about. The distinct values come from
    a plain sort, which is an order of magnitude faster here than
    np.unique."""
    bits = rows.view(np.uint64)
    u = np.sort(bits, axis=None)
    first = np.empty(u.size, dtype=bool)
    first[:1] = True
    np.not_equal(u[1:], u[:-1], out=first[1:])
    uniq = u[first]
    del u, first
    if 2 * uniq.size <= bits.size:
        # One "token," per distinct value; they share one width when
        # every width-th byte is a comma.
        values = tuple(uniq.view(np.float64).tolist())
        flat = np.frombuffer(
            (((_FMT + ",") * uniq.size) % values).encode(), dtype=np.uint8)
        del values
        width = flat.size // uniq.size
        if (flat.size == width * uniq.size
                and (flat[width - 1::width] == ord(",")).all()):
            table = flat.reshape(-1, width)
            cells = table.view(f"V{width}")[:, 0][np.searchsorted(uniq, bits)]
            lines = cells.view(np.uint8)
            lines[:, -1] = ord("\n")
            fh.write(lines)
            return
    for row in rows:
        fh.write((row_fmt % tuple(row)).encode())


def load_features_csv(path) -> np.ndarray:
    """Feature-matrix CSV: one row per object (at least one), d columns,
    all finite."""
    _require_rows(path, "feature CSV")
    F = np.loadtxt(path, delimiter=",", ndmin=2)
    if not np.isfinite(F).all():
        raise NonFiniteEntry("features must be finite (no NaN or inf)")
    return F
