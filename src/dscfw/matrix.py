"""Similarity matrices and simplex points with their validity contracts.

One validator, `_validated`, checks every similarity matrix. It takes
ownership of a fresh float64 array, checks it in place and freezes it,
so constructors that build their own array hand it over without a copy;
`new_similarity_matrix` copies its argument first. Whole-matrix scans
(symmetry, off-diagonal extremes) walk square tiles of _TILE x _TILE, so
their scratch is one tile, not an n x n temporary.

The dense primitives here (matvec, quadratic_form) are deliberately O(n^2):
they serve as oracles against the solvers' O(n) incremental updates.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)


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

    Raises NonSquareMatrix, NonFiniteEntry, AsymmetricMatrix,
    NegativeEntry or NonzeroDiagonal (all ValueErrors) when the respective
    contract is violated. Diagonal entries within 1e-12 of zero are forced
    to exactly zero.
    """
    return _validated(np.array(raw, dtype=float))


def matvec(A: SimilarityMatrix, x: SimplexPoint | np.ndarray) -> np.ndarray:
    """Dense A @ x. This is the oracle, not the hot path."""
    v = x.coords if isinstance(x, SimplexPoint) else np.asarray(x, dtype=float)
    if v.shape[0] != A.n:
        raise DimensionMismatch(f"dim {v.shape[0]} vs matrix n={A.n}")
    return A.entries @ v


def quadratic_form(A: SimilarityMatrix, x: SimplexPoint | np.ndarray) -> float:
    """Dense x' A x."""
    v = x.coords if isinstance(x, SimplexPoint) else np.asarray(x, dtype=float)
    if v.shape[0] != A.n:
        raise DimensionMismatch(f"dim {v.shape[0]} vs matrix n={A.n}")
    return float(v @ (A.entries @ v))


def offdiag_extremes(A: SimilarityMatrix) -> tuple[float, float]:
    """(min, max) over all off-diagonal entries, tile by tile: tiles off
    the diagonal are read in place, diagonal tiles through one tile of
    scratch with their diagonal masked."""
    if A.n < 2:
        raise TooSmall("need n >= 2 for off-diagonal extremes")
    E = A.entries
    lo, hi = np.inf, -np.inf
    buf = np.empty((_TILE, _TILE))
    for I, J in _tiles(A.n):
        if I == J:
            tile = buf[: I.stop - I.start, : I.stop - I.start]
            tile[...] = E[I, I]
            np.fill_diagonal(tile, np.inf)
            lo = min(lo, tile.min())
            np.fill_diagonal(tile, -np.inf)
            hi = max(hi, tile.max())
        else:
            for tile in (E[I, J], E[J, I]):
                lo = min(lo, tile.min())
                hi = max(hi, tile.max())
    return float(lo), float(hi)


def load_matrix_csv(path) -> SimilarityMatrix:
    """Read a header-free CSV of n rows of n comma-separated values."""
    return _validated(np.loadtxt(path, delimiter=",", ndmin=2))


def save_matrix_csv(path, A: SimilarityMatrix) -> None:
    np.savetxt(path, A.entries, delimiter=",")


def load_features_csv(path) -> np.ndarray:
    """Feature-matrix CSV: one row per object, d columns."""
    return np.loadtxt(path, delimiter=",", ndmin=2)
