"""Similarity-matrix construction pipelines and synthetic dataset
generators.

Minimax distances rest on the minimum spanning tree: the largest edge on
the tree path between two nodes is the minimum over all paths of the
maximum edge weight. `minimax_distances` writes each node's row as
Prim's algorithm adds it, an exact O(n^2) method on dense inputs.

Every similarity builder works in the n x n array it returns, with O(n)
or tile-sized scratch, and hands that array to the matrix validator
without a copy. The generator `block_noise_matrix` draws whole n x n
arrays instead and masks the first in place: it peaks at about 2.1 of
them (tracemalloc, n = 512).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AsymmetricMatrix,
    NegativeEntry,
    NonFiniteEntry,
    ZeroNormRow,
)
from .matrix import (
    _TILE,
    SimilarityMatrix,
    _asymmetry,
    _features,
    _require_square,
    _row_chunks,
    _tiles,
    _validated,
)

GAUSS_MEANS = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
GAUSS_PROPORTIONS = (0.1, 0.2, 0.3, 0.4)
BACKGROUND_BOX = (-5.0, 15.0)


def cosine_similarity(features, shift: float = 0.0) -> SimilarityMatrix:
    """Pairwise cosine similarity with off-diagonals shifted by `shift`
    (shift=1 guarantees nonnegative entries)."""
    F = _features(features)
    norms = np.linalg.norm(F, axis=1)
    if np.any(norms == 0):
        raise ZeroNormRow("cosine similarity undefined for zero-norm rows")
    G = (F / norms[:, None]) @ (F / norms[:, None]).T
    _symmetrize(G)
    G += shift
    np.fill_diagonal(G, 0.0)
    for r in _row_chunks(G.shape[0]):
        rows = G[r]
        rows[np.abs(rows) <= 1e-12] = 0.0
    return _validated(G)


def _symmetrize(M: np.ndarray) -> None:
    """M <- (M + M') / 2 in place, tile by tile. (a + b) / 2 and
    (b + a) / 2 are the same float, so each tile pair is averaged once
    and written to both places."""
    buf = np.empty((_TILE, _TILE))
    for I, J in _tiles(M.shape[0]):
        tile = buf[: I.stop - I.start, : J.stop - J.start]
        np.add(M[I, J], M[J, I].T, out=tile)
        tile /= 2.0
        M[I, J] = tile
        M[J, I] = tile.T


def pairwise_euclidean(features) -> np.ndarray:
    """Euclidean distances, worked out in the output G = FF' itself, row
    chunk by row chunk: d2_ij = (s_i + s_j) - 2 g_ij with s the squared
    norms, clipped at 0 and square-rooted; then symmetrised."""
    F = _features(features)
    sq = np.sum(F**2, axis=1)
    D = F @ F.T
    for r in _row_chunks(D.shape[0]):
        rows = D[r]
        rows *= -2.0  # exact, and x + (-y) is x - y
        rows += sq[r, None] + sq
        np.clip(rows, 0.0, None, out=rows)
        np.sqrt(rows, out=rows)
    _symmetrize(D)
    np.fill_diagonal(D, 0.0)
    return D


def minimax_distances(D) -> np.ndarray:
    """Bottleneck distance matrix: entry (i,j) is the minimum over paths
    from i to j of the maximum edge weight along the path.

    Prim's algorithm builds the minimum spanning tree; `best` holds each
    outside node's distance to the tree (inf for tree nodes) and `order`
    the tree nodes in join order. The tree path from a joining node u to
    any earlier node t runs through u's parent p, so out[u, t] =
    max(out[p, t], D[u, p]); at t = p that takes out[p, p] = 0 as the
    distance from p to itself, which is why distances must be nonnegative.
    """
    D = np.asarray(D, dtype=float)
    n = _require_square(D)
    # min and max propagate NaN; a NaN distance would compare False
    # everywhere below and vanish from the tree.
    lo, hi = D.min(), D.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NonFiniteEntry("distances must be finite (no NaN or inf)")
    if lo < 0:
        raise NegativeEntry("distances must be nonnegative")
    if _asymmetry(D) > 0:
        raise AsymmetricMatrix("distance matrix must be symmetric")
    parent = np.full(n, -1, dtype=int)
    outside = np.ones(n, dtype=bool)
    best = np.full(n, np.inf)
    best[0] = 0.0
    closer = np.empty(n, dtype=bool)
    order = np.empty(n, dtype=int)
    out = np.zeros((n, n))
    for k in range(n):
        u = int(best.argmin())
        outside[u] = False
        best[u] = np.inf
        p = parent[u]
        if p >= 0:
            tree = order[:k]
            out[u, tree] = out[tree, u] = np.maximum(out[p, tree], D[u, p])
        order[k] = u
        row = D[u]
        np.less(row, best, out=closer)
        closer &= outside
        np.copyto(best, row, where=closer)
        np.copyto(parent, u, where=closer)
    return out


def max_transform(D) -> SimilarityMatrix:
    """Similarity a_ij = max(D) - D_ij off-diagonal; the diagonal is
    forced to zero to keep self-similarities out of the objective."""
    D = np.asarray(D, dtype=float)
    _require_square(D)
    A = D.max(initial=0.0) - D
    np.fill_diagonal(A, 0.0)
    return _validated(A)


def block_noise_matrix(
    n: int, k: int, noise: float, seed=None
) -> tuple[SimilarityMatrix, np.ndarray]:
    """Planted-cluster similarity matrix: objects fall uniformly into k
    clusters; within-cluster entries are z*mu with mu ~ U(0,1) and
    z ~ Bernoulli(1 - noise); cross-cluster entries are zero."""
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    if not 1 <= k <= n:
        raise ValueError("k must lie in [1, n]")
    rng = np.random.default_rng(seed)
    truth = rng.integers(1, k + 1, size=n)
    A = rng.uniform(size=(n, n))  # mu
    A *= rng.uniform(size=(n, n)) >= noise  # z
    A *= truth[:, None] == truth[None, :]
    A = np.triu(A, 1)
    A = A + A.T
    return _validated(A), truth


def gauss_dataset(
    n: int,
    noise: float,
    seed=None,
    background_as_class: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Four 2-d Gaussian clusters (identity covariance, 10-sigma-separated
    means) plus round(noise*n) uniform background points over the bounding
    box. Background points carry truth label 5 by default, or 0 when
    background_as_class is False."""
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n1 = int(round(noise * n))
    n2 = n - n1
    sizes = [int(round(p * n2)) for p in GAUSS_PROPORTIONS[:-1]]
    sizes.append(n2 - sum(sizes))
    points = []
    labels = []
    for c, (mean, size) in enumerate(zip(GAUSS_MEANS, sizes), start=1):
        points.append(rng.normal(loc=mean, scale=1.0, size=(size, 2)))
        labels.append(np.full(size, c))
    lo, hi = BACKGROUND_BOX
    points.append(rng.uniform(lo, hi, size=(n1, 2)))
    labels.append(np.full(n1, 5 if background_as_class else 0))
    F = np.vstack(points)
    truth = np.concatenate(labels).astype(int)
    perm = rng.permutation(n)
    return F[perm], truth[perm]
