"""Similarity-matrix construction pipelines and synthetic dataset
generators.

Minimax distances are computed through the minimum spanning tree: the
largest edge on the unique MST path between two nodes equals the minimum
over all paths of the maximum edge weight. These are the merge heights of
single linkage (Gower & Ross, Applied Statistics 1969): taking the MST
edges in increasing weight, the edge that merges two clusters is the
distance between every pair across them. Prim's algorithm and one block
write per merge give an exact O(n^2) method on dense inputs.

Every similarity builder works in the n x n array it returns, with O(n)
or tile-sized scratch, and hands that array to the matrix validator
without a copy. The generator `block_noise_matrix` draws and combines
whole n x n arrays instead: it peaks at about 4.3 of them (tracemalloc,
n = 512).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AsymmetricMatrix,
    HsvRangeError,
    NonFiniteEntry,
    ZeroNormRow,
)
from .matrix import (
    _TILE,
    SimilarityMatrix,
    _asymmetry,
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
    F = np.asarray(features, dtype=float)
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


def hsv_features(pixels) -> np.ndarray:
    """Map (h in radians, s in [0,1], v in [0,1]) pixels to the 3-d
    feature (v, v*s*sin(h), v*s*cos(h))."""
    arr = np.asarray(pixels, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise HsvRangeError("expected pixels as rows of (h, s, v)")
    h, s, v = arr[:, 0], arr[:, 1], arr[:, 2]
    if np.any((s < 0) | (s > 1)) or np.any((v < 0) | (v > 1)):
        raise HsvRangeError("s and v must lie in [0, 1]")
    return np.column_stack([v, v * s * np.sin(h), v * s * np.cos(h)])


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
    F = np.asarray(features, dtype=float)
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
    outside node's distance to the tree and inf for tree nodes. Then the
    tree edges are taken in increasing weight, as single linkage merges
    clusters: the edge (u, p) of weight w joins the clusters C_u and C_p,
    every tree path between them crosses it and otherwise uses lighter
    or equal edges, so out[C_u x C_p] = w. Each entry is written once, by
    O(n) block writes in all.
    """
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    # min and max propagate NaN; a NaN distance would compare False
    # everywhere below and vanish from the tree.
    if not (np.isfinite(D.min(initial=0.0))
            and np.isfinite(D.max(initial=0.0))):
        raise NonFiniteEntry("distances must be finite (no NaN or inf)")
    if _asymmetry(D) > 0:
        raise AsymmetricMatrix("distance matrix must be symmetric")
    parent = np.full(n, -1, dtype=int)
    outside = np.ones(n, dtype=bool)
    best = np.full(n, np.inf)
    best[0] = 0.0
    closer = np.empty(n, dtype=bool)
    joined = []
    for _ in range(n):
        u = int(best.argmin())
        outside[u] = False
        best[u] = np.inf
        if parent[u] >= 0:
            joined.append(u)
        row = D[u]
        np.less(row, best, out=closer)
        closer &= outside
        np.copyto(best, row, where=closer)
        np.copyto(parent, u, where=closer)
    joined = np.array(joined, dtype=int)
    weights = D[joined, parent[joined]]
    order = np.argsort(weights, kind="stable")
    edges = joined[order]
    out = np.zeros((n, n))
    owner = np.arange(n)
    members = [np.array([i]) for i in range(n)]
    for u, p, w in zip(edges.tolist(), parent[edges].tolist(),
                       weights[order].tolist()):
        a, b = owner[u], owner[p]
        if members[a].size < members[b].size:
            a, b = b, a
        ma, mb = members[a], members[b]
        out[ma[:, None], mb] = w
        out[mb[:, None], ma] = w
        owner[mb] = a
        members[a] = np.concatenate((ma, mb))
        members[b] = None
    return out


def max_transform(D) -> SimilarityMatrix:
    """Similarity a_ij = max(D) - D_ij off-diagonal; the diagonal is
    forced to zero to keep self-similarities out of the objective."""
    D = np.asarray(D, dtype=float)
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
    if k > n:
        raise ValueError("k must not exceed n")
    rng = np.random.default_rng(seed)
    truth = rng.integers(1, k + 1, size=n)
    same = truth[:, None] == truth[None, :]
    mu = rng.uniform(size=(n, n))
    z = (rng.uniform(size=(n, n)) >= noise).astype(float)
    A = np.where(same, z * mu, 0.0)
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
