"""Similarity-matrix construction pipelines and synthetic dataset
generators.

Minimax distances are computed through the minimum spanning tree: the
largest edge on the unique MST path between two nodes equals the minimum
over all paths of the maximum edge weight. Filling the distances in the
order Prim's algorithm adds nodes gives an exact O(n^2) method on dense
inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import AsymmetricMatrix, HsvRangeError, ZeroNormRow
from .matrix import SimilarityMatrix, new_similarity_matrix

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
    G = (G + G.T) / 2.0
    A = G + shift
    np.fill_diagonal(A, 0.0)
    A[np.abs(A) <= 1e-12] = 0.0
    return new_similarity_matrix(A)


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


def pairwise_euclidean(features) -> np.ndarray:
    F = np.asarray(features, dtype=float)
    sq = np.sum(F**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (F @ F.T)
    np.clip(d2, 0.0, None, out=d2)
    D = np.sqrt(d2)
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    return D


def minimax_distances(D) -> np.ndarray:
    """Bottleneck distance matrix: entry (i,j) is the minimum over paths
    from i to j of the maximum edge weight along the path.

    Prim's algorithm on the complete graph, filling the output in the
    order nodes join the tree: when u joins through parent p with edge
    weight w, its path to every tree node t runs through p, so
    out[u, t] = max(out[p, t], w). Each node costs O(n) numpy work, with
    no Python work per pair of nodes.
    """
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if np.max(np.abs(D - D.T), initial=0.0) > 0:
        raise AsymmetricMatrix("distance matrix must be symmetric")
    parent = np.full(n, -1, dtype=int)
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    best[0] = 0.0
    order = np.empty(n, dtype=int)
    out = np.zeros((n, n))
    for k in range(n):
        u = int(np.argmin(np.where(in_tree, np.inf, best)))
        in_tree[u] = True
        p = parent[u]
        if p >= 0:
            tree = order[:k]
            row = np.maximum(out[p, tree], D[u, p])
            out[u, tree] = row
            out[tree, u] = row
        order[k] = u
        closer = ~in_tree & (D[u] < best)
        best[closer] = D[u, closer]
        parent[closer] = u
    return out


def max_transform(D) -> SimilarityMatrix:
    """Similarity a_ij = max(D) - D_ij off-diagonal; the diagonal is
    forced to zero to keep self-similarities out of the objective."""
    D = np.asarray(D, dtype=float)
    A = D.max(initial=0.0) - D
    np.fill_diagonal(A, 0.0)
    return new_similarity_matrix(A)


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
    return new_similarity_matrix(A), truth


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
