"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

from dscfw.matrix import SimilarityMatrix, new_similarity_matrix


def rand_sim(n: int, rng) -> SimilarityMatrix:
    """Random symmetric nonnegative zero-diagonal similarity matrix."""
    upper = np.triu(rng.uniform(size=(n, n)), 1)
    return new_similarity_matrix(upper + upper.T)


def bruteforce_minimax(D):
    """Minimax distances by enumerating every simple path (n <= ~8)."""
    n = D.shape[0]
    out = np.zeros((n, n))
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            best = math.inf
            stack = [(src, 0.0, 1 << src)]
            while stack:
                node, running_max, visited = stack.pop()
                if node == dst:
                    best = min(best, running_max)
                    continue
                for nb in range(n):
                    if nb == node or (visited >> nb) & 1:
                        continue
                    nxt = max(running_max, D[node, nb])
                    if nxt < best:
                        stack.append((nb, nxt, visited | (1 << nb)))
            out[src, dst] = best
    return out


@pytest.fixture
def A3() -> SimilarityMatrix:
    """Small worked-example matrix used by the frozen-value tests."""
    return new_similarity_matrix([[0.0, 2.0, 1.0],
                                  [2.0, 0.0, 3.0],
                                  [1.0, 3.0, 0.0]])


@pytest.fixture
def two_blocks() -> SimilarityMatrix:
    """Two disconnected 2-object clusters: {0,1} and {2,3}."""
    return new_similarity_matrix([[0.0, 1.0, 0.0, 0.0],
                                  [1.0, 0.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0, 1.0],
                                  [0.0, 0.0, 1.0, 0.0]])
