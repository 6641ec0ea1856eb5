"""Shared fixtures and helpers for the test suite."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from dscfw.matrix import SimilarityMatrix, new_similarity_matrix


def rand_sim(n: int, rng) -> SimilarityMatrix:
    """Random symmetric nonnegative zero-diagonal similarity matrix."""
    upper = np.triu(rng.uniform(size=(n, n)), 1)
    return new_similarity_matrix(upper + upper.T)


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not JSON")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not
    JSON but which Python's parser accepts: a CLI line or manifest holding
    one fails the test that reads it."""
    return json.loads(text, parse_constant=_refuse_constant)


def extract_support(x: np.ndarray, cutoff: float) -> list[int]:
    """Indices with coordinate above the cutoff, as the reference drivers
    take a cluster from a solution; empty when there are none."""
    return [int(i) for i in np.nonzero(x > cutoff)[0]]


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


def prim_order_minimax(D):
    """Minimax distances filled in the order Prim's algorithm adds nodes:
    when u joins through parent p with edge weight w,
    out[u, t] = max(out[p, t], w) for every tree node t. This is the
    earlier implementation, kept verbatim as an exact oracle."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
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


def formula_euclidean(features):
    """Euclidean distances by the whole-matrix formula, kept verbatim from
    the earlier implementation as an exact oracle."""
    F = np.asarray(features, dtype=float)
    sq = np.sum(F**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (F @ F.T)
    np.clip(d2, 0.0, None, out=d2)
    D = np.sqrt(d2)
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    return D


def fw_gap(state) -> tuple[float, int]:
    """Full Frank-Wolfe gap 2*(max(r) - f) of a solver state over its
    active objects, and the maximizing index: the arithmetic the solver
    loop evaluates once per iteration, kept apart as an oracle."""
    rt, pen = state.rt, state.fw_pen
    scan = rt if pen is None else np.add(rt, pen, out=state.buf)
    i = int(scan.argmax())
    return 2.0 * (state.cr * rt.item(i) + state.s - state.f), i


def step_key(rec):
    """What a traced step chose: its kind and its two vertices."""
    return rec.kind, rec.s_index, rec.v_index


def assert_tie(rec, want):
    """Two solves took different vertices at this step: assert that the
    vertices they took tie within rounding."""
    assert rec.r_s == pytest.approx(want.r_s, rel=1e-12)
    if not (math.isnan(rec.r_v) or math.isnan(want.r_v)):
        assert rec.r_v == pytest.approx(want.r_v, rel=1e-12)


def traced_peak(fn, *args, **kwargs):
    """Run fn(*args, **kwargs) under tracemalloc, which counts numpy
    buffers too. Returns (peak traced bytes above those traced at entry,
    fn's result); the result counts towards the peak."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peak - base, result


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
