"""Clustering-quality metrics: adjusted Rand index, V-measure, and
assignment rate.

Predicted labels are nonnegative, and label 0 means unassigned. By
default ARI and V-measure are computed over the objects the prediction
actually assigned (pred label > 0); pass include_unassigned=True to
treat label 0 as a regular cluster instead.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyOverlap, LengthMismatch, NegativeEntry


def _predicted(pred) -> np.ndarray:
    labels = np.asarray(pred, dtype=int)
    if np.any(labels < 0):
        raise NegativeEntry("predicted labels must be nonnegative")
    return labels


def assignment_rate(pred) -> float:
    labels = _predicted(pred)
    if labels.size == 0:
        raise LengthMismatch("empty label vector")
    return float(np.count_nonzero(labels) / labels.size)


def _restrict(pred, truth, include_unassigned: bool):
    p = _predicted(pred)
    t = np.asarray(truth, dtype=int)
    if p.shape != t.shape:
        raise LengthMismatch(f"{p.shape} vs {t.shape}")
    if not include_unassigned:
        mask = p > 0
        p, t = p[mask], t[mask]
    if p.size == 0:
        raise EmptyOverlap("no assigned objects to score")
    return p, t


def _contingency(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    _, pi = np.unique(p, return_inverse=True)
    _, ti = np.unique(t, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def _comb2(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    return x * (x - 1) // 2


def ari(pred, truth, include_unassigned: bool = False) -> float:
    """Adjusted-for-chance Rand index (Hubert-Arabie)."""
    p, t = _restrict(pred, truth, include_unassigned)
    table = _contingency(p, t)
    n = p.size
    sum_ij = _comb2(table).sum()
    sum_a = _comb2(table.sum(axis=1)).sum()
    sum_b = _comb2(table.sum(axis=0)).sum()
    total = _comb2(n)
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        # Both partitions are trivial (all singletons or one block each);
        # they agree perfectly.
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def _entropy(counts: np.ndarray, n: int) -> float:
    counts = counts[counts > 0]
    pr = counts / n
    return float(-(pr * np.log(pr)).sum())


def v_measure(pred, truth, include_unassigned: bool = False) -> float:
    """Harmonic mean of homogeneity and completeness (natural-log
    entropies; 0/0 conditional terms follow the value-1 convention)."""
    p, t = _restrict(pred, truth, include_unassigned)
    table = _contingency(p, t).astype(float)
    n = p.size
    h_t = _entropy(table.sum(axis=0), n)
    h_p = _entropy(table.sum(axis=1), n)
    nz = table > 0
    # H(truth | pred) and H(pred | truth) from the joint table.
    joint = table[nz] / n
    rows = table.sum(axis=1, keepdims=True)
    cols = table.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        h_t_given_p = float(-(joint * np.log((table / rows)[nz])).sum())
        h_p_given_t = float(-(joint * np.log((table / cols)[nz])).sum())
    homogeneity = 1.0 if h_t == 0 else 1.0 - h_t_given_p / h_t
    completeness = 1.0 if h_p == 0 else 1.0 - h_p_given_t / h_p
    if homogeneity + completeness == 0:
        return 0.0
    return 2.0 * homogeneity * completeness / (homogeneity + completeness)
