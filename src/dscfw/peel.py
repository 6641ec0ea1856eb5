"""Dominant set clustering driver: solve, cut the support into a cluster,
peel the clustered objects off the matrix, repeat."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyCluster, NoClusters
from .matrix import SimilarityMatrix, SimplexPoint, _validated
from .solvers import SolverConfig, StepRecord, StopReason, run

DEFAULT_CUTOFF = 2e-12


@dataclass
class ClusteringResult:
    """Labels in {0,...,K}; label 0 means unassigned. ``stop_reasons`` and
    ``last_gaps`` hold one entry per solve, in solve order (a singleton
    remainder is labelled without a solve); a last gap is the full gap
    before the solve's last step, NaN when it took none. ``traces`` holds
    each solve's trace for `peel` and stays empty for multistart."""

    labels: np.ndarray
    clusters: list[list[int]]
    characteristic_vectors: list[np.ndarray]  # full-length, zero off-cluster
    assigned_count: int
    traces: list[list[StepRecord]] = field(default_factory=list)
    stop_reasons: list[StopReason] = field(default_factory=list)
    last_gaps: list[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def assignment_rate(self) -> float:
        return self.assigned_count / self.n


@dataclass
class PeelConfig:
    max_clusters: int
    solver: SolverConfig = field(default_factory=SolverConfig)
    cutoff: float = DEFAULT_CUTOFF
    shift: float = 0.0
    post_assign: bool = False

    def __post_init__(self) -> None:
        if self.max_clusters < 1:
            raise ValueError("max_clusters must be >= 1")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if not 0.0 <= self.shift < math.inf:
            raise ValueError("shift must be finite and nonnegative")


def last_gap(trace: list[StepRecord]) -> float:
    """Full gap before the last step of a trace; NaN for an empty trace."""
    return trace[-1].gap if trace else math.nan


def extract_support(x: SimplexPoint, cutoff: float) -> list[int]:
    """Indices with coordinate above the cutoff."""
    idx = [int(i) for i in np.nonzero(x.coords > cutoff)[0]]
    if not idx:
        raise EmptyCluster("no component exceeds the cutoff")
    return idx


def shift_offdiag(A: SimilarityMatrix, shift: float) -> SimilarityMatrix:
    """A + shift * (11' - I), validated."""
    if shift == 0.0:
        return A
    arr = A.entries + shift
    np.fill_diagonal(arr, 0.0)
    return _validated(arr)


def _round_matrix(A: SimilarityMatrix, idx: np.ndarray,
                  shift: float) -> SimilarityMatrix:
    """The matrix one peel round solves: A restricted to idx, shifted like
    `shift_offdiag`; A itself when that changes nothing. Fancy indexing
    already copies, so the shift goes in place; a finite nonnegative
    off-diagonal shift keeps a valid matrix valid, so it is not validated
    again."""
    if shift == 0.0 and idx.size == A.n:
        return A
    sub = A.entries[np.ix_(idx, idx)]
    if shift != 0.0:
        sub += shift
        np.fill_diagonal(sub, 0.0)
    sub.setflags(write=False)
    return SimilarityMatrix(sub)


def peel(A: SimilarityMatrix, config: PeelConfig) -> ClusteringResult:
    """Run up to max_clusters rounds of solve / extract / remove."""
    n = A.n
    labels = np.zeros(n, dtype=int)
    clusters: list[list[int]] = []
    vectors: list[np.ndarray] = []
    traces: list[list[StepRecord]] = []
    reasons: list[StopReason] = []
    gaps: list[float] = []
    surviving = np.arange(n)
    for label in range(1, config.max_clusters + 1):
        if surviving.size == 0:
            break
        if surviving.size == 1:
            # A 1-object remainder is not a valid StQP instance; it gets
            # its own cluster label directly.
            obj = int(surviving[0])
            labels[obj] = label
            clusters.append([obj])
            vec = np.zeros(n)
            vec[obj] = 1.0
            vectors.append(vec)
            surviving = surviving[:0]
            break
        sub = _round_matrix(A, surviving, config.shift)
        x_star, trace, reason = run(sub, config.solver)
        traces.append(trace)
        reasons.append(reason)
        gaps.append(last_gap(trace))
        try:
            local = extract_support(x_star, config.cutoff)
        except EmptyCluster:
            break
        members = [int(surviving[i]) for i in local]
        labels[members] = label
        clusters.append(members)
        vec = np.zeros(n)
        vec[surviving] = x_star.coords
        vectors.append(vec)
        keep = np.ones(surviving.size, dtype=bool)
        keep[local] = False
        surviving = surviving[keep]
        # Free this round's matrix before the next round builds its own.
        del sub
    result = ClusteringResult(
        labels=labels,
        clusters=clusters,
        characteristic_vectors=vectors,
        assigned_count=int(np.count_nonzero(labels)),
        traces=traces,
        stop_reasons=reasons,
        last_gaps=gaps,
    )
    if config.post_assign:
        result = post_assign(result, A)
    return result


def post_assign(result: ClusteringResult, A: SimilarityMatrix) -> ClusteringResult:
    """Attach every unassigned object to the cluster with highest average
    similarity; ties go to the lowest cluster label."""
    if not result.clusters:
        raise NoClusters("post-assignment needs at least one cluster")
    labels = result.labels.copy()
    unassigned = np.nonzero(labels == 0)[0]
    if unassigned.size == 0:
        return result
    means = np.column_stack([
        A.entries[:, members].mean(axis=1) for members in result.clusters
    ])
    labels[unassigned] = np.argmax(means[unassigned], axis=1) + 1
    clusters = [list(c) for c in result.clusters]
    for j in unassigned:
        clusters[labels[j] - 1].append(int(j))
    return replace(
        result,
        labels=labels,
        clusters=clusters,
        assigned_count=int(np.count_nonzero(labels)),
    )
