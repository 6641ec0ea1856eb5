"""Dominant set clustering driver: solve, cut the support into a cluster,
peel the clustered objects off the matrix, repeat.

Every round solves over the one immutable input matrix: round k is the
StQP of A_SS + s(11' - I) over the objects S not yet clustered, which the
solvers read as a `ShiftedMatrix` (rows of A, a scalar shift and an
active mask), so no round builds a matrix of its own."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyCluster, NoClusters
from .matrix import ShiftedMatrix, SimilarityMatrix, SimplexPoint, _validated
from .solvers import SolverConfig, StepRecord, StopReason, run

DEFAULT_CUTOFF = 2e-12


@dataclass
class ClusteringResult:
    """Labels in {0,...,K}; label 0 means unassigned. ``stop_reasons`` and
    ``last_gaps`` hold one entry per solve, in solve order (a singleton
    remainder is labelled without a solve); a last gap is the full gap
    before the solve's last step, NaN when it took none. ``traces`` holds
    each solve's trace for `peel` and stays empty for multistart; its
    ``s_index`` and ``v_index`` are global object indices, in every
    round."""

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
        check_cutoff(self.cutoff)
        if not 0.0 <= self.shift < math.inf:
            raise ValueError("shift must be finite and nonnegative")


def check_cutoff(cutoff: float) -> None:
    """Reject a support cutoff that is not positive and finite (NaN
    included): no coordinate would pass it, or every one would."""
    if not 0.0 < cutoff < math.inf:
        raise ValueError("cutoff must be positive and finite")


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
    """A + shift * (11' - I), dense and validated: the oracle for what a
    shifted peel round solves."""
    if shift == 0.0:
        return A
    return _validated(ShiftedMatrix(A, shift).entries)


def peel(A: SimilarityMatrix, config: PeelConfig) -> ClusteringResult:
    """Run up to max_clusters rounds of solve / extract / remove. Round 1
    solves A itself when the shift is 0; every other round solves a
    `ShiftedMatrix` over A and the objects not yet clustered."""
    n = A.n
    labels = np.zeros(n, dtype=int)
    clusters: list[list[int]] = []
    vectors: list[np.ndarray] = []
    traces: list[list[StepRecord]] = []
    reasons: list[StopReason] = []
    gaps: list[float] = []
    active = np.ones(n, dtype=bool)
    for label in range(1, config.max_clusters + 1):
        left = int(np.count_nonzero(active))
        if left == 0:
            break
        if left == 1:
            # A 1-object remainder is not a valid StQP instance; it gets
            # its own cluster label directly.
            obj = int(np.flatnonzero(active)[0])
            labels[obj] = label
            clusters.append([obj])
            vec = np.zeros(n)
            vec[obj] = 1.0
            vectors.append(vec)
            break
        if left == n and config.shift == 0.0:
            round_matrix = A
        else:
            round_matrix = ShiftedMatrix(A, config.shift,
                                         None if left == n else active)
        x_star, trace, reason = run(round_matrix, config.solver)
        traces.append(trace)
        reasons.append(reason)
        gaps.append(last_gap(trace))
        try:
            members = extract_support(x_star, config.cutoff)
        except EmptyCluster:
            break
        labels[members] = label
        clusters.append(members)
        vectors.append(x_star.coords)  # zero off the active objects
        active = active.copy()  # the round's matrix keeps its own mask
        active[members] = False
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
