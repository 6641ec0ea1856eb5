"""Dominant set clustering driver: solve, cut the support into a cluster,
peel the clustered objects off the matrix, repeat (Pavan & Pelillo, TPAMI
2007). `peel` and `multistart.multistart_cluster` share the one round
loop, `_drive`, and only propose each round's solves. Both cluster the
operator they are given, A or `ShiftedMatrix(A, s)`: round k is the StQP
of A_SS + s(11' - I) over the objects S not yet clustered, which the
solvers read as `ShiftedMatrix(A, s, S)` (rows of A, a scalar shift and
an active mask), so no peel round builds a matrix of its own."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoClusters
from .matrix import Operator, ShiftedMatrix, SimilarityMatrix, _validated
from .solvers import (SolverConfig, StepRecord, StopReason, _require_count,
                      run)

CUTOFF = 2e-12  # a cluster is the support of a solution above this


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
    # The solve's x, full-length and zero off its round's objects.
    characteristic_vectors: list[np.ndarray]
    traces: list[list[StepRecord]] = field(default_factory=list)
    stop_reasons: list[StopReason] = field(default_factory=list)
    last_gaps: list[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def assigned_count(self) -> int:
        return int(np.count_nonzero(self.labels))

    @property
    def assignment_rate(self) -> float:
        return self.assigned_count / self.n


@dataclass
class PeelConfig:
    """Up to max_clusters rounds, each solved by `solver`; a round's cluster
    is the support of its solution above `CUTOFF`."""

    max_clusters: int
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        _require_count(self.max_clusters, "max_clusters", 1)


def shift_offdiag(A: SimilarityMatrix, shift: float) -> SimilarityMatrix:
    """A + shift * (11' - I), dense and validated: the oracle for what
    `ShiftedMatrix(A, shift)`, and so a shifted peel round, solves."""
    if shift == 0.0:
        return A
    ShiftedMatrix(A, shift)  # the one check of a shift
    arr = A.entries + shift
    np.fill_diagonal(arr, 0.0)
    return _validated(arr)


Candidate = tuple[float, np.ndarray, list[StepRecord], StopReason]


def _drive(A: Operator, config: PeelConfig, overlap: float,
           propose: Callable[[Operator], list[Candidate]]
           ) -> tuple[ClusteringResult, int]:
    """The one clustering loop, shared by `peel` and multistart. Each round,
    `propose(B)` solves B, which is A over the objects not yet clustered (A
    itself in round 1), and returns its solves in solve order as (f, x over all
    n objects and zero off the active ones, trace, stop reason). The candidates
    are taken in decreasing f; one is skipped when its support is empty or more
    than `overlap` of it was taken this round, and accepting stops at
    max_clusters. An accepted candidate becomes a cluster of its members not
    yet taken; as overlap < 1, it has at least one. A 1-object remainder is
    labelled without a solve. Returns the result and the number of rounds."""
    if A.active is not None:
        raise ValueError("a driver sets the active mask; A must have none")
    n, max_clusters = A.n, config.max_clusters
    labels = np.zeros(n, dtype=int)
    clusters: list[list[int]] = []
    vectors: list[np.ndarray] = []
    reasons: list[StopReason] = []
    gaps: list[float] = []
    active = np.ones(n, dtype=bool)
    rounds = 0
    while len(clusters) < max_clusters:
        left = np.flatnonzero(active)
        if left.size < 2:
            # A 1-object remainder is not a valid StQP instance; it gets
            # its own cluster label directly.
            if left.size == 1:
                labels[left] = len(clusters) + 1
                clusters.append(left.tolist())
                vectors.append(active.astype(float))
            break
        candidates = propose(A if left.size == n
                             else ShiftedMatrix(A.base, A.shift, active))
        rounds += 1
        for _, _, trace, reason in candidates:
            reasons.append(reason)
            gaps.append(trace[-1].gap if trace else math.nan)
        active = active.copy()  # the round's operator keeps its own mask
        before = len(clusters)
        for _, x, _, _ in sorted(candidates, key=lambda c: -c[0]):
            if len(clusters) == max_clusters:
                break
            support = x > CUTOFF
            size = int(np.count_nonzero(support))
            # Supports lie in the round's active set, so the part that is
            # no longer active was taken by this round's earlier clusters.
            if size == 0 or (int(np.count_nonzero(support & ~active)) / size
                             > overlap):
                continue
            members = np.flatnonzero(support & active)
            active[members] = False
            labels[members] = len(clusters) + 1
            clusters.append(members.tolist())
            vectors.append(x)
        if len(clusters) == before:
            break
    result = ClusteringResult(labels, clusters, vectors,
                              stop_reasons=reasons, last_gaps=gaps)
    return result, rounds


def peel(A: Operator, config: PeelConfig) -> ClusteringResult:
    """Run up to max_clusters rounds of solve / extract / remove on A, a
    `SimilarityMatrix` or `ShiftedMatrix(A, s)` without an active mask."""

    traces: list[list[StepRecord]] = []

    def propose(B: Operator) -> list[Candidate]:
        x, trace, reason = run(B, config.solver)
        traces.append(trace)
        return [(0.0, x, trace, reason)]  # one solve: f is moot

    result = _drive(A, config, 0.0, propose)[0]
    result.traces = traces
    return result


def post_assign(result: ClusteringResult, A: Operator) -> ClusteringResult:
    """Attach every unassigned object to the cluster with highest average
    similarity; ties go to the lowest cluster label. A, the matrix or the
    `ShiftedMatrix` that was clustered, is read unshifted: no unassigned
    object is a member, so a shift adds one constant to every average."""
    if not result.clusters:
        raise NoClusters("post-assignment needs at least one cluster")
    labels = result.labels.copy()
    unassigned = np.nonzero(labels == 0)[0]
    if unassigned.size == 0:
        return result
    means = np.column_stack([
        A.base.entries[:, members].mean(axis=1) for members in result.clusters
    ])
    labels[unassigned] = np.argmax(means[unassigned], axis=1) + 1
    clusters = [list(c) for c in result.clusters]
    for j in unassigned:
        clusters[labels[j] - 1].append(int(j))
    return replace(result, labels=labels, clusters=clusters)
