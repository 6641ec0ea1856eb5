"""Simplex StQP solvers: standard, pairwise, and away-steps Frank-Wolfe,
plus a replicator-dynamics baseline.

All three Frank-Wolfe variants keep the gradient cache r = A x and the
objective f = x'Ax up to date in O(n) per iteration via closed-form line
search; replicator dynamics recomputes A x densely (O(n^2) per iteration).
The O(n) work is all numpy, with no Python-level support bookkeeping:

- the support is a boolean mask on the iterate (set when a vertex enters,
  cleared on a drop), so the away vertex is a masked argmin over r;
- r is updated in place from rows of A (``A.entries[i]``), the same reads
  the dense oracle ``A.entries @ x`` makes;
- `run` evaluates the gap and, for PFW/AFW, the away vertex once per
  iteration and hands them to the step body. The public ``*_step``
  functions evaluate and then call the same body.

Gap convention: the solvers compare the HALVED quantity max(r) - f against
the stopping threshold, exactly as the update rules are stated.
StepRecord.gap stores the FULL gap 2*(max(r) - f), which is what the
convergence diagnostics use.
"""

from __future__ import annotations

import csv
import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadInit,
    BrokenInvariant,
    EmptySupport,
    NotAscent,
    ZeroDenominator,
)
from .matrix import SimilarityMatrix, SimplexPoint

DEFAULT_EPSILON = sys.float_info.epsilon  # ~2.2e-16


class StepKind(enum.Enum):
    FW_GOOD = "FwGood"
    AWAY_GOOD = "AwayGood"
    PAIRWISE_GOOD = "PairwiseGood"
    DROP = "Drop"
    SWAP = "Swap"
    RD_STEP = "RdStep"


GOOD_KINDS = frozenset(
    {StepKind.FW_GOOD, StepKind.AWAY_GOOD, StepKind.PAIRWISE_GOOD}
)


class SolverKind(enum.Enum):
    FW = "fw"
    PFW = "pfw"
    AFW = "afw"
    RD = "rd"


class InitKind(enum.Enum):
    BARYCENTER = "barycenter"
    VERTEX = "vertex"
    CUSTOM = "custom"


class StopReason(enum.Enum):
    GAP_REACHED = "GapReached"
    ITERATE_CONVERGED = "IterateConverged"
    MAX_ITERS = "MaxIters"


@dataclass
class StepRecord:
    t: int
    kind: StepKind
    gamma: float
    gap: float  # full gap 2*(r_i - f)
    f_before: float
    f_after: float
    support_size: int  # after the step
    s_index: int | None = None
    v_index: int | None = None
    r_s: float = math.nan  # r[s_index] before the step
    r_v: float = math.nan  # r[v_index] before the step

    @property
    def gap_half(self) -> float:
        return self.gap / 2.0


@dataclass
class SolverConfig:
    solver_kind: SolverKind = SolverKind.FW
    init_kind: InitKind = InitKind.VERTEX
    epsilon: float = DEFAULT_EPSILON
    max_iters: int = 1000
    init_point: SimplexPoint | None = None  # used when init_kind is CUSTOM

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass
class SolverState:
    """Iterate with cached gradient r = A x and objective f = x'Ax."""

    x: SimplexPoint
    r: np.ndarray
    f: float
    t: int = 0

    @property
    def n(self) -> int:
        return self.x.n


def init_barycenter(n: int) -> SimplexPoint:
    """Uniform point 1/n on every coordinate; full support."""
    return SimplexPoint(np.full(n, 1.0 / n), np.ones(n, dtype=bool))


def init_vertex(A: SimilarityMatrix) -> SimplexPoint:
    """Basis vector at the row of A with largest total sum (lowest index
    on ties)."""
    i = int(np.argmax(A.row_sums()))
    coords = np.zeros(A.n)
    coords[i] = 1.0
    return SimplexPoint(coords, coords > 0)


def make_state(A: SimilarityMatrix, x0: SimplexPoint) -> SolverState:
    r0 = A.entries @ x0.coords
    f0 = float(r0 @ x0.coords)
    return SolverState(x0.copy(), r0, f0)


def fw_gap(state: SolverState) -> tuple[float, int]:
    """Full Frank-Wolfe gap 2*(max(r) - f) and the maximizing index."""
    s = int(np.argmax(state.r))
    return 2.0 * (float(state.r[s]) - state.f), s


def select_away(state: SolverState) -> int:
    """Index in the support minimizing r; lowest index on ties."""
    mask = state.x.mask
    j = int(np.argmin(np.where(mask, state.r, np.inf)))
    if not mask[j]:  # only an empty mask leaves the argmin outside it
        raise EmptySupport("away selection needs a nonempty support")
    return j


def _finish(state: SolverState, rec: StepRecord) -> tuple[SolverState, StepRecord]:
    state.x.renormalize_if_needed()
    state.t += 1
    rec.support_size = int(np.count_nonzero(state.x.mask))
    return state, rec


def _fw(state: SolverState, A: SimilarityMatrix, gap: float,
        i: int) -> tuple[SolverState, StepRecord]:
    r_i = float(state.r[i])
    half = r_i - state.f
    if half <= 0:
        raise NotAscent("halved gap is nonpositive")
    # d'Ad = f - 2 r_i <= 0: the line-search polynomial is concave.
    if not state.f - 2.0 * r_i <= 0:
        raise BrokenInvariant("FW line search is not concave")
    gamma = half / (2.0 * r_i - state.f)
    f_before = state.f
    state.x.coords *= 1.0 - gamma
    state.x.coords[i] += gamma
    state.x.mask[i] = True
    state.r *= 1.0 - gamma
    state.r += gamma * A.entries[i]
    state.f = (1.0 - gamma) ** 2 * f_before + 2.0 * gamma * (1.0 - gamma) * r_i
    rec = StepRecord(
        t=state.t, kind=StepKind.FW_GOOD, gamma=gamma, gap=gap,
        f_before=f_before, f_after=state.f, support_size=0,
        s_index=i, r_s=r_i,
    )
    return _finish(state, rec)


def _pfw(state: SolverState, A: SimilarityMatrix, gap: float, i: int,
         j: int) -> tuple[SolverState, StepRecord]:
    if gap / 2.0 <= 0:
        raise NotAscent("halved gap is nonpositive")
    if i == j:
        # s == v makes the direction zero; the caller treats this as
        # stationary and must not request a step.
        raise NotAscent("pairwise direction is zero (s == v)")
    r_i = float(state.r[i])
    r_j = float(state.r[j])
    a_ij = float(A.entries[i, j])
    gamma_max = float(state.x.coords[j])
    if a_ij > 0:
        gamma = min(gamma_max, (r_i - r_j) / (2.0 * a_ij))
    else:
        # Degenerate line-search polynomial: positive slope, maximizer at
        # the cap.
        gamma = gamma_max
    truncated = gamma >= gamma_max
    f_before = state.f
    i_was_support = bool(state.x.mask[i])
    state.x.coords[i] += gamma
    state.x.mask[i] = True
    if truncated:
        gamma = gamma_max
        state.x.coords[j] = 0.0
        state.x.mask[j] = False
        kind = StepKind.DROP if i_was_support else StepKind.SWAP
    else:
        state.x.coords[j] -= gamma
        kind = StepKind.PAIRWISE_GOOD
    state.r += gamma * (A.entries[i] - A.entries[j])
    state.f = f_before + 2.0 * gamma * (r_i - r_j) - 2.0 * gamma**2 * a_ij
    rec = StepRecord(
        t=state.t, kind=kind, gamma=gamma, gap=gap,
        f_before=f_before, f_after=state.f, support_size=0,
        s_index=i, v_index=j, r_s=r_i, r_v=r_j,
    )
    return _finish(state, rec)


def _afw(state: SolverState, A: SimilarityMatrix, gap: float, i: int,
         j: int) -> tuple[SolverState, StepRecord]:
    if gap / 2.0 <= 0:
        raise NotAscent("halved gap is nonpositive")
    r_i = float(state.r[i])
    r_j = float(state.r[j])
    f_before = state.f
    if (r_i - state.f) >= (state.f - r_j):
        # FW branch: identical to fw_step. At a vertex f = r_j = 0, so
        # this branch is always taken there and the away branch never
        # sees a singleton support.
        return _fw(state, A, gap, i)
    x_j = float(state.x.coords[j])
    if not x_j < 1.0:
        raise BrokenInvariant("away branch unreachable from a vertex")
    gamma_max = x_j / (1.0 - x_j)
    denom = 2.0 * r_j - state.f
    if denom > 0:
        gamma = min(gamma_max, (state.f - r_j) / denom)
    else:
        gamma = gamma_max
    truncated = gamma >= gamma_max
    state.x.coords *= 1.0 + gamma
    if truncated:
        gamma = gamma_max
        state.x.coords[j] = 0.0
        state.x.mask[j] = False
        kind = StepKind.DROP
    else:
        state.x.coords[j] = (1.0 + gamma) * x_j - gamma
        kind = StepKind.AWAY_GOOD
    state.r *= 1.0 + gamma
    state.r -= gamma * A.entries[j]
    state.f = (1.0 + gamma) ** 2 * f_before - 2.0 * gamma * (1.0 + gamma) * r_j
    rec = StepRecord(
        t=state.t, kind=kind, gamma=gamma, gap=gap,
        f_before=f_before, f_after=state.f, support_size=0,
        s_index=i, v_index=j, r_s=r_i, r_v=r_j,
    )
    return _finish(state, rec)


def _rd(state: SolverState, A: SimilarityMatrix, gap: float,
        s: int) -> tuple[SolverState, StepRecord]:
    if state.f <= 0:
        raise ZeroDenominator("x'Ax is zero; replicator update undefined")
    f_before = state.f
    state.x.coords = state.x.coords * state.r / state.f
    state.x.mask = state.x.coords > 0
    state.x.renormalize_if_needed()
    state.r = A.entries @ state.x.coords
    state.f = float(state.r @ state.x.coords)
    rec = StepRecord(
        t=state.t, kind=StepKind.RD_STEP, gamma=math.nan, gap=gap,
        f_before=f_before, f_after=state.f,
        support_size=int(np.count_nonzero(state.x.mask)), s_index=s,
    )
    state.t += 1
    return state, rec


def fw_step(state: SolverState, A: SimilarityMatrix) -> tuple[SolverState, StepRecord]:
    """One standard Frank-Wolfe step. Always a good step: the optimal
    gamma is interior by construction."""
    return _fw(state, A, *fw_gap(state))


def pfw_step(state: SolverState, A: SimilarityMatrix) -> tuple[SolverState, StepRecord]:
    """One pairwise Frank-Wolfe step: mass moves from the worst support
    vertex j to the best vertex i."""
    return _pfw(state, A, *fw_gap(state), select_away(state))


def afw_step(state: SolverState, A: SimilarityMatrix) -> tuple[SolverState, StepRecord]:
    """One away-steps Frank-Wolfe step: either the standard FW move or a
    move away from the worst support vertex."""
    return _afw(state, A, *fw_gap(state), select_away(state))


def rd_step(state: SolverState, A: SimilarityMatrix) -> tuple[SolverState, StepRecord]:
    """One replicator-dynamics step x_i <- x_i r_i / f. Recomputes r and f
    densely (O(n^2)); zero components stay zero, so the support can only
    shrink toward machine zeros, never regrow. The mask is re-derived from
    the coordinates."""
    return _rd(state, A, *fw_gap(state))


_BODY = {
    SolverKind.FW: _fw,
    SolverKind.PFW: _pfw,
    SolverKind.AFW: _afw,
    SolverKind.RD: _rd,
}


def initial_point(A: SimilarityMatrix, config: SolverConfig) -> SimplexPoint:
    if config.init_kind is InitKind.BARYCENTER:
        return init_barycenter(A.n)
    if config.init_kind is InitKind.VERTEX:
        return init_vertex(A)
    if config.init_point is None:
        raise ValueError("custom init requires init_point")
    return config.init_point.copy()


def run(
    A: SimilarityMatrix,
    config: SolverConfig,
    x0: SimplexPoint | None = None,
) -> tuple[SimplexPoint, list[StepRecord], StopReason]:
    """Iterate the configured solver until the halved gap drops to the
    threshold, consecutive iterates coincide, or the budget is spent.
    Each iteration evaluates the gap, and for PFW/AFW the away vertex,
    once."""
    start = x0.copy() if x0 is not None else initial_point(A, config)
    state = make_state(A, start)
    kind = config.solver_kind
    if kind is SolverKind.RD and state.f <= 0:
        raise BadInit(
            "replicator dynamics cannot start where x'Ax = 0 "
            "(e.g. any vertex: the update denominator vanishes)"
        )
    body = _BODY[kind]
    away = kind is SolverKind.PFW or kind is SolverKind.AFW
    trace: list[StepRecord] = []
    reason = StopReason.MAX_ITERS
    for _ in range(config.max_iters):
        gap, i = fw_gap(state)
        if gap / 2.0 <= config.epsilon:
            reason = StopReason.GAP_REACHED
            break
        if away:
            j = select_away(state)
            if kind is SolverKind.PFW and j == i:
                # Zero pairwise direction: stationary for this solver.
                reason = StopReason.GAP_REACHED
                break
            evaluation = (gap, i, j)
        else:
            evaluation = (gap, i)
        prev = state.x.coords.copy()
        state, rec = body(state, A, *evaluation)
        trace.append(rec)
        if float(np.linalg.norm(state.x.coords - prev)) <= config.epsilon:
            reason = StopReason.ITERATE_CONVERGED
            break
    return state.x, trace, reason


TRACE_COLUMNS = [
    "t", "kind", "gamma", "gap_full", "gap_half", "f",
    "support_size", "s_index", "v_index",
]


def save_trace_csv(path, trace: list[StepRecord]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for rec in trace:
            w.writerow([
                rec.t, rec.kind.value, rec.gamma, rec.gap, rec.gap_half,
                rec.f_after, rec.support_size,
                "" if rec.s_index is None else rec.s_index,
                "" if rec.v_index is None else rec.v_index,
            ])


def load_trace_csv(path) -> list[StepRecord]:
    trace: list[StepRecord] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            gap = float(row["gap_full"])
            f_after = float(row["f"])
            trace.append(StepRecord(
                t=int(row["t"]),
                kind=StepKind(row["kind"]),
                gamma=float(row["gamma"]),
                gap=gap,
                f_before=math.nan,
                f_after=f_after,
                support_size=int(row["support_size"]),
                s_index=int(row["s_index"]) if row["s_index"] else None,
                v_index=int(row["v_index"]) if row["v_index"] else None,
            ))
    # f_before of step k equals f_after of step k-1; the first one is
    # recoverable only for traces written by this package's solvers, where
    # f_before of the very first record is f(x_0).
    for prev_rec, rec in zip(trace, trace[1:]):
        rec.f_before = prev_rec.f_after
    return trace
