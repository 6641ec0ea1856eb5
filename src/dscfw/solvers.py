"""Simplex StQP solvers: standard, pairwise, and away-steps Frank-Wolfe,
plus a replicator-dynamics baseline.

All three Frank-Wolfe variants keep the gradient cache r = A x and the
objective f = x'Ax up to date in O(n) per iteration via closed-form line
search; replicator dynamics recomputes A x densely (O(n^2) per iteration).
The O(n) work is all numpy, with no Python-level support bookkeeping:

- the support is a boolean mask on the iterate (set when a vertex enters,
  cleared on a drop), so the away vertex is a masked argmin over r;
- r is updated in place from rows of A (``A.entries[i]``), the same reads
  the dense oracle ``A.entries @ x`` makes.

One loop, `run`, drives every solver. Per iteration it evaluates the gap
and, for PFW/AFW, the away vertex once, and calls the solver's step body
(`_fw`, `_pfw`, `_afw`, `_rd`), which is only its update rule: the line
search and the coordinate, mask and r updates. What every step shares is
in `_advance`: renormalise x when its sum drifts, keep the support size as
a count (+1 when a vertex enters, -1 on a drop) and build the StepRecord.
The public ``*_step(state, A)`` functions evaluate and go through the same
`_advance` and bodies.

Stop test. `run` stops when ||x+ - x|| <= epsilon, where the norm is
sqrt(d.d) with d = x+ - x, exactly what np.linalg.norm computes for a 1-D
array. Every term of the computed d.d is >= 0 and IEEE rounding is
monotone, so the computed d.d is at least fl(d_c^2) for any coordinate c.
If sqrt(d_c^2) > epsilon, the iterate has not converged and the O(n) norm
is skipped; `run` takes c to be the coordinate the step moves (i for FW
and pairwise steps, j for an away step), which decides almost every
step. Otherwise it computes the full norm, so every stop decision is the
one the full norm gives.

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
from .matrix import SimilarityMatrix, SimplexPoint, renormalize_if_needed

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
    """Solver state at a copy of x0, with r = A x0 and f = x0'Ax0."""
    r0 = A.entries @ x0.coords
    f0 = float(r0 @ x0.coords)
    return SolverState(x0.copy(), r0, f0)


def _gap(r: np.ndarray, f: float) -> tuple[float, int]:
    i = int(r.argmax())
    return 2.0 * (float(r[i]) - f), i


def _away(mask: np.ndarray, r: np.ndarray) -> int:
    j = int(np.where(mask, r, np.inf).argmin())
    if not mask[j]:  # only an empty mask leaves the argmin outside it
        raise EmptySupport("away selection needs a nonempty support")
    return j


def fw_gap(state: SolverState) -> tuple[float, int]:
    """Full Frank-Wolfe gap 2*(max(r) - f) and the maximizing index."""
    return _gap(state.r, state.f)


def select_away(state: SolverState) -> int:
    """Index in the support minimizing r; lowest index on ties."""
    return _away(state.x.mask, state.r)


# A step body takes the iterate's coordinates x and mask, the cache r and
# the objective f, the matrix entries E, and the evaluation (gap, FW vertex
# i, away vertex j or None). It updates x, mask and r in place and returns
# (kind, gamma, f_after, c, entered - dropped, v_index, r_s, r_v), where c
# is the coordinate `run` reads for its stop test. Everything else a step
# does is in `_advance`.

def _fw(x, mask, r, f, E, gap, i, j):
    r_i = float(r[i])
    half = r_i - f
    if half <= 0:
        raise NotAscent("halved gap is nonpositive")
    # d'Ad = f - 2 r_i <= 0: the line-search polynomial is concave.
    if not f - 2.0 * r_i <= 0:
        raise BrokenInvariant("FW line search is not concave")
    gamma = half / (2.0 * r_i - f)
    x *= 1.0 - gamma
    x[i] += gamma
    entered = not mask[i]
    mask[i] = True
    r *= 1.0 - gamma
    r += gamma * E[i]
    f_after = (1.0 - gamma) ** 2 * f + 2.0 * gamma * (1.0 - gamma) * r_i
    return StepKind.FW_GOOD, gamma, f_after, i, entered, None, r_i, math.nan


def _pfw(x, mask, r, f, E, gap, i, j):
    if gap / 2.0 <= 0:
        raise NotAscent("halved gap is nonpositive")
    if i == j:
        # s == v makes the direction zero; the caller treats this as
        # stationary and must not request a step.
        raise NotAscent("pairwise direction is zero (s == v)")
    r_i = float(r[i])
    r_j = float(r[j])
    a_ij = float(E[i, j])
    gamma_max = float(x[j])
    if a_ij > 0:
        gamma = min(gamma_max, (r_i - r_j) / (2.0 * a_ij))
    else:
        # Degenerate line-search polynomial: positive slope, maximizer at
        # the cap.
        gamma = gamma_max
    truncated = gamma >= gamma_max
    entered = not mask[i]
    x[i] += gamma
    mask[i] = True
    if truncated:
        gamma = gamma_max
        x[j] = 0.0
        mask[j] = False
        kind = StepKind.SWAP if entered else StepKind.DROP
    else:
        x[j] -= gamma
        kind = StepKind.PAIRWISE_GOOD
    r += gamma * (E[i] - E[j])
    f_after = f + 2.0 * gamma * (r_i - r_j) - 2.0 * gamma**2 * a_ij
    return kind, gamma, f_after, i, entered - truncated, j, r_i, r_j


def _afw(x, mask, r, f, E, gap, i, j):
    if gap / 2.0 <= 0:
        raise NotAscent("halved gap is nonpositive")
    r_i = float(r[i])
    r_j = float(r[j])
    if (r_i - f) >= (f - r_j):
        # FW branch: identical to fw_step. At a vertex f = r_j = 0, so
        # this branch is always taken there and the away branch never
        # sees a singleton support.
        return _fw(x, mask, r, f, E, gap, i, j)
    x_j = float(x[j])
    if not x_j < 1.0:
        raise BrokenInvariant("away branch unreachable from a vertex")
    gamma_max = x_j / (1.0 - x_j)
    denom = 2.0 * r_j - f
    if denom > 0:
        gamma = min(gamma_max, (f - r_j) / denom)
    else:
        gamma = gamma_max
    truncated = gamma >= gamma_max
    x *= 1.0 + gamma
    if truncated:
        gamma = gamma_max
        x[j] = 0.0
        mask[j] = False
        kind = StepKind.DROP
    else:
        x[j] = (1.0 + gamma) * x_j - gamma
        kind = StepKind.AWAY_GOOD
    r *= 1.0 + gamma
    r -= gamma * E[j]
    f_after = (1.0 + gamma) ** 2 * f - 2.0 * gamma * (1.0 + gamma) * r_j
    return kind, gamma, f_after, j, -truncated, j, r_i, r_j


def _rd(x, mask, r, f, E, gap, i, j):
    if f <= 0:
        raise ZeroDenominator("x'Ax is zero; replicator update undefined")
    before = int(np.count_nonzero(mask))
    x *= r
    x /= f
    np.greater(x, 0.0, out=mask)
    # A x is recomputed from the renormalised iterate, so the check in
    # `_advance` that follows finds the sum within SUM_TOL.
    renormalize_if_needed(x)
    r[:] = E @ x
    f_after = float(r @ x)
    delta = int(np.count_nonzero(mask)) - before
    return StepKind.RD_STEP, math.nan, f_after, i, delta, None, math.nan, math.nan


def _advance(body, x, mask, r, f, E, t, size, gap, i, j):
    """One step of `body` from iterate t with support size `size`, plus the
    bookkeeping every step shares: renormalise x, count the support and
    build the record. Returns the record and the stop-test coordinate."""
    kind, gamma, f_after, c, delta, v, r_s, r_v = body(x, mask, r, f, E,
                                                       gap, i, j)
    renormalize_if_needed(x)
    return StepRecord(t, kind, gamma, gap, f, f_after, size + delta, i, v,
                      r_s, r_v), c


def _step(state: SolverState, A: SimilarityMatrix, body, gap: float, i: int,
          j: int | None = None) -> tuple[SolverState, StepRecord]:
    """A public step: `_advance` on the state's iterate and caches."""
    rec, _ = _advance(body, state.x.coords, state.x.mask, state.r, state.f,
                      A.entries, state.t, int(np.count_nonzero(state.x.mask)),
                      gap, i, j)
    state.f = rec.f_after
    state.t += 1
    return state, rec


def fw_step(state: SolverState, A: SimilarityMatrix) -> tuple[SolverState, StepRecord]:
    """One standard Frank-Wolfe step. Always a good step: the optimal
    gamma is interior by construction."""
    return _step(state, A, _fw, *fw_gap(state))


def pfw_step(state: SolverState, A: SimilarityMatrix) -> tuple[SolverState, StepRecord]:
    """One pairwise Frank-Wolfe step: mass moves from the worst support
    vertex j to the best vertex i."""
    return _step(state, A, _pfw, *fw_gap(state), select_away(state))


def afw_step(state: SolverState, A: SimilarityMatrix) -> tuple[SolverState, StepRecord]:
    """One away-steps Frank-Wolfe step: either the standard FW move or a
    move away from the worst support vertex."""
    return _step(state, A, _afw, *fw_gap(state), select_away(state))


def rd_step(state: SolverState, A: SimilarityMatrix) -> tuple[SolverState, StepRecord]:
    """One replicator-dynamics step x_i <- x_i r_i / f. Recomputes r and f
    densely (O(n^2)); zero components stay zero, so the support can only
    shrink toward machine zeros, never regrow. The mask is re-derived from
    the coordinates."""
    return _step(state, A, _rd, *fw_gap(state))


_BODY = {
    SolverKind.FW: _fw,
    SolverKind.PFW: _pfw,
    SolverKind.AFW: _afw,
    SolverKind.RD: _rd,
}


def initial_point(A: SimilarityMatrix, config: SolverConfig) -> SimplexPoint:
    """The configured start. For CUSTOM this is ``config.init_point``
    itself; `make_state` copies it."""
    if config.init_kind is InitKind.BARYCENTER:
        return init_barycenter(A.n)
    if config.init_kind is InitKind.VERTEX:
        return init_vertex(A)
    if config.init_point is None:
        raise ValueError("custom init requires init_point")
    return config.init_point


def run(
    A: SimilarityMatrix,
    config: SolverConfig,
    x0: SimplexPoint | None = None,
) -> tuple[SimplexPoint, list[StepRecord], StopReason]:
    """Iterate the configured solver until the halved gap drops to the
    threshold, consecutive iterates coincide (||x+ - x|| <= epsilon), or
    the budget is spent. Each iteration evaluates the gap, and for PFW/AFW
    the away vertex, once; x0 (or the configured start) is copied once."""
    state = make_state(A, x0 if x0 is not None else initial_point(A, config))
    kind = config.solver_kind
    if kind is SolverKind.RD and state.f <= 0:
        raise BadInit(
            "replicator dynamics cannot start where x'Ax = 0 "
            "(e.g. any vertex: the update denominator vanishes)"
        )
    body = _BODY[kind]
    away = kind is SolverKind.PFW or kind is SolverKind.AFW
    pairwise = kind is SolverKind.PFW
    eps = config.epsilon
    x, mask, r, f, E = state.x.coords, state.x.mask, state.r, state.f, A.entries
    size = int(np.count_nonzero(mask))
    trace: list[StepRecord] = []
    reason = StopReason.MAX_ITERS
    for t in range(config.max_iters):
        gap, i = _gap(r, f)
        if gap / 2.0 <= eps:
            reason = StopReason.GAP_REACHED
            break
        j = None
        if away:
            j = _away(mask, r)
            if pairwise and j == i:
                # Zero pairwise direction: stationary for this solver.
                reason = StopReason.GAP_REACHED
                break
        prev = x.copy()
        rec, c = _advance(body, x, mask, r, f, E, t, size, gap, i, j)
        trace.append(rec)
        f, size = rec.f_after, rec.support_size
        # ||x+ - x|| >= |x+[c] - x[c]| (see the module docstring), so a
        # large move of coordinate c settles the stop test without the
        # O(n) norm.
        d_c = x.item(c) - prev.item(c)
        if math.sqrt(d_c * d_c) > eps:
            continue
        d = x - prev
        if math.sqrt(d.dot(d)) <= eps:
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
