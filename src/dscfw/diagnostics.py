"""Runtime convergence checks: dense state-consistency oracles, exact
per-step progress identities, minimum-gap tracking, and the worst-case
gap-bound evaluations.

Every check takes the matrix a solve ran on, a `SimilarityMatrix` or a
peel round's `ShiftedMatrix`, and checks against the matrix it stands for;
the gap bound takes the solve's start too, never numbers taken from it.

Violations are reported, never raised: `theorem_bound` says whether the
bound held, and `check_progress` returns the steps that break their
identities. The constant 2*max_offdiag - min_offdiag in the common gap
bound rests on a premise the derivation does not spell out, so the exact
per-step identities are the check a correct solve cannot fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrace, TooFewPoints, UncheckableRun
from .matrix import Operator, matvec, offdiag_extremes, quadratic_form
from .solvers import GOOD_KINDS, SolverKind, SolverState, StepKind, StepRecord

IDENTITY_RTOL = 1e-9
GAIN_ROUNDOFF = 4 * 2.0**-53  # units of roundoff of f in a recorded gain


@dataclass
class ConsistencyReport:
    max_r_deviation: float
    max_f_deviation: float

    def ok(self, tol: float = 1e-8) -> bool:
        return self.max_r_deviation <= tol and self.max_f_deviation <= tol


@dataclass
class ProgressViolation:
    t: int
    kind: StepKind
    expected: float
    actual: float


@dataclass
class BoundReport:
    t: int
    min_gap: float
    bound_value: float
    satisfied: bool
    # False when the bound is at or above the trace's first full gap: the
    # minimum gap never exceeds the first, so such a bound holds whatever
    # the solver does after its first step, and checks nothing.
    informative: bool
    beta: float
    good_steps: int
    drop_steps: int
    swap_steps: int
    support0: int


def check_state(state: SolverState, A: Operator) -> ConsistencyReport:
    """Dense recomputation of r = B x and f = x'Bx versus the caches."""
    x = state.x
    r_true = matvec(A, x)
    f_true = float(r_true @ x)
    return ConsistencyReport(
        max_r_deviation=float(np.max(np.abs(state.r - r_true), initial=0.0)),
        max_f_deviation=abs(state.f - f_true) / max(1.0, abs(f_true)),
    )


def _expected_gain(rec: StepRecord, A: Operator) -> float:
    f = rec.f_before
    if rec.kind is StepKind.PAIRWISE_GOOD:
        # b_ij off the diagonal (a pairwise step has s != v)
        a_ij = A.base.entries.item(rec.s_index, rec.v_index) + A.shift
        return (rec.r_s - rec.r_v) ** 2 / (2.0 * a_ij)
    if rec.kind not in GOOD_KINDS:
        raise ValueError(f"no progress identity for {rec.kind}")
    # A vertex move toward s (FW) or away from v (AFW): r is the moved
    # vertex's r.
    r = rec.r_s if rec.kind is StepKind.FW_GOOD else rec.r_v
    return (r - f) ** 2 / (2.0 * r - f)


def check_progress(trace: list[StepRecord],
                   A: Operator) -> list[ProgressViolation]:
    """The good steps that break their exact objective-gain identity or
    the gap-versus-progress inequalities, in trace order; [] when every
    step holds. Drop and swap steps carry no gap bound and are skipped.
    A trace read back by `load_trace_csv` holds every field and checks as
    the solve's own; a good step that lacks a value its identity needs
    (NaN) raises UncheckableRun."""
    _, max_off = offdiag_extremes(A)
    violations: list[ProgressViolation] = []
    for rec in trace:
        if rec.kind not in GOOD_KINDS:
            continue
        gain = rec.f_after - rec.f_before
        expected = _expected_gain(rec, A)
        if math.isnan(gain) or math.isnan(expected):
            raise UncheckableRun(
                f"step {rec.t} ({rec.kind.value}) lacks a value its progress "
                "identity needs: f before or after it, or r at its vertices")
        scale = max(abs(expected), abs(rec.f_before), 1e-300)
        if abs(gain - expected) > IDENTITY_RTOL * scale:
            violations.append(
                ProgressViolation(rec.t, rec.kind, expected, gain))
            continue
        # Gap-vs-progress inequalities (small slack for rounding; FW's holds
        # with equality, so its gain's rounding error, ~ulp(f), counts too).
        slack = 1.0 + 1e-9
        gain_err = GAIN_ROUNDOFF * (abs(rec.f_before) + abs(rec.f_after))
        if rec.kind is StepKind.FW_GOOD:
            bound = 4.0 * (2.0 * rec.r_s - rec.f_before) * (gain + gain_err)
        elif rec.kind is StepKind.PAIRWISE_GOOD:
            bound = 8.0 * max_off * (gain + gain_err)
        else:  # AWAY_GOOD: the away branch implies gap/2 < f - r_v
            away_gap = rec.f_before - rec.r_v
            bound = 4.0 * away_gap * away_gap
        if rec.gap**2 > bound * slack + 1e-15:
            violations.append(
                ProgressViolation(rec.t, rec.kind, bound, rec.gap**2))
    return violations


def min_gap(trace: list[StepRecord]) -> float:
    if not trace:
        raise EmptyTrace("no steps recorded")
    return min(rec.gap for rec in trace)


def step_counts(trace: list[StepRecord]) -> tuple[int, int, int]:
    good = sum(1 for r in trace if r.kind in GOOD_KINDS)
    drops = sum(1 for r in trace if r.kind is StepKind.DROP)
    swaps = sum(1 for r in trace if r.kind is StepKind.SWAP)
    return good, drops, swaps


def theorem_bound(
    trace: list[StepRecord],
    solver_kind: SolverKind,
    A: Operator,
    x0: np.ndarray,
) -> BoundReport:
    """Evaluate the worst-case minimum-gap bound of the given solver for
    the solve that `trace` records: on the matrix A stands for, from x0.
    The off-diagonal extremes, the number n of active objects, |supp x0|
    and f(x0) come from A and x0; the gain f(x_t) - f(x0) from the trace."""
    if solver_kind is SolverKind.RD:
        raise UncheckableRun("replicator dynamics has no gap bound")
    g_min = min_gap(trace)  # raises EmptyTrace on an empty trace
    min_offdiag, max_offdiag = offdiag_extremes(A)
    n = A.n if A.active is None else int(np.count_nonzero(A.active))
    support0 = int(np.count_nonzero(x0))
    t = len(trace)
    gain = max(trace[-1].f_after - quadratic_form(A, x0), 0.0)
    good, drops, swaps = step_counts(trace)
    beta = 2.0 * max_offdiag - min_offdiag
    if solver_kind is SolverKind.FW:
        bound = 2.0 * math.sqrt(max(beta, 0.0) * gain / t)
    elif solver_kind is SolverKind.AFW:
        denom = t + 1 - support0
        if denom <= 0:
            bound = math.inf
        else:
            bound = 2.0 * math.sqrt(2.0 * max(beta, 0.0) * gain / denom)
    else:  # PFW
        beta = 2.0 * max_offdiag
        # 2*sqrt(6 n! max_offdiag gain / t), with n! in log space.
        if gain <= 0 or max_offdiag <= 0:
            bound = 0.0 if gain <= 0 else math.inf
        else:
            log_b = (math.log(2.0) + 0.5 * (
                math.log(6.0) + math.lgamma(n + 1)
                + math.log(max_offdiag) + math.log(gain) - math.log(t)))
            bound = math.exp(log_b) if log_b < 700 else math.inf
    # A bound beyond the largest possible gap is trivially satisfied
    # (the gap never exceeds 2*max_offdiag on the simplex).
    satisfied = g_min <= bound or bound > 2.0 * max_offdiag
    return BoundReport(
        t=t,
        min_gap=g_min,
        bound_value=bound,
        satisfied=satisfied,
        informative=bound < trace[0].gap,
        beta=beta,
        good_steps=good,
        drop_steps=drops,
        swap_steps=swaps,
        support0=support0,
    )


def decay_fit(min_gap_curve) -> float:
    """Least-squares slope of log(min gap so far) versus log(iteration)."""
    g = np.asarray(min_gap_curve, dtype=float)
    if g.size < 20:
        raise TooFewPoints("need at least 20 samples for a decay fit")
    t = np.arange(1, g.size + 1, dtype=float)
    mask = g > 0
    if mask.sum() < 20:
        raise TooFewPoints("need at least 20 positive gaps")
    slope = np.polyfit(np.log(t[mask]), np.log(g[mask]), 1)[0]
    return float(slope)


def running_min_gaps(trace: list[StepRecord]) -> np.ndarray:
    if not trace:
        raise EmptyTrace("no steps recorded")
    return np.minimum.accumulate([rec.gap for rec in trace])
