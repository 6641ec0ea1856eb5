"""Simplex StQP solvers: standard, pairwise, and away-steps Frank-Wolfe,
plus a replicator-dynamics baseline.

All three Frank-Wolfe variants keep the gradient cache r = A x and the
objective f = x'Ax up to date in O(n) per iteration via closed-form line
search; replicator dynamics recomputes A x densely (O(n^2) per iteration).

Representation. The iterate and the cache are held lazily scaled, as
x = c_x * xt and r = c_r * rt with positive scalars c_x and c_r (the
scaled-iterate bookkeeping of sparse Frank-Wolfe codes; Jaggi, ICML 2013):

- an FW step, x+ = (1 - g) x + g e_i and r+ = (1 - g) r + g A[i],
  multiplies both scalars by 1 - g, writes xt[i] once and adds
  (g / c_r+) A[i] to rt through one preallocated row buffer; an AFW away
  step does the same with 1 + g, -g and row j;
- a PFW step moves mass between two coordinates and leaves the scales
  alone, so from a start (scales 1) its arithmetic is the unscaled one;
- c_r > 0, so the FW vertex argmax(r) and the away vertex read rt
  directly. The away vertex is argmin(rt + pen), where pen is 0 on the
  support and +inf off it; the steps update pen with the boolean support
  mask (set when a vertex enters, cleared on a drop);
- the coordinate sum of xt is kept as a scalar, and renormalisation
  divides c_x when c_x * sum drifts from 1 by more than SUM_TOL;
- the scales are folded back into the arrays (xt *= c_x, rt *= c_r) when
  one of them has left [1/_FOLD, _FOLD], before the next step, and when
  `run` returns. A fold leaves the folded iterate fl(c_x * xt) and cache
  fl(c_r * rt) unchanged, bit for bit. `SolverState.x` and `.r` read them
  folded.

Shifted operators. A peel round solves B = A_SS + s(11' - I) over its
active objects S without building B (`matrix.ShiftedMatrix`). On the
simplex Bx = Ax + s(1 - x), so the cache keeps the constant part of the
shift out of the scaling: c_r * rt = Ax - s x and r = c_r * rt + s. An FW
step still multiplies c_r by 1 - g; it adds (g / c_r+) A[i] to rt and
then subtracts g s / c_r+ from rt[i]. An away step does the same with
1 + g, -g and row j, and a PFW step adds (g / c_r)(A[i] - A[j]) and
corrects rt[i] and rt[j] by -/+ g s / c_r; its line search uses
b_ij = a_ij + s. Only the reads of r_i and r_j add s: the offset is the
same on every coordinate, so the argmax and the away vertex read rt as
before. The identity needs sum(x) = 1, which renormalisation keeps within
SUM_TOL. The FW vertex is the argmax over S: when S is not every object,
the state holds fw_pen, 0 on S and -inf off it, and the argmax reads
rt + fw_pen. The away vertex needs no such array, as the support lies in
S. Coordinates are global throughout; with s = 0 and S = all the
arithmetic is the unshifted one.

One loop, `_iterate`, drives every solver. It holds the state's scalars
(c_x, c_r, f, the coordinate sum, the step count and the support size) in
locals and stores them back when it returns. Per iteration it evaluates
the FW vertex and gap once and, for PFW/AFW, the away vertex once, with
the arithmetic of `fw_gap` and `select_away`; folds the scales when one is
out of range; takes the FW, pairwise or away update inline (RD calls its
dense `_rd`); renormalises; counts the support (+1 when a vertex enters,
-1 on a drop) and appends the StepRecord. `run` is `make_state`, then
`_iterate`, then `_fold`. The public ``step(state, A, kind)`` raises
NotAscent where the solver has no ascent direction, then takes one
iteration of the same loop with every stop test off.

Stop test. The loop stops when the halved gap max(r) - f is at most
epsilon * max(r), with r and f of the matrix solved (shift included):
f >= (1 - epsilon) max(r). The test is relative because the rounding floor
of the cached gap grows with max(r); an absolute threshold below that floor
is never met. Replicator dynamics can come to rest at a fixed point with a
positive gap, so it also stops when ||x+ - x|| <= epsilon for the folded
iterates (IterateConverged).

Gap convention: the solvers compare the HALVED quantity max(r) - f against
the stopping threshold, exactly as the update rules are stated.
StepRecord.gap stores the FULL gap 2*(max(r) - f), which is what the
convergence diagnostics use.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadInit,
    BrokenInvariant,
    EmptySupport,
    MalformedTrace,
    NotAscent,
    ZeroDenominator,
)
from .matrix import (
    SUM_TOL,
    Operator,
    SimplexPoint,
    renormalize_if_needed,
)

DEFAULT_EPSILON = 1e-12  # relative: the halved gap against max(r)
# Fold bound: far inside the float64 range, so neither xt (whose entries
# grow like 1/c_x) nor a product of two scales can overflow.
_FOLD = 1e150


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


class StopReason(enum.Enum):
    GAP_REACHED = "GapReached"
    ITERATE_CONVERGED = "IterateConverged"  # replicator dynamics only
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

    def __post_init__(self) -> None:
        # epsilon >= 1 would stop every solve before its first step, as
        # f >= 0; NaN fails too.
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be finite and lie in (0, 1)")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


class SolverState:
    """Iterate with cached gradient r = B x and objective f = x'Bx of the
    matrix B the solver runs on.

    Held as x = cx * xt and r = cr * rt + s (see the module docstring);
    the constructor builds the unshifted state over all objects, and
    `make_state` sets the shift `s` and `fw_pen` (None, or 0 on the active
    objects and -inf off them) for a `ShiftedMatrix`. `x` reads the folded
    iterate as a new SimplexPoint over the live support mask; `r` reads
    the folded cache, and setting it stores the new cache with scale 1.
    `pen` is 0 on the support and +inf off it, `xsum` is the coordinate
    sum of xt, and `buf` is the steps' scratch row.
    """

    __slots__ = ("xt", "mask", "cx", "xsum", "rt", "cr", "f", "t", "pen",
                 "buf", "s", "fw_pen")

    def __init__(self, x: SimplexPoint, r: np.ndarray, f: float,
                 t: int = 0) -> None:
        self.xt, self.mask, self.cx = x.coords, x.mask, 1.0
        self.xsum = float(x.coords.sum())
        self.s, self.fw_pen = 0.0, None
        self.r = r
        self.f = f
        self.t = t
        self.pen = np.where(x.mask, 0.0, np.inf)
        self.buf = np.empty(x.n)

    @property
    def x(self) -> SimplexPoint:
        return SimplexPoint(self.cx * self.xt, self.mask)

    @property
    def r(self) -> np.ndarray:
        return self.cr * self.rt + self.s

    @r.setter
    def r(self, value: np.ndarray) -> None:
        self.rt, self.cr = (value - self.s if self.s else value), 1.0

    @property
    def n(self) -> int:
        return self.xt.shape[0]


def init_barycenter(n: int, active: np.ndarray | None = None) -> SimplexPoint:
    """Uniform point 1/|S| on the active objects S (all n when `active` is
    None), zero elsewhere."""
    mask = np.ones(n, dtype=bool) if active is None else active.copy()
    coords = np.where(mask, 1.0 / np.count_nonzero(mask), 0.0)
    return SimplexPoint(coords, mask)


def init_vertex(A: Operator) -> SimplexPoint:
    """Basis vector at the active object with the largest row sum of A
    over the active objects (lowest index on ties)."""
    if A.active is None:
        i = int(np.argmax(A.base.row_sums()))
    else:
        sums = A.base.entries @ A.active.astype(float)
        sums[~A.active] = -np.inf
        i = int(np.argmax(sums))
    coords = np.zeros(A.n)
    coords[i] = 1.0
    return SimplexPoint(coords, coords > 0)


def make_state(A: Operator, x0: SimplexPoint) -> SolverState:
    """Solver state at a copy of x0, with r = B x0 and f = x0'B x0 for the
    matrix B that A stands for; x0 must lie on A's active objects."""
    if A.active is not None and np.any(x0.mask & ~A.active):
        raise BadInit("start has mass outside the active objects")
    s, E, v = A.shift, A.base.entries, x0.coords
    i = int(v.argmax())
    if v[i] == 1.0 and np.count_nonzero(v) == 1:
        # E @ e_i is column i (not row i: E is symmetric only within
        # SYM_TOL), with a -0.0 entry read as the +0.0 the product gives.
        r = E[:, i] + 0.0
    else:
        r = E @ v
    st = SolverState(x0.copy(), r, 0.0)
    if s:
        st.s = s
        st.rt -= s * st.xt  # cr * rt = Ax - s x
    st.f = float(st.rt @ st.xt) + s
    if A.active is not None:
        st.fw_pen = np.where(A.active, 0.0, -np.inf)
    return st


def _fold(st: SolverState) -> None:
    """Multiply the scales into the arrays. fl(1 * v) = v, so the folded
    iterate and cache keep their values exactly."""
    if st.cx != 1.0:
        st.xt *= st.cx
        st.cx = 1.0
        st.xsum = float(st.xt.sum())
    if st.cr != 1.0:
        st.rt *= st.cr
        st.cr = 1.0


def fw_gap(state: SolverState) -> tuple[float, int]:
    """Full Frank-Wolfe gap 2*(max(r) - f) over the active objects and the
    maximizing index."""
    rt, pen = state.rt, state.fw_pen
    scan = rt if pen is None else np.add(rt, pen, out=state.buf)
    i = int(scan.argmax())
    return 2.0 * (state.cr * rt.item(i) + state.s - state.f), i


def select_away(state: SolverState) -> int:
    """Index in the support minimizing r; lowest index on ties."""
    buf = np.add(state.rt, state.pen, out=state.buf)
    j = int(buf.argmin())
    if not state.mask[j]:  # only an empty support leaves the argmin outside
        raise EmptySupport("away selection needs a nonempty support")
    return j


def _rd(st: SolverState, E: np.ndarray) -> tuple[float, int, np.ndarray]:
    """One replicator step x_i <- x_i r_i / f on the state, recomputing r
    densely. Returns f after the step, the change in the support size and
    the folded iterate before the step."""
    f, x, mask, s = st.f, st.xt, st.mask, st.s
    if f <= 0:
        raise ZeroDenominator("x'Ax is zero; replicator update undefined")
    prev = st.cx * x
    before = int(np.count_nonzero(mask))
    if s:  # rt <- r = cr * rt + s, with scale 1
        st.rt *= st.cr
        st.rt += s
        st.cr = 1.0
    # x r / f on the folded values; xt then holds the new iterate unscaled.
    x *= st.rt
    x /= f / (st.cx * st.cr)
    st.cx = 1.0
    np.greater(x, 0.0, out=mask)
    # A x is recomputed from the renormalised iterate, so the sum check
    # after the step finds the sum within SUM_TOL.
    renormalize_if_needed(x)
    st.xsum = float(x.sum())
    st.pen[...] = np.where(mask, 0.0, np.inf)
    # numpy's own loop, not a threaded BLAS gemv: on a 2-CPU host that gemv
    # sometimes costs ~8 ms at n=1000 for a whole process, ~40x its usual.
    np.einsum("ij,j->i", E, x, out=st.rt)
    st.cr = 1.0
    if s:
        st.rt -= s * x
    return float(st.rt @ x) + s, int(np.count_nonzero(mask)) - before, prev


def _iterate(st: SolverState, A: Operator, kind: SolverKind, max_iters: int,
             eps: float, trace: list[StepRecord]) -> StopReason:
    """Take up to `max_iters` steps of the `kind` solver from the state,
    appending one StepRecord a step, and return why the loop stopped.
    The state's scalars live in locals while the loop runs and are stored
    back when it returns; its arrays are updated in place. eps = NaN
    turns every stop test off, as every comparison with NaN is false."""
    E, s, fw_pen = A.base.entries, st.s, st.fw_pen
    xt, mask, rt, pen, buf = st.xt, st.mask, st.rt, st.pen, st.buf
    cx, cr, xsum, f, t = st.cx, st.cr, st.xsum, st.f, st.t
    lo, hi = 1.0 / _FOLD, _FOLD
    pairwise, rd = kind is SolverKind.PFW, kind is SolverKind.RD
    away = pairwise or kind is SolverKind.AFW
    size = int(np.count_nonzero(mask))
    add, multiply, sqrt = np.add, np.multiply, math.sqrt
    inf, nan = math.inf, math.nan
    # The row axpy's coefficient as a 0-d array: numpy takes it faster than
    # a Python float, and the products are the same.
    coef = np.empty(())
    append = trace.append
    reason = StopReason.MAX_ITERS
    for _ in range(max_iters):
        scan = rt if fw_pen is None else add(rt, fw_pen, buf)
        i = int(scan.argmax())
        r_i = cr * rt.item(i) + s
        half = r_i - f
        gap = 2.0 * half
        if half <= eps * r_i:
            reason = StopReason.GAP_REACHED
            break
        if away:
            j = int(add(rt, pen, buf).argmin())
            if not mask.item(j):  # only an empty support leaves it outside
                raise EmptySupport("away selection needs a nonempty support")
            if pairwise and j == i:
                # Zero pairwise direction: stationary for this solver.
                reason = StopReason.GAP_REACHED
                break
            r_j = cr * rt.item(j) + s
        if not (lo <= cx <= hi and lo <= cr <= hi):
            st.cx, st.cr, st.xsum = cx, cr, xsum
            _fold(st)  # r_i and r_j read the same after a fold
            cx, cr, xsum = st.cx, st.cr, st.xsum
        v, r_s, r_v = None, r_i, nan
        if rd:
            st.cx, st.cr, st.xsum, st.f = cx, cr, xsum, f
            f_after, delta, prev = _rd(st, E)
            cx, cr, xsum = st.cx, st.cr, st.xsum
            rec_kind, gamma, r_s = StepKind.RD_STEP, nan, nan
        elif pairwise:
            # Move mass from j to i; the scales stay as they are.
            a_ij = E.item(i, j) + s
            old = xt.item(i)
            x_j = xt.item(j)
            gamma_max = cx * x_j
            if a_ij > 0:
                gamma = min(gamma_max, (r_i - r_j) / (2.0 * a_ij))
            else:
                # Degenerate line-search polynomial: positive slope,
                # maximizer at the cap.
                gamma = gamma_max
            truncated = gamma >= gamma_max
            entered = not mask.item(i)
            xt[i] = new = old + gamma / cx
            if entered:
                mask[i] = True
                pen[i] = 0.0
            if truncated:
                gamma = gamma_max
                xt[j] = new_j = 0.0
                mask[j] = False
                pen[j] = inf
                rec_kind = StepKind.SWAP if entered else StepKind.DROP
            else:
                xt[j] = new_j = x_j - gamma / cx
                rec_kind = StepKind.PAIRWISE_GOOD
            xsum += (new - old) + (new_j - x_j)
            np.subtract(E[i], E[j], buf)
            coef[()] = gamma / cr
            multiply(buf, coef, buf)
            add(rt, buf, rt)
            if s:
                shifted = gamma * s / cr
                rt[i] -= shifted
                rt[j] += shifted
            f_after = f + 2.0 * gamma * (r_i - r_j) - 2.0 * gamma**2 * a_ij
            delta, v, r_v = entered - truncated, j, r_j
        elif not away or half >= f - r_j:
            # FW move, x+ = (1 - g) x + g e_i. AFW takes it whenever
            # r_i - f >= f - r_j; at a vertex f = r_j = 0, so the away
            # move below never sees a singleton support.
            # d'Ad = f - 2 r_i <= 0: the line-search polynomial is concave.
            if not f - 2.0 * r_i <= 0:
                raise BrokenInvariant("FW line search is not concave")
            gamma = half / (2.0 * r_i - f)
            entered = not mask.item(i)
            if entered:
                mask[i] = True
                pen[i] = 0.0
            scale = 1.0 - gamma
            cx *= scale
            cr *= scale
            old = xt.item(i)
            xt[i] = new = old + gamma / cx
            xsum += new - old
            coef[()] = gamma / cr
            multiply(E[i], coef, buf)
            add(rt, buf, rt)
            if s:
                rt[i] -= gamma * s / cr
            f_after = (1.0 - gamma) ** 2 * f + 2.0 * gamma * (1.0 - gamma) * r_i
            rec_kind, delta = StepKind.FW_GOOD, entered
        else:
            # Away move, x+ = (1 + g) x - g e_j, capped where x_j reaches 0.
            x_j = cx * xt.item(j)
            if not x_j < 1.0:
                raise BrokenInvariant("away branch unreachable from a vertex")
            gamma_max = x_j / (1.0 - x_j)
            denom = 2.0 * r_j - f
            if denom > 0:
                gamma = min(gamma_max, (f - r_j) / denom)
            else:
                gamma = gamma_max
            truncated = gamma >= gamma_max
            if truncated:
                gamma = gamma_max
                mask[j] = False
                pen[j] = inf
                rec_kind = StepKind.DROP
            else:
                rec_kind = StepKind.AWAY_GOOD
            scale = 1.0 + gamma
            cx *= scale
            cr *= scale
            old = xt.item(j)
            xt[j] = new = 0.0 if truncated else old + -gamma / cx
            xsum += new - old
            coef[()] = -gamma / cr
            multiply(E[j], coef, buf)
            add(rt, buf, rt)
            if s:
                rt[j] -= -gamma * s / cr
            f_after = (1.0 + gamma) ** 2 * f - 2.0 * gamma * (1.0 + gamma) * r_j
            delta, v, r_v = -truncated, j, r_j
        total = cx * xsum
        if abs(total - 1.0) > SUM_TOL:
            cx /= total
        append(StepRecord(t, rec_kind, gamma, gap, f, f_after, size + delta,
                          i, v, r_s, r_v))
        size += delta
        f = f_after
        t += 1
        if rd:
            d = cx * xt - prev
            if sqrt(d.dot(d)) <= eps:
                reason = StopReason.ITERATE_CONVERGED
                break
    st.cx, st.cr, st.xsum, st.f, st.t = cx, cr, xsum, f, t
    return reason


_AWAY_KINDS = frozenset({SolverKind.PFW, SolverKind.AFW})


def step(state: SolverState, A: Operator, kind: SolverKind) -> StepRecord:
    """One step of the `kind` solver from the state, which `make_state`
    built from the same A; the state is updated in place. FW always makes
    a good step; PFW moves mass from the away vertex j to the FW vertex i;
    AFW makes the FW move or a move away from j; RD is x_i <- x_i r_i / f,
    recomputing r and f densely (O(n^2)), so the support never regrows.
    NotAscent where the solver has no ascent direction: a nonpositive gap
    for FW, PFW and AFW, or i = j for PFW."""
    gap, i = fw_gap(state)
    j = select_away(state) if kind in _AWAY_KINDS else None
    if kind is not SolverKind.RD and gap / 2.0 <= 0:
        raise NotAscent("halved gap is nonpositive")
    if kind is SolverKind.PFW and i == j:
        raise NotAscent("pairwise direction is zero (s == v)")
    trace: list[StepRecord] = []
    _iterate(state, A, kind, 1, math.nan, trace)
    return trace[0]


def initial_point(A: Operator, config: SolverConfig) -> SimplexPoint:
    """The configured start: the barycenter of A's active objects, or the
    vertex `init_vertex` picks."""
    if config.init_kind is InitKind.BARYCENTER:
        return init_barycenter(A.n, A.active)
    return init_vertex(A)


def run(
    A: Operator,
    config: SolverConfig,
    x0: SimplexPoint | None = None,
) -> tuple[SimplexPoint, list[StepRecord], StopReason]:
    """Iterate the configured solver until the halved gap drops to
    epsilon * max(r), replicator iterates coincide (||x+ - x|| <=
    epsilon), or the budget is spent. Each iteration evaluates the gap,
    and for PFW/AFW the away vertex, once. A caller-chosen start is given
    as x0, which is copied once; without it the run starts at the
    configured start. On a `ShiftedMatrix` the returned point covers all
    n objects and is zero off the active ones, and trace indices are
    global."""
    st = make_state(A, x0 if x0 is not None else initial_point(A, config))
    kind = config.solver_kind
    if kind is SolverKind.RD and st.f <= 0:
        raise BadInit(
            "replicator dynamics cannot start where x'Ax = 0 "
            "(e.g. any vertex: the update denominator vanishes)"
        )
    trace: list[StepRecord] = []
    reason = _iterate(st, A, kind, config.max_iters, config.epsilon, trace)
    _fold(st)
    return SimplexPoint(st.xt, st.mask), trace, reason


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
    """Read a trace CSV written by `save_trace_csv`; MalformedTrace when
    its header is not TRACE_COLUMNS or a row has another number of
    fields. f_before of step k is f_after of step k-1; that of the first
    step, f(x_0), is not in the file and reads NaN."""
    trace: list[StepRecord] = []
    f_before = math.nan
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != TRACE_COLUMNS:
            raise MalformedTrace(
                f"trace CSV header is not {','.join(TRACE_COLUMNS)}")
        for row in filter(None, rows):  # a blank line is no step
            if len(row) != len(TRACE_COLUMNS):
                raise MalformedTrace(
                    f"trace CSV line {rows.line_num} has {len(row)} fields, "
                    f"not {len(TRACE_COLUMNS)}")
            t, kind, gamma, gap, _, f_after, size, s, v = row
            trace.append(StepRecord(
                int(t), StepKind(kind), float(gamma), float(gap), f_before,
                float(f_after), int(size), int(s) if s else None,
                int(v) if v else None))
            f_before = trace[-1].f_after
    return trace
