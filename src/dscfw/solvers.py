"""Simplex StQP solvers: standard, pairwise, and away-steps Frank-Wolfe,
plus a replicator-dynamics baseline.

All three Frank-Wolfe variants keep the gradient cache r = A x and the
objective f = x'Ax up to date in O(n) per iteration via closed-form line
search; replicator dynamics recomputes A x densely (O(n^2) per iteration).

Representation. The iterate and the cache are held lazily scaled, as
x = c_x * xt and r = c_r * rt with positive scalars c_x and c_r (the
scaled-iterate bookkeeping of sparse Frank-Wolfe codes; Jaggi, ICML 2013):

- the FW step and the AFW away step are one vertex move,
  x+ = (1 - g) x + g e_u and r+ = (1 - g) r + g A[u], with g > 0 toward
  the FW vertex u = i and g < 0 away from u = j (the away direction
  x - e_j is the FW direction with its sign flipped; Lacoste-Julien and
  Jaggi, NeurIPS 2015). It multiplies both scalars by 1 - g, writes xt[u]
  once and adds (g / c_r+) A[u] to rt through one preallocated row buffer;
- a PFW step moves mass between two coordinates and leaves the scales
  alone, so from a start (scales 1) its arithmetic is the unscaled one;
- c_r > 0, so the FW vertex argmax(r) and the away vertex read rt
  directly. The away vertex is argmin(rt + pen), where pen is 0 on the
  support and +inf off it. pen is the solver's one record of the
  support: `make_state` builds it from x0 > 0, a step zeroes pen[i] when
  i enters and sets pen[j] = +inf on a drop, and replicator dynamics sets
  it from x > 0. The points `SolverState.x` and `run` return are plain
  float64 arrays, positive exactly where pen is 0;
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
shift out of the scaling: c_r * rt = Ax - s x and r = c_r * rt + s. A
vertex move still multiplies c_r by 1 - g; it adds (g / c_r+) A[u] to rt
and then subtracts g s / c_r+ from rt[u]. A PFW step adds
(g / c_r)(A[i] - A[j]) and corrects rt[i] and rt[j] by -/+ g s / c_r; its
line search uses b_ij = a_ij + s. Only the reads of r_i and r_j add s:
the offset is the same on every coordinate, so the argmax and the away
vertex read rt as before. The identity needs sum(x) = 1, which
renormalisation keeps within SUM_TOL. The FW vertex is the argmax over S:
when S is not every object, the state holds fw_pen, 0 on S and -inf off
it, and the argmax reads rt + fw_pen. The away vertex needs no such
array, as the support lies in S. Coordinates are global throughout; with
s = 0 and S = all the arithmetic is the unshifted one.

One loop, `_iterate`, drives every solver. It holds the state's scalars
(c_x, c_r, f, the coordinate sum, the step count and the support size) in
locals and stores them back when it returns. Per iteration it evaluates
the FW vertex and gap once and, for PFW/AFW, the away vertex once, with
the arithmetic of `select_away`; folds the scales when one is out of
range; takes the vertex move or the pairwise update inline (RD calls its
dense `_rd`); renormalises; counts the support (+1 when a vertex enters,
-1 on a drop) and appends the StepRecord. `run` is `make_state`, then
`_iterate`, then `_fold`. The public ``step(state, A, kind)`` is one
iteration of the same loop with epsilon 0, and raises NotAscent when that
iteration stops without a step.

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
    DimensionMismatch,
    EmptySupport,
    MalformedTrace,
    NotAscent,
    ZeroDenominator,
)
from .matrix import (
    SUM_TOL,
    Operator,
    renormalize_if_needed,
    simplex_point,
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
    objects and -inf off them) for a `ShiftedMatrix`. `pen`, 0 on the
    support (x > 0 at construction) and +inf off it, is the one record of
    the support. `x` reads the folded iterate as a new array; `r` reads
    the folded cache, and setting it stores the new cache with scale 1.
    `xsum` is the coordinate sum of xt, and `buf` is the steps' scratch
    row.
    """

    __slots__ = ("xt", "cx", "xsum", "rt", "cr", "f", "t", "pen", "buf",
                 "s", "fw_pen")

    def __init__(self, x: np.ndarray, r: np.ndarray, f: float,
                 t: int = 0) -> None:
        self.xt, self.cx = x, 1.0
        self.xsum = float(x.sum())
        self.s, self.fw_pen = 0.0, None
        self.r = r
        self.f = f
        self.t = t
        self.pen = np.where(x > 0, 0.0, np.inf)
        self.buf = np.empty(x.shape[0])

    @property
    def x(self) -> np.ndarray:
        return self.cx * self.xt

    @property
    def r(self) -> np.ndarray:
        return self.cr * self.rt + self.s

    @r.setter
    def r(self, value: np.ndarray) -> None:
        self.rt, self.cr = (value - self.s if self.s else value), 1.0


def init_barycenter(n: int, active: np.ndarray | None = None) -> np.ndarray:
    """Uniform point 1/|S| on the active objects S (all n when `active` is
    None), zero elsewhere."""
    mask = np.ones(n, dtype=bool) if active is None else active
    return np.where(mask, 1.0 / np.count_nonzero(mask), 0.0)


def init_vertex(A: Operator) -> np.ndarray:
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
    return coords


def make_state(A: Operator, x0: np.ndarray) -> SolverState:
    """Solver state at a float64 copy of x0, with r = B x0 and f = x0'B x0
    for the matrix B that A stands for. x0 must pass `simplex_point`, and
    its support, where it is positive, must lie on A's active objects."""
    v = np.array(x0, dtype=float)
    if v.shape != (A.n,):
        raise DimensionMismatch(f"start of shape {v.shape} vs matrix n={A.n}")
    simplex_point(v)
    if A.active is not None and np.any((v > 0) & ~A.active):
        raise BadInit("start has mass outside the active objects")
    s, E = A.shift, A.base.entries
    i = int(v.argmax())
    if v[i] == 1.0 and np.count_nonzero(v) == 1:
        # E @ e_i is column i (not row i: E is symmetric only within
        # SYM_TOL), with a -0.0 entry read as the +0.0 the product gives.
        r = E[:, i] + 0.0
    else:
        r = E @ v
    st = SolverState(v, r, 0.0)
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


def select_away(state: SolverState) -> int:
    """Index in the support minimizing r; lowest index on ties."""
    buf = np.add(state.rt, state.pen, out=state.buf)
    j = int(buf.argmin())
    if state.pen.item(j) != 0.0:  # only an empty support leaves it outside
        raise EmptySupport("away selection needs a nonempty support")
    return j


def _rd(st: SolverState, E: np.ndarray) -> tuple[float, int, np.ndarray]:
    """One replicator step x_i <- x_i r_i / f on the state, recomputing r
    densely. Returns f after the step, the support size after it and the
    folded iterate before it."""
    f, x, s = st.f, st.xt, st.s
    if f <= 0:
        raise ZeroDenominator("x'Ax is zero; replicator update undefined")
    prev = st.cx * x
    if s:  # rt <- r = cr * rt + s, with scale 1
        st.rt *= st.cr
        st.rt += s
        st.cr = 1.0
    # x r / f on the folded values; xt then holds the new iterate unscaled.
    x *= st.rt
    x /= f / (st.cx * st.cr)
    st.cx = 1.0
    support = x > 0.0
    st.pen[...] = np.where(support, 0.0, np.inf)
    # A x is recomputed from the renormalised iterate, so the sum check
    # after the step finds the sum within SUM_TOL.
    renormalize_if_needed(x)
    st.xsum = float(x.sum())
    # numpy's own loop, not a threaded BLAS gemv: on a 2-CPU host that gemv
    # sometimes costs ~8 ms at n=1000 for a whole process, ~40x its usual.
    np.einsum("ij,j->i", E, x, out=st.rt)
    st.cr = 1.0
    if s:
        st.rt -= s * x
    return float(st.rt @ x) + s, int(np.count_nonzero(support)), prev


def _iterate(st: SolverState, A: Operator, kind: SolverKind, max_iters: int,
             eps: float, trace: list[StepRecord]) -> StopReason:
    """Take up to `max_iters` steps of the `kind` solver from the state,
    appending one StepRecord a step, and return why the loop stopped.
    The state's scalars live in locals while the loop runs and are stored
    back when it returns; its arrays are updated in place."""
    E, s, fw_pen = A.base.entries, st.s, st.fw_pen
    xt, rt, pen, buf = st.xt, st.rt, st.pen, st.buf
    cx, cr, xsum, f, t = st.cx, st.cr, st.xsum, st.f, st.t
    lo, hi = 1.0 / _FOLD, _FOLD
    pairwise, rd = kind is SolverKind.PFW, kind is SolverKind.RD
    away = pairwise or kind is SolverKind.AFW
    size = int(np.count_nonzero(pen == 0.0))
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
            if pen.item(j) != 0.0:  # only an empty support leaves it outside
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
            f_after, after, prev = _rd(st, E)
            cx, cr, xsum = st.cx, st.cr, st.xsum
            rec_kind, gamma, r_s = StepKind.RD_STEP, nan, nan
            delta = after - size
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
            entered = pen.item(i) != 0.0
            xt[i] = new = old + gamma / cx
            pen[i] = 0.0
            if truncated:
                xt[j] = new_j = 0.0
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
        else:
            # One vertex move, x+ = (1 - g) x + g e_u and r+ = (1 - g) r +
            # g A[u]: toward the FW vertex u = i with g > 0, or away from
            # u = j with g < 0, capped where x_j reaches 0. AFW moves away
            # when r_i - f < f - r_j; at a vertex f = r_j = 0, so it never
            # moves away from a singleton support.
            if not away or half >= f - r_j:
                # d'Ad = f - 2 r_i <= 0: the line search is concave.
                if not f - 2.0 * r_i <= 0:
                    raise BrokenInvariant("FW line search is not concave")
                gamma = half / (2.0 * r_i - f)
                u, r_u, g, drop = i, r_i, gamma, False
                delta = pen.item(i) != 0.0  # i enters the support
                pen[i] = 0.0
                rec_kind = StepKind.FW_GOOD
            else:
                x_j = cx * xt.item(j)
                if not x_j < 1.0:
                    raise BrokenInvariant(
                        "away branch unreachable from a vertex")
                gamma_max = x_j / (1.0 - x_j)
                denom = 2.0 * r_j - f
                if denom > 0:
                    gamma = min(gamma_max, (f - r_j) / denom)
                else:
                    gamma = gamma_max
                drop = gamma >= gamma_max
                if drop:
                    pen[j] = inf
                rec_kind = StepKind.DROP if drop else StepKind.AWAY_GOOD
                u, r_u, g = j, r_j, -gamma
                delta, v, r_v = -drop, j, r_j
            scale = 1.0 - g
            cx *= scale
            cr *= scale
            old = xt.item(u)
            xt[u] = new = 0.0 if drop else old + g / cx
            xsum += new - old
            coef[()] = g / cr
            multiply(E[u], coef, buf)
            add(rt, buf, rt)
            if s:
                rt[u] -= g * s / cr
            f_after = scale ** 2 * f + 2.0 * g * scale * r_u
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


def step(state: SolverState, A: Operator, kind: SolverKind) -> StepRecord:
    """One step of the `kind` solver from the state, which `make_state`
    built from the same A; the state is updated in place. FW always makes
    a good step; PFW moves mass from the away vertex j to the FW vertex i;
    AFW makes the FW move or a move away from j; RD is x_i <- x_i r_i / f,
    recomputing r and f densely (O(n^2)), so the support never regrows.

    It is one iteration of the solver loop with epsilon 0, and raises
    NotAscent where that iteration stops without a step: at a nonpositive
    halved gap, for RD too (there r_i = f on the support, so the update
    would leave x as it is), or at i = j for PFW. The gap is tested before
    the away vertex is chosen, so an empty support with r = 0 and f = 0
    raises NotAscent, not EmptySupport."""
    trace: list[StepRecord] = []
    _iterate(state, A, kind, 1, 0.0, trace)
    if not trace:
        raise NotAscent("no ascent direction: the halved gap is "
                        "nonpositive, or the pairwise direction is zero")
    return trace[0]


def initial_point(A: Operator, config: SolverConfig) -> np.ndarray:
    """The configured start: the barycenter of A's active objects, or the
    vertex `init_vertex` picks."""
    if config.init_kind is InitKind.BARYCENTER:
        return init_barycenter(A.n, A.active)
    return init_vertex(A)


def run(
    A: Operator,
    config: SolverConfig,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, list[StepRecord], StopReason]:
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
    return st.xt, trace, reason


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
