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

One loop, `run`, drives every solver. Per iteration it evaluates the gap
(`fw_gap`) and, for PFW/AFW, the away vertex (`select_away`) once, and
calls the solver's step body (`_fw`, `_pfw`, `_afw`, `_rd`), which is only
its update rule: the line search and the coordinate, mask, penalty and
cache updates. What every step shares is in `_advance`: fold the scales
when due, renormalise, keep the support size as a count (+1 when a vertex
enters, -1 on a drop) and build the StepRecord. The public
``step(state, A, kind)`` takes one step of any solver the same way:
`fw_gap`, `select_away` for PFW/AFW, then `_advance` and the body.

Stop test. `run` stops when ||x+ - x|| <= epsilon for the folded iterates
x = fl(c_x * xt) and x+ = fl(c_x+ * xt+). The norm is sqrt(d.d) with
d = x+ - x, exactly what np.linalg.norm computes for a 1-D array. Every
term of the computed d.d is >= 0 and IEEE rounding is monotone, so the
computed d.d is at least fl(d_c^2) for any coordinate c. If
sqrt(d_c^2) > epsilon, the iterate has not converged and the O(n) norm
is skipped; `run` takes c to be the coordinate the step moves (i for FW
and pairwise steps, j for an away step), whose old value the step
returns, and this decides almost every step. Otherwise it rebuilds the
old xt from the new one and the old values of the coordinates the step
wrote (no other coordinate of xt changes) and computes the full norm
from the two scales, so every stop decision is the one
||fl(c_x+ * xt+) - fl(c_x * xt)|| gives.

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

DEFAULT_EPSILON = sys.float_info.epsilon  # ~2.2e-16
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

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < math.inf:  # NaN fails too
            raise ValueError("epsilon must be positive and finite")
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
    s = A.shift
    st = SolverState(x0.copy(), A.base.entries @ x0.coords, 0.0)
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


# A step body takes the state and the matrix entries E, with the
# evaluation (gap, FW vertex i, away vertex j or None). It updates xt, the
# scales, the mask, pen and rt in place and returns (kind, gamma, f_after,
# entered - dropped, v_index, r_s, r_v, moved), where `moved` holds
# (k, xt[k] before the step) for every coordinate k the step wrote, the
# stop-test coordinate first. Everything else a step does is in `_advance`.

def _rescale_move(st: SolverState, E: np.ndarray, scale: float, k: int,
                  g: float, drop: bool = False) -> float:
    """x <- scale * x + g e_k and r <- scale * r + g B[k] (x_k <- 0 on a
    drop) on the scaled representation: two scalar products, one write to
    xt, one row axpy into rt and, under a shift s, one write of -g s / c_r
    to rt[k]. Returns xt[k] before the step."""
    cx = st.cx = st.cx * scale
    cr = st.cr = st.cr * scale
    xt = st.xt
    old = xt.item(k)
    new = 0.0 if drop else old + g / cx
    xt[k] = new
    st.xsum += new - old
    np.multiply(E[k], g / cr, out=st.buf)
    np.add(st.rt, st.buf, out=st.rt)
    if st.s:
        st.rt[k] -= g * st.s / cr
    return old


def _fw(st, E, gap, i, j):
    f = st.f
    r_i = st.cr * st.rt.item(i) + st.s
    half = r_i - f
    if half <= 0:
        raise NotAscent("halved gap is nonpositive")
    # d'Ad = f - 2 r_i <= 0: the line-search polynomial is concave.
    if not f - 2.0 * r_i <= 0:
        raise BrokenInvariant("FW line search is not concave")
    gamma = half / (2.0 * r_i - f)
    entered = not st.mask[i]
    if entered:
        st.mask[i] = True
        st.pen[i] = 0.0
    old = _rescale_move(st, E, 1.0 - gamma, i, gamma)
    f_after = (1.0 - gamma) ** 2 * f + 2.0 * gamma * (1.0 - gamma) * r_i
    return (StepKind.FW_GOOD, gamma, f_after, entered, None, r_i, math.nan,
            ((i, old),))


def _pfw(st, E, gap, i, j):
    if gap / 2.0 <= 0:
        raise NotAscent("halved gap is nonpositive")
    if i == j:
        # s == v makes the direction zero; the caller treats this as
        # stationary and must not request a step.
        raise NotAscent("pairwise direction is zero (s == v)")
    f, xt, mask, cx, cr, s = st.f, st.xt, st.mask, st.cx, st.cr, st.s
    r_i = cr * st.rt.item(i) + s
    r_j = cr * st.rt.item(j) + s
    a_ij = E.item(i, j) + s
    x_i = xt.item(i)
    x_j = xt.item(j)
    gamma_max = cx * x_j
    if a_ij > 0:
        gamma = min(gamma_max, (r_i - r_j) / (2.0 * a_ij))
    else:
        # Degenerate line-search polynomial: positive slope, maximizer at
        # the cap.
        gamma = gamma_max
    truncated = gamma >= gamma_max
    entered = not mask[i]
    xt[i] = x_i + gamma / cx
    if entered:
        mask[i] = True
        st.pen[i] = 0.0
    if truncated:
        gamma = gamma_max
        xt[j] = 0.0
        mask[j] = False
        st.pen[j] = np.inf
        kind = StepKind.SWAP if entered else StepKind.DROP
    else:
        xt[j] = x_j - gamma / cx
        kind = StepKind.PAIRWISE_GOOD
    st.xsum += (xt.item(i) - x_i) + (xt.item(j) - x_j)
    buf = st.buf
    np.subtract(E[i], E[j], out=buf)
    buf *= gamma / cr
    np.add(st.rt, buf, out=st.rt)
    if s:
        shifted = gamma * s / cr
        st.rt[i] -= shifted
        st.rt[j] += shifted
    f_after = f + 2.0 * gamma * (r_i - r_j) - 2.0 * gamma**2 * a_ij
    return (kind, gamma, f_after, entered - truncated, j, r_i, r_j,
            ((i, x_i), (j, x_j)))


def _afw(st, E, gap, i, j):
    if gap / 2.0 <= 0:
        raise NotAscent("halved gap is nonpositive")
    f = st.f
    r_i = st.cr * st.rt.item(i) + st.s
    r_j = st.cr * st.rt.item(j) + st.s
    if (r_i - f) >= (f - r_j):
        # FW branch: identical to an FW step. At a vertex f = r_j = 0, so
        # this branch is always taken there and the away branch never
        # sees a singleton support.
        return _fw(st, E, gap, i, j)
    x_j = st.cx * st.xt.item(j)
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
        st.mask[j] = False
        st.pen[j] = np.inf
        kind = StepKind.DROP
    else:
        kind = StepKind.AWAY_GOOD
    old = _rescale_move(st, E, 1.0 + gamma, j, -gamma, truncated)
    f_after = (1.0 + gamma) ** 2 * f - 2.0 * gamma * (1.0 + gamma) * r_j
    return kind, gamma, f_after, -truncated, j, r_i, r_j, ((j, old),)


def _rd(st, E, gap, i, j):
    f, x, mask, s = st.f, st.xt, st.mask, st.s
    if f <= 0:
        raise ZeroDenominator("x'Ax is zero; replicator update undefined")
    prev = x.copy()
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
    # A x is recomputed from the renormalised iterate, so the check in
    # `_advance` that follows finds the sum within SUM_TOL.
    renormalize_if_needed(x)
    st.xsum = float(x.sum())
    st.pen[...] = np.where(mask, 0.0, np.inf)
    # numpy's own loop, not a threaded BLAS gemv: on a 2-CPU host that gemv
    # sometimes costs ~8 ms at n=1000 for a whole process, ~40x its usual.
    np.einsum("ij,j->i", E, x, out=st.rt)
    st.cr = 1.0
    if s:
        st.rt -= s * x
    f_after = float(st.rt @ x) + s
    delta = int(np.count_nonzero(mask)) - before
    return (StepKind.RD_STEP, math.nan, f_after, delta, None, math.nan,
            math.nan, ((i, prev.item(i)), (slice(None), prev)))


def _advance(body, st: SolverState, E: np.ndarray, size: int, gap: float,
             i: int, j: int | None):
    """One step of `body` from the state, whose support has `size`
    vertices, plus the bookkeeping every step shares: fold the scales when
    one is out of range, renormalise, count the support and build the
    record. Returns the record, the scale c_x the step started from and
    the body's `moved`."""
    if not (1.0 / _FOLD <= st.cx <= _FOLD and 1.0 / _FOLD <= st.cr <= _FOLD):
        _fold(st)
    cx, f = st.cx, st.f
    kind, gamma, f_after, delta, v, r_s, r_v, moved = body(st, E, gap, i, j)
    total = st.cx * st.xsum
    if abs(total - 1.0) > SUM_TOL:
        st.cx /= total
    rec = StepRecord(st.t, kind, gamma, gap, f, f_after, size + delta, i, v,
                     r_s, r_v)
    st.f = f_after
    st.t += 1
    return rec, cx, moved


_BODY = {
    SolverKind.FW: _fw,
    SolverKind.PFW: _pfw,
    SolverKind.AFW: _afw,
    SolverKind.RD: _rd,
}

_AWAY_KINDS = frozenset({SolverKind.PFW, SolverKind.AFW})


def step(state: SolverState, A: Operator, kind: SolverKind) -> StepRecord:
    """One step of the `kind` solver from the state, which `make_state`
    built from the same A; the state is updated in place. FW always makes
    a good step; PFW moves mass from the away vertex j to the FW vertex i;
    AFW makes the FW move or a move away from j; RD is x_i <- x_i r_i / f,
    recomputing r and f densely (O(n^2)), so the support never regrows."""
    gap, i = fw_gap(state)
    j = select_away(state) if kind in _AWAY_KINDS else None
    rec, _, _ = _advance(_BODY[kind], state, A.base.entries,
                         int(np.count_nonzero(state.mask)), gap, i, j)
    return rec


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
    """Iterate the configured solver until the halved gap drops to the
    threshold, consecutive iterates coincide (||x+ - x|| <= epsilon), or
    the budget is spent. Each iteration evaluates the gap, and for PFW/AFW
    the away vertex, once. A caller-chosen start is given as x0, which is
    copied once; without it the run starts at the configured start.
    On a `ShiftedMatrix` the returned point covers all n objects and is
    zero off the active ones, and trace indices are global."""
    st = make_state(A, x0 if x0 is not None else initial_point(A, config))
    kind = config.solver_kind
    if kind is SolverKind.RD and st.f <= 0:
        raise BadInit(
            "replicator dynamics cannot start where x'Ax = 0 "
            "(e.g. any vertex: the update denominator vanishes)"
        )
    body = _BODY[kind]
    away = kind in _AWAY_KINDS
    pairwise = kind is SolverKind.PFW
    eps = config.epsilon
    xt, mask, E = st.xt, st.mask, A.base.entries
    size = int(np.count_nonzero(mask))
    trace: list[StepRecord] = []
    reason = StopReason.MAX_ITERS
    for _ in range(config.max_iters):
        gap, i = fw_gap(st)
        if gap / 2.0 <= eps:
            reason = StopReason.GAP_REACHED
            break
        j = None
        if away:
            j = select_away(st)
            if pairwise and j == i:
                # Zero pairwise direction: stationary for this solver.
                reason = StopReason.GAP_REACHED
                break
        rec, cx, moved = _advance(body, st, E, size, gap, i, j)
        trace.append(rec)
        size = rec.support_size
        # ||x+ - x|| >= |x+[c] - x[c]| (see the module docstring), so a
        # large move of coordinate c settles the stop test without the
        # O(n) norm.
        c, old = moved[0]
        d_c = st.cx * xt.item(c) - cx * old
        if math.sqrt(d_c * d_c) > eps:
            continue
        # xt before the step differs from xt only where the step wrote.
        prev = xt.copy()
        for k, value in moved:
            prev[k] = value
        d = st.cx * xt - cx * prev
        if math.sqrt(d.dot(d)) <= eps:
            reason = StopReason.ITERATE_CONVERGED
            break
    _fold(st)
    return SimplexPoint(xt, mask), trace, reason


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
