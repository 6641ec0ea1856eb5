"""Convergence-diagnostics tests: state consistency, progress identities,
gap bookkeeping, worst-case bounds, and decay fitting."""

import math

import numpy as np
import pytest

from dscfw.diagnostics import (
    check_progress,
    check_state,
    decay_fit,
    min_gap,
    running_min_gaps,
    step_counts,
    theorem_bound,
)
from dscfw.errors import EmptyTrace, IdentityViolated, TooFewPoints
from dscfw.matrix import offdiag_extremes, simplex_point
from dscfw.solvers import (
    InitKind,
    SolverConfig,
    SolverKind,
    StepKind,
    StepRecord,
    init_barycenter,
    make_state,
    run,
)

from conftest import rand_sim


def _rec(t, kind, gap, f_before=0.0, f_after=0.0):
    return StepRecord(t=t, kind=kind, gamma=0.1, gap=gap,
                      f_before=f_before, f_after=f_after, support_size=1)


class TestCheckState:
    def test_fresh_state_is_consistent(self, A3):
        st = make_state(A3, init_barycenter(3))
        report = check_state(st, A3)
        assert report.max_r_deviation == 0.0
        assert report.max_f_deviation == 0.0
        assert report.ok()

    def test_detects_corrupted_cache(self, A3):
        st = make_state(A3, init_barycenter(3))
        st.r = st.r + 0.01
        st.f += 0.5
        report = check_state(st, A3)
        assert report.max_r_deviation == pytest.approx(0.01, rel=1e-9)
        assert not report.ok()


class TestCheckProgress:
    @pytest.mark.parametrize("kind", [SolverKind.FW, SolverKind.PFW,
                                      SolverKind.AFW])
    def test_clean_runs_have_no_violations(self, kind):
        rng = np.random.default_rng(17)
        A = rand_sim(24, rng)
        cfg = SolverConfig(kind, InitKind.BARYCENTER, max_iters=500)
        _, trace, _ = run(A, cfg)
        assert trace
        assert check_progress(trace, A) == []

    def test_tampered_trace_raises(self, A3):
        cfg = SolverConfig(SolverKind.FW, max_iters=5)
        _, trace, _ = run(A3, cfg, x0=simplex_point([0.2, 0.3, 0.5]))
        trace[0].f_after += 0.01
        with pytest.raises(IdentityViolated):
            check_progress(trace, A3)
        violations = check_progress(trace, A3, raise_on_violation=False)
        assert violations and violations[0].t == trace[0].t


class TestGapBookkeeping:
    def test_min_gap(self):
        trace = [_rec(0, StepKind.FW_GOOD, 3.0),
                 _rec(1, StepKind.FW_GOOD, 1.0),
                 _rec(2, StepKind.FW_GOOD, 2.0)]
        assert min_gap(trace) == 1.0

    def test_min_gap_empty(self):
        with pytest.raises(EmptyTrace):
            min_gap([])

    def test_step_counts(self):
        trace = [_rec(0, StepKind.FW_GOOD, 1.0),
                 _rec(1, StepKind.AWAY_GOOD, 1.0),
                 _rec(2, StepKind.DROP, 1.0),
                 _rec(3, StepKind.SWAP, 1.0),
                 _rec(4, StepKind.PAIRWISE_GOOD, 1.0)]
        assert step_counts(trace) == (3, 1, 1)

    def test_running_min_gaps(self):
        trace = [_rec(0, StepKind.FW_GOOD, 3.0),
                 _rec(1, StepKind.FW_GOOD, 1.0),
                 _rec(2, StepKind.FW_GOOD, 2.0)]
        assert np.array_equal(running_min_gaps(trace), [3.0, 1.0, 1.0])

    def test_running_min_gaps_empty(self):
        with pytest.raises(EmptyTrace):
            running_min_gaps([])


class TestTheoremBound:
    def _trace(self, A, kind, max_iters=500):
        cfg = SolverConfig(kind, InitKind.BARYCENTER, max_iters=max_iters)
        _, trace, _ = run(A, cfg)
        assert trace
        return trace

    def test_fw_bound_satisfied_on_random_instance(self):
        rng = np.random.default_rng(19)
        A = rand_sim(32, rng)
        trace = self._trace(A, SolverKind.FW)
        lo, hi = offdiag_extremes(A)
        report = theorem_bound(trace, SolverKind.FW, lo, hi, support0=32)
        assert report.satisfied
        assert report.beta == pytest.approx(2 * hi - lo, rel=1e-12)
        assert report.t == len(trace)

    def test_afw_bound_satisfied(self):
        rng = np.random.default_rng(20)
        A = rand_sim(32, rng)
        trace = self._trace(A, SolverKind.AFW)
        lo, hi = offdiag_extremes(A)
        report = theorem_bound(trace, SolverKind.AFW, lo, hi, support0=32)
        assert report.satisfied

    def test_afw_small_t_gives_infinite_bound(self):
        trace = [_rec(0, StepKind.FW_GOOD, 1.0, f_before=0.0, f_after=0.3)]
        report = theorem_bound(trace, SolverKind.AFW, 0.1, 1.0, support0=5)
        assert report.bound_value == math.inf
        assert report.satisfied

    def test_pfw_requires_dimension(self):
        trace = [_rec(0, StepKind.PAIRWISE_GOOD, 1.0, f_after=0.3)]
        with pytest.raises(ValueError):
            theorem_bound(trace, SolverKind.PFW, 0.1, 1.0, support0=2)

    def test_pfw_small_n_bound(self):
        rng = np.random.default_rng(21)
        A = rand_sim(4, rng)
        trace = self._trace(A, SolverKind.PFW)
        lo, hi = offdiag_extremes(A)
        report = theorem_bound(trace, SolverKind.PFW, lo, hi,
                               support0=4, n=4)
        assert report.satisfied

    def test_rd_has_no_bound(self):
        trace = [_rec(0, StepKind.RD_STEP, 1.0)]
        with pytest.raises(ValueError):
            theorem_bound(trace, SolverKind.RD, 0.1, 1.0, support0=2)

    def test_empty_trace(self):
        with pytest.raises(EmptyTrace):
            theorem_bound([], SolverKind.FW, 0.1, 1.0, support0=1)

    def test_explicit_f0_overrides_trace(self):
        trace = [_rec(0, StepKind.FW_GOOD, 0.5, f_before=math.nan,
                      f_after=0.4)]
        report = theorem_bound(trace, SolverKind.FW, 0.1, 1.0,
                               support0=1, f0=0.0)
        expected = 2.0 * math.sqrt((2.0 - 0.1) * 0.4 / 1.0)
        assert report.bound_value == pytest.approx(expected, rel=1e-12)


class TestDecayFit:
    def test_exact_power_law(self):
        t = np.arange(1, 201, dtype=float)
        assert decay_fit(t ** -0.5) == pytest.approx(-0.5, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            decay_fit([1.0] * 10)

    def test_zero_gaps_excluded(self):
        curve = np.concatenate([np.arange(1, 41, dtype=float) ** -1.0,
                                np.zeros(5)])
        assert decay_fit(curve) == pytest.approx(-1.0, abs=1e-9)
