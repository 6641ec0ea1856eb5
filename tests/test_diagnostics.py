"""Convergence-diagnostics tests: state consistency, progress identities,
gap bookkeeping, worst-case bounds, and decay fitting."""

import math
from dataclasses import replace

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
from dscfw.errors import (
    EmptyTrace,
    TooFewPoints,
    UncheckableRun,
)
from dscfw.matrix import (
    ShiftedMatrix,
    new_similarity_matrix,
    offdiag_extremes,
    quadratic_form,
    simplex_point,
)
from dscfw.peel import shift_offdiag
from dscfw.solvers import (
    InitKind,
    SolverConfig,
    SolverKind,
    StepKind,
    StepRecord,
    init_barycenter,
    load_trace_csv,
    make_state,
    run,
    save_trace_csv,
)

from conftest import rand_sim


def _extremes_matrix(n):
    """n objects, all off-diagonal entries 0.1 but a_01 = a_10 = 1.0."""
    raw = np.full((n, n), 0.1)
    np.fill_diagonal(raw, 0.0)
    raw[0, 1] = raw[1, 0] = 1.0
    return new_similarity_matrix(raw)


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

    def test_tampered_trace_names_the_bad_step(self, A3):
        cfg = SolverConfig(SolverKind.FW, max_iters=5)
        _, trace, _ = run(A3, cfg, x0=simplex_point([0.2, 0.3, 0.5]))
        tampered = trace[0]
        tampered.f_after += 0.01
        violations = check_progress(trace, A3)
        assert [v.t for v in violations] == [tampered.t]
        assert violations[0].kind is tampered.kind
        assert violations[0].actual == tampered.f_after - tampered.f_before

    def test_a_trace_read_back_from_csv_checks_as_the_live_one(
            self, tmp_path):
        # The CSV holds every field, so the loaded trace is held to the
        # same identities as the solve's own, and a tampered f_after is
        # found in either.
        A = rand_sim(24, np.random.default_rng(17))
        cfg = SolverConfig(SolverKind.AFW, InitKind.VERTEX, max_iters=200)
        _, trace, _ = run(A, cfg)
        tampered = [replace(rec, f_after=1.5 * rec.f_after) for rec in trace]
        path = tmp_path / "trace.csv"
        found = []
        for records in (trace, tampered):
            save_trace_csv(path, records)
            found.append(check_progress(load_trace_csv(path), A))
            assert found[-1] == check_progress(records, A)
        assert found[0] == [] and found[1]

    def test_a_step_that_lacks_a_value_is_refused(self):
        # A good step without r at its vertex: a check that compared NaNs
        # would pass any f_after, so it refuses the trace instead.
        A = rand_sim(4, np.random.default_rng(3))
        rec = _rec(0, StepKind.FW_GOOD, 1.0, f_before=0.0, f_after=0.5)
        rec.s_index = 0
        with pytest.raises(UncheckableRun, match="lacks a value"):
            check_progress([rec], A)


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
        report = theorem_bound(trace, SolverKind.FW, A, init_barycenter(32))
        assert report.satisfied
        assert report.beta == pytest.approx(2 * hi - lo, rel=1e-12)
        assert report.t == len(trace)
        assert report.support0 == 32

    def test_afw_bound_satisfied(self):
        rng = np.random.default_rng(20)
        A = rand_sim(32, rng)
        trace = self._trace(A, SolverKind.AFW)
        report = theorem_bound(trace, SolverKind.AFW, A, init_barycenter(32))
        assert report.satisfied

    def test_afw_small_t_gives_infinite_bound(self):
        trace = [_rec(0, StepKind.FW_GOOD, 1.0, f_before=0.0, f_after=0.3)]
        report = theorem_bound(trace, SolverKind.AFW, _extremes_matrix(5),
                               init_barycenter(5))
        assert report.bound_value == math.inf
        assert report.satisfied

    def test_pfw_small_n_bound(self):
        rng = np.random.default_rng(21)
        A = rand_sim(4, rng)
        trace = self._trace(A, SolverKind.PFW)
        report = theorem_bound(trace, SolverKind.PFW, A, init_barycenter(4))
        assert report.satisfied

    def test_rd_has_no_bound(self):
        trace = [_rec(0, StepKind.RD_STEP, 1.0)]
        with pytest.raises(ValueError):
            theorem_bound(trace, SolverKind.RD, _extremes_matrix(2),
                          init_barycenter(2))

    def test_empty_trace(self):
        with pytest.raises(EmptyTrace):
            theorem_bound([], SolverKind.FW, _extremes_matrix(2),
                          simplex_point([1.0, 0.0]))

    def test_explicit_f0_overrides_trace(self):
        # f0 is f at the start x0, a vertex here, not the trace's f_before.
        trace = [_rec(0, StepKind.FW_GOOD, 0.5, f_before=math.nan,
                      f_after=0.4)]
        report = theorem_bound(trace, SolverKind.FW, _extremes_matrix(3),
                               simplex_point([1.0, 0.0, 0.0]))
        expected = 2.0 * math.sqrt((2.0 - 0.1) * 0.4 / 1.0)
        assert report.bound_value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", [SolverKind.FW, SolverKind.PFW,
                                      SolverKind.AFW])
    def test_constants_come_from_the_operator_and_start(self, kind):
        # A masked, shifted round: the extremes, n and f0 are those of
        # B = A + s(11' - I) on the active objects, from x0 on them.
        A = _extremes_matrix(6)
        active = np.array([True, True, False, True, True, False])
        B = ShiftedMatrix(A, 2.0, active)
        x0 = init_barycenter(6, active)
        trace = [_rec(t, StepKind.FW_GOOD, 0.5, f_before=math.nan,
                      f_after=3.0) for t in range(5)]
        report = theorem_bound(trace, kind, B, x0)
        dense = shift_offdiag(
            new_similarity_matrix(A.entries[np.ix_(active, active)]), 2.0)
        lo, hi = offdiag_extremes(dense)
        gain = 3.0 - quadratic_form(dense, init_barycenter(4))
        assert report.support0 == 4
        if kind is SolverKind.PFW:  # n = 4 active objects, t = 5
            assert report.beta == 2.0 * hi
            expected = 2.0 * math.sqrt(6 * math.factorial(4) * hi * gain / 5)
        elif kind is SolverKind.FW:
            assert report.beta == 2.0 * hi - lo
            expected = 2.0 * math.sqrt(report.beta * gain / 5)
        else:  # t + 1 - |supp x0| = 2
            assert report.beta == 2.0 * hi - lo
            expected = 2.0 * math.sqrt(2.0 * report.beta * gain / 2)
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
