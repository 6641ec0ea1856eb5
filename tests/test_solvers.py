"""Solver unit tests: frozen worked examples for every step kind, branch
selection, stopping behavior, scale invariance, and trace CSV round-trip."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from dscfw import solvers
from dscfw.data import block_noise_matrix
from dscfw.diagnostics import check_state
from dscfw.errors import (
    BadInit,
    BrokenInvariant,
    DimensionMismatch,
    EmptySupport,
    NegativeEntry,
    NonFiniteEntry,
    NotAscent,
    ZeroDenominator,
)
from dscfw.matrix import (
    ShiftedMatrix,
    new_similarity_matrix,
    quadratic_form,
    simplex_point,
)
from dscfw.multistart import seed_starting_points
from dscfw.peel import shift_offdiag
from dscfw.solvers import (
    DEFAULT_EPSILON,
    InitKind,
    SolverConfig,
    SolverKind,
    SolverState,
    StepKind,
    StopReason,
    init_barycenter,
    init_vertex,
    initial_point,
    load_trace_csv,
    make_state,
    run,
    save_trace_csv,
    select_away,
    step,
)

from conftest import extract_support, fw_gap, rand_sim


@pytest.fixture
def state3(A3):
    return make_state(A3, simplex_point([0.2, 0.3, 0.5]))


class TestInits:
    def test_barycenter(self):
        pt = init_barycenter(4)
        assert np.allclose(pt, 0.25)
        assert extract_support(pt, 0.0) == [0, 1, 2, 3]

    def test_vertex_picks_largest_row_sum(self, A3):
        pt = init_vertex(A3)  # row sums (3, 5, 4) -> index 1
        assert extract_support(pt, 0.0) == [1]
        assert pt[1] == 1.0

    def test_vertex_tie_goes_to_lowest_index(self):
        A = new_similarity_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert extract_support(init_vertex(A), 0.0) == [0]

    def test_vertex_state_holds_the_product_bit_for_bit(self):
        # A vertex start reads column i for E @ e_i. The matrix is symmetric
        # only within SYM_TOL, so row i would differ, and a -0.0 entry must
        # read as the +0.0 the product gives.
        rng = np.random.default_rng(3)
        raw = np.array(rand_sim(6, rng).entries)
        raw[0, 2] = raw[2, 0] = -0.0
        raw[4, 3], raw[3, 4] = -0.0, 5e-13
        A = new_similarity_matrix(raw)
        for x0 in np.eye(6):
            st = make_state(A, simplex_point(x0))
            assert st.cr == 1.0
            assert st.rt.tobytes() == (A.entries @ x0).tobytes()


class TestGapAndAway:
    def test_fw_gap_frozen(self, state3):
        # r = (1.1, 1.9, 1.1), f = 1.34 -> full gap 2*(1.9 - 1.34) = 1.12.
        gap, s = fw_gap(state3)
        assert gap == pytest.approx(1.12, rel=1e-12)
        assert s == 1

    def test_select_away_worst_support_vertex(self, state3):
        # r = (1.1, 1.9, 1.1) but the binary floats break the decimal tie:
        # r_2 = 0.2 + 0.9 is one ulp below r_0 = 0.6 + 0.5.
        assert select_away(state3) == 2

    def test_select_away_tie_goes_to_lowest_index(self):
        # Exact tie: r is (1.0, 1.0, 1.0) at x = (0.5, 0.5, 0).
        A = new_similarity_matrix([[0.0, 2.0, 1.0],
                                   [2.0, 0.0, 1.0],
                                   [1.0, 1.0, 0.0]])
        st = make_state(A, simplex_point([0.5, 0.5, 0.0]))
        assert select_away(st) == 0

    def test_select_away_empty_support(self, A3):
        st = make_state(A3, simplex_point([0.0, 1.0, 0.0]))
        st.pen[:] = np.inf
        with pytest.raises(EmptySupport):
            select_away(st)

    @settings(max_examples=200, deadline=None)
    @given(hst.integers(1, 12).flatmap(lambda n: hst.tuples(
        hst.lists(hst.integers(-3, 3), min_size=n, max_size=n),
        hst.lists(hst.booleans(), min_size=n, max_size=n))))
    def test_select_away_matches_brute_force(self, case):
        # Integer r makes ties common; the lowest support index must win.
        r, mask = (np.array(v) for v in case)
        assume(mask.any())
        coords = mask / mask.sum()
        state = SolverState(coords, r.astype(float), 0.0)
        expected = min(extract_support(state.x, 0.0), key=lambda k: r[k])
        assert select_away(state) == expected


class TestFwStep:
    def test_frozen_example(self, A3, state3):
        # gamma = (r_s - f)/(2 r_s - f) = 0.56/2.46;
        # f_after = f + (r_s - f)^2/(2 r_s - f).
        rec = step(state3, A3, SolverKind.FW)
        assert rec.kind is StepKind.FW_GOOD
        assert rec.gamma == pytest.approx(0.56 / 2.46, rel=1e-12)
        assert rec.gap == pytest.approx(1.12, rel=1e-12)
        assert rec.f_before == pytest.approx(1.34, rel=1e-12)
        assert rec.f_after == pytest.approx(1.34 + 0.56**2 / 2.46, rel=1e-12)
        assert rec.s_index == 1
        assert rec.r_s == pytest.approx(1.9, rel=1e-12)
        assert rec.support_size == 3
        # Cached f matches the dense oracle after the update.
        assert state3.f == pytest.approx(quadratic_form(A3, state3.x),
                                         rel=1e-12)

    def test_not_ascent_at_stationary_point(self):
        A = new_similarity_matrix([[0.0, 1.0], [1.0, 0.0]])
        st = make_state(A, simplex_point([0.5, 0.5]))
        with pytest.raises(NotAscent):
            step(st, A, SolverKind.FW)

    def test_convex_line_search_is_a_typed_error(self):
        # A cache inconsistent with any nonnegative matrix: r_i > f but
        # f - 2 r_i > 0, so the line-search polynomial would be convex.
        A = new_similarity_matrix([[0.0, 1.0], [1.0, 0.0]])
        st = SolverState(simplex_point([0.5, 0.5]),
                         np.array([-1.0, -2.0]), -1.5)
        with pytest.raises(BrokenInvariant):
            step(st, A, SolverKind.FW)


class TestPfwStep:
    def test_frozen_drop(self):
        # i=0, j=2, a_ij=1: optimal gamma (2.4-0.4)/2 = 1.0 exceeds the cap
        # x_2 = 0.4 -> truncated with i already in support -> Drop.
        A = new_similarity_matrix([[0.0, 5.0, 1.0],
                                   [5.0, 0.0, 0.5],
                                   [1.0, 0.5, 0.0]])
        st = make_state(A, simplex_point([0.2, 0.4, 0.4]))
        rec = step(st, A, SolverKind.PFW)
        assert rec.kind is StepKind.DROP
        assert rec.gamma == pytest.approx(0.4, rel=1e-12)
        assert (rec.s_index, rec.v_index) == (0, 2)
        assert np.allclose(st.x, [0.6, 0.4, 0.0], atol=1e-15)
        assert extract_support(st.x, 0.0) == [0, 1]
        assert rec.f_after == pytest.approx(2.4, rel=1e-12)

    def test_frozen_swap_zero_edge(self):
        # a_ij = 0 between best vertex 2 and worst support vertex 0:
        # degenerate line search moves all of x_0 onto the new vertex.
        A = new_similarity_matrix([[0.0, 1.0, 0.0],
                                   [1.0, 0.0, 2.0],
                                   [0.0, 2.0, 0.0]])
        st = make_state(A, simplex_point([0.5, 0.5, 0.0]))
        rec = step(st, A, SolverKind.PFW)
        assert rec.kind is StepKind.SWAP
        assert rec.gamma == pytest.approx(0.5, rel=1e-12)
        assert np.allclose(st.x, [0.0, 0.5, 0.5], atol=1e-15)
        assert rec.f_after == pytest.approx(1.0, rel=1e-12)
        assert extract_support(st.x, 0.0) == [1, 2]

    def test_frozen_good_step(self, A3):
        # r = (0.7, 1.9, 1.1), f = 1.06: i=1, j=0, a_ij=2, and the optimal
        # gamma (1.9-0.7)/4 = 0.3 sits below the cap x_0 = 0.5.
        st = make_state(A3, simplex_point([0.5, 0.2, 0.3]))
        rec = step(st, A3, SolverKind.PFW)
        assert rec.kind is StepKind.PAIRWISE_GOOD
        assert rec.gamma == pytest.approx(0.3, rel=1e-12)
        assert np.allclose(st.x, [0.2, 0.5, 0.3], atol=1e-15)
        assert extract_support(st.x, 0.0) == [0, 1, 2]
        # Exact progress identity: delta f = (r_i - r_j)^2 / (2 a_ij).
        assert rec.f_after - rec.f_before == pytest.approx(1.2**2 / 4.0,
                                                           rel=1e-12)

    def test_not_ascent_when_gap_zero(self):
        A = new_similarity_matrix([[0.0, 1.0], [1.0, 0.0]])
        st = make_state(A, simplex_point([0.5, 0.5]))
        with pytest.raises(NotAscent):
            step(st, A, SolverKind.PFW)


class TestAfwStep:
    def test_fw_branch_matches_fw_step(self, A3, state3):
        # r_i - f = 0.56 >= f - r_j = 0.24 -> standard FW move.
        rec = step(state3, A3, SolverKind.AFW)
        assert rec.kind is StepKind.FW_GOOD
        assert rec.gamma == pytest.approx(0.56 / 2.46, rel=1e-12)

    def test_frozen_away_drop(self):
        # Away branch with nonpositive curvature denominator: gamma is
        # capped at x_j/(1-x_j) and vertex 2 leaves the support.
        A = new_similarity_matrix([[0.0, 1.0, 0.0],
                                   [1.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0]])
        st = make_state(A, simplex_point([0.45, 0.45, 0.1]))
        rec = step(st, A, SolverKind.AFW)
        assert rec.kind is StepKind.DROP
        assert rec.gamma == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert rec.v_index == 2
        assert np.allclose(st.x, [0.5, 0.5, 0.0], atol=1e-15)
        assert extract_support(st.x, 0.0) == [0, 1]
        assert rec.f_after == pytest.approx(0.5, rel=1e-12)

    def test_frozen_away_good(self):
        # Interior away step: gamma = (f - r_j)/(2 r_j - f) < gamma_max,
        # gaining exactly (f - r_j)^2/(2 r_j - f).
        M = np.array([[0.0, 0.88, 0.55, 0.22],
                      [0.88, 0.0, 0.12, 0.77],
                      [0.55, 0.12, 0.0, 0.73],
                      [0.22, 0.77, 0.73, 0.0]])
        A = new_similarity_matrix(M)
        x = np.array([0.2, 0.21, 0.3, 0.29])
        r = M @ x
        f = float(x @ r)
        j = int(np.argmin(r))  # index 2, also the worst support vertex
        expected_gamma = (f - r[j]) / (2.0 * r[j] - f)
        st = make_state(A, simplex_point(x))
        rec = step(st, A, SolverKind.AFW)
        assert rec.kind is StepKind.AWAY_GOOD
        assert rec.v_index == j
        assert rec.gamma == pytest.approx(expected_gamma, rel=1e-12)
        assert rec.f_after - rec.f_before == pytest.approx(
            (f - r[j]) ** 2 / (2.0 * r[j] - f), rel=1e-9)
        expected_x = (1.0 + expected_gamma) * x
        expected_x[j] -= expected_gamma
        assert np.allclose(st.x, expected_x, atol=1e-14)

    def test_away_step_from_vertex_is_a_typed_error(self):
        # At a vertex f = r_j = 0 makes the FW branch certain; a cache
        # with f > r_i / 2 forces the away branch, which must refuse.
        A = new_similarity_matrix([[0.0, 1.0], [1.0, 0.0]])
        st = SolverState(simplex_point([1.0, 0.0]), np.array([0.0, 1.0]), 0.8)
        with pytest.raises(BrokenInvariant):
            step(st, A, SolverKind.AFW)


class TestRdStep:
    def test_frozen_update(self):
        A = new_similarity_matrix([[0.0, 1.0], [1.0, 0.0]])
        st = make_state(A, simplex_point([0.25, 0.75]))
        rec = step(st, A, SolverKind.RD)
        assert rec.kind is StepKind.RD_STEP
        assert math.isnan(rec.gamma)
        assert np.allclose(st.x, [0.5, 0.5], atol=1e-15)
        assert rec.f_before == pytest.approx(0.375, rel=1e-12)
        assert rec.f_after == pytest.approx(0.5, rel=1e-12)
        assert rec.gap == pytest.approx(2 * (0.75 - 0.375), rel=1e-12)

    def test_zero_denominator_at_vertex(self, A3):
        st = make_state(A3, simplex_point([1.0, 0.0, 0.0]))
        with pytest.raises(ZeroDenominator):
            step(st, A3, SolverKind.RD)

    def test_support_never_grows(self, A3):
        st = make_state(A3, simplex_point([0.5, 0.5, 0.0]))
        step(st, A3, SolverKind.RD)
        assert 2 not in extract_support(st.x, 0.0)

    def test_not_ascent_at_a_fixed_point(self):
        # r = (0.5, 0.5) = f on the support: the update would leave x as
        # it is, and step stops there as the FW solvers do.
        A = new_similarity_matrix([[0.0, 1.0], [1.0, 0.0]])
        st = make_state(A, simplex_point([0.5, 0.5]))
        with pytest.raises(NotAscent):
            step(st, A, SolverKind.RD)
        assert st.t == 0
        assert st.x.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("kind", list(SolverKind))
def test_empty_support_is_not_ascent(kind):
    # x = 0 gives r = 0 and f = 0: the gap test stops the step before the
    # away vertex is chosen.
    A = new_similarity_matrix([[0.0, 1.0], [1.0, 0.0]])
    st = SolverState(np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(NotAscent):
        step(st, A, kind)


class TestConfig:
    def test_rejects_bad_epsilon(self):
        for bad in (0.0, 1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SolverConfig(epsilon=bad)

    def test_rejects_negative_max_iters(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=-1)


class TestRun:
    def test_gap_reached(self):
        # One FW step from the vertex lands on the maximizer (0.5, 0.5).
        A = new_similarity_matrix([[0.0, 1.0], [1.0, 0.0]])
        cfg = SolverConfig(SolverKind.FW, InitKind.VERTEX)
        x, trace, reason = run(A, cfg)
        assert reason is StopReason.GAP_REACHED
        assert len(trace) == 1
        assert np.allclose(x, [0.5, 0.5], atol=1e-15)

    def test_max_iters_zero_returns_start(self, A3):
        cfg = SolverConfig(SolverKind.FW, InitKind.VERTEX, max_iters=0)
        x, trace, reason = run(A3, cfg)
        assert reason is StopReason.MAX_ITERS
        assert trace == []
        assert extract_support(x, 0.0) == [1]

    def test_rd_rejects_vertex_start(self, A3):
        cfg = SolverConfig(SolverKind.RD, InitKind.VERTEX)
        with pytest.raises(BadInit):
            run(A3, cfg)

    @pytest.mark.parametrize("x0", [[0.5, 0.5], [0.0, 0.0, 0.0, 1.0],
                                    [[1.0, 0.0, 0.0]]],
                             ids=["short", "long-vertex", "2-d"])
    def test_start_of_the_wrong_shape(self, A3, x0):
        with pytest.raises(DimensionMismatch):
            run(A3, SolverConfig(SolverKind.FW), x0=np.array(x0))

    @pytest.mark.parametrize("kind", list(SolverKind))
    @pytest.mark.parametrize("head, error", [
        ([1.1], DimensionMismatch),
        ([1.5, -0.5], NegativeEntry),
        ([np.nan, 1.0], NonFiniteEntry),
        ([0.0], DimensionMismatch),
    ], ids=["sum-1.1", "negative", "nan", "all-zero"])
    def test_start_off_the_simplex(self, kind, head, error):
        # Unchecked, each runs on: a sum of 1.1 to GapReached, the negative
        # start under AFW to an iterate near -1e15, zeros to x = 0, and NaN
        # to a solver fault instead of a data error.
        A, _ = block_noise_matrix(30, 3, 0.1, seed=0)
        x0 = np.zeros(30)
        x0[:len(head)] = head
        with pytest.raises(error):
            run(A, SolverConfig(kind), x0=x0)

    def test_rd_iterate_converged_at_fixed_point(self):
        # (0.5, 0.5, 0) is a replicator fixed point with positive gap.
        A = new_similarity_matrix([[0.0, 1.0, 2.0],
                                   [1.0, 0.0, 2.0],
                                   [2.0, 2.0, 0.0]])
        x, trace, reason = run(A, SolverConfig(SolverKind.RD),
                               x0=simplex_point([0.5, 0.5, 0.0]))
        assert reason is StopReason.ITERATE_CONVERGED
        assert len(trace) == 1
        assert np.allclose(x, [0.5, 0.5, 0.0], atol=1e-15)
        assert trace[0].gap == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("kind", [SolverKind.PFW, SolverKind.AFW])
    def test_gap_reached_after_a_vanishing_drop(self, kind):
        # Vertex 2 carries 1e-300 and r_2 = 0, so both solvers drop it.
        # The drop leaves x where it was, but the halved gap is still
        # 0.56: the run steps on to the maximizer (0.5, 0.5, 0) and stops
        # on the gap.
        A = new_similarity_matrix([[0.0, 2.0, 0.0],
                                   [2.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0]])
        x, trace, reason = run(A, SolverConfig(kind),
                               x0=simplex_point([0.3, 0.7, 1e-300]))
        assert reason is StopReason.GAP_REACHED
        assert [rec.kind for rec in trace] == [
            StepKind.DROP,
            StepKind.PAIRWISE_GOOD if kind is SolverKind.PFW
            else StepKind.FW_GOOD]
        assert trace[0].v_index == 2
        assert extract_support(x, 0.0) == [0, 1]
        assert np.allclose(x, [0.5, 0.5, 0.0], atol=1e-15)

    def test_pfw_stationary_when_best_equals_away(self):
        # Zero pairwise direction stops the run without a step.
        A = new_similarity_matrix([[0.0, 1.0], [1.0, 0.0]])
        _, trace, reason = run(A, SolverConfig(SolverKind.PFW),
                               x0=simplex_point([0.5, 0.5]))
        assert reason is StopReason.GAP_REACHED
        assert trace == []

    @pytest.mark.parametrize("kind", [SolverKind.FW, SolverKind.PFW,
                                      SolverKind.AFW])
    def test_scale_invariance(self, kind):
        # Scaling A by c scales r, f, and every line-search ratio alike:
        # the iterate sequence and step kinds are unchanged.
        rng = np.random.default_rng(21)
        A = rand_sim(12, rng)
        B = new_similarity_matrix(4.0 * A.entries)
        sa = make_state(A, init_barycenter(12))
        sb = make_state(B, init_barycenter(12))
        for _ in range(30):
            ra = step(sa, A, kind)
            rb = step(sb, B, kind)
            assert ra.kind is rb.kind
            assert np.allclose(sa.x, sb.x, atol=1e-12)

    @pytest.mark.parametrize("kind", [SolverKind.FW, SolverKind.PFW,
                                      SolverKind.AFW, SolverKind.RD])
    def test_objective_nondecreasing(self, kind):
        rng = np.random.default_rng(33)
        A = rand_sim(20, rng)
        cfg = SolverConfig(kind, InitKind.BARYCENTER, max_iters=200)
        _, trace, _ = run(A, cfg)
        assert trace
        for rec in trace:
            assert rec.f_after >= rec.f_before - 1e-12 * max(1.0, rec.f_before)

    def test_final_support_is_local_cluster(self):
        rng = np.random.default_rng(8)
        A = rand_sim(30, rng)
        cfg = SolverConfig(SolverKind.PFW, InitKind.BARYCENTER,
                           max_iters=2000)
        x, _, reason = run(A, cfg)
        assert reason is not StopReason.MAX_ITERS
        simplex_point(x)


def _record_fields(rec):
    # NaN marks an unused r_s/r_v; compare it as equal to itself.
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v
                 for v in dataclasses.astuple(rec))


def _seed_start(start, k, active):
    """Multistart's vertex or biased start at the k-th active object, over
    the active objects only, in global coordinates."""
    members = np.flatnonzero(active)
    vertex, biased = seed_starting_points(k, members.size)
    local = biased if start == "seed-biased" else vertex
    coords = np.zeros(active.size)
    coords[members] = local
    return coords


@settings(max_examples=200, deadline=None)
@given(n=hst.integers(2, 12), seed=hst.integers(0, 2**32 - 1),
       integer=hst.booleans(),
       kind=hst.sampled_from(list(SolverKind)),
       start=hst.sampled_from(["barycenter", "vertex", "seed-vertex",
                               "seed-biased"]),
       shift=hst.sampled_from([0.0, 0.5, 4.0]),
       operator=hst.sampled_from(["dense", "shifted", "masked"]),
       epsilon=hst.sampled_from([DEFAULT_EPSILON, 1e-3, 0.05]))
def test_run_matches_public_step_loop(n, seed, integer, kind, start, shift,
                                      operator, epsilon):
    # run evaluates each iterate once and keeps the support size as a
    # count; a loop over the public `step`, which evaluates for itself,
    # with the relative gap test and RD's iterate test written out, must
    # give the same trace, iterate and stop reason. Integer weights make
    # ties, zero edges, drops and swaps common; the seed starts are
    # multistart's, and a loose epsilon makes RD's iterate-converged stop
    # common. The operator is the dense shifted
    # matrix, or peel's implicit shift, over all objects or over a random
    # active mask (so the cache carries the shift and the FW vertex is a
    # masked argmax). RD starts where its update is defined: the
    # barycenter or the biased seed start.
    rng = np.random.default_rng(seed)
    if integer:
        upper = np.triu(rng.integers(0, 4, size=(n, n)).astype(float), 1)
        A = new_similarity_matrix(upper + upper.T)
    else:
        A = rand_sim(n, rng)
    active = rng.random(n) < 0.6
    active[rng.choice(n, size=2, replace=False)] = True
    if operator == "dense":
        A = shift_offdiag(A, shift)
    elif operator == "shifted":
        A = ShiftedMatrix(A, shift)
    else:
        A = ShiftedMatrix(A, shift, active)
    if kind is SolverKind.RD:
        start = {"vertex": "barycenter", "seed-vertex": "seed-biased"}.get(
            start, start)
    x0 = None
    if start.startswith("seed-"):
        members = active if operator == "masked" else np.ones(n, dtype=bool)
        x0 = _seed_start(start, int(rng.integers(members.sum())), members)
        start_coords = x0.copy()
        cfg = SolverConfig(kind, epsilon=epsilon, max_iters=200)
    else:
        cfg = SolverConfig(kind, InitKind(start), epsilon=epsilon,
                           max_iters=200)
    state = make_state(A, initial_point(A, cfg) if x0 is None else x0)
    if kind is SolverKind.RD and state.f <= 0:
        with pytest.raises(BadInit):
            run(A, cfg, x0=x0)
        return
    x, trace, reason = run(A, cfg, x0=x0)

    expected, expected_reason = [], StopReason.MAX_ITERS
    for _ in range(cfg.max_iters):
        gap, i = fw_gap(state)
        if gap / 2.0 <= cfg.epsilon * state.r[i]:
            expected_reason = StopReason.GAP_REACHED
            break
        if kind is SolverKind.PFW and select_away(state) == i:
            expected_reason = StopReason.GAP_REACHED
            break
        prev = state.x
        expected.append(step(state, A, kind))
        if kind is SolverKind.RD and float(
                np.linalg.norm(state.x - prev)) <= cfg.epsilon:
            expected_reason = StopReason.ITERATE_CONVERGED
            break
    assert reason is expected_reason
    assert [_record_fields(r) for r in trace] == [
        _record_fields(r) for r in expected]
    simplex_point(x)
    assert np.array_equal(x, state.x)
    # The solver's one support record, pen, is where the point is positive.
    assert np.array_equal(x > 0, state.pen == 0.0)
    if operator == "masked":
        assert not np.any((x > 0) & ~active)
    if x0 is not None:  # run copies the start it is given
        assert np.array_equal(x0, start_coords)


@settings(max_examples=150, deadline=None)
@given(n=hst.integers(2, 14), seed=hst.integers(0, 2**32 - 1),
       kind=hst.sampled_from(list(SolverKind)),
       init=hst.sampled_from(list(InitKind)),
       k=hst.sampled_from([-20, 20]), shift=hst.sampled_from([0.0, 4.0]))
def test_run_is_invariant_to_a_power_of_two_scale(n, seed, kind, init, k,
                                                  shift):
    # Scaling A and the shift by c = 2^k scales r, f and the gap exactly
    # and leaves every line-search ratio as it was, and the stop test,
    # relative to max(r), scales on both sides: the FW solvers take the
    # same steps to the same stop and the same bits. RD stops at the same
    # step; its iterate may differ in the last bits.
    A = rand_sim(n, np.random.default_rng(seed))
    c = 2.0 ** k
    if kind is SolverKind.RD:
        init = InitKind.BARYCENTER  # RD cannot start at a vertex
    cfg = SolverConfig(kind, init)
    x, trace, reason = run(ShiftedMatrix(A, shift), cfg)
    scaled = ShiftedMatrix(new_similarity_matrix(c * A.entries), c * shift)
    y, scaled_trace, scaled_reason = run(scaled, cfg)
    assert scaled_reason is reason
    assert len(scaled_trace) == len(trace)
    if kind is SolverKind.RD:
        return
    assert [(r.kind, r.t, r.s_index, r.v_index) for r in scaled_trace] == [
        (r.kind, r.t, r.s_index, r.v_index) for r in trace]
    assert np.array_equal(y, x)


def test_run_matches_public_step_loop_with_frequent_folds(monkeypatch):
    # With a fold bound of 1.02 the scales are folded into the arrays
    # every few FW and AFW steps (from a vertex, the first FW step alone
    # halves them). A fold changes the arithmetic of the steps after it,
    # so run and the public steps must fold at the same steps to stay
    # equal: the same examples, the same trace, iterate and stop reason.
    monkeypatch.setattr(solvers, "_FOLD", 1.02)
    test_run_matches_public_step_loop()


def test_folds_keep_the_cache_exact(monkeypatch):
    # A core of 150 similar objects among 200: AFW from the barycenter
    # drops the 50 others and most of the core by away steps, each of
    # which multiplies both scales by 1 + gamma, so c_x climbs above 1.
    # With a fold bound of 1.02, the scales are folded every few steps;
    # after every step the folded cache must still be A x.
    folds = []
    fold = solvers._fold

    def counted_fold(st):
        folds.append(st.cx)
        fold(st)

    monkeypatch.setattr(solvers, "_fold", counted_fold)
    monkeypatch.setattr(solvers, "_FOLD", 1.02)
    n, core = 200, 150
    W = np.random.default_rng(4).uniform(0.0, 1.0, size=(n, n))
    W[core:, :] *= 0.05
    W[:, core:] *= 0.05
    W = np.triu(W, 1)
    A = new_similarity_matrix(W + W.T)
    state = make_state(A, init_barycenter(n))
    kinds, worst = [], 0.0
    for _ in range(2000):
        gap, i = fw_gap(state)
        if gap / 2.0 <= DEFAULT_EPSILON * state.r[i]:
            break
        rec = step(state, A, SolverKind.AFW)
        kinds.append(rec.kind)
        worst = max(worst, check_state(state, A).max_r_deviation)
    away = sum(k is not StepKind.FW_GOOD for k in kinds)
    assert len(kinds) > 300 and away > len(kinds) / 2
    assert len(folds) > 20 and max(folds) > 1.0
    assert worst <= 1e-8


# sha256 (first 16 hex digits) of every trace field, the stop reason and
# the final iterate's bytes of a 300-step run, keyed by solver, start and
# operator. They were recorded from the solver loop as it stood before its
# step bodies were fused, and re-pinned when the stop test became relative
# to max(r) (each re-pinned trace a prefix of the one it replaced). They
# pin the loop's arithmetic and its order of operations: any change to
# either moves some digest. Integer weights and
# power-of-two supports (32 objects, 16 active) make make_state's products
# exact, so the digests do not depend on the BLAS.
GOLDEN_TRACES = {
    "fw-b-A": "4c4e56c90e1eba60",
    "fw-v-A": "15fc942d0d4bb003",
    "pfw-b-A": "dd615a16394d4932",
    "pfw-v-A": "cfcc7509f2537825",
    "afw-b-A": "fe328952613ac950",
    "afw-v-A": "e71b2ab0a5b0bebb",
    "fw-b-shift": "16eb30a838957070",
    "fw-v-shift": "f883f0189c3ba1be",
    "pfw-b-shift": "7d08c273b0cfc3da",
    "pfw-v-shift": "e485f52b98b9eb2a",
    "afw-b-shift": "c56d2028666fe889",
    "afw-v-shift": "debc834bd2e8f66a",
    "fw-b-active": "cb1a0c1c5c57f9e0",
    "fw-v-active": "35c9ce09ccb3ad7a",
    "pfw-b-active": "86bfa869a9d2f652",
    "pfw-v-active": "51acbe5603a57d83",
    "afw-b-active": "258482d897db5520",
    "afw-v-active": "5e99e03a896c4ad4",
}


def _run_digest(x, trace, reason):
    h = hashlib.sha256()
    for rec in trace:
        for v in dataclasses.astuple(rec):
            if isinstance(v, float):
                v = v.hex()
            elif isinstance(v, StepKind):
                v = v.value
            h.update(f"{v},".encode())
    h.update(reason.value.encode())
    h.update(x.tobytes())
    h.update((x > 0).tobytes())
    return h.hexdigest()[:16]


def test_traces_match_their_pinned_digests():
    rng = np.random.default_rng(2020)
    upper = np.triu(rng.integers(0, 8, size=(32, 32)).astype(float), 1)
    A = new_similarity_matrix(upper + upper.T)
    active = np.zeros(32, dtype=bool)
    active[rng.permutation(32)[:16]] = True
    operators = {"A": A, "shift": ShiftedMatrix(A, 4.0),
                 "active": ShiftedMatrix(A, 4.0, active)}
    digests = {}
    for name, op in operators.items():
        for kind in (SolverKind.FW, SolverKind.PFW, SolverKind.AFW):
            for init in (InitKind.BARYCENTER, InitKind.VERTEX):
                cfg = SolverConfig(kind, init, max_iters=300)
                label = f"{kind.value}-{init.value[0]}-{name}"
                digests[label] = _run_digest(*run(op, cfg))
    assert digests == GOLDEN_TRACES


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        A = rand_sim(10, rng)
        cfg = SolverConfig(SolverKind.PFW, InitKind.BARYCENTER,
                           max_iters=100)
        _, trace, _ = run(A, cfg)
        assert trace
        path = tmp_path / "trace.csv"
        save_trace_csv(path, trace)
        loaded = load_trace_csv(path)
        assert len(loaded) == len(trace)
        for orig, back in zip(trace, loaded):
            assert back.t == orig.t
            assert back.kind is orig.kind
            assert back.gamma == pytest.approx(orig.gamma, rel=1e-15)
            assert back.gap == pytest.approx(orig.gap, rel=1e-15)
            assert back.f_after == pytest.approx(orig.f_after, rel=1e-15)
            assert back.support_size == orig.support_size
            assert back.s_index == orig.s_index
            assert back.v_index == orig.v_index
        # f_before is chained from the previous record on load.
        for prev, rec in zip(loaded, loaded[1:]):
            assert rec.f_before == prev.f_after
        assert math.isnan(loaded[0].f_before)

    def test_gap_half_property(self, state3, A3):
        rec = step(state3, A3, SolverKind.FW)
        assert rec.gap_half == pytest.approx(rec.gap / 2.0)
