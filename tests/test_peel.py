"""Peel-off clustering driver tests."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dscfw.diagnostics import check_progress, check_state
from dscfw.errors import NoClusters
from dscfw.matrix import (
    ShiftedMatrix,
    new_similarity_matrix,
    offdiag_extremes,
)
from dscfw.peel import (
    ClusteringResult,
    PeelConfig,
    peel,
    post_assign,
    shift_offdiag,
)
from dscfw.solvers import (
    InitKind,
    SolverConfig,
    SolverKind,
    StopReason,
    initial_point,
    make_state,
    run,
    select_away,
    step,
)

from conftest import extract_support, fw_gap, rand_sim


class TestShiftOffdiag:
    def test_zero_shift_returns_same_object(self, A3):
        assert shift_offdiag(A3, 0.0) is A3

    def test_shift_adds_offdiagonal_only(self, A3):
        B = shift_offdiag(A3, 1.5)
        assert B.entries[0, 1] == pytest.approx(3.5)
        assert np.all(np.diagonal(B.entries) == 0.0)


class TestPeelConfig:
    def test_rejects_bad_max_clusters(self):
        with pytest.raises(ValueError):
            PeelConfig(max_clusters=0)

    def test_rejects_bad_cutoff(self):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                PeelConfig(max_clusters=1, cutoff=bad)


class TestPeel:
    def test_two_blocks(self, two_blocks):
        cfg = PeelConfig(max_clusters=2)
        result = peel(two_blocks, cfg)
        assert np.array_equal(result.labels, [1, 1, 2, 2])
        assert result.clusters == [[0, 1], [2, 3]]
        assert result.assignment_rate == 1.0

    def test_max_clusters_limits_rounds(self, two_blocks):
        cfg = PeelConfig(max_clusters=1)
        result = peel(two_blocks, cfg)
        assert np.array_equal(result.labels, [1, 1, 0, 0])
        assert result.assignment_rate == 0.5

    def test_singleton_remainder_gets_own_label(self):
        A = new_similarity_matrix([[0.0, 1.0, 0.0],
                                   [1.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0]])
        result = peel(A, PeelConfig(max_clusters=3))
        assert np.array_equal(result.labels, [1, 1, 2])
        assert result.clusters == [[0, 1], [2]]

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_round_one_solves_the_operator_itself(self, monkeypatch,
                                                  two_blocks, shift):
        # Round 1 solves the operator as given; round 2 the same base and
        # shift over the objects left, with no operator nested in another.
        solved = []

        def recording_run(A, config, x0=None):
            solved.append(A)
            return run(A, config, x0=x0)

        module = importlib.import_module("dscfw.peel")
        monkeypatch.setattr(module, "run", recording_run)
        op = two_blocks if shift == 0.0 else ShiftedMatrix(two_blocks, shift)
        result = peel(op, PeelConfig(max_clusters=2))
        assert solved[0] is op and solved[0].active is None
        assert solved[0].base is two_blocks and solved[0].shift == shift
        assert solved[1].base is two_blocks and solved[1].shift == shift
        assert np.array_equal(solved[1].active, result.labels != 1)

    def test_rejects_an_operator_with_an_active_mask(self, two_blocks):
        masked = ShiftedMatrix(two_blocks, 1.0,
                               np.array([True, True, True, False]))
        with pytest.raises(ValueError, match="active mask"):
            peel(masked, PeelConfig(max_clusters=1))

    def test_characteristic_vectors_full_length(self, two_blocks):
        result = peel(two_blocks, PeelConfig(max_clusters=2))
        assert all(v.shape == (4,) for v in result.characteristic_vectors)
        assert np.allclose(result.characteristic_vectors[0],
                           [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        assert np.allclose(result.characteristic_vectors[1],
                           [0.0, 0.0, 0.5, 0.5], atol=1e-12)

    def test_shift_spreads_support(self):
        # On a random 16-clique the local maximizer has a small support;
        # a large off-diagonal shift pushes it to the whole clique.
        rng = np.random.default_rng(0)
        upper = np.triu(rng.uniform(size=(16, 16)), 1)
        A = new_similarity_matrix(upper + upper.T)
        narrow = peel(A, PeelConfig(max_clusters=1))
        wide = peel(ShiftedMatrix(A, 4.0), PeelConfig(max_clusters=1))
        assert len(narrow.clusters[0]) < 16
        assert len(wide.clusters[0]) == 16

    def test_works_with_replicator_solver(self):
        # Blocks with different weights so the barycenter is not already
        # a replicator fixed point.
        A = new_similarity_matrix([[0.0, 2.0, 0.0, 0.0],
                                   [2.0, 0.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0, 1.0],
                                   [0.0, 0.0, 1.0, 0.0]])
        cfg = PeelConfig(
            max_clusters=2,
            solver=SolverConfig(SolverKind.RD, InitKind.BARYCENTER,
                                max_iters=500),
        )
        result = peel(A, cfg)
        assert result.clusters == [[0, 1], [2, 3]]


class TestPostAssign:
    def test_requires_clusters(self, A3):
        empty = ClusteringResult(labels=np.zeros(3, dtype=int), clusters=[],
                                 characteristic_vectors=[])
        with pytest.raises(NoClusters):
            post_assign(empty, A3)

    def test_assigns_to_most_similar_cluster(self):
        A = new_similarity_matrix([[0.0, 1.0, 0.0, 0.2],
                                   [1.0, 0.0, 0.0, 0.2],
                                   [0.0, 0.0, 0.0, 0.9],
                                   [0.2, 0.2, 0.9, 0.0]])
        partial = ClusteringResult(
            labels=np.array([1, 1, 2, 0]), clusters=[[0, 1], [2]],
            characteristic_vectors=[])
        result = post_assign(partial, A)
        # Object 3: mean similarity 0.2 to cluster 1, 0.9 to cluster 2.
        assert result.labels[3] == 2
        assert result.clusters[1] == [2, 3]
        assert result.assignment_rate == 1.0

    def test_tie_goes_to_lowest_label(self):
        A = new_similarity_matrix([[0.0, 1.0, 0.0, 0.5],
                                   [1.0, 0.0, 0.0, 0.5],
                                   [0.0, 0.0, 0.0, 0.5],
                                   [0.5, 0.5, 0.5, 0.0]])
        partial = ClusteringResult(
            labels=np.array([1, 1, 2, 0]), clusters=[[0, 1], [2]],
            characteristic_vectors=[])
        result = post_assign(partial, A)
        assert result.labels[3] == 1

    def test_noop_when_all_assigned(self, two_blocks):
        result = peel(two_blocks, PeelConfig(max_clusters=2))
        assert post_assign(result, two_blocks) is result


def _compacted(A, active, shift):
    """The dense oracle of a peel round: the indices of the active objects
    and shift_offdiag of A restricted to them."""
    idx = np.flatnonzero(active)
    sub = new_similarity_matrix(A.entries[np.ix_(idx, idx)])
    return idx, shift_offdiag(sub, shift)


def _dense_peel(A, shift, config):
    """Peel with every round on its compacted dense matrix, shifted by
    `shift`: labels, stop reasons and traces in global indices."""
    labels = np.zeros(A.n, dtype=int)
    left = np.arange(A.n)
    reasons, traces = [], []
    for label in range(1, config.max_clusters + 1):
        if left.size <= 1:
            labels[left] = label
            break
        _, B = _compacted(A, np.isin(np.arange(A.n), left), shift)
        x, trace, reason = run(B, config.solver)
        reasons.append(reason)
        traces.append([replace(
            rec, s_index=int(left[rec.s_index]),
            v_index=None if rec.v_index is None else int(left[rec.v_index]))
            for rec in trace])
        local = extract_support(x, config.cutoff)
        if not local:
            break
        labels[left[local]] = label
        left = np.delete(left, local)
    return labels, reasons, traces


def _step_key(rec):
    return rec.kind, rec.s_index, rec.v_index


def _assert_tie(rec, want):
    """Two solves took different vertices at this step: assert that the
    vertices they took tie within rounding."""
    assert rec.r_s == pytest.approx(want.r_s, rel=1e-12)
    if not (math.isnan(rec.r_v) or math.isnan(want.r_v)):
        assert rec.r_v == pytest.approx(want.r_v, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(n=hst.integers(3, 14), seed=hst.integers(0, 2**32 - 1),
       kind=hst.sampled_from(list(SolverKind)),
       init=hst.sampled_from([InitKind.BARYCENTER, InitKind.VERTEX]),
       shift=hst.sampled_from([0.0, 0.5, 4.0]),
       removed=hst.sampled_from([0.0, 0.3, 0.6]))
def test_operator_rounds_match_the_dense_oracle(n, seed, kind, init, shift,
                                                removed):
    # A round over A with an implicit shift and an active mask takes the
    # steps the compacted dense matrix takes, in global indices: the same
    # start, kinds and vertices, r within 1e-8 and f within 1e-12
    # relative after every step, and nothing off the active objects.
    # Steps make exact ties (a pairwise step leaves r_s = r_v; an away
    # step from the barycenter of three objects leaves r_i - f = f - r_v),
    # and rounding may break one either way: the paths may part there, at
    # vertices whose r agree, and the comparison ends. The diagnostics
    # check the operator as the matrix it stands for: its off-diagonal
    # extremes over the active objects, and the progress identities, of
    # which the pairwise ones read b_ij.
    rng = np.random.default_rng(seed)
    A = rand_sim(n, rng)
    active = rng.uniform(size=n) >= removed
    active[rng.choice(n, size=2, replace=False)] = True
    if kind is SolverKind.RD:
        init = InitKind.BARYCENTER  # RD cannot start at a vertex
    op = ShiftedMatrix(A, shift, None if active.all() else active)
    idx, B = _compacted(A, active, shift)
    cfg = SolverConfig(kind, init)
    state = make_state(op, initial_point(op, cfg))
    dense = make_state(B, initial_point(B, cfg))
    assert np.array_equal(state.x[idx], dense.x)
    assert offdiag_extremes(op) == offdiag_extremes(B)
    trace = []
    for _ in range(60):
        gap, i = fw_gap(dense)
        # Stop while the vertex choices are decisive, far above rounding.
        if gap / 2.0 <= 1e-6:
            break
        if kind is SolverKind.PFW and select_away(dense) == i:
            break
        rec = step(state, op, kind)
        want = step(dense, B, kind)
        v = None if want.v_index is None else idx[want.v_index]
        if _step_key(rec) != (want.kind, idx[want.s_index], v):
            _assert_tie(rec, want)
            break
        assert np.max(np.abs(state.r[idx] - dense.r)) <= 1e-8
        assert abs(state.f - dense.f) <= 1e-12 * abs(dense.f)
        assert check_state(state, op).ok()
        assert not state.x[~active].any()
        trace.append(rec)
    if kind is not SolverKind.RD:
        assert check_progress(trace, op) == []


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(2, 14), seed=hst.integers(0, 2**32 - 1),
       kind=hst.sampled_from([SolverKind.PFW, SolverKind.AFW]),
       init=hst.sampled_from([InitKind.BARYCENTER, InitKind.VERTEX]),
       shift=hst.sampled_from([0.0, 0.5, 4.0]),
       max_clusters=hst.integers(1, 5))
# The solves part at step 18 on a near-tie for the away vertex, r_v
# 0.9695255641089942 against ...939, and converge to different maxima.
@example(n=13, seed=615, kind=SolverKind.PFW, init=InitKind.BARYCENTER,
         shift=0.5, max_clusters=1)
def test_operator_peel_labels_match_the_dense_oracle(n, seed, kind, init,
                                                     shift, max_clusters):
    # Where every round's two solves take the same steps and converge,
    # peel over one matrix labels the objects exactly as rounds on
    # compacted copies do. Rounding may break a tie between two vertices
    # either way (see test_operator_rounds_match_the_dense_oracle), and
    # the solves may then converge to different maxima: where a round's
    # solves part, the step where they part must be such a tie, and only
    # the clusters of the rounds before it are compared.
    A = rand_sim(n, np.random.default_rng(seed))
    config = PeelConfig(max_clusters=max_clusters,
                        solver=SolverConfig(kind, init, max_iters=5000))
    result = peel(ShiftedMatrix(A, shift), config)
    labels, reasons, traces = _dense_peel(A, shift, config)
    for k, (got, want) in enumerate(zip(result.traces, traces)):
        for rec, ref in zip(got, want):
            if _step_key(rec) != _step_key(ref):
                _assert_tie(rec, ref)
                # Round r labels its cluster r + 1 in both peels.
                for label in range(1, k + 1):
                    assert np.array_equal(result.labels == label,
                                          labels == label)
                return
    if StopReason.MAX_ITERS in result.stop_reasons + reasons:
        return
    assert np.array_equal(result.labels, labels)
