"""Metric tests: frozen hand values, label conventions, and invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscfw.errors import EmptyOverlap, LengthMismatch, NegativeEntry
from dscfw.metrics import ari, assignment_rate, v_measure


class TestAssignmentRate:
    def test_frozen(self):
        assert assignment_rate([1, 0, 2, 2]) == 0.75
        assert assignment_rate([0, 0]) == 0.0
        assert assignment_rate([3, 1]) == 1.0

    def test_empty(self):
        with pytest.raises(LengthMismatch):
            assignment_rate([])

    def test_negative_label_raises(self):
        # Counted as assigned, -1 would give a rate of 1.0 here.
        with pytest.raises(NegativeEntry):
            assignment_rate([-1, 1, 1, 2])


class TestAri:
    def test_perfect_agreement(self):
        assert ari([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_label_renaming_invariance(self):
        assert ari([1, 1, 2, 2], [7, 7, 3, 3]) == 1.0

    def test_frozen_hand_value(self):
        # Contingency [[2,1,0],[0,1,2]]: sum_ij=2, sum_a=6, sum_b=3,
        # total=15, expected=1.2, max=4.5 -> (2-1.2)/3.3 = 8/33.
        pred = [1, 1, 1, 2, 2, 2]
        truth = [1, 1, 2, 2, 3, 3]
        assert ari(pred, truth) == pytest.approx(8.0 / 33.0, rel=1e-12)

    def test_unassigned_masked_by_default(self):
        assert ari([0, 1, 1, 2], [9, 1, 1, 2]) == 1.0

    def test_include_unassigned_treats_zero_as_cluster(self):
        score = ari([0, 1, 1, 2], [9, 1, 1, 2], include_unassigned=True)
        assert score == 1.0  # {0},{1,2},{3} matches {9},{1,1},{2}

    def test_all_unassigned_raises(self):
        with pytest.raises(EmptyOverlap):
            ari([0, 0], [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ari([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("include_unassigned", [False, True])
    def test_negative_label_raises(self, include_unassigned):
        # Masked as unassigned, -1 would leave 3 of the 4 objects scored.
        with pytest.raises(NegativeEntry):
            ari([-1, 1, 1, 2], [1, 1, 2, 2],
                include_unassigned=include_unassigned)

    def test_label_errors_are_value_errors(self):
        # The CLI reports ValueErrors as data errors (exit 2).
        assert issubclass(LengthMismatch, ValueError)
        assert issubclass(EmptyOverlap, ValueError)
        assert issubclass(NegativeEntry, ValueError)

    def test_trivial_partitions_agree(self):
        # Both all-singletons and both one-block: defined as 1.
        assert ari([1, 2, 3], [5, 6, 7]) == 1.0
        assert ari([1, 1, 1], [2, 2, 2]) == 1.0

    def test_one_block_vs_singletons_is_zero(self):
        assert ari([1, 1, 1], [1, 2, 3]) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        p = rng.integers(1, 4, size=30)
        t = rng.integers(1, 4, size=30)
        assert ari(p, t) == pytest.approx(ari(t, p), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=20),
           st.integers(0, 10**6))
    def test_bounded_above_by_one(self, pred, seed):
        rng = np.random.default_rng(seed)
        truth = rng.integers(1, 4, size=len(pred))
        assert ari(pred, truth) <= 1.0 + 1e-12


class TestVMeasure:
    def test_perfect(self):
        assert v_measure([1, 1, 2, 2], [5, 5, 9, 9]) == 1.0

    def test_single_cluster_prediction(self):
        # Homogeneity 0, completeness 1 -> harmonic mean 0.
        assert v_measure([1, 1, 1, 1], [1, 1, 2, 2]) == 0.0

    def test_singletons_prediction_is_homogeneous(self):
        # Homogeneity 1, completeness < 1.
        score = v_measure([1, 2, 3, 4], [1, 1, 2, 2])
        assert 0.0 < score < 1.0

    def test_frozen_hand_value(self):
        # pred one block vs truth (2,2) split on n=4 -> 0 (see above);
        # pred (2,2) vs truth (3,1): computed from the entropy formulas.
        pred = [1, 1, 2, 2]
        truth = [1, 1, 1, 2]
        n = 4.0
        h_t = -(3 / n) * np.log(3 / n) - (1 / n) * np.log(1 / n)
        h_p = np.log(2.0)
        # joint: (p=1,t=1)=2, (p=2,t=1)=1, (p=2,t=2)=1
        h_t_given_p = -(2 / n) * np.log(1.0) - (1 / n) * np.log(0.5) * 2
        h_p_given_t = (-(2 / n) * np.log(2 / 3) - (1 / n) * np.log(1 / 3)
                       - (1 / n) * np.log(1.0))
        hom = 1 - h_t_given_p / h_t
        com = 1 - h_p_given_t / h_p
        expected = 2 * hom * com / (hom + com)
        assert v_measure(pred, truth) == pytest.approx(expected, rel=1e-12)

    def test_unassigned_masked_by_default(self):
        assert v_measure([0, 1, 1, 2], [9, 1, 1, 2]) == 1.0

    @pytest.mark.parametrize("include_unassigned", [False, True])
    def test_negative_label_raises(self, include_unassigned):
        with pytest.raises(NegativeEntry):
            v_measure([1, 1, 2, -2], [1, 1, 2, 2],
                      include_unassigned=include_unassigned)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        p = rng.integers(1, 5, size=40)
        t = rng.integers(1, 5, size=40)
        assert v_measure(p, t) == pytest.approx(v_measure(t, p), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=2, max_size=25),
           st.integers(0, 10**6))
    def test_in_unit_interval(self, pred, seed):
        rng = np.random.default_rng(seed)
        truth = rng.integers(1, 5, size=len(pred))
        score = v_measure(pred, truth)
        assert -1e-12 <= score <= 1.0 + 1e-12
