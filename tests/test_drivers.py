"""Property tests for the clustering drivers, `peel` and
`multistart_cluster`, on small random matrices: labels partition the
objects, clusters are the labels' level sets, every characteristic vector
lies on the simplex and is zero outside the objects its round solved over,
and a seed fixes the output."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from dscfw.matrix import new_similarity_matrix
from dscfw.multistart import SamplePlan, SamplerKind, multistart_cluster
from dscfw.peel import PeelConfig, peel, shift_offdiag
from dscfw.solvers import InitKind, SolverConfig, SolverKind

from conftest import rand_sim

KINDS = hst.sampled_from([SolverKind.FW, SolverKind.PFW, SolverKind.AFW])


@hst.composite
def matrices(draw):
    """A random similarity matrix, n 2-12, float or integer weights (ties,
    zero edges), with an off-diagonal shift of 0 or more."""
    n = draw(hst.integers(2, 12))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    if draw(hst.booleans()):
        upper = np.triu(rng.integers(0, 4, size=(n, n)).astype(float), 1)
        A = new_similarity_matrix(upper + upper.T)
    else:
        A = rand_sim(n, rng)
    return shift_offdiag(A, draw(hst.sampled_from([0.0, 0.5, 4.0])))


def _check_result(result, n, active_sets):
    """Partition, level sets, and simplex vectors zero off their active
    set (active_sets[k] is the boolean active set of cluster k's round)."""
    labels = result.labels
    assert labels.shape == (n,)
    assert labels.min() >= 0 and labels.max() <= len(result.clusters)
    for k, members in enumerate(result.clusters, start=1):
        assert members
        assert sorted(members) == np.flatnonzero(labels == k).tolist()
    assert result.assigned_count == np.count_nonzero(labels)
    assert len(result.characteristic_vectors) == len(result.clusters)
    for vec, members, active in zip(result.characteristic_vectors,
                                    result.clusters, active_sets):
        assert vec.shape == (n,)
        assert np.all(vec >= 0)
        assert abs(vec.sum() - 1.0) <= 1e-9
        assert np.all(vec[~active] == 0)
        assert np.all(vec[members] > 0)


def _active_sets(clusters, rounds, n):
    """Objects not yet clustered when each cluster's round began;
    rounds[k] numbers the round that found cluster k."""
    out = []
    for k, r in enumerate(rounds):
        active = np.ones(n, dtype=bool)
        for members, earlier in zip(clusters, rounds[:k]):
            if earlier < r:
                active[members] = False
        out.append(active)
    return out


def _same(r1, r2):
    assert np.array_equal(r1.labels, r2.labels)
    assert r1.clusters == r2.clusters
    assert len(r1.characteristic_vectors) == len(r2.characteristic_vectors)
    for v1, v2 in zip(r1.characteristic_vectors, r2.characteristic_vectors):
        assert np.array_equal(v1, v2)
    assert r1.stop_reasons == r2.stop_reasons
    assert np.array_equal(r1.last_gaps, r2.last_gaps, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(A=matrices(), kind=KINDS,
       init=hst.sampled_from([InitKind.BARYCENTER, InitKind.VERTEX]),
       max_clusters=hst.integers(1, 5))
def test_peel_properties(A, kind, init, max_clusters):
    config = PeelConfig(max_clusters=max_clusters,
                        solver=SolverConfig(kind, init, max_iters=200))
    result = peel(A, config)
    # Each peel round finds at most one cluster.
    rounds = list(range(len(result.clusters)))
    _check_result(result, A.n, _active_sets(result.clusters, rounds, A.n))
    assert len(result.stop_reasons) == len(result.traces)
    assert len(result.last_gaps) == len(result.traces)
    _same(result, peel(A, config))


@settings(max_examples=40, deadline=None)
@given(A=matrices(), kind=KINDS,
       sampler=hst.sampled_from([SamplerKind.UNI, SamplerKind.DPP]),
       ell=hst.integers(1, 4), seed=hst.integers(0, 2**16),
       overlap=hst.sampled_from([0.1, 0.5, 0.9]),
       max_clusters=hst.integers(1, 4))
def test_multistart_properties(A, kind, sampler, ell, seed, overlap,
                               max_clusters):
    # A loose overlap threshold lets one pass accept overlapping supports.
    plan = SamplePlan(ell=ell, sampler=sampler, overlap_threshold=overlap,
                      seed=seed)
    solver = SolverConfig(kind, InitKind.VERTEX, max_iters=200)
    result, passes = multistart_cluster(A, plan, solver, max_clusters)
    # A pass may accept several clusters. Capped at k clusters, the same
    # draws give the first k clusters and stop after the pass that found
    # cluster k, which numbers that cluster's pass.
    rounds = []
    for k in range(1, len(result.clusters) + 1):
        capped, capped_passes = multistart_cluster(A, plan, solver, k)
        assert capped.clusters == result.clusters[:k]
        rounds.append(capped_passes)
    assert rounds == sorted(rounds) and all(r <= passes for r in rounds)
    _check_result(result, A.n, _active_sets(result.clusters, rounds, A.n))
    assert len(result.stop_reasons) == len(result.last_gaps) >= passes
    assert result.traces == []
    again, passes_again = multistart_cluster(A, plan, solver, max_clusters)
    assert passes_again == passes
    _same(result, again)
