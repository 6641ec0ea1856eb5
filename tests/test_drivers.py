"""Property tests for the clustering drivers, `peel` and
`multistart_cluster`, on small random matrices: labels partition the
objects, clusters are the labels' level sets, every characteristic vector
lies on the simplex and is zero outside the objects its round solved over,
and a seed fixes the output. `multistart_cluster` also matches, bit for
bit, a reference copy of the multistart loop as it stood before it ran on
the peel driver. On a `ShiftedMatrix`, multistart labels the objects as on
the dense shifted matrix, and every peel round passes the progress
checks against the operator it solved."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dscfw.data import block_noise_matrix
from dscfw.diagnostics import check_progress
from dscfw.errors import DscfwError, PoolTooSmall
from dscfw.matrix import ShiftedMatrix, SimilarityMatrix, new_similarity_matrix
from dscfw.multistart import (
    SamplePlan,
    SamplerKind,
    _starting_points,
    multistart_cluster,
    two_step_dpp_sample,
    uniform_block_sample,
)
from dscfw.peel import (
    ClusteringResult,
    PeelConfig,
    peel,
    shift_offdiag,
)
from dscfw.solvers import InitKind, SolverConfig, SolverKind, StopReason, run

from conftest import extract_support, rand_sim

KINDS = hst.sampled_from([SolverKind.FW, SolverKind.PFW, SolverKind.AFW])
SHIFTS = hst.sampled_from([0.0, 0.5, 4.0])


@hst.composite
def bases(draw):
    """A random similarity matrix, n 2-12, float or integer weights (ties,
    zero edges)."""
    n = draw(hst.integers(2, 12))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    if draw(hst.booleans()):
        upper = np.triu(rng.integers(0, 4, size=(n, n)).astype(float), 1)
        return new_similarity_matrix(upper + upper.T)
    return rand_sim(n, rng)


@hst.composite
def matrices(draw):
    """A `bases` matrix with an off-diagonal shift of 0 or more, dense."""
    return shift_offdiag(draw(bases()), draw(SHIFTS))


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


def last_gap(trace):
    return trace[-1].gap if trace else math.nan


def _reference_multistart(A, plan, solver, max_clusters, cutoff=2e-12):
    """The multistart loop with its own round bookkeeping, kept verbatim
    from before it ran on the peel driver (but for its argument check):
    an exact oracle."""
    PeelConfig(max_clusters, solver, cutoff)  # rejects a bad cutoff
    n = A.n
    rng = np.random.default_rng(plan.seed)
    labels = np.zeros(n, dtype=int)
    clusters: list[list[int]] = []
    vectors: list[np.ndarray] = []
    surviving = np.arange(n)
    reasons = []
    gaps: list[float] = []
    passes = 0
    while surviving.size >= 2 and len(clusters) < max_clusters:
        if surviving.size == n:
            sub = A  # nothing removed yet: A is immutable and validated
        else:
            sub_entries = A.entries[np.ix_(surviving, surviving)]  # copies
            sub_entries.setflags(write=False)
            sub = SimilarityMatrix(sub_entries)
        ell = min(plan.ell, sub.n)
        if plan.sampler is SamplerKind.DPP:
            try:
                seeds = two_step_dpp_sample(sub, ell, rng)
            except PoolTooSmall:
                seeds = uniform_block_sample(sub, ell, rng)
        else:
            seeds = uniform_block_sample(sub, ell, rng)
        starts = []
        for s in seeds:
            starts.extend(_starting_points(solver.solver_kind, s, sub.n))
        solutions = [run(sub, solver, x0=x0) for x0 in starts]
        passes += 1
        # Sort by objective descending, then accept non-overlapping ones.
        scored = []
        for x_star, trace, reason in solutions:
            reasons.append(reason)
            gaps.append(last_gap(trace))
            f_val = trace[-1].f_after if trace else float(
                x_star @ (sub.entries @ x_star))
            scored.append((f_val, x_star))
        scored.sort(key=lambda item: -item[0])
        accepted_union: set[int] = set()
        new_clusters: list[list[int]] = []
        new_vectors: list[np.ndarray] = []
        for _, x_star in scored:
            if len(clusters) + len(new_clusters) >= max_clusters:
                break
            local = extract_support(x_star, cutoff)
            if not local:
                continue
            support = set(local)
            # Share of this support already taken by an accepted cluster.
            if (len(support & accepted_union) / len(support)
                    > plan.overlap_threshold):
                continue
            accepted_union |= support
            new_clusters.append(local)
            vec = np.zeros(n)
            vec[surviving] = x_star
            new_vectors.append(vec)
        if not new_clusters:
            break
        removed = set()
        for local, vec in zip(new_clusters, new_vectors):
            members = [int(surviving[i]) for i in local if i not in removed]
            removed.update(local)
            if not members:
                continue
            labels[members] = len(clusters) + 1
            clusters.append(members)
            vectors.append(vec)
        keep = np.ones(surviving.size, dtype=bool)
        keep[list(removed)] = False
        surviving = surviving[keep]
        # Free this pass's matrix before the next pass builds its own.
        del sub
    if surviving.size == 1 and len(clusters) < max_clusters:
        obj = int(surviving[0])
        labels[obj] = len(clusters) + 1
        clusters.append([obj])
        vec = np.zeros(n)
        vec[obj] = 1.0
        vectors.append(vec)
    result = ClusteringResult(
        labels=labels,
        clusters=clusters,
        characteristic_vectors=vectors,
        stop_reasons=reasons,
        last_gaps=gaps,
    )
    return result, passes


@settings(max_examples=200, deadline=None)
@given(A=matrices(),
       kind=hst.sampled_from([SolverKind.FW, SolverKind.PFW, SolverKind.AFW,
                              SolverKind.RD]),
       sampler=hst.sampled_from([SamplerKind.UNI, SamplerKind.DPP]),
       ell=hst.integers(1, 4), seed=hst.integers(0, 2**16),
       overlap=hst.sampled_from([0.1, 0.5, 0.9]),
       max_clusters=hst.integers(1, 5))
def test_multistart_matches_the_reference(A, kind, sampler, ell, seed,
                                          overlap, max_clusters):
    # FW starts from each seed's vertex, PFW and AFW from its vertex and
    # its biased point, RD from the biased point only. An overlap of 0.9
    # lets one pass accept overlapping supports; shared members go to the
    # candidate with the larger objective.
    plan = SamplePlan(ell=ell, sampler=sampler, overlap_threshold=overlap,
                      seed=seed)
    solver = SolverConfig(kind, InitKind.VERTEX, max_iters=200)
    try:
        expected, expected_passes = _reference_multistart(A, plan, solver,
                                                          max_clusters)
    except DscfwError as exc:  # e.g. RD on a matrix where x'Ax = 0
        with pytest.raises(type(exc)):
            multistart_cluster(A, plan, solver, max_clusters)
        return
    result, passes = multistart_cluster(A, plan, solver, max_clusters)
    _same(result, expected)
    assert passes == expected_passes
    assert result.traces == []


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(2, 14), seed=hst.integers(0, 2**32 - 1),
       kind=hst.sampled_from([SolverKind.PFW, SolverKind.AFW]),
       sampler=hst.sampled_from([SamplerKind.UNI, SamplerKind.DPP]),
       ell=hst.integers(1, 4), shift=SHIFTS,
       max_clusters=hst.integers(1, 5))
def test_operator_multistart_labels_match_the_dense_matrix(
        n, seed, kind, sampler, ell, shift, max_clusters):
    # Where every solve converges on both paths, multistart on the shifted
    # operator labels the objects as it does on the dense shifted matrix:
    # the samplers draw the same seeds, and the solves from each seed's
    # starts find the same supports.
    A = rand_sim(n, np.random.default_rng(seed))
    plan = SamplePlan(ell=ell, sampler=sampler, seed=seed)
    solver = SolverConfig(kind, InitKind.VERTEX, max_iters=5000)
    result, _ = multistart_cluster(ShiftedMatrix(A, shift), plan, solver,
                                   max_clusters)
    dense, _ = multistart_cluster(shift_offdiag(A, shift), plan, solver,
                                  max_clusters)
    if StopReason.MAX_ITERS in result.stop_reasons + dense.stop_reasons:
        return
    assert np.array_equal(result.labels, dense.labels)


def _round_operators(A, shift, result):
    """The operator each traced peel round solved: the shifted A over the
    objects that no earlier round clustered."""
    active = np.ones(A.n, dtype=bool)
    for k in range(len(result.traces)):
        yield ShiftedMatrix(A, shift, None if active.all() else active.copy())
        if k < len(result.clusters):
            active[result.clusters[k]] = False


def _check_every_round(A, shift, config):
    result = peel(ShiftedMatrix(A, shift), config)
    assert result.traces
    for trace, op in zip(result.traces, _round_operators(A, shift, result)):
        assert check_progress(trace, op) == []


@settings(max_examples=60, deadline=None)
@given(A=bases(), shift=SHIFTS, kind=KINDS,
       init=hst.sampled_from([InitKind.BARYCENTER, InitKind.VERTEX]),
       max_clusters=hst.integers(1, 5))
def test_progress_identities_hold_on_every_shifted_round(A, shift, kind, init,
                                                         max_clusters):
    _check_every_round(A, shift, PeelConfig(
        max_clusters=max_clusters, solver=SolverConfig(kind, init,
                                                       max_iters=200)))


@pytest.mark.parametrize("kind,init", [
    (SolverKind.FW, InitKind.VERTEX),
    (SolverKind.PFW, InitKind.BARYCENTER),
    (SolverKind.AFW, InitKind.BARYCENTER),
], ids=["fw", "pfw-b", "afw-b"])
def test_progress_identities_hold_on_the_readme_rounds(kind, init):
    # The README quick start's five rounds at shift 4, where f is about 4
    # and a step's gain carries the rounding error of f.
    A, _ = block_noise_matrix(n=200, k=5, noise=0.3, seed=0)
    _check_every_round(A, 4.0, PeelConfig(
        max_clusters=5, solver=SolverConfig(kind, init, max_iters=400)))
