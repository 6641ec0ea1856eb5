"""Transient memory of the clustering path, measured with tracemalloc.

Bounds are in units of one n x n float64 array at n = 512 (2 MiB) and
allow 30 % over the arrays a call must hold: its output, or nothing
beyond O(n) and tile-sized scratch.
"""

import hashlib

import numpy as np
import pytest

from dscfw.cli import _digest
from dscfw.data import (
    block_noise_matrix,
    max_transform,
    minimax_distances,
    pairwise_euclidean,
)
from dscfw.matrix import (
    ShiftedMatrix,
    _validated,
    load_matrix_csv,
    new_similarity_matrix,
    save_matrix_csv,
)
from dscfw.multistart import SamplePlan, SamplerKind, multistart_cluster
from dscfw.peel import PeelConfig, peel
from dscfw.solvers import InitKind, SolverConfig, SolverKind

from conftest import rand_sim, traced_peak

N = 512
UNIT = N * N * 8


@pytest.fixture(scope="module")
def block():
    A, _ = block_noise_matrix(N, 5, 0.3, seed=0)
    return A


@pytest.fixture(scope="module")
def features():
    return np.random.default_rng(0).normal(size=(N, 2))


def test_new_similarity_matrix_holds_one_copy(block):
    raw = np.array(block.entries)
    peak, _ = traced_peak(new_similarity_matrix, raw)
    assert peak <= 1.3 * UNIT


def test_validator_on_a_fresh_array_needs_only_tiles(block):
    fresh = np.array(block.entries)
    peak, A = traced_peak(_validated, fresh)
    assert peak <= 0.3 * UNIT
    assert A.entries is fresh and not fresh.flags.writeable


def test_pairwise_euclidean_holds_its_output(features):
    peak, _ = traced_peak(pairwise_euclidean, features)
    assert peak <= 1.3 * UNIT


def test_minimax_distances_holds_its_output(features):
    D = pairwise_euclidean(features)
    peak, _ = traced_peak(minimax_distances, D)
    assert peak <= 1.3 * UNIT


@pytest.mark.parametrize("layout", ["fixed-width", "variable-width",
                                    "dense fixed-width"])
def test_load_matrix_csv(tmp_path, block, features, layout):
    # np.savetxt writes 25-byte tokens, read a chunk at a time; a -0.0
    # entry widens one token, and the file is read by np.loadtxt. Every
    # token of the dense matrix but the diagonal's is nonzero, so each
    # chunk converts all of its tokens, a piece at a time.
    if layout == "dense fixed-width":
        E = max_transform(pairwise_euclidean(features)).entries
    else:
        E = np.array(block.entries)
    if layout == "variable-width":
        E[0, 1] = E[1, 0] = -0.0
    path = tmp_path / "m.csv"
    np.savetxt(path, E, delimiter=",")
    peak, _ = traced_peak(load_matrix_csv, path)
    assert peak <= 1.5 * UNIT


@pytest.mark.parametrize("kind", ["block", "dense"])
def test_save_matrix_csv_needs_only_row_runs(tmp_path, block, kind):
    # The writer holds one run of about 128 x 128 entries: their sorted
    # bits, distinct values and table of tokens, the temporaries of one
    # piece of values being formatted, and the gather indices and lines
    # of a few rows, well under one n x n array. Both matrices take the
    # one fixed-width path; the dense one's run has a token for almost
    # every entry.
    A = block if kind == "block" else rand_sim(N, np.random.default_rng(2))
    peak, _ = traced_peak(save_matrix_csv, tmp_path / "m.csv", A)
    assert peak <= 0.5 * UNIT


def test_peel_holds_one_round_matrix(block):
    # FW from a vertex keeps round 1's cluster under 40 objects, so round
    # 2's matrix is more than 0.8 of a unit: two round matrices alive at
    # once would exceed the bound.
    config = PeelConfig(max_clusters=3, solver=SolverConfig(
        SolverKind.FW, InitKind.VERTEX, max_iters=40))
    peak, result = traced_peak(peel, ShiftedMatrix(block, 4.0), config)
    assert len(result.clusters) == 3
    assert len(result.clusters[0]) < 40
    assert peak <= 1.3 * UNIT


def test_shifted_peel_holds_no_round_matrix(block):
    # Every round, the first shifted one too, solves over A itself through
    # an implicit shift and an active mask: what a round holds is O(n).
    # Later rounds mask the given operator's base, never the operator, so
    # no solve reads the dense entries of a ShiftedMatrix.
    config = PeelConfig(max_clusters=3, solver=SolverConfig(
        SolverKind.FW, InitKind.VERTEX, max_iters=40))
    peak, result = traced_peak(peel, ShiftedMatrix(block, 4.0), config)
    assert len(result.clusters) == 3
    assert peak <= 0.3 * UNIT


def test_one_multistart_pass_copies_nothing(block):
    plan = SamplePlan(ell=2, sampler=SamplerKind.DPP, seed=0)
    solver = SolverConfig(SolverKind.AFW, InitKind.VERTEX, max_iters=40)
    peak, (_, passes) = traced_peak(multistart_cluster, block, plan, solver,
                                    max_clusters=1)
    assert passes == 1
    assert peak <= 0.3 * UNIT


def test_one_shifted_multistart_pass_copies_nothing(block):
    # Pass 1 solves the shifted operator as given, and the samplers read
    # its base and shift: no dense shifted copy.
    plan = SamplePlan(ell=2, sampler=SamplerKind.DPP, seed=0)
    solver = SolverConfig(SolverKind.AFW, InitKind.VERTEX, max_iters=40)
    peak, (_, passes) = traced_peak(multistart_cluster,
                                    ShiftedMatrix(block, 4.0), plan, solver,
                                    max_clusters=1)
    assert passes == 1
    assert peak <= 0.3 * UNIT


def test_digest_streams_the_file(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(1).bytes(8 * 2**20 + 12345))
    peak, digest = traced_peak(_digest, path)
    assert peak < 2 * 2**20
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
