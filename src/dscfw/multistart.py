"""Multi-start clustering: sample seed objects (uniform block sampling or
a determinantal point process), solve from each per-seed starting point
in turn, and hand the solutions to the peel driver, which accepts them in
decreasing objective unless their supports overlap. A pass is one peel
round with several starts, on the operator given, shifted or not."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricMatrix, PoolTooSmall, TooManySeeds
from .matrix import (Operator, ShiftedMatrix, SimilarityMatrix, _asymmetry,
                     quadratic_form)
from .peel import Candidate, ClusteringResult, PeelConfig, _drive
from .solvers import SolverConfig, SolverKind, _require_count, run


class SamplerKind(enum.Enum):
    UNI = "uni"
    DPP = "dpp"


@dataclass
class SamplePlan:
    ell: int = 4
    sampler: SamplerKind = SamplerKind.UNI
    overlap_threshold: float = 0.10
    seed: int | None = None

    def __post_init__(self) -> None:
        _require_count(self.ell, "ell", 1)
        if not 0.0 < self.overlap_threshold < 1.0:
            raise ValueError("overlap_threshold must lie in (0, 1)")


@dataclass
class DppEnsemble:
    """L-ensemble with cached eigendecomposition; P(Y) ~ det(L_Y)."""

    likelihood: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def m(self) -> int:
        return self.likelihood.shape[0]


def _blocks(order: np.ndarray, block_size: int) -> list[np.ndarray]:
    return [order[i : i + block_size] for i in range(0, order.size, block_size)]


def uniform_block_sample(A: Operator, ell: int, rng) -> list[int]:
    """Sort objects by row sum (descending), split into exactly ell
    contiguous blocks whose sizes differ by at most one, draw one object
    uniformly from each. The row sums are those of A.base: a shift adds
    the same constant to every one, so the order is the same."""
    n = A.n
    if ell > n:
        raise TooManySeeds(f"ell={ell} exceeds n={n}")
    order = np.argsort(-A.base.row_sums(), kind="stable")
    return [int(rng.choice(block)) for block in np.array_split(order, ell)]


def make_diagonally_dominant(L) -> DppEnsemble:
    """Replace the diagonal with the absolute off-diagonal row sums plus a
    small margin, which makes the matrix PSD by Gershgorin."""
    L = np.asarray(L, dtype=float)
    if _asymmetry(L) > 1e-9:
        raise AsymmetricMatrix("likelihood matrix must be symmetric")
    out = L.copy()
    np.fill_diagonal(out, 0.0)
    margin = 1e-9 * np.max(np.abs(out), initial=0.0)
    np.fill_diagonal(out, np.sum(np.abs(out), axis=1) + margin)
    eigvals, eigvecs = np.linalg.eigh(out)
    if np.min(eigvals, initial=0.0) < -1e-9:
        raise ValueError("diagonally dominant transform produced a "
                         f"negative eigenvalue {eigvals.min()}")
    eigvals = np.clip(eigvals, 0.0, None)
    return DppEnsemble(out, eigvals, eigvecs)


def rescale_expected_size(ensemble: DppEnsemble, target: float) -> DppEnsemble:
    """Scale the likelihood so the DPP's expected subset size, which is
    sum(c*lambda / (1 + c*lambda)), equals the target. Scaling preserves
    symmetry, positive semidefiniteness, and diagonal dominance."""
    lam = ensemble.eigenvalues
    positive = int(np.count_nonzero(lam > 0))
    if positive == 0 or target >= positive:
        return ensemble
    lo, hi = 0.0, 1.0
    while np.sum(hi * lam / (1.0 + hi * lam)) < target:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if np.sum(mid * lam / (1.0 + mid * lam)) < target:
            lo = mid
        else:
            hi = mid
    c = (lo + hi) / 2.0
    return DppEnsemble(c * ensemble.likelihood, c * lam, ensemble.eigenvectors)


def dpp_sample(ensemble: DppEnsemble, rng) -> list[int]:
    """Draw a subset via the spectral L-ensemble sampler: select each
    eigenvector with probability lambda/(1+lambda), then pick one item per
    selected eigenvector with iterative projection."""
    lam = ensemble.eigenvalues
    keep = rng.uniform(size=lam.size) < lam / (1.0 + lam)
    V = ensemble.eigenvectors[:, keep]
    chosen: list[int] = []
    k = V.shape[1]
    for step in range(k, 0, -1):
        prob = np.sum(V**2, axis=1)
        prob = np.clip(prob, 0.0, None)
        prob /= prob.sum()
        i = int(rng.choice(ensemble.m, p=prob))
        chosen.append(i)
        # Project the span orthogonally to e_i.
        col = int(np.argmax(np.abs(V[i])))
        pivot = V[:, col].copy()
        V = V - np.outer(pivot, V[i] / pivot[i])
        V[:, col] = V[:, step - 1]
        V = V[:, : step - 1]
        if step > 1:
            V, _ = np.linalg.qr(V)
    return sorted(chosen)


def two_step_dpp_sample(A: Operator, ell: int, rng) -> list[int]:
    """Stage 1: uniform block subsample of roughly n^(2/3) objects, in the
    row-sum order of `uniform_block_sample`; stage 2: DPP over the induced
    (diagonally dominated) submatrix of the shifted entries, reduced or
    padded to exactly ell indices."""
    n = A.n
    order = np.argsort(-A.base.row_sums(), kind="stable")
    block_size = math.ceil(n / 10)
    per_block = math.ceil(n ** (2.0 / 3.0) / 10.0)
    pool: list[int] = []
    for block in _blocks(order, block_size):
        take = min(per_block, block.size)
        pool.extend(int(i) for i in rng.choice(block, size=take, replace=False))
    if len(pool) < ell:
        raise PoolTooSmall(f"stage-1 pool {len(pool)} < ell={ell}")
    pool = sorted(pool)
    sub = A.base.entries[np.ix_(pool, pool)] + A.shift  # diagonal unused
    ensemble = rescale_expected_size(make_diagonally_dominant(sub), float(ell))
    local = dpp_sample(ensemble, rng)
    picked = [pool[i] for i in local]
    if len(picked) > ell:
        diag = ensemble.likelihood.diagonal()
        ranked = sorted(local, key=lambda i: -diag[i])[:ell]
        picked = [pool[i] for i in ranked]
    elif len(picked) < ell:
        # Top up with uniform block draws over objects not yet picked.
        chosen = set(picked)
        for block in _blocks(order, math.ceil(n / ell)):
            if len(picked) >= ell:
                break
            candidates = [int(i) for i in block if int(i) not in chosen]
            if candidates:
                extra = int(rng.choice(candidates))
                picked.append(extra)
                chosen.add(extra)
        while len(picked) < ell:
            rest = [i for i in range(n) if i not in chosen]
            extra = int(rng.choice(rest))
            picked.append(extra)
            chosen.add(extra)
    return sorted(picked)


def seed_starting_points(i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex start e_i and biased start with half the mass at i and the
    rest spread uniformly."""
    if n < 2:
        raise ValueError("need n >= 2 for a biased starting point")
    vertex = np.zeros(n)
    vertex[i] = 1.0
    biased = np.full(n, 0.5 / (n - 1))
    biased[i] = 0.5
    return vertex, biased


def _starting_points(kind: SolverKind, seed_idx: int, n: int) -> list[np.ndarray]:
    vertex, biased = seed_starting_points(seed_idx, n)
    if kind is SolverKind.FW:
        return [vertex]
    if kind is SolverKind.RD:
        return [biased]  # a vertex start makes the RD denominator zero
    return [vertex, biased]


def multistart_cluster(
    A: Operator,
    plan: SamplePlan,
    solver: SolverConfig,
    max_clusters: int,
) -> tuple[ClusteringResult, int]:
    """Run the peel driver with several sampled starts per pass on A, as
    `peel` does, cutting each solution's support at `peel.CUTOFF`; returns
    the clustering and the number of passes over the data. The result
    keeps every solve's stop reason and last gap, in solve order, but no
    traces."""
    config = PeelConfig(max_clusters, solver)  # raises on bad values
    rng = np.random.default_rng(plan.seed)

    def propose(B: Operator) -> list[Candidate]:
        if B.active is None:
            sub = B  # pass 1 solves the operator as given
        else:
            # A step's row reads scale with the objects it steps over, so
            # later passes solve a compacted copy, not an active mask.
            surviving = np.flatnonzero(B.active)
            sub_entries = B.base.entries[np.ix_(surviving, surviving)]
            sub_entries.setflags(write=False)
            sub = ShiftedMatrix(SimilarityMatrix(sub_entries), B.shift)
        ell = min(plan.ell, sub.n)
        if plan.sampler is SamplerKind.DPP:
            try:
                seeds = two_step_dpp_sample(sub, ell, rng)
            except PoolTooSmall:
                seeds = uniform_block_sample(sub, ell, rng)
        else:
            seeds = uniform_block_sample(sub, ell, rng)
        candidates: list[Candidate] = []
        for s in seeds:
            for x0 in _starting_points(solver.solver_kind, s, sub.n):
                x_star, trace, reason = run(sub, solver, x0=x0)
                f = trace[-1].f_after if trace else quadratic_form(sub, x_star)
                x = x_star
                if sub is not B:  # back to global indices
                    x = np.zeros(B.n)
                    x[surviving] = x_star
                candidates.append((f, x, trace, reason))
        return candidates

    return _drive(A, config, plan.overlap_threshold, propose)
