"""The benchmark's workloads: how their inputs are generated and loaded,
the timed clustering operation, and how its output is read back.

Every call into dscfw looks its function up on the module at call time
(``_dscfw("peel").peel``), so that the traced run's wrappers, which replace
module attributes, see every call the operation makes.

Why each workload exists:

- gauss-multistart: starts from features, so the Python-loop minimax is on
  the timed path; away-step solves from vertices run in multistart's thread
  pool. Bypasses peel's copy-and-shift and CSV I/O. Passes, time and ARI
  vary from one instance to the next, so a run generates 16 instances and
  clusters as many distinct ones as its time allows (about 10 to 15), the
  first 7 always; ARI and assignment rate are means over those 7.
- cli-cluster: ``dscfw cluster`` with the README's configuration (pairwise
  FW from the barycenter, shift 4): the CSV read path, pairwise steps over
  a large support (``select_away``, strided column reads), five O(n^2)
  submatrix copies with shift and re-validation, the output files, and the
  round-1 re-solve that ``--trace`` runs. Bypasses minimax and multistart.
  Every round stops at its step budget at this commit; the budget is the
  one the workload is defined with, not tuned to hide that. Each run
  clusters four instances, because assignment rate and ARI vary by seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

SHIFT_PEEL = 4.0
SHIFT_GAUSS_FACTOR = 8.0  # off-diagonal shift of 8 * max, as in criterion 11
MAX_ITERS = 1000


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's output checks."""


def load_program(root: Path) -> None:
    """Import dscfw from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        dscfw = importlib.import_module("dscfw")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dscfw from {src}: {exc}")
    where = Path(dscfw.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"perfbench: dscfw imported from {where}, not {src}")


def _dscfw(module: str):
    return importlib.import_module(f"dscfw.{module}")


@dataclass
class Instance:
    """One generated input. ``score`` selects the objects ARI is scored on."""

    seed: int
    truth: np.ndarray
    score: np.ndarray
    features: np.ndarray | None = None
    csv: Path | None = None

    @property
    def n(self) -> int:
        return self.truth.shape[0]


@dataclass
class Output:
    """What one operation produced, read back outside the timed region."""

    labels: np.ndarray
    clusters: list[list[int]] | None  # None when only labels are visible
    bytes_written: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    tiny_n: int
    instances: int  # generated per run; clustered in turn until time is up
    scored: int  # the first ones, always clustered; quality is their mean
    # (data seed, n, dir) -> {dscfw generator called: its seconds}
    generate: Callable[[int, int, Path], dict[str, float]]
    load: Callable[[Path, int], Instance]
    cluster: Callable[[Instance, Path], Any]  # the timed operation
    output: Callable[[Instance, Any, Path], Output]
    solver_matrix: Callable[[Instance], Any]  # the matrix round 1 solves

    def seeds(self, seed: int) -> list[int]:
        """Data seeds of a run's instances; disjoint across run seeds."""
        return [seed * self.instances + j for j in range(self.instances)]


def _shifted(entries: np.ndarray, shift: float):
    E = np.array(entries, dtype=float)
    E += shift
    np.fill_diagonal(E, 0.0)
    return _dscfw("matrix").new_similarity_matrix(E)


# gauss-multistart ----------------------------------------------------------

def _gauss_generate(seed: int, n: int, out: Path) -> dict[str, float]:
    t0 = time.perf_counter()
    F, truth = _dscfw("data").gauss_dataset(n, 0.2, seed=seed,
                                            background_as_class=False)
    elapsed = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "features.npy", F)
    np.save(out / "truth.npy", truth)
    return {"gauss_dataset": elapsed}


def _gauss_load(d: Path, seed: int) -> Instance:
    truth = np.load(d / "truth.npy")
    return Instance(seed=seed, truth=truth, score=truth > 0,
                    features=np.load(d / "features.npy"))


def gauss_similarity(F: np.ndarray):
    """Features to the criterion-11 matrix: minimax distances, max
    transform, then an off-diagonal shift of 8 * max."""
    data = _dscfw("data")
    A = data.max_transform(data.minimax_distances(data.pairwise_euclidean(F)))
    return _shifted(A.entries, SHIFT_GAUSS_FACTOR * float(A.entries.max()))


def _gauss_cluster(inst: Instance, workdir: Path):
    solvers = _dscfw("solvers")
    ms = _dscfw("multistart")
    A = gauss_similarity(inst.features)
    plan = ms.SamplePlan(ell=4, sampler=ms.SamplerKind.DPP, seed=inst.seed)
    config = solvers.SolverConfig(solvers.SolverKind.AFW,
                                  solvers.InitKind.VERTEX, max_iters=MAX_ITERS)
    result, _passes = ms.multistart_cluster(A, plan, config, max_clusters=4)
    return result


def _gauss_output(inst: Instance, result, workdir: Path) -> Output:
    return Output(np.asarray(result.labels), result.clusters)


# cli-cluster ---------------------------------------------------------------

def _cli_generate(seed: int, n: int, out: Path) -> dict[str, float]:
    t0 = time.perf_counter()
    A, truth = _dscfw("data").block_noise_matrix(n, 5, 0.3, seed=seed)
    elapsed = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    _dscfw("matrix").save_matrix_csv(out / "matrix.csv", A)
    np.save(out / "truth.npy", truth)
    return {"block_noise_matrix": elapsed}


def _cli_load(d: Path, seed: int) -> Instance:
    truth = np.load(d / "truth.npy")
    return Instance(seed=seed, truth=truth, score=np.ones(truth.size, bool),
                    csv=d / "matrix.csv")


def _cli_cluster(inst: Instance, workdir: Path) -> int:
    out = workdir / "cli-out"
    out.mkdir(parents=True, exist_ok=True)
    argv = ["cluster", "--input", str(inst.csv), "--solver", "pfw-b",
            "--max-clusters", "5", "--peel-shift", str(SHIFT_PEEL),
            "--max-iters", str(MAX_ITERS), "--trace", str(out / "trace.csv"),
            "--out", str(out / "run")]
    with contextlib.redirect_stdout(io.StringIO()):
        return _dscfw("cli").main(argv)


def _cli_output(inst: Instance, code: int, workdir: Path) -> Output:
    if code != 0:
        raise CheckFailed(f"dscfw cluster exited with code {code}")
    out = workdir / "cli-out"
    lines = (out / "run.labels.csv").read_text().splitlines()
    if not lines or lines[0] != "object_id,label":
        raise CheckFailed("labels.csv has no object_id,label header")
    try:
        rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    except ValueError as exc:
        raise CheckFailed(f"labels.csv does not parse: {exc}")
    if [r[0] for r in rows] != list(range(inst.n)):
        raise CheckFailed("labels.csv object ids are not 0..n-1")
    written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return Output(np.array([r[1] for r in rows], dtype=int), None, written)


def _cli_matrix(inst: Instance):
    A = _dscfw("matrix").load_matrix_csv(inst.csv)
    return _shifted(A.entries, SHIFT_PEEL)


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="gauss-multistart", n=1000, tiny_n=30, instances=16, scored=7,
            generate=_gauss_generate, load=_gauss_load,
            cluster=_gauss_cluster, output=_gauss_output,
            solver_matrix=lambda inst: gauss_similarity(inst.features),
        ),
        Workload(
            name="cli-cluster", n=1000, tiny_n=60, instances=4, scored=4,
            generate=_cli_generate, load=_cli_load,
            cluster=_cli_cluster, output=_cli_output,
            solver_matrix=_cli_matrix,
        ),
    ]
}


def check_output(inst: Instance, out: Output) -> None:
    """Labels have length n and values in 0..K; clusters are disjoint and
    agree with the labels."""
    labels = out.labels
    if labels.shape != (inst.n,):
        raise CheckFailed(f"labels have shape {labels.shape}, want ({inst.n},)")
    k = len(out.clusters) if out.clusters is not None else int(labels.max())
    if labels.min() < 0 or labels.max() > k:
        raise CheckFailed(f"labels outside 0..{k}")
    if out.clusters is None:
        if any(not np.any(labels == c) for c in range(1, k + 1)):
            raise CheckFailed("a cluster label between 1 and K is unused")
        return
    seen: set[int] = set()
    for label, members in enumerate(out.clusters, start=1):
        m = set(int(i) for i in members)
        if m & seen:
            raise CheckFailed(f"cluster {label} overlaps an earlier cluster")
        seen |= m
        if m != set(np.flatnonzero(labels == label).tolist()):
            raise CheckFailed(f"cluster {label} disagrees with the labels")
