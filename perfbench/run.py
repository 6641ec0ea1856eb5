"""The dscfw benchmark: whole clusterings through the public API and the CLI.

    python3 perfbench/run.py --workload cli-cluster --seed 0 --seconds 50 --trace 0

Load is a closed loop with one caller: each operation is one full
clustering, started when the previous one has returned, in this process.
The benchmark starts no threads; multistart's pool is the program's own.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
times untraced clusterings, then traced ones under the span recorder, then
per-step micro-timings, and prints the per-layer metrics. Either way the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the machine facts, sample counts and the per-layer breakdown. Output checks
run outside the timed region. Inputs are generated from ``--seed`` in a
separate process (see gen.py) and written under ``.perfbench_work/`` at the
root of the checkout, which is removed afterwards except for the span
files of traced runs.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads
from workloads import CheckFailed, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MICRO_STEPS = 200  # the step budget of each micro-timing solve
MICRO_REPEATS = 3
SELECT_AWAY_CALLS = 200

END_TO_END = {
    "clusterings_per_s": "1/s",
    "cluster_s_p50": "s",
    "ari": "ratio",
    "assignment_rate": "ratio",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

STEP_CONFIGS = {  # label -> (SolverKind, InitKind) member names
    "fw-v": ("FW", "VERTEX"),
    "pfw-b": ("PFW", "BARYCENTER"),
    "pfw-v": ("PFW", "VERTEX"),
    "afw-b": ("AFW", "BARYCENTER"),
    "afw-v": ("AFW", "VERTEX"),
    "rd-b": ("RD", "BARYCENTER"),
}

PER_LAYER = {
    "data.minimax_distances_s": "s",
    "data.pairwise_euclidean_s": "s",
    "data.max_transform_s": "s",
    "data.similarity_s": "s",
    "data.block_noise_matrix_s": "s",
    "matrix.validate_s": "s",
    "matrix.validate_calls": "count",
    "matrix.load_csv_s": "s",
    "matrix.load_csv_bytes": "bytes",
    "solvers.run_s": "s",
    "solvers.runs": "count",
    "solvers.steps": "count",
    "solvers.us_per_step": "us",
    "solvers.max_iters_stops": "count",
    "solvers.good_step_ratio": "ratio",
    **{f"solvers.step_us.{label}": "us" for label in STEP_CONFIGS},
    "solvers.select_away_us": "us",
    "peel.rounds": "count",
    "peel.self_s": "s",
    "peel.self_s_per_round": "s",
    "multistart.passes": "count",
    "multistart.solves": "count",
    "multistart.accepted_ratio": "ratio",
    "multistart.sample_s": "s",
    "multistart.self_s": "s",
    "multistart.solve_wait_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.trace_solve_s": "s",
    "cli.save_trace_s": "s",
    "cli.bytes_written": "bytes",
    "trace_overhead_ratio": "ratio",
    "trace.cluster_s_p50": "s",
    "trace.attributed_ratio": "ratio",
}


@dataclass
class Phase:
    """Timings and failures of one loop of clusterings."""

    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    bytes_written: list[int] = field(default_factory=list)


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _blas() -> dict:
    """numpy's BLAS and, for the scipy-openblas wheels, its thread count."""
    config = np.show_config(mode="dicts") or {}
    info = config.get("Build Dependencies", {}).get("blas", {})
    blas = {"name": info.get("name"), "version": info.get("version"),
            "threads": None}
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            get = getattr(ctypes.CDLL(str(lib)),
                          "scipy_openblas_get_num_threads64_", None)
        except OSError:
            continue
        if get is not None:
            blas["threads"] = int(get())
    return blas


def machine_facts(largest_matrix_bytes: int) -> dict:
    cpu = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    for index in sorted(Path(cpu).glob("index*")):
        if _read(f"{index}/type") in ("Unified", "Data"):
            caches[f"L{_read(f'{index}/level')}"] = _read(f"{index}/size")
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    l3 = caches.get("L3", "")
    l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") else None
    fits = l3_bytes is not None and largest_matrix_bytes <= l3_bytes
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "largest_matrix_mb": largest_matrix_bytes / 2**20,
        "note": ("the largest n x n matrix fits in L3, so no figure is a "
                 "memory-bandwidth measurement") if fits else
                ("the largest n x n matrix exceeds L3 (or L3 is unknown); "
                 "figures may include memory-bandwidth effects"),
    }


def setup(wl, seed: int, work: Path, tiny: bool, repeats: int):
    """Generate inputs in a child process, load them and warm up on a tiny
    instance; repeated, so that setup time is reported as a median."""
    inputs = work / "inputs"
    times, instances = [], None
    for _ in range(repeats):
        instances = None  # let the previous repetition's inputs go first
        t0 = time.perf_counter()
        cmd = [sys.executable, str(HERE / "gen.py"), "--workload", wl.name,
               "--seed", str(seed), "--out", str(inputs)]
        subprocess.run(cmd + (["--tiny"] if tiny else []), check=True,
                       timeout=170)
        instances = [wl.load(inputs / f"inst{j}", s)
                     for j, s in enumerate(wl.seeds(seed))]
        warm = wl.load(inputs / "warm", 0)
        wl.output(warm, wl.cluster(warm, work), work)
        times.append(time.perf_counter() - t0)
    gen = json.loads((inputs / "gen.json").read_text())
    return times, instances, gen


def measure(wl, instances, work: Path, seconds: float, min_ops: int,
            quality: dict, recorder: tracing.Recorder | None = None) -> Phase:
    """Cluster the instances in turn: at least ``min_ops`` clusterings, then
    more while one more is expected to end before ``seconds`` have passed
    (the expectation is the median so far), so that a run never overshoots
    by a whole clustering. Each instance's ARI and assignment rate go into
    ``quality`` the first time and must match it on every repetition."""
    metrics = importlib.import_module("dscfw.metrics")
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while phase.attempted < min_ops or (
            time.perf_counter() + statistics.median(phase.times or [0.0])
            < deadline):
        j = phase.attempted % len(instances)
        inst = instances[j]
        phase.attempted += 1
        try:
            gc.collect()  # every clustering starts from the same heap state
            span = recorder.open(tracing.OP) if recorder else None
            t0 = time.perf_counter()
            try:
                raw = wl.cluster(inst, work)
            finally:
                elapsed = time.perf_counter() - t0
                if span is not None:
                    recorder.close(span)
            out = wl.output(inst, raw, work)
            check_output(inst, out)
            scored = (metrics.ari(out.labels[inst.score],
                                  inst.truth[inst.score]),
                      metrics.assignment_rate(out.labels))
            if quality.setdefault(j, scored) != scored:
                raise CheckFailed(f"instance {j}: ARI and assignment rate "
                                  f"{scored} differ from {quality[j]}")
        except Exception:
            traceback.print_exc()
            phase.failed += 1
            continue
        phase.times.append(elapsed)
        phase.bytes_written.append(out.bytes_written)
    return phase


def micro_timings(wl, inst, absent: list[str]) -> dict[str, float]:
    """Microseconds per step of each solver through ``run`` on the matrix
    round 1 of this workload solves, and per ``select_away`` call at full
    support."""
    solvers = importlib.import_module("dscfw.solvers")
    A = wl.solver_matrix(inst)
    out = {}
    for label, (kind, init) in STEP_CONFIGS.items():
        config = solvers.SolverConfig(getattr(solvers.SolverKind, kind),
                                      getattr(solvers.InitKind, init),
                                      max_iters=MICRO_STEPS)
        per_step = []
        for _ in range(MICRO_REPEATS):
            t0 = time.perf_counter()
            _x, trace, _reason = solvers.run(A, config)
            if trace:
                per_step.append(1e6 * (time.perf_counter() - t0) / len(trace))
        out[f"solvers.step_us.{label}"] = (statistics.median(per_step)
                                           if per_step else 0.0)
    try:
        state = solvers.make_state(A, solvers.init_barycenter(A.n))
        select_away = solvers.select_away
    except (AttributeError, TypeError):
        absent.append("dscfw.solvers.select_away")
        out["solvers.select_away_us"] = 0.0
        return out
    t0 = time.perf_counter()
    for _ in range(SELECT_AWAY_CALLS):
        select_away(state)
    out["solvers.select_away_us"] = (
        1e6 * (time.perf_counter() - t0) / SELECT_AWAY_CALLS)
    return out


def _summary(phase: Phase) -> dict:
    t = sorted(phase.times)
    if not t:
        return {"samples": 0}
    return {"samples": len(t), "min_s": t[0], "p50_s": statistics.median(t),
            "max_s": t[-1], "times_s": phase.times}


def timed_run(wl, instances, work, args, setup_times) -> tuple[dict, dict, Phase]:
    quality: dict = {}
    phase = measure(wl, instances, work, args.seconds, wl.scored, quality)
    done = len(phase.times)
    scores = [quality[j] for j in range(wl.scored) if j in quality]
    metrics = {
        "clusterings_per_s": done / sum(phase.times) if done else 0.0,
        "cluster_s_p50": statistics.median(phase.times) if done else 0.0,
        "ari": statistics.fmean(s[0] for s in scores) if scores else 0.0,
        "assignment_rate":
            statistics.fmean(s[1] for s in scores) if scores else 0.0,
        "ok_ratio": (phase.attempted - phase.failed) / phase.attempted,
        "setup_s": statistics.median(setup_times),
        # ru_maxrss is in KiB on Linux. Inputs were generated in a child
        # process, so this peak is the clustering's.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"clusterings": _summary(phase),
            "quality_per_instance": {j: quality[j] for j in sorted(quality)}}
    return metrics, info, phase


def traced_run(wl, instances, work, args, gen) -> tuple[dict, dict, Phase]:
    quality: dict = {}
    share = args.seconds * 0.35
    untraced = measure(wl, instances, work, share, 1, quality)
    originals = tracing.wrapped_targets()
    rec = tracing.Recorder()
    rec.install()
    try:
        traced = measure(wl, instances, work, share, 1, quality, rec)
    finally:
        rec.restore()
    restored = all(a is b for a, b in zip(originals, tracing.wrapped_targets()))
    figures, breakdown = tracing.layer_figures(rec)
    absent = list(rec.absent)
    figures.update(micro_timings(wl, instances[0], absent))
    block = [g["block_noise_matrix"] for g in gen["generate_s"]
             if "block_noise_matrix" in g]
    figures["data.block_noise_matrix_s"] = (statistics.median(block)
                                            if block else 0.0)
    figures["cli.bytes_written"] = (statistics.fmean(traced.bytes_written)
                                    if traced.bytes_written else 0.0)
    if untraced.times and traced.times:
        figures["trace_overhead_ratio"] = (
            statistics.median(traced.times) / statistics.median(untraced.times)
            - 1.0)
    metrics = {name: figures.get(name, 0.0) for name in PER_LAYER}
    spans = WORK / f"spans-{wl.name}-s{args.seed}.json"
    spans.write_text(json.dumps(rec.as_records()))
    info = {"untraced": _summary(untraced), "traced": _summary(traced),
            "wrappers_restored": restored, "absent": absent,
            "median_op_by_layer_s": breakdown, "spans_file": str(spans)}
    phase = Phase(attempted=untraced.attempted + traced.attempted,
                  failed=untraced.failed + traced.failed + (not restored))
    return metrics, info, phase


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    workloads.load_program(ROOT)
    wl = workloads.WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, instances, gen = setup(
            wl, args.seed, work, args.tiny, 1 if args.trace else SETUP_REPEATS)
        if args.trace:
            metrics, info, phase = traced_run(wl, instances, work, args, gen)
        else:
            metrics, info, phase = timed_run(wl, instances, work, args,
                                             setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    n = wl.tiny_n if args.tiny else wl.n
    units = PER_LAYER if args.trace else END_TO_END
    info.update(workload=wl.name, seed=args.seed, seconds=args.seconds,
                trace=args.trace, instances=len(instances),
                setup_s_samples=setup_times, generate_s=gen["generate_s"],
                machine=machine_facts(8 * n * n))
    result = {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"info": info}, default=str))
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
