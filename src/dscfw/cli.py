"""Command-line interface: cluster, synth, similarity, eval, multistart,
and trace-check subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric/solver
error. eval and trace-check print one JSON line; the other subcommands
write a JSON manifest next to their outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import data, diagnostics, metrics
from .errors import DscfwError, UncheckableRun
from .matrix import (
    ShiftedMatrix,
    _require_rows,
    load_features_csv,
    load_matrix_csv,
    save_matrix_csv,
)
from .multistart import SamplePlan, SamplerKind, multistart_cluster
from .peel import DEFAULT_CUTOFF, PeelConfig, peel, post_assign
from .solvers import (
    DEFAULT_EPSILON,
    InitKind,
    SolverConfig,
    SolverKind,
    StopReason,
    initial_point,
    load_trace_csv,
    save_trace_csv,
)

log = logging.getLogger(__name__)

SOLVER_FLAGS = {
    "fw": (SolverKind.FW, InitKind.VERTEX),
    "pfw-b": (SolverKind.PFW, InitKind.BARYCENTER),
    "pfw-v": (SolverKind.PFW, InitKind.VERTEX),
    "afw-b": (SolverKind.AFW, InitKind.BARYCENTER),
    "afw-v": (SolverKind.AFW, InitKind.VERTEX),
    "rd": (SolverKind.RD, InitKind.BARYCENTER),
}


_DIGEST_CHUNK = 1 << 20


def _digest(path) -> str:
    """sha256 of a file, read in 1 MiB chunks into one reused buffer, so
    that no more than one chunk of the input is held at a time."""
    h = hashlib.sha256()
    buf = bytearray(_DIGEST_CHUNK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            h.update(view[:size])
    return h.hexdigest()


def _write_manifest(out_prefix: str, subcommand: str, args: dict,
                    inputs: list[str], phases: dict[str, float],
                    warnings: list[dict] | None = None) -> None:
    manifest = {
        "subcommand": subcommand,
        "flags": {k: v for k, v in args.items()
                  if k != "func" and not k.startswith("_")},
        "input_digests": {p: _digest(p) for p in inputs},
        "wall_clock_s": phases,
    }
    if warnings is not None:
        manifest["warnings"] = warnings
    Path(f"{out_prefix}.manifest.json").write_text(
        json.dumps(manifest, indent=2, default=str) + "\n")


def _load_similarity(args) -> tuple[object, list[str]]:
    if args.input:
        return load_matrix_csv(args.input), [args.input]
    F = load_features_csv(args.features)
    if args.similarity == "cosine":
        A = data.cosine_similarity(F, shift=args.shift)
    elif args.similarity == "euclidean-max":
        A = data.max_transform(data.pairwise_euclidean(F))
    else:  # minimax: the parser allows no other choice
        D = data.minimax_distances(data.pairwise_euclidean(F))
        A = data.max_transform(D)
    return A, [args.features]


def _solver_config(args) -> SolverConfig:
    kind, init = SOLVER_FLAGS[args.solver]
    return SolverConfig(
        solver_kind=kind, init_kind=init,
        epsilon=args.epsilon, max_iters=args.max_iters,
    )


def _emit_labels(out_prefix: str, result) -> None:
    payload = {
        "labels": [int(v) for v in result.labels],
        "k_found": len(result.clusters),
        "assignment_rate": result.assignment_rate,
    }
    Path(f"{out_prefix}.labels.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    with open(f"{out_prefix}.labels.csv", "w") as fh:
        fh.write("object_id,label\n")
        for i, v in enumerate(result.labels):
            fh.write(f"{i},{int(v)}\n")


def _budget_warnings(result, unit: str, max_iters: int,
                     out_prefix: str) -> list[dict]:
    """One manifest entry per solve that stopped at max_iters, numbered
    from 1 in solve order, and one logged line when there are any."""
    warnings = [
        {unit: k, "max_iters": max_iters,
         "last_full_gap": None if math.isnan(gap) else gap}
        for k, (reason, gap) in enumerate(
            zip(result.stop_reasons, result.last_gaps), start=1)
        if reason is StopReason.MAX_ITERS
    ]
    if warnings:
        log.warning("%d of %d solves stopped at max_iters=%d before "
                    "converging; see \"warnings\" in %s.manifest.json",
                    len(warnings), len(result.stop_reasons), max_iters,
                    out_prefix)
    return warnings


def cmd_cluster(args) -> int:
    t0 = time.perf_counter()
    A, inputs = _load_similarity(args)
    t_load = time.perf_counter() - t0
    config = PeelConfig(args.max_clusters, _solver_config(args), args.cutoff)
    t0 = time.perf_counter()
    result = peel(ShiftedMatrix(A, args.peel_shift), config)
    if args.post_assign:
        result = post_assign(result, A)
    t_solve = time.perf_counter() - t0
    _emit_labels(args.out, result)
    if args.trace:
        save_trace_csv(args.trace, result.traces[0] if result.traces else [])
    _write_manifest(args.out, "cluster", vars(args), inputs,
                    {"load": t_load, "solve": t_solve},
                    _budget_warnings(result, "round", args.max_iters,
                                     args.out))
    print(json.dumps({"k_found": len(result.clusters),
                      "assignment_rate": result.assignment_rate}))
    return 0


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    if args.kind == "block":
        A, truth = data.block_noise_matrix(args.n, args.k, args.noise,
                                           seed=args.seed)
    else:
        F, truth = data.gauss_dataset(args.n, args.noise, seed=args.seed)
    t1 = time.perf_counter()
    if args.kind == "block":
        save_matrix_csv(f"{args.out}.matrix.csv", A)
    else:
        np.savetxt(f"{args.out}.features.csv", F, delimiter=",")
    np.savetxt(f"{args.out}.truth.csv", truth, fmt="%d", delimiter=",")
    _write_manifest(args.out, "synth", vars(args), [],
                    {"generate": t1 - t0, "write": time.perf_counter() - t1})
    return 0


def cmd_similarity(args) -> int:
    t0 = time.perf_counter()
    A, inputs = _load_similarity(args)
    t1 = time.perf_counter()
    save_matrix_csv(args.out, A)
    _write_manifest(args.out, "similarity", vars(args), inputs,
                    {"similarity": t1 - t0,
                     "write": time.perf_counter() - t1})
    return 0


def cmd_eval(args) -> int:
    _require_rows(args.pred, "predicted-label CSV")
    _require_rows(args.truth, "true-label CSV")
    pred = np.loadtxt(args.pred, delimiter=",", dtype=int, ndmin=1)
    truth = np.loadtxt(args.truth, delimiter=",", dtype=int, ndmin=1)
    out = {
        "ar": metrics.assignment_rate(pred),
        "ari": metrics.ari(pred, truth,
                           include_unassigned=args.include_unassigned),
        "v_measure": metrics.v_measure(
            pred, truth, include_unassigned=args.include_unassigned),
    }
    print(json.dumps(out))
    return 0


def cmd_multistart(args) -> int:
    A, inputs = _load_similarity(args)
    plan = SamplePlan(
        ell=args.samples,
        sampler=SamplerKind(args.sampler),
        overlap_threshold=args.overlap_threshold,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    config = SolverConfig(SolverKind(args.solver), epsilon=args.epsilon,
                          max_iters=args.max_iters)
    result, passes = multistart_cluster(
        A, plan, config, args.max_clusters, cutoff=args.cutoff)
    elapsed = time.perf_counter() - t0
    _emit_labels(args.out, result)
    Path(f"{args.out}.passes.json").write_text(
        json.dumps({"passes": passes}) + "\n")
    _write_manifest(args.out, "multistart", vars(args), inputs,
                    {"solve": elapsed},
                    _budget_warnings(result, "solve", args.max_iters,
                                     args.out))
    print(json.dumps({"passes": passes,
                      "k_found": len(result.clusters)}))
    return 0


# The `cluster` flags that trace-check reads back from a manifest.
_CHECKED_FLAGS = ("input", "features", "similarity", "shift", "solver",
                  "epsilon", "max_iters", "peel_shift", "trace")


def _check_flags(manifest: str, flags: dict) -> None:
    """Raise UncheckableRun unless each recorded flag is a value the
    `cluster` parser gives it: parsed again from its text with that
    parser's own types and choices, it must come back unchanged."""
    argv = ["cluster", "--max-clusters", "1"]
    argv += [f"--{k.replace('_', '-')}={flags[k]}" for k in _CHECKED_FLAGS
             if flags[k] is not None]
    errors = io.StringIO()
    try:
        with contextlib.redirect_stderr(errors):
            parsed = vars(build_parser().parse_args(argv))
    except SystemExit:
        raise UncheckableRun(
            f"{manifest} records a flag that cluster rejects: "
            f"{errors.getvalue().strip().splitlines()[-1]}") from None
    bad = [k for k in _CHECKED_FLAGS if parsed[k] != flags[k]]
    if bad:
        raise UncheckableRun(
            f"{manifest} records {', '.join(bad)} as no value that cluster "
            "gives it")


def cmd_trace_check(args) -> int:
    """Hold a traced `cluster` run to its gap bound on the operator and the
    start its manifest records, reading relative paths from the cwd."""
    manifest = json.loads(Path(args.manifest).read_text())
    sub = manifest.get("subcommand") if isinstance(manifest, dict) else None
    if sub != "cluster":
        raise UncheckableRun(
            f"{args.manifest} records a {sub} run, not a cluster run")
    flags, digests = manifest.get("flags"), manifest.get("input_digests")
    if not (isinstance(flags, dict) and isinstance(digests, dict)):
        raise UncheckableRun(
            f"{args.manifest} lacks the flags or input digests of its run")
    missing = [k for k in _CHECKED_FLAGS if k not in flags]
    if missing:
        raise UncheckableRun(
            f"{args.manifest} records no {', '.join(missing)} flag")
    _check_flags(args.manifest, flags)
    run = argparse.Namespace(**flags)
    if run.trace is None:
        raise UncheckableRun(f"{args.manifest} records a run without --trace")
    for path, digest in digests.items():
        if _digest(path) != digest:
            raise UncheckableRun(f"{path} changed since the run (sha256)")
    trace = load_trace_csv(run.trace)
    if not trace:
        raise UncheckableRun(
            f"{run.trace} records no steps: the traced round stopped "
            "before its first step")
    config = _solver_config(run)
    A = ShiftedMatrix(_load_similarity(run)[0], run.peel_shift)
    report = diagnostics.theorem_bound(trace, config.solver_kind, A,
                                       initial_point(A, config))
    print(json.dumps(dataclasses.asdict(report)))
    return 0


def _add_similarity_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="similarity matrix CSV")
    source.add_argument("--features", help="feature matrix CSV")
    p.add_argument("--similarity", default="cosine",
                   choices=["cosine", "euclidean-max", "minimax"])
    p.add_argument("--shift", type=float, default=0.0,
                   help="off-diagonal shift for the cosine pipeline")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="stop a solve when its halved gap max(r) - f is at "
                   "most epsilon * max(r); in (0, 1) (default %(default)g)")
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dscfw")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="peel-off dominant set clustering")
    _add_similarity_flags(p)
    p.add_argument("--solver", default="fw", choices=sorted(SOLVER_FLAGS),
                   help="-b/-v: barycenter/vertex start")
    _add_solver_flags(p)
    p.add_argument("--max-clusters", type=int, required=True)
    p.add_argument("--peel-shift", type=float, default=0.0,
                   help="off-diagonal shift applied each peel round")
    p.add_argument("--post-assign", action="store_true")
    p.add_argument("--trace",
                   help="write the trace of the first peel round's solve here")
    p.add_argument("--out", default="run")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=["block", "gauss"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("similarity", help="feature CSV -> matrix CSV")
    _add_similarity_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("eval", help="score predicted labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--include-unassigned", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("multistart", help="multi-start clustering")
    _add_similarity_flags(p)
    p.add_argument("--solver", default="fw", help="each seed gives the starts",
                   choices=[kind.value for kind in SolverKind])
    _add_solver_flags(p)
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--sampler", choices=["uni", "dpp"], default="uni")
    p.add_argument("--overlap-threshold", type=float, default=0.10)
    p.add_argument("--max-clusters", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="run")
    p.set_defaults(func=cmd_multistart)

    p = sub.add_parser("trace-check", help="evaluate gap bounds on a trace")
    p.add_argument("--manifest", required=True,
                   help="manifest of a `cluster --trace` run")
    p.set_defaults(func=cmd_trace_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DscfwError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
