"""Command-line interface: cluster (peel-off, or multi-start with
--sampler), synth, similarity, eval and trace-check subcommands.

Each subcommand reads one kind of input: cluster a similarity matrix CSV
(--input), similarity a feature CSV (--features), eval two label CSVs,
trace-check the manifest of a traced cluster run. A label CSV, the one
label format, is the header `object_id,label` and then an `i,label` row
per object i = 0..n-1: cluster and synth write it, and eval refuses any
other file (MalformedLabels).

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
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import data, diagnostics, metrics
from .errors import DscfwError, MalformedLabels, UncheckableRun
from .matrix import (
    ShiftedMatrix,
    load_features_csv,
    load_matrix_csv,
    save_matrix_csv,
)
from .multistart import SamplePlan, SamplerKind, multistart_cluster
from .peel import PeelConfig, peel, post_assign
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
SOLVER_KINDS = [kind.value for kind in SolverKind]


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


_LABELS_HEADER = "object_id,label"
_LABEL_ROW = re.compile(r"(-?[0-9]+),(-?[0-9]+)")


def _write_labels(path, labels) -> None:
    """Write a label CSV: the header, then one `i,label` row per object."""
    with open(path, "w") as fh:
        fh.write(f"{_LABELS_HEADER}\n")
        for i, v in enumerate(labels):
            fh.write(f"{i},{int(v)}\n")


def _read_labels(path) -> np.ndarray:
    """The labels of a label CSV. MalformedLabels names the file and the
    fault when it is not the header and then one or more rows of two
    integers, with the ids 0..n-1 in order."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _LABELS_HEADER:
        raise MalformedLabels(
            f"{path} does not start with the header {_LABELS_HEADER}")
    if len(lines) == 1:
        raise MalformedLabels(f"{path} has no row after its header")
    labels = []
    for i, line in enumerate(lines[1:]):
        row = _LABEL_ROW.fullmatch(line)
        if row is None:
            raise MalformedLabels(
                f"{path} line {i + 2}: {line!r} is not two integers")
        if int(row[1]) != i:
            raise MalformedLabels(
                f"{path} line {i + 2}: object id {row[1]} where {i} belongs; "
                "the ids must be 0..n-1 in order")
        labels.append(int(row[2]))
    return np.array(labels, dtype=int)


def _write_manifest(args, inputs: list[str], phases: dict[str, float],
                    **records) -> None:
    manifest = {
        "subcommand": args.command,
        "flags": {k: v for k, v in vars(args).items()
                  if k != "func" and not k.startswith("_")},
        "input_digests": {p: _digest(p) for p in inputs},
        "wall_clock_s": phases,
        **records,
    }
    Path(f"{args.out}.manifest.json").write_text(
        json.dumps(manifest, indent=2, default=str) + "\n")


def _build_similarity(args):
    F = load_features_csv(args.features)
    if args.similarity == "cosine":
        return data.cosine_similarity(F, shift=args.shift)
    D = data.pairwise_euclidean(F)
    if args.similarity == "minimax":
        D = data.minimax_distances(D)
    return data.max_transform(D)  # minimax or euclidean-max


def _solver_config(args) -> SolverConfig:
    # A bare kind (--sampler) keeps the default start: the seeds set them.
    kind, init = (SOLVER_FLAGS.get(args.solver)
                  or (SolverKind(args.solver), InitKind.VERTEX))
    return SolverConfig(kind, init, epsilon=args.epsilon,
                        max_iters=args.max_iters)


def _budget_warnings(result, args) -> list[dict]:
    """One manifest entry per solve that stopped at max_iters, by solve
    number (peel's solve k is its round k), and one logged line if any."""
    warnings = [
        {"solve": k, "max_iters": args.max_iters,
         "last_full_gap": None if math.isnan(gap) else gap}
        for k, (reason, gap) in enumerate(
            zip(result.stop_reasons, result.last_gaps), start=1)
        if reason is StopReason.MAX_ITERS
    ]
    if warnings:
        log.warning("%d of %d solves stopped at max_iters=%d before "
                    "converging; see \"warnings\" in %s.manifest.json",
                    len(warnings), len(result.stop_reasons), args.max_iters,
                    args.out)
    return warnings


def _mode_error(args) -> str | None:
    """The usage error in a `cluster` run's flags, or None. The sampling
    flags need --sampler; with it the seeds set the starts, so --solver
    names the kind alone, and a trace could not say which solve it is."""
    sampled = args.sampler is not None
    flags = ("trace",) if sampled else ("samples", "overlap_threshold", "seed")
    unread = [k for k in flags if getattr(args, k) is not None]
    if unread:
        return (f"dscfw cluster: error: --{unread[0].replace('_', '-')} "
                f"applies only {'without' if sampled else 'with'} --sampler")
    solvers = SOLVER_KINDS if sampled else sorted(SOLVER_FLAGS)
    if args.solver not in solvers:
        return (f"dscfw cluster: error: {'with' if sampled else 'without'} "
                f"--sampler, --solver takes {', '.join(solvers)}")
    return None


def cmd_cluster(args) -> int:
    if error := _mode_error(args):
        print(error, file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    A = load_matrix_csv(args.input)
    t_load = time.perf_counter() - t0
    summary = {}
    t0 = time.perf_counter()
    B = ShiftedMatrix(A, args.peel_shift)
    if args.sampler is None:
        result = peel(B, PeelConfig(args.max_clusters, _solver_config(args)))
    else:
        # SamplePlan's defaults, recorded in the manifest as the values used.
        if args.samples is None:
            args.samples = SamplePlan.ell
        if args.overlap_threshold is None:
            args.overlap_threshold = SamplePlan.overlap_threshold
        plan = SamplePlan(args.samples, SamplerKind(args.sampler),
                          args.overlap_threshold, args.seed)
        result, summary["passes"] = multistart_cluster(
            B, plan, _solver_config(args), args.max_clusters)
    if args.post_assign:
        result = post_assign(result, B)
    t_solve = time.perf_counter() - t0
    if args.trace:
        save_trace_csv(args.trace, result.traces[0] if result.traces else [])
    _write_labels(f"{args.out}.labels.csv", result.labels)
    summary.update(k_found=len(result.clusters),
                   assignment_rate=result.assignment_rate)
    _write_manifest(args, [args.input], {"load": t_load, "solve": t_solve},
                    warnings=_budget_warnings(result, args), result=summary)
    print(json.dumps(summary))
    return 0


def cmd_synth(args) -> int:
    if args.kind == "gauss" and args.k is not None:
        # gauss_dataset always draws its four clusters.
        print("dscfw synth: error: --k applies only to --kind block",
              file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    if args.kind == "block":
        if args.k is None:
            args.k = 5  # recorded in the manifest as the k the run used
        A, truth = data.block_noise_matrix(args.n, args.k, args.noise,
                                           seed=args.seed)
    else:
        F, truth = data.gauss_dataset(args.n, args.noise, seed=args.seed)
    t1 = time.perf_counter()
    if args.kind == "block":
        save_matrix_csv(f"{args.out}.matrix.csv", A)
    else:
        np.savetxt(f"{args.out}.features.csv", F, delimiter=",")
    _write_labels(f"{args.out}.truth.csv", truth)
    _write_manifest(args, [], {"generate": t1 - t0,
                               "write": time.perf_counter() - t1})
    return 0


def cmd_similarity(args) -> int:
    if args.shift and args.similarity != "cosine":
        # The other similarities would leave the matrix as it is.
        print("dscfw similarity: error: --shift applies only to "
              "--similarity cosine", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    A = _build_similarity(args)
    t1 = time.perf_counter()
    save_matrix_csv(args.out, A)
    _write_manifest(args, [args.features],
                    {"similarity": t1 - t0, "write": time.perf_counter() - t1})
    return 0


def cmd_eval(args) -> int:
    pred = _read_labels(args.pred)
    truth = _read_labels(args.truth)
    out = {
        "ar": metrics.assignment_rate(pred),
        "ari": metrics.ari(pred, truth,
                           include_unassigned=args.include_unassigned),
        "v_measure": metrics.v_measure(
            pred, truth, include_unassigned=args.include_unassigned),
    }
    print(json.dumps(out))
    return 0


# The `cluster` flags that trace-check reads back from a manifest.
_CHECKED_FLAGS = ("input", "solver", "epsilon", "max_iters", "peel_shift",
                  "trace")


def _check_flags(manifest: str, flags: dict) -> None:
    """Raise UncheckableRun unless each recorded flag is a value the
    `cluster` parser gives it: parsed again from its text with that
    parser's own types and choices, it must come back unchanged. A recorded
    --sampler (0.9.0 on) is parsed too, so cluster's mode rules apply."""
    argv = ["cluster", "--max-clusters", "1"]
    argv += [f"--{k.replace('_', '-')}={flags[k]}"
             for k in (*_CHECKED_FLAGS, "sampler") if flags.get(k) is not None]
    errors = io.StringIO()
    try:
        with contextlib.redirect_stderr(errors):
            parsed = build_parser().parse_args(argv)
        error = _mode_error(parsed)
    except SystemExit:
        error = errors.getvalue().strip().splitlines()[-1]
    if error:
        raise UncheckableRun(
            f"{manifest} records a flag that cluster rejects: {error}")
    bad = [k for k in _CHECKED_FLAGS if vars(parsed)[k] != flags[k]]
    if bad:
        raise UncheckableRun(
            f"{manifest} records {', '.join(bad)} as no value that cluster "
            "gives it")


def cmd_trace_check(args) -> int:
    """Hold a traced `cluster` run to its gap bound on the operator and the
    start its manifest records, and count the traced steps that break
    their exact progress identities; relative paths read from the cwd."""
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
    if list(digests) != [run.input]:
        raise UncheckableRun(
            f"{args.manifest} records input digests of {list(digests)}, not "
            f"of its --input {run.input} alone")
    if _digest(run.input) != digests[run.input]:
        raise UncheckableRun(f"{run.input} changed since the run (sha256)")
    trace = load_trace_csv(run.trace)
    if not trace:
        raise UncheckableRun(
            f"{run.trace} records no steps: the traced round stopped "
            "before its first step")
    config = _solver_config(run)
    A = ShiftedMatrix(load_matrix_csv(run.input), run.peel_shift)
    report = diagnostics.theorem_bound(trace, config.solver_kind, A,
                                       initial_point(A, config))
    violations = diagnostics.check_progress(trace, A)
    line = {**dataclasses.asdict(report),
            "progress_violations": len(violations)}
    # JSON has no infinity: a bound beyond any float (PFW's n! one) is null.
    print(json.dumps({k: v if not isinstance(v, float) or math.isfinite(v)
                      else None for k, v in line.items()}, allow_nan=False))
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="stop a solve when its halved gap max(r) - f is at "
                   "most epsilon * max(r); in (0, 1) (default %(default)g)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dscfw")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="dominant set clustering")
    p.add_argument("--input", required=True, help="similarity matrix CSV")
    p.add_argument("--solver", default="fw",
                   choices=sorted({*SOLVER_FLAGS, *SOLVER_KINDS}),
                   help="-b/-v: barycenter/vertex start (none with --sampler)")
    _add_solver_flags(p)
    p.add_argument("--max-clusters", type=int, required=True)
    p.add_argument("--peel-shift", type=float, default=0.0,
                   help="off-diagonal shift applied each peel round")
    p.add_argument("--post-assign", action="store_true")
    p.add_argument("--trace",
                   help="write the trace of the first peel round's solve here")
    p.add_argument("--sampler", choices=[kind.value for kind in SamplerKind],
                   help="multi-start: solve from sampled seeds each round")
    p.add_argument("--samples", type=int, help="seeds a round (default 4)")
    p.add_argument("--overlap-threshold", type=float, help="default 0.1")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="run")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=["block", "gauss"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int,
                   help="number of blocks, --kind block only (default 5)")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("similarity", help="feature CSV -> matrix CSV")
    p.add_argument("--features", required=True, help="feature matrix CSV")
    p.add_argument("--similarity", default="cosine",
                   choices=["cosine", "euclidean-max", "minimax"])
    p.add_argument("--shift", type=float, default=0.0,
                   help="off-diagonal shift for the cosine pipeline")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("eval", help="score predicted labels")
    p.add_argument("--pred", required=True,
                   help="label CSV, as cluster writes it")
    p.add_argument("--truth", required=True,
                   help="label CSV, as synth writes its truth")
    p.add_argument("--include-unassigned", action="store_true")
    p.set_defaults(func=cmd_eval)

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
