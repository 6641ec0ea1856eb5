"""CLI tests: every subcommand end-to-end plus the exit-code contract
(0 success, 1 usage, 2 data, 3 solver/numeric)."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dscfw
from dscfw import cli
from dscfw.cli import SOLVER_FLAGS, main
from dscfw.data import (
    block_noise_matrix,
    max_transform,
    minimax_distances,
    pairwise_euclidean,
)
from dscfw.matrix import (
    ShiftedMatrix,
    load_features_csv,
    load_matrix_csv,
    save_matrix_csv,
)
from dscfw.diagnostics import theorem_bound
from dscfw.multistart import SamplePlan, SamplerKind, multistart_cluster
from dscfw.peel import PeelConfig, peel, post_assign, shift_offdiag
from dscfw.solvers import (
    GOOD_KINDS,
    InitKind,
    SolverConfig,
    SolverKind,
    initial_point,
    load_trace_csv,
    save_trace_csv,
)

from conftest import strict_json


def _write_label_csv(path, labels) -> None:
    """A label CSV: the header, then one `object_id,label` row per object."""
    Path(path).write_text("object_id,label\n" + "".join(
        f"{i},{label}\n" for i, label in enumerate(labels)))


@pytest.fixture
def block_csv(tmp_path):
    A, truth = block_noise_matrix(40, 2, 0.1, seed=0)
    path = tmp_path / "block.csv"
    save_matrix_csv(path, A)
    truth_path = tmp_path / "truth.csv"
    _write_label_csv(truth_path, truth)
    return str(path), str(truth_path)


def _label_csv(path) -> list[int]:
    """The labels in a label CSV, whose rows must be `object_id,label`
    for the objects 0..n-1 in order."""
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "object_id,label"
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    assert [i for i, _ in rows] == list(range(len(rows)))
    return [label for _, label in rows]


def test_synth_block(tmp_path, capsys):
    out = str(tmp_path / "synth")
    code = main(["synth", "--kind", "block", "--n", "30", "--k", "3",
                 "--noise", "0.2", "--seed", "1", "--out", out])
    assert code == 0
    A = load_matrix_csv(f"{out}.matrix.csv")
    assert A.n == 30
    truth = _label_csv(f"{out}.truth.csv")
    assert truth == block_noise_matrix(30, 3, 0.2, seed=1)[1].tolist()
    manifest = strict_json((tmp_path / "synth.manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["flags"]["k"] == 3
    phases = manifest["wall_clock_s"]
    assert set(phases) == {"generate", "write"}
    assert all(t >= 0 for t in phases.values())


def test_synth_block_without_k_draws_five_blocks(tmp_path):
    # The manifest records the k the run used.
    out = str(tmp_path / "synth")
    assert main(["synth", "--kind", "block", "--n", "30", "--seed", "1",
                 "--out", out]) == 0
    truth = _label_csv(f"{out}.truth.csv")
    assert truth == block_noise_matrix(30, 5, 0.0, seed=1)[1].tolist()
    manifest = strict_json((tmp_path / "synth.manifest.json").read_text())
    assert manifest["flags"]["k"] == 5


def test_synth_gauss(tmp_path):
    out = str(tmp_path / "g")
    code = main(["synth", "--kind", "gauss", "--n", "50",
                 "--noise", "0.1", "--seed", "2", "--out", out])
    assert code == 0
    F = np.loadtxt(f"{out}.features.csv", delimiter=",")
    assert F.shape == (50, 2)
    assert len(_label_csv(f"{out}.truth.csv")) == 50
    # gauss draws its four clusters whatever k is, so it records none.
    manifest = strict_json((tmp_path / "g.manifest.json").read_text())
    assert manifest["flags"]["k"] is None


def test_synth_gauss_with_k_is_a_usage_error(tmp_path, capsys):
    assert main(["synth", "--kind", "gauss", "--n", "50", "--k", "9",
                 "--seed", "0", "--out", str(tmp_path / "g")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "dscfw synth: error: --k applies only to --kind block"]
    assert not list(tmp_path.iterdir())


def test_similarity_pipeline(tmp_path):
    feats = tmp_path / "f.csv"
    rng = np.random.default_rng(0)
    np.savetxt(feats, rng.normal(size=(10, 2)), delimiter=",")
    out = str(tmp_path / "sim.csv")
    code = main(["similarity", "--features", str(feats),
                 "--similarity", "cosine", "--shift", "1.0", "--out", out])
    assert code == 0
    assert load_matrix_csv(out).n == 10
    manifest = strict_json(Path(f"{out}.manifest.json").read_text())
    phases = manifest["wall_clock_s"]
    assert set(phases) == {"similarity", "write"}
    assert all(t >= 0 for t in phases.values())


def test_similarity_minimax_writes_the_bytes_of_savetxt(tmp_path):
    # 300 objects span several of the writer's row runs.
    feats = tmp_path / "f.csv"
    np.savetxt(feats, np.random.default_rng(3).normal(size=(300, 2)),
               delimiter=",")
    out = tmp_path / "sim.csv"
    code = main(["similarity", "--features", str(feats),
                 "--similarity", "minimax", "--out", str(out)])
    assert code == 0
    F = load_features_csv(feats)
    A = max_transform(minimax_distances(pairwise_euclidean(F)))
    np.savetxt(tmp_path / "ref.csv", A.entries, delimiter=",")
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_cluster_and_eval(tmp_path, block_csv, capsys):
    matrix_csv, truth_csv = block_csv
    out = str(tmp_path / "run")
    trace = str(tmp_path / "trace.csv")
    code = main(["cluster", "--input", matrix_csv, "--solver", "pfw-b",
                 "--max-clusters", "2", "--peel-shift", "4.0",
                 "--trace", trace, "--out", out])
    assert code == 0
    summary = strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["k_found"] == 2
    labels = _label_csv(f"{out}.labels.csv")
    assert len(labels) == 40
    assert (tmp_path / "run.manifest.json").exists()
    assert (tmp_path / "trace.csv").exists()

    code = main(["eval", "--pred", f"{out}.labels.csv", "--truth", truth_csv])
    assert code == 0
    scores = strict_json(capsys.readouterr().out.strip())
    assert scores["ari"] == pytest.approx(1.0)
    assert scores["ar"] == pytest.approx(1.0)


@pytest.mark.parametrize("post", [False, True], ids=["labels", "post-assign"])
def test_sampled_cluster_runs_multistart_on_the_shifted_matrix(
        tmp_path, capsys, post):
    # The README's multi-start example on its data.matrix.csv: --sampler
    # runs multistart_cluster on the matrix peel would get,
    # ShiftedMatrix(A, --peel-shift), and prints the example's figures.
    # --post-assign labels the rest as post_assign does on that matrix.
    A, _ = block_noise_matrix(200, 5, 0.3, seed=0)
    matrix_csv = str(tmp_path / "data.matrix.csv")
    save_matrix_csv(matrix_csv, A)
    out = tmp_path / "run"
    assert main(["cluster", "--input", matrix_csv, "--sampler", "dpp",
                 "--samples", "4", "--seed", "0", "--solver", "pfw",
                 "--peel-shift", "4", "--max-iters", "400",
                 "--max-clusters", "5", *(["--post-assign"] if post else []),
                 "--out", str(out)]) == 0
    summary = strict_json(capsys.readouterr().out.splitlines()[-1])
    assert summary == {"passes": 2, "k_found": 5,
                       "assignment_rate": 1.0 if post else 0.845}
    B = ShiftedMatrix(load_matrix_csv(matrix_csv), 4.0)
    plan = SamplePlan(ell=4, sampler=SamplerKind.DPP, seed=0)
    expected, _ = multistart_cluster(
        B, plan, SolverConfig(SolverKind.PFW, max_iters=400), 5)
    if post:
        expected = post_assign(expected, B)
    labels = _label_csv(f"{out}.labels.csv")
    assert labels == expected.labels.tolist()
    assert min(labels) == (1 if post else 0)


def test_multistart_solver_is_the_kind_alone(tmp_path, block_csv, capsys):
    # A seed's starts depend on the solver kind only, so --sampler takes no
    # -b/-v start suffix. Unset, --samples and --overlap-threshold are
    # SamplePlan's, and the manifest records the values the run used.
    matrix_csv, _ = block_csv
    flags = ["--input", matrix_csv, "--sampler", "dpp", "--seed", "0",
             "--max-clusters", "2", "--out", str(tmp_path / "ms")]
    assert main(["cluster", "--solver", "afw-v", *flags]) == 1
    assert main(["cluster", "--solver", "afw", *flags]) == 0
    labels = _label_csv(tmp_path / "ms.labels.csv")
    plan = SamplePlan(ell=4, sampler=SamplerKind.DPP, overlap_threshold=0.10,
                      seed=0)
    expected, _ = multistart_cluster(load_matrix_csv(matrix_csv), plan,
                                     SolverConfig(SolverKind.AFW), 2)
    assert labels == expected.labels.tolist()
    manifest = strict_json((tmp_path / "ms.manifest.json").read_text())
    assert [manifest["flags"][k] for k in ("sampler", "samples",
                                           "overlap_threshold", "seed")] == [
        "dpp", 4, 0.10, 0]


@pytest.mark.parametrize("flags, error", [
    (["--seed", "0"], "--seed applies only with --sampler"),
    (["--samples", "2"], "--samples applies only with --sampler"),
    (["--overlap-threshold", "0.5"],
     "--overlap-threshold applies only with --sampler"),
    (["--solver", "pfw"],
     "without --sampler, --solver takes afw-b, afw-v, fw, pfw-b, pfw-v, rd"),
    (["--sampler", "dpp", "--solver", "afw-v"],
     "with --sampler, --solver takes fw, pfw, afw, rd"),
    (["--sampler", "uni", "--trace", "TRACE"],
     "--trace applies only without --sampler"),
], ids=["seed", "samples", "overlap-threshold", "bare-kind", "start-suffix",
        "trace"])
def test_a_flag_the_mode_does_not_read_is_a_usage_error(tmp_path, block_csv,
                                                        capsys, flags, error):
    # Peel-off rounds draw no samples and start where -b/-v says. Sampled
    # starts (--sampler) set their own, and a trace could not say which
    # of a round's solves it is.
    flags = [str(tmp_path / "run.trace.csv") if a == "TRACE" else a
             for a in flags]
    assert main(["cluster", "--input", block_csv[0], "--max-clusters", "1",
                 *flags, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"dscfw cluster: error: {error}"]
    assert not list(tmp_path.glob("run*"))


def test_the_multistart_subcommand_is_gone(tmp_path, block_csv, capsys):
    # Multi-start is `cluster --sampler`.
    assert main(["multistart", "--input", block_csv[0], "--sampler", "uni",
                 "--seed", "0", "--max-clusters", "1",
                 "--out", str(tmp_path / "run")]) == 1
    errors = _error_lines(capsys.readouterr().err)
    assert len(errors) == 1
    assert "invalid choice: 'multistart'" in errors[0]
    assert not list(tmp_path.glob("run*"))


def test_cluster_calls_the_names_the_benchmark_wraps(tmp_path, block_csv,
                                                     monkeypatch, capsys):
    # perfbench/tracing.py times a traced `cluster` run's layers by
    # replacing these names in dscfw.cli, so cmd_cluster must look each
    # one up there when it runs.
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("load_matrix_csv", "peel", "save_trace_csv"):
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    assert main(["cluster", "--input", block_csv[0], "--solver", "pfw-b",
                 "--max-clusters", "2", "--trace", str(tmp_path / "trace.csv"),
                 "--out", str(tmp_path / "run")]) == 0
    assert calls == ["load_matrix_csv", "peel", "save_trace_csv"]


@pytest.mark.parametrize("command, written", [
    (["cluster", "--solver", "pfw-b", "--peel-shift", "4"], []),
    (["cluster", "--solver", "pfw-b", "--peel-shift", "4",
      "--trace", "TRACE"], ["run.trace.csv"]),
    (["cluster", "--solver", "afw", "--sampler", "uni", "--samples", "2",
      "--seed", "0"], []),
], ids=["cluster", "cluster-trace", "multistart"])
def test_a_clustering_writes_each_result_once(tmp_path, block_csv, capsys,
                                              command, written):
    # The labels go to the CSV alone, and the summary printed last is the
    # manifest's "result": k_found and assignment_rate, after passes with
    # --sampler.
    matrix_csv, _ = block_csv
    out = tmp_path / "run"
    command = [f"{out}.trace.csv" if a == "TRACE" else a for a in command]
    assert main([*command, "--input", matrix_csv, "--max-clusters", "2",
                 "--out", str(out)]) == 0
    summary = strict_json(capsys.readouterr().out.splitlines()[-1])
    assert sorted(p.name for p in tmp_path.glob("run*")) == sorted(
        ["run.labels.csv", "run.manifest.json", *written])
    manifest = strict_json(Path(f"{out}.manifest.json").read_text())
    assert manifest["result"] == summary
    assert set(manifest["wall_clock_s"]) == {"load", "solve"}
    keys = ["k_found", "assignment_rate"]
    assert list(summary) == (["passes", *keys] if "--sampler" in command
                             else keys)
    labels = np.array(_label_csv(f"{out}.labels.csv"))
    assert summary["k_found"] == labels.max()
    assert summary["assignment_rate"] == np.count_nonzero(labels) / labels.size


def _error_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if "error: " in line]


@pytest.mark.parametrize("command, own, other", [
    (["cluster", "--max-clusters", "1"], "--input", "--features"),
    (["similarity"], "--features", "--input"),
    (["cluster", "--sampler", "uni", "--max-clusters", "1"], "--input",
     "--features"),
], ids=["cluster", "similarity", "multistart"])
@pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
def test_exactly_one_input_flag(tmp_path, block_csv, capsys, command, own,
                                other, both):
    # Each command reads one kind of input: its own flag is required, and
    # the other kind's flag is none of its flags.
    sources = [own, block_csv[0], other, block_csv[0]] if both else []
    out = tmp_path / "run"
    assert main([*command, *sources, "--out", str(out)]) == 1
    error = (f"unrecognized arguments: {other} {block_csv[0]}" if both
             else f"the following arguments are required: {own}")
    assert _error_lines(capsys.readouterr().err)[-1].endswith(error)
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("command, error", [
    (["cluster", "--max-clusters", "1", "--input", "BLOCK"],
     "dscfw: error: unrecognized arguments: --shift 3"),
    (["similarity", "--features", "BLOCK", "--similarity", "euclidean-max"],
     "dscfw similarity: error: --shift applies only to --similarity cosine"),
    (["cluster", "--sampler", "uni", "--max-clusters", "1", "--input",
      "BLOCK"], "dscfw: error: unrecognized arguments: --shift 3"),
], ids=["cluster", "similarity", "multistart"])
def test_a_shift_no_similarity_reads_is_a_usage_error(tmp_path, block_csv,
                                                      capsys, command, error):
    # Only the cosine similarity reads --shift: a nonzero one with another
    # would leave the matrix as it is, and cluster, which reads a matrix,
    # takes no --shift in either mode.
    command = [block_csv[0] if a == "BLOCK" else a for a in command]
    out = tmp_path / "run"
    assert main([*command, "--shift", "3", "--out", str(out)]) == 1
    assert _error_lines(capsys.readouterr().err) == [error]
    assert not list(tmp_path.glob("run*"))


# cluster's two modes: peel-off, and multi-start with --sampler.
MODES = {"cluster": ["cluster"], "multistart": ["cluster", "--sampler", "uni"]}
REMOVED_FLAGS = [
    *[(mode, flag) for mode in MODES
      for flag in (["--features", "BLOCK"], ["--similarity", "minimax"],
                   ["--cutoff", "2e-12"])],
    ("similarity", ["--input", "BLOCK"]),
]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                         ids=[f"{c}{flag[0]}" for c, flag in REMOVED_FLAGS])
def test_a_removed_setting_is_a_usage_error(tmp_path, block_csv, capsys,
                                            command, flag):
    # cluster reads a matrix only in either mode, with the support cutoff
    # fixed, and similarity reads features only. (cluster's --shift is
    # refused in the test above.)
    source = ["--features"] if command == "similarity" else [
        "--max-clusters", "1", "--input"]
    flag = [block_csv[0] if a == "BLOCK" else a for a in flag]
    out = tmp_path / "run"
    assert main([*MODES.get(command, [command]), *source, block_csv[0], *flag,
                 "--out", str(out)]) == 1
    assert _error_lines(capsys.readouterr().err) == [
        f"dscfw: error: unrecognized arguments: {' '.join(flag)}"]
    assert not list(tmp_path.glob("run*"))


def test_trace_check(tmp_path, block_csv, capsys):
    matrix_csv, _ = block_csv
    out = str(tmp_path / "run")
    trace = str(tmp_path / "trace.csv")
    assert main(["cluster", "--input", matrix_csv, "--solver", "fw",
                 "--max-clusters", "1", "--trace", trace,
                 "--out", out]) == 0
    capsys.readouterr()
    code = main(["trace-check", "--manifest", f"{out}.manifest.json"])
    assert code == 0
    report = strict_json(capsys.readouterr().out.strip())
    assert report["satisfied"] is True
    assert report["t"] >= 1
    assert report["support0"] == 1


@pytest.mark.parametrize("solver, beta, bound, support0, informative", [
    pytest.param("afw-b", 5.99993, 0.1220, 200, False,
                 id="afw-b-5.99993-0.122-200"),
    pytest.param("pfw-b", 9.99993, 5.0694e186, 200, False,
                 id="pfw-b-9.99993-5.0694e+186-200"),
    pytest.param("fw", 5.99993, 0.3210, 1, True, id="fw-5.99993-0.321-1"),
])
def test_trace_check_reports_the_solved_operator(tmp_path, capsys, solver,
                                                 beta, bound, support0,
                                                 informative):
    # The README data at --peel-shift 4: the check holds the run to the
    # bound of the operator it solved, A + 4(11' - I), from its start.
    # From the barycenter the first full gap is 0.0756, below the AFW
    # bound and far below PFW's, whose n! factor puts it beyond any gap:
    # neither check can fail. From a vertex the first gap is large and
    # the FW bound lies below it.
    A, _ = block_noise_matrix(200, 5, 0.3, seed=0)
    matrix_csv = str(tmp_path / "data.matrix.csv")
    save_matrix_csv(matrix_csv, A)
    out, trace = str(tmp_path / "run"), str(tmp_path / "trace.csv")
    assert main(["cluster", "--input", matrix_csv, "--solver", solver,
                 "--max-clusters", "5", "--peel-shift", "4.0",
                 "--trace", trace, "--out", out]) == 0
    capsys.readouterr()
    assert main(["trace-check", "--manifest", f"{out}.manifest.json"]) == 0
    report = strict_json(capsys.readouterr().out)
    kind, init = SOLVER_FLAGS[solver]
    B = ShiftedMatrix(load_matrix_csv(matrix_csv), 4.0)
    expected = theorem_bound(load_trace_csv(trace), kind, B,
                             initial_point(B, SolverConfig(kind, init)))
    assert report == {**dataclasses.asdict(expected),
                      "progress_violations": 0}
    assert report["beta"] == pytest.approx(beta, abs=1e-5)
    assert report["bound_value"] == pytest.approx(bound, rel=1e-4, abs=1e-4)
    assert report["support0"] == support0
    assert report["informative"] is informative


def test_trace_check_prints_an_overflowing_bound_as_null(tmp_path, capsys):
    # At n = 300 the n! factor puts the PFW bound beyond any float. JSON
    # has no infinity, so the line holds null where Python's json.dumps
    # would write Infinity.
    A, _ = block_noise_matrix(300, 5, 0.3, seed=0)
    matrix_csv = str(tmp_path / "data.matrix.csv")
    save_matrix_csv(matrix_csv, A)
    out = str(tmp_path / "run")
    assert main(["cluster", "--input", matrix_csv, "--solver", "pfw-b",
                 "--max-clusters", "1", "--peel-shift", "4.0",
                 "--trace", str(tmp_path / "trace.csv"), "--out", out]) == 0
    capsys.readouterr()
    assert main(["trace-check", "--manifest", f"{out}.manifest.json"]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["bound_value"] is None
    assert report["satisfied"] is True and report["informative"] is False
    assert report["progress_violations"] == 0


def test_trace_check_reads_a_manifest_with_the_old_flags(tmp_path, block_csv,
                                                         capsys):
    # A manifest written when cluster also took --features, --similarity,
    # --shift and --cutoff records them too; trace-check reads past them.
    # One written before cluster took --sampler (0.8.0) records none of the
    # sampling flags, and checks as a run without --sampler.
    matrix_csv, _ = block_csv
    out, trace = str(tmp_path / "run"), str(tmp_path / "trace.csv")
    assert main(["cluster", "--input", matrix_csv, "--solver", "fw",
                 "--max-clusters", "1", "--trace", trace, "--out", out]) == 0
    manifest = Path(f"{out}.manifest.json")
    written = strict_json(manifest.read_text())
    reports = []
    for old, dropped in (
            ({}, []),
            ({"features": None, "similarity": "cosine", "shift": 0.0,
              "cutoff": 2e-12}, []),
            ({}, ["sampler", "samples", "overlap_threshold", "seed"])):
        record = json.loads(json.dumps(written))
        record["flags"].update(old)
        for flag in dropped:
            del record["flags"][flag]
        manifest.write_text(json.dumps(record))
        capsys.readouterr()
        assert main(["trace-check", "--manifest", str(manifest)]) == 0
        reports.append(strict_json(capsys.readouterr().out))
    assert reports[0] == reports[1] == reports[2]


def test_trace_check_counts_progress_violations(tmp_path, block_csv,
                                                capsys):
    # A pfw run's gap bound holds trivially, but each traced good step is
    # also held to its exact progress identity: the run's own trace breaks
    # none, and one whose first good step gained half as much again in the
    # file breaks at least that one. The exit code stays 0 either way.
    matrix_csv, _ = block_csv
    out, trace = str(tmp_path / "run"), tmp_path / "trace.csv"
    assert main(["cluster", "--input", matrix_csv, "--solver", "pfw-b",
                 "--max-clusters", "2", "--peel-shift", "4.0",
                 "--trace", str(trace), "--out", out]) == 0
    counts = []
    for tampered in (False, True):
        if tampered:
            records = load_trace_csv(trace)
            good = next(r for r in records if r.kind in GOOD_KINDS)
            good.f_after *= 1.5
            save_trace_csv(trace, records)
        capsys.readouterr()
        assert main(["trace-check", "--manifest",
                     f"{out}.manifest.json"]) == 0
        counts.append(strict_json(capsys.readouterr().out)[
            "progress_violations"])
    assert counts[0] == 0 and counts[1] >= 1


def _edit_input(matrix_csv, manifest):
    with open(matrix_csv, "a") as fh:
        fh.write("# edited after the run\n")


def _drop(key, flag=None):
    """Spoil a manifest: delete one of its keys, or one of its flags."""
    def spoil(matrix_csv, manifest):
        record = strict_json(Path(manifest).read_text())
        if flag is None:
            del record[key]
        else:
            del record[key][flag]
        Path(manifest).write_text(json.dumps(record))
    return spoil


def _set(flag, value):
    """Spoil a manifest: record a value for one of its flags."""
    def spoil(matrix_csv, manifest):
        record = strict_json(Path(manifest).read_text())
        record["flags"][flag] = value
        Path(manifest).write_text(json.dumps(record))
    return spoil


def _digests(*paths):
    """Spoil a manifest: record the input's digest under each of `paths`
    instead, so that none checks the matrix that trace-check rebuilds."""
    def spoil(matrix_csv, manifest):
        record = strict_json(Path(manifest).read_text())
        digest = record["input_digests"][matrix_csv]
        record["input_digests"] = {path: digest for path in paths}
        Path(manifest).write_text(json.dumps(record))
    return spoil


TRACED_FW = ["cluster", "--solver", "fw", "--trace", "TRACE"]
SAMPLED = ["cluster", "--solver", "afw", "--sampler", "uni", "--samples", "2",
           "--seed", "0"]


@pytest.mark.parametrize("command, spoil, cause", [
    (SAMPLED, None, "records a run without --trace"),
    (SAMPLED, _set("trace", "trace.csv"), "records a flag that cluster "
     "rejects: dscfw cluster: error: --trace applies only without --sampler"),
    (["cluster", "--solver", "fw"], None, "records a run without --trace"),
    (["cluster", "--solver", "rd", "--trace", "TRACE"], None,
     "replicator dynamics has no gap bound"),
    (TRACED_FW, _edit_input, "changed since the run (sha256)"),
    ([*TRACED_FW, "--max-iters", "0"], None,
     "records no steps: the traced round stopped before its first step"),
    (TRACED_FW, _drop("flags"), "lacks the flags or input digests"),
    (TRACED_FW, _drop("input_digests"), "lacks the flags or input digests"),
    (TRACED_FW, _drop("flags", "trace"), "records no trace flag"),
    (TRACED_FW, _drop("flags", "solver"), "records no solver flag"),
    (TRACED_FW, _drop("flags", "peel_shift"), "records no peel_shift flag"),
    (TRACED_FW, _set("solver", "nope"),
     "cluster rejects: dscfw cluster: error: argument --solver: invalid "
     "choice: 'nope'"),
    (TRACED_FW, _set("solver", "pfw"),
     "cluster rejects: dscfw cluster: error: without --sampler, --solver "
     "takes afw-b, afw-v, fw, pfw-b, pfw-v, rd"),
    (TRACED_FW, _set("epsilon", "tiny"),
     "argument --epsilon: invalid float value: 'tiny'"),
    (TRACED_FW, _set("epsilon", "1e-12"),
     "records epsilon as no value that cluster gives it"),
    (TRACED_FW, _set("max_iters", 1000.0),
     "argument --max-iters: invalid int value: '1000.0'"),
    (TRACED_FW, _set("peel_shift", None),
     "records peel_shift as no value that cluster gives it"),
    (TRACED_FW, _set("input", 5), "records input as no value"),
    (TRACED_FW, _set("input", None), "cluster rejects: dscfw cluster: error: "
     "the following arguments are required: --input"),
    (TRACED_FW, _digests(), "records input digests of [], not of its --input"),
    (TRACED_FW, _digests("copy.csv"),
     "records input digests of ['copy.csv'], not of its --input"),
], ids=["multistart-manifest", "multistart-manifest-with-trace",
        "no-trace", "rd", "input-changed", "no-steps", "no-flags",
        "no-digests", "no-trace-flag", "no-solver-flag", "no-peel-shift-flag",
        "bad-solver", "bare-solver", "bad-epsilon-text", "epsilon-as-text",
        "float-max-iters", "null-peel-shift", "input-as-number", "null-input",
        "no-input-digest", "other-input-digest"])
def test_trace_check_refuses_an_uncheckable_run(tmp_path, block_csv, capsys,
                                                command, spoil, cause):
    matrix_csv, _ = block_csv
    out = str(tmp_path / "run")
    command = [str(tmp_path / "trace.csv") if a == "TRACE" else a
               for a in command]
    assert main([*command, "--input", matrix_csv, "--max-clusters", "1",
                 "--out", out]) == 0
    if spoil is not None:
        spoil(matrix_csv, f"{out}.manifest.json")
    capsys.readouterr()
    code = main(["trace-check", "--manifest", f"{out}.manifest.json"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("data error: ") and cause in lines[0]


@pytest.mark.parametrize("edit", [
    lambda lines: [",".join(lines[0].split(",")[:-1])]
    + [",".join(line.split(",")[:-1]) for line in lines[1:]],  # no v_index
    lambda lines: lines[:2] + [lines[2].rsplit(",", 3)[0]] + lines[3:],
], ids=["missing-column", "short-row"])
def test_malformed_trace_returns_2(tmp_path, block_csv, capsys, edit):
    # A trace that lacks a column, or has a short row, is a data error.
    matrix_csv, _ = block_csv
    trace = tmp_path / "trace.csv"
    out = str(tmp_path / "run")
    assert main(["cluster", "--input", matrix_csv, "--solver", "pfw-b",
                 "--max-clusters", "1", "--trace", str(trace),
                 "--out", out]) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) > 3
    trace.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    code = main(["trace-check", "--manifest", f"{out}.manifest.json"])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_cluster_post_assign_labels_every_object(tmp_path, block_csv,
                                                 capsys):
    # A 1000-step pfw-b solve of shift 0 leaves objects unassigned, and
    # --post-assign labels them as post_assign does through the API.
    matrix_csv, _ = block_csv
    out = tmp_path / "run"
    assert main(["cluster", "--input", matrix_csv, "--solver", "pfw-b",
                 "--max-clusters", "1", "--post-assign",
                 "--out", str(out)]) == 0
    labels = np.array(_label_csv(f"{out}.labels.csv"))
    A = load_matrix_csv(matrix_csv)
    solver = SolverConfig(SolverKind.PFW, InitKind.BARYCENTER)
    plain = peel(A, PeelConfig(max_clusters=1, solver=solver))
    assert plain.assignment_rate < 1.0
    assert np.array_equal(labels, post_assign(plain, A).labels)
    assert labels.min() == 1


def test_usage_error_returns_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["cluster"]) == 1  # missing required --max-clusters
    # trace-check reads everything from the manifest and takes no other
    # option.
    for flag in ("--trace", "--matrix", "--solver-kind", "--support0",
                 "--f0"):
        assert main(["trace-check", "--manifest", "run.manifest.json",
                     flag, "1"]) == 1


def test_data_error_returns_2(tmp_path, capsys):
    code = main(["cluster", "--input", str(tmp_path / "missing.csv"),
                 "--max-clusters", "1"])
    assert code == 2
    # ValueError from the generator also maps to the data-error code.
    assert main(["synth", "--kind", "block", "--n", "10",
                 "--noise", "2.0", "--out", str(tmp_path / "x")]) == 2


def test_synth_without_a_cluster_returns_2(tmp_path, capsys):
    # No block to draw objects into, or no gauss point at all.
    for flags, error in [(["block", "--n", "5", "--k", "0"],
                          "k must lie in [1, n]"),
                         (["gauss", "--n", "0"], "n must be at least 1")]:
        assert main(["synth", "--kind", *flags,
                     "--out", str(tmp_path / "x")]) == 2
        assert f"data error: {error}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def test_non_finite_feature_returns_2(tmp_path, capsys):
    feats = tmp_path / "f.csv"
    rows = np.random.default_rng(0).normal(size=(6, 2))
    rows[3, 1] = np.nan
    np.savetxt(feats, rows, delimiter=",")
    for method in ("minimax", "euclidean-max", "cosine"):
        out = tmp_path / f"{method}.csv"
        code = main(["similarity", "--features", str(feats),
                     "--similarity", method, "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def test_empty_features_return_2(tmp_path, capsys):
    feats = tmp_path / "empty.csv"
    feats.write_text("")
    for method in ("minimax", "euclidean-max", "cosine"):
        out = tmp_path / f"{method}.csv"
        code = main(["similarity", "--features", str(feats),
                     "--similarity", method, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error: feature CSV has no rows" in err
        assert "Warning" not in err
        assert not out.exists()


@pytest.mark.parametrize("command,what", [
    (["cluster", "--max-clusters", "1", "--input"], "matrix"),
    (["similarity", "--out", "sim.csv", "--features"], "feature"),
])
@pytest.mark.parametrize("content", ["", "\n  \n# a comment\n"],
                         ids=["empty", "blank-and-comment"])
def test_empty_csv_returns_2_without_a_warning(tmp_path, command, what,
                                               content):
    # An input with no rows is reported as such before numpy reads it: the
    # process prints one data-error line and no numpy warning.
    empty = tmp_path / "empty.csv"
    empty.write_text(content)
    src = Path(dscfw.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "dscfw.cli", *command, str(empty)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 2
    assert "Warning" not in proc.stderr
    assert proc.stderr.splitlines() == [f"data error: {what} CSV has no rows"]


@pytest.mark.parametrize("empty", ["pred", "truth"])
def test_eval_empty_label_file_returns_2(tmp_path, capsys, empty):
    # An empty file has no header: one data-error line names it.
    paths = {"pred": tmp_path / "pred.csv", "truth": tmp_path / "truth.csv"}
    for path in paths.values():
        _write_label_csv(path, [1, 2])
    paths[empty].write_text("")
    code = main(["eval", "--pred", str(paths["pred"]),
                 "--truth", str(paths["truth"])])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"data error: {paths[empty]} does not start with the header "
        "object_id,label"]


@pytest.mark.parametrize("content, fault", [
    ("1\n2\n", "does not start with the header object_id,label"),
    ("id,label\n0,1\n1,2\n",
     "does not start with the header object_id,label"),
    ("object_id,label\n", "has no row after its header"),
    ("object_id,label\n0,1\n1\n", "line 3: '1' is not two integers"),
    ("object_id,label\n0,1\n1,2,3\n",
     "line 3: '1,2,3' is not two integers"),
    ("object_id,label\n0,1\n1,x\n", "line 3: '1,x' is not two integers"),
    ("object_id,label\n0,1\n1,2.0\n",
     "line 3: '1,2.0' is not two integers"),
    ("object_id,label\n0,1\n1,2\n\n", "line 4: '' is not two integers"),
    ("object_id,label\n1,1\n0,2\n",
     "line 2: object id 1 where 0 belongs; the ids must be 0..n-1 in order"),
    ("object_id,label\n0,1\n2,2\n",
     "line 3: object id 2 where 1 belongs; the ids must be 0..n-1 in order"),
], ids=["bare-labels", "other-header", "header-only", "one-field",
        "three-fields", "not-a-number", "float", "blank-row",
        "ids-out-of-order", "id-skipped"])
@pytest.mark.parametrize("bad", ["pred", "truth"])
def test_eval_refuses_a_file_outside_the_label_format(tmp_path, capsys, bad,
                                                      content, fault):
    # Either file, pred or truth, is refused with one data-error line that
    # names it and the fault, and nothing is scored.
    paths = {"pred": tmp_path / "pred.csv", "truth": tmp_path / "truth.csv"}
    for path in paths.values():
        _write_label_csv(path, [1, 2])
    paths[bad].write_text(content)
    assert main(["eval", "--pred", str(paths["pred"]),
                 "--truth", str(paths["truth"])]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"data error: {paths[bad]} {fault}"]


def test_eval_scores_synth_truth_against_cluster_labels(tmp_path, capsys):
    # synth writes its truth as cluster writes its labels, and eval reads
    # both as written: the truth scores perfectly against itself, and the
    # clustering as the API scores it.
    out = str(tmp_path / "data")
    assert main(["synth", "--kind", "block", "--n", "40", "--k", "2",
                 "--noise", "0.1", "--seed", "0", "--out", out]) == 0
    _, truth = block_noise_matrix(40, 2, 0.1, seed=0)
    _write_label_csv(tmp_path / "expected.csv", truth)
    assert (Path(f"{out}.truth.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())
    assert main(["cluster", "--input", f"{out}.matrix.csv", "--solver",
                 "pfw-b", "--max-clusters", "2", "--peel-shift", "4.0",
                 "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    for pred in (f"{out}.truth.csv", str(tmp_path / "run.labels.csv")):
        assert main(["eval", "--pred", pred, "--truth",
                     f"{out}.truth.csv"]) == 0
        scores = strict_json(capsys.readouterr().out)
        labels = np.array(_label_csv(pred))
        assert scores == {"ar": dscfw.assignment_rate(labels),
                          "ari": dscfw.ari(labels, truth),
                          "v_measure": dscfw.v_measure(labels, truth)}


def test_zero_norm_feature_row_returns_2(tmp_path, capsys):
    feats = tmp_path / "f.csv"
    rows = np.random.default_rng(0).normal(size=(6, 2))
    rows[2] = 0.0
    np.savetxt(feats, rows, delimiter=",")
    out = tmp_path / "sim.csv"
    code = main(["similarity", "--features", str(feats),
                 "--similarity", "cosine", "--out", str(out)])
    assert code == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def test_default_cosine_names_the_shift_it_needs(tmp_path, capsys):
    # The gauss points lie at every angle, so their cosines reach -1 and
    # the default shift of 0 is refused with the shift that would do.
    points = str(tmp_path / "points")
    assert main(["synth", "--kind", "gauss", "--n", "200", "--noise", "0.1",
                 "--seed", "0", "--out", points]) == 0
    F = load_features_csv(f"{points}.features.csv")
    unit = F / np.linalg.norm(F, axis=1)[:, None]
    C = unit @ unit.T
    cosines = ((C + C.T) / 2.0)[~np.eye(len(F), dtype=bool)]
    lo = float(cosines.min())
    assert lo < -0.999
    out = tmp_path / "sim.csv"
    capsys.readouterr()
    flags = ["similarity", "--features", f"{points}.features.csv",
             "--out", str(out)]
    assert main(flags) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: cosine similarities must be nonnegative, but the most "
        f"negative is {lo!r} at shift 0.0; a shift of at least {-lo!r} makes "
        "every similarity nonnegative (a shift of 1 always does)"]
    assert not out.exists()
    assert main([*flags, "--shift", repr(-lo)]) == 0
    assert load_matrix_csv(out).entries.min() == 0.0


def test_multistart_max_clusters_below_one_returns_2(tmp_path, block_csv,
                                                     capsys):
    matrix_csv, _ = block_csv
    out = tmp_path / "ms"
    code = main(["cluster", "--sampler", "uni", "--input", matrix_csv,
                 "--seed", "0", "--max-clusters", "0", "--out", str(out)])
    assert code == 2
    assert "max_clusters" in capsys.readouterr().err
    assert not list(tmp_path.glob("ms.*"))


def test_eval_negative_label_returns_2(tmp_path, capsys):
    # Counted as assigned and masked as unassigned, -1 would give "ar" 1.0
    # and an ARI of 3 of the 4 objects.
    pred, truth = tmp_path / "pred.csv", tmp_path / "truth.csv"
    _write_label_csv(pred, [-1, 1, 1, 2])
    _write_label_csv(truth, [1, 1, 2, 2])
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "data error: predicted labels must be nonnegative"]


def test_eval_length_mismatch_returns_2(tmp_path, capsys):
    pred, truth = tmp_path / "pred.csv", tmp_path / "truth.csv"
    _write_label_csv(pred, [1, 1, 2])
    _write_label_csv(truth, [1, 2])
    code = main(["eval", "--pred", str(pred), "--truth", str(truth)])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_non_finite_matrix_returns_2(tmp_path, capsys):
    for bad in ("nan", "inf", "-inf"):
        path = tmp_path / f"{bad}.csv"
        path.write_text(f"0,{bad}\n{bad},0\n")
        code = main(["cluster", "--input", str(path), "--max-clusters", "1",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["cluster", "--epsilon", "inf"],
    ["cluster", "--epsilon", "nan"],
    ["cluster", "--peel-shift", "inf"],
    ["cluster", "--peel-shift", "nan"],
    ["cluster", "--peel-shift", "-1"],
    ["cluster", "--sampler", "uni", "--epsilon", "nan"],
    ["cluster", "--sampler", "uni", "--epsilon", "inf"],
])
def test_non_finite_threshold_returns_2(tmp_path, block_csv, capsys, flags):
    # An infinite epsilon would stop every solve before its first step, a
    # NaN one would make every step fail as NotAscent, and ShiftedMatrix
    # rejects a NaN or negative shift: all are data errors, caught before
    # solving.
    matrix_csv, _ = block_csv
    code = main([*flags, "--input", matrix_csv, "--max-clusters", "2",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", MODES.values(), ids=MODES)
def test_epsilon_of_one_returns_2(tmp_path, block_csv, capsys, command):
    # The stop test is f >= (1 - epsilon) max(r), and f >= 0: epsilon = 1
    # would stop every solve before its first step.
    matrix_csv, _ = block_csv
    code = main([*command, "--epsilon", "1", "--input", matrix_csv,
                 "--max-clusters", "2", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "(0, 1)" in capsys.readouterr().err


def test_manifest_input_digest(tmp_path, block_csv, capsys):
    matrix_csv, _ = block_csv
    out = str(tmp_path / "run")
    assert main(["cluster", "--input", matrix_csv, "--max-clusters", "2",
                 "--out", out]) == 0
    manifest = strict_json((tmp_path / "run.manifest.json").read_text())
    assert manifest["input_digests"] == {
        matrix_csv: hashlib.sha256(Path(matrix_csv).read_bytes()).hexdigest()}


def test_manifest_flags_are_deterministic(tmp_path, block_csv, capsys):
    matrix_csv, _ = block_csv
    flags = []
    for _ in range(2):
        out = str(tmp_path / "run")
        assert main(["cluster", "--input", matrix_csv, "--solver", "pfw-b",
                     "--max-clusters", "2", "--out", out]) == 0
        manifest = strict_json((tmp_path / "run.manifest.json").read_text())
        flags.append(manifest["flags"])
    assert flags[0] == flags[1]
    assert "func" not in flags[0]


@pytest.mark.parametrize("rows", [
    [[0.0, 1.0], [2.0, 0.0]],             # asymmetric
    [[0.0, -1.0], [-1.0, 0.0]],           # negative
    [[0.5, 1.0], [1.0, 0.0]],             # nonzero diagonal
    [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],   # not square
])
def test_malformed_matrix_returns_2(tmp_path, capsys, rows):
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.array(rows), delimiter=",")
    code = main(["cluster", "--input", str(bad), "--max-clusters", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_solver_error_returns_3(tmp_path, capsys):
    # A valid matrix on which the solver cannot start: x'Ax = 0 at the
    # barycenter of an all-zero matrix makes replicator dynamics BadInit.
    zero = tmp_path / "zero.csv"
    np.savetxt(zero, np.zeros((2, 2)), delimiter=",")
    code = main(["cluster", "--input", str(zero), "--solver", "rd",
                 "--max-clusters", "1", "--out", str(tmp_path / "run")])
    assert code == 3
    assert "solver error" in capsys.readouterr().err


def test_trace_is_the_first_shifted_round(tmp_path, block_csv, capsys):
    # The written trace is round 1's solve, on the shifted matrix that
    # peel actually solved: its last f is x*'(A + s(11' - I))x*.
    matrix_csv, _ = block_csv
    trace = str(tmp_path / "trace.csv")
    assert main(["cluster", "--input", matrix_csv, "--solver", "pfw-b",
                 "--max-clusters", "2", "--peel-shift", "4.0",
                 "--trace", trace, "--out", str(tmp_path / "run")]) == 0
    A = load_matrix_csv(matrix_csv)
    solver = SolverConfig(SolverKind.PFW, InitKind.BARYCENTER)
    result = peel(ShiftedMatrix(A, 4.0),
                  PeelConfig(max_clusters=2, solver=solver))
    x = result.characteristic_vectors[0]  # round 1 solves all of A
    f_shifted = float(x @ shift_offdiag(A, 4.0).entries @ x)
    written = load_trace_csv(trace)
    assert len(written) == len(result.traces[0])
    assert written[-1].f_after == pytest.approx(f_shifted, rel=1e-12)
    assert f_shifted > 1.0 > float(x @ A.entries @ x)


def test_max_iters_stop_is_reported(tmp_path, block_csv):
    # Every solve that spends its budget gets a manifest entry, by solve
    # number (a peel run's solve k is its round k), and the run logs one
    # line to stderr (no logging is configured, so Python's
    # last-resort handler prints it).
    matrix_csv, _ = block_csv
    out = tmp_path / "run"
    src = Path(dscfw.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "dscfw.cli", "cluster", "--input", matrix_csv,
         "--solver", "pfw-b", "--max-clusters", "2", "--max-iters", "1",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    warnings = strict_json((tmp_path / "run.manifest.json").read_text())[
        "warnings"]
    assert warnings
    assert all(w["max_iters"] == 1 and w["last_full_gap"] > 0
               for w in warnings)
    assert [w["solve"] for w in warnings] == list(
        range(1, len(warnings) + 1))
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "max_iters=1" in lines[0]


@pytest.mark.parametrize("command", [
    ["cluster", "--solver", "pfw-b", "--peel-shift", "4"],
    SAMPLED,
])
def test_budget_warnings_in_manifest(tmp_path, block_csv, capsys, caplog,
                                     command):
    matrix_csv, _ = block_csv
    manifests = {}
    for budget in ("1", "5000"):
        out = str(tmp_path / f"run{budget}")
        assert main([*command, "--input", matrix_csv, "--max-clusters", "2",
                     "--max-iters", budget, "--out", out]) == 0
        manifests[budget] = strict_json(
            (tmp_path / f"run{budget}.manifest.json").read_text())
    assert manifests["1"]["warnings"]
    assert all(list(w) == ["solve", "max_iters", "last_full_gap"]
               for w in manifests["1"]["warnings"])
    assert manifests["5000"]["warnings"] == []
    budget_records = [r for r in caplog.records if r.name == "dscfw.cli"]
    assert len(budget_records) == 1
    assert budget_records[0].levelname == "WARNING"
