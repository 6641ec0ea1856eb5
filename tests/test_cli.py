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
    InitKind,
    SolverConfig,
    SolverKind,
    initial_point,
    load_trace_csv,
)


@pytest.fixture
def block_csv(tmp_path):
    A, truth = block_noise_matrix(40, 2, 0.1, seed=0)
    path = tmp_path / "block.csv"
    save_matrix_csv(path, A)
    truth_path = tmp_path / "truth.csv"
    np.savetxt(truth_path, truth, fmt="%d", delimiter=",")
    return str(path), str(truth_path)


def test_synth_block(tmp_path, capsys):
    out = str(tmp_path / "synth")
    code = main(["synth", "--kind", "block", "--n", "30", "--k", "3",
                 "--noise", "0.2", "--seed", "1", "--out", out])
    assert code == 0
    A = load_matrix_csv(f"{out}.matrix.csv")
    assert A.n == 30
    truth = np.loadtxt(f"{out}.truth.csv", dtype=int)
    assert truth.shape == (30,)
    manifest = json.loads((tmp_path / "synth.manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    phases = manifest["wall_clock_s"]
    assert set(phases) == {"generate", "write"}
    assert all(t >= 0 for t in phases.values())


def test_synth_gauss(tmp_path):
    out = str(tmp_path / "g")
    code = main(["synth", "--kind", "gauss", "--n", "50",
                 "--noise", "0.1", "--seed", "2", "--out", out])
    assert code == 0
    F = np.loadtxt(f"{out}.features.csv", delimiter=",")
    assert F.shape == (50, 2)


def test_similarity_pipeline(tmp_path):
    feats = tmp_path / "f.csv"
    rng = np.random.default_rng(0)
    np.savetxt(feats, rng.normal(size=(10, 2)), delimiter=",")
    out = str(tmp_path / "sim.csv")
    code = main(["similarity", "--features", str(feats),
                 "--similarity", "cosine", "--shift", "1.0", "--out", out])
    assert code == 0
    assert load_matrix_csv(out).n == 10
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
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
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["k_found"] == 2
    labels = json.loads((tmp_path / "run.labels.json").read_text())
    assert len(labels["labels"]) == 40
    assert (tmp_path / "run.labels.csv").exists()
    assert (tmp_path / "run.manifest.json").exists()
    assert (tmp_path / "trace.csv").exists()

    pred_csv = tmp_path / "pred.csv"
    np.savetxt(pred_csv, np.array(labels["labels"]), fmt="%d", delimiter=",")
    code = main(["eval", "--pred", str(pred_csv), "--truth", truth_csv])
    assert code == 0
    scores = json.loads(capsys.readouterr().out.strip())
    assert scores["ari"] == pytest.approx(1.0)
    assert scores["ar"] == pytest.approx(1.0)


def test_multistart_subcommand(tmp_path, block_csv, capsys):
    matrix_csv, _ = block_csv
    out = str(tmp_path / "ms")
    code = main(["multistart", "--input", matrix_csv, "--solver", "afw",
                 "--samples", "2", "--sampler", "uni", "--seed", "0",
                 "--max-clusters", "2", "--out", out])
    assert code == 0
    passes = json.loads((tmp_path / "ms.passes.json").read_text())
    assert passes["passes"] >= 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["k_found"] >= 1


def test_multistart_solver_is_the_kind_alone(tmp_path, block_csv, capsys):
    # A seed's starts depend on the solver kind only, so multistart takes
    # no -b/-v start suffix.
    matrix_csv, _ = block_csv
    flags = ["--input", matrix_csv, "--sampler", "dpp", "--seed", "0",
             "--max-clusters", "2", "--out", str(tmp_path / "ms")]
    assert main(["multistart", "--solver", "afw-v", *flags]) == 1
    assert main(["multistart", "--solver", "afw", *flags]) == 0
    labels = json.loads((tmp_path / "ms.labels.json").read_text())["labels"]
    plan = SamplePlan(ell=4, sampler=SamplerKind.DPP, overlap_threshold=0.10,
                      seed=0)
    expected, _ = multistart_cluster(load_matrix_csv(matrix_csv), plan,
                                     SolverConfig(SolverKind.AFW), 2)
    assert labels == expected.labels.tolist()


@pytest.mark.parametrize("command", [
    ["cluster", "--max-clusters", "1"],
    ["similarity"],
    ["multistart", "--max-clusters", "1"],
], ids=["cluster", "similarity", "multistart"])
@pytest.mark.parametrize("sources, error", [
    ([], "one of the arguments --input --features is required"),
    (["--input", "BLOCK", "--features", "nope.csv"],
     "argument --features: not allowed with argument --input"),
], ids=["neither", "both"])
def test_exactly_one_input_flag(tmp_path, block_csv, capsys, command,
                                sources, error):
    sources = [block_csv[0] if a == "BLOCK" else a for a in sources]
    out = tmp_path / "run"
    assert main([*command, *sources, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1].endswith(error)
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
    report = json.loads(capsys.readouterr().out.strip())
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
    report = json.loads(capsys.readouterr().out)
    kind, init = SOLVER_FLAGS[solver]
    B = ShiftedMatrix(load_matrix_csv(matrix_csv), 4.0)
    expected = theorem_bound(load_trace_csv(trace), kind, B,
                             initial_point(B, SolverConfig(kind, init)))
    assert report == dataclasses.asdict(expected)
    assert report["beta"] == pytest.approx(beta, abs=1e-5)
    assert report["bound_value"] == pytest.approx(bound, rel=1e-4, abs=1e-4)
    assert report["support0"] == support0
    assert report["informative"] is informative


def _edit_input(matrix_csv, manifest):
    with open(matrix_csv, "a") as fh:
        fh.write("# edited after the run\n")


def _drop(key, flag=None):
    """Spoil a manifest: delete one of its keys, or one of its flags."""
    def spoil(matrix_csv, manifest):
        record = json.loads(Path(manifest).read_text())
        if flag is None:
            del record[key]
        else:
            del record[key][flag]
        Path(manifest).write_text(json.dumps(record))
    return spoil


def _set(flag, value):
    """Spoil a manifest: record a value for one of its flags."""
    def spoil(matrix_csv, manifest):
        record = json.loads(Path(manifest).read_text())
        record["flags"][flag] = value
        Path(manifest).write_text(json.dumps(record))
    return spoil


TRACED_FW = ["cluster", "--solver", "fw", "--trace", "TRACE"]


@pytest.mark.parametrize("command, spoil, cause", [
    (["multistart", "--solver", "afw", "--samples", "2", "--seed", "0"],
     None, "records a multistart run, not a cluster run"),
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
    (TRACED_FW, _set("epsilon", "tiny"),
     "argument --epsilon: invalid float value: 'tiny'"),
    (TRACED_FW, _set("epsilon", "1e-12"),
     "records epsilon as no value that cluster gives it"),
    (TRACED_FW, _set("max_iters", 1000.0),
     "argument --max-iters: invalid int value: '1000.0'"),
    (TRACED_FW, _set("peel_shift", None),
     "records peel_shift as no value that cluster gives it"),
    (TRACED_FW, _set("input", 5), "records input as no value"),
], ids=["multistart-manifest", "no-trace", "rd", "input-changed",
        "no-steps", "no-flags", "no-digests", "no-trace-flag",
        "no-solver-flag", "no-peel-shift-flag", "bad-solver",
        "bad-epsilon-text", "epsilon-as-text", "float-max-iters",
        "null-peel-shift", "input-as-number"])
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
    labels = np.loadtxt(f"{out}.labels.csv", delimiter=",", skiprows=1,
                        dtype=int)[:, 1]
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
    out = tmp_path / "x"
    assert main(["synth", "--kind", "block", "--n", "5", "--k", "0",
                 "--out", str(out)]) == 2
    assert "data error: k must lie in [1, n]" in capsys.readouterr().err
    assert not Path(f"{out}.matrix.csv").exists()


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


@pytest.mark.parametrize("empty,what", [("pred", "predicted-label"),
                                        ("truth", "true-label")])
def test_eval_empty_label_file_returns_2(tmp_path, capsys, empty, what):
    # An empty label file is a data error found before numpy reads it, so
    # no loadtxt "input contained no data" warning escapes first.
    paths = {"pred": tmp_path / "pred.csv", "truth": tmp_path / "truth.csv"}
    for name, path in paths.items():
        path.write_text("" if name == empty else "1\n2\n")
    code = main(["eval", "--pred", str(paths["pred"]),
                 "--truth", str(paths["truth"])])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {what} CSV has no rows"]


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


def test_multistart_max_clusters_below_one_returns_2(tmp_path, block_csv,
                                                     capsys):
    matrix_csv, _ = block_csv
    out = tmp_path / "ms"
    code = main(["multistart", "--input", matrix_csv, "--seed", "0",
                 "--max-clusters", "0", "--out", str(out)])
    assert code == 2
    assert "max_clusters" in capsys.readouterr().err
    assert not (tmp_path / "ms.passes.json").exists()


def test_eval_length_mismatch_returns_2(tmp_path, capsys):
    pred, truth = tmp_path / "pred.csv", tmp_path / "truth.csv"
    pred.write_text("1\n1\n2\n")
    truth.write_text("1\n2\n")
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
    ["cluster", "--cutoff", "nan"],
    ["cluster", "--peel-shift", "nan"],
    ["cluster", "--peel-shift", "-1"],
    ["multistart", "--cutoff", "nan"],
    ["multistart", "--epsilon", "inf"],
])
def test_non_finite_threshold_returns_2(tmp_path, block_csv, capsys, flags):
    # An infinite epsilon would stop every solve before its first step, a
    # NaN one would make every step fail as NotAscent, a NaN cutoff would
    # keep no object, and ShiftedMatrix rejects a NaN or negative shift:
    # all are data errors, caught before solving.
    matrix_csv, _ = block_csv
    code = main([*flags, "--input", matrix_csv, "--max-clusters", "2",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cluster", "multistart"])
def test_epsilon_of_one_returns_2(tmp_path, block_csv, capsys, command):
    # The stop test is f >= (1 - epsilon) max(r), and f >= 0: epsilon = 1
    # would stop every solve before its first step.
    matrix_csv, _ = block_csv
    code = main([command, "--epsilon", "1", "--input", matrix_csv,
                 "--max-clusters", "2", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "(0, 1)" in capsys.readouterr().err


def test_manifest_input_digest(tmp_path, block_csv, capsys):
    matrix_csv, _ = block_csv
    out = str(tmp_path / "run")
    assert main(["cluster", "--input", matrix_csv, "--max-clusters", "2",
                 "--out", out]) == 0
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["input_digests"] == {
        matrix_csv: hashlib.sha256(Path(matrix_csv).read_bytes()).hexdigest()}


def test_manifest_flags_are_deterministic(tmp_path, block_csv, capsys):
    matrix_csv, _ = block_csv
    flags = []
    for _ in range(2):
        out = str(tmp_path / "run")
        assert main(["cluster", "--input", matrix_csv, "--solver", "pfw-b",
                     "--max-clusters", "2", "--out", out]) == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
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


def test_cluster_has_no_seed_flag(tmp_path, block_csv, capsys):
    matrix_csv, _ = block_csv
    assert main(["cluster", "--input", matrix_csv, "--max-clusters", "1",
                 "--seed", "0", "--out", str(tmp_path / "run")]) == 1


def test_max_iters_stop_is_reported(tmp_path, block_csv):
    # Every solve that spends its budget gets a manifest entry and the run
    # logs one line to stderr (no logging is configured, so Python's
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
    warnings = json.loads((tmp_path / "run.manifest.json").read_text())[
        "warnings"]
    assert warnings
    assert all(w["max_iters"] == 1 and w["last_full_gap"] > 0
               for w in warnings)
    assert [w["round"] for w in warnings] == list(
        range(1, len(warnings) + 1))
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "max_iters=1" in lines[0]


@pytest.mark.parametrize("command", [
    ["cluster", "--solver", "pfw-b", "--peel-shift", "4"],
    ["multistart", "--solver", "afw", "--samples", "2", "--seed", "0"],
])
def test_budget_warnings_in_manifest(tmp_path, block_csv, capsys, caplog,
                                     command):
    matrix_csv, _ = block_csv
    manifests = {}
    for budget in ("1", "5000"):
        out = str(tmp_path / f"run{budget}")
        assert main([*command, "--input", matrix_csv, "--max-clusters", "2",
                     "--max-iters", budget, "--out", out]) == 0
        manifests[budget] = json.loads(
            (tmp_path / f"run{budget}.manifest.json").read_text())
    assert manifests["1"]["warnings"]
    assert manifests["5000"]["warnings"] == []
    budget_records = [r for r in caplog.records if r.name == "dscfw.cli"]
    assert len(budget_records) == 1
    assert budget_records[0].levelname == "WARNING"
