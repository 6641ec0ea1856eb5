"""The README's code runs as printed: the quick start, then the
multi-start example in the same namespace. Each `print(...)  # value`
line prints that value ("0.760..." means a value starting with 0.760).
Every line of the CLI block and of the trace-check example is a dscfw
command, and each runs in a fresh directory and exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from dscfw.cli import main
from dscfw.multistart import multistart_cluster
from dscfw.peel import shift_offdiag

from conftest import strict_json

README = Path(__file__).resolve().parent.parent / "README.md"


def _snippet(heading: str, lang: str = "python") -> str:
    section = README.read_text().split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _check_prints(code: str, namespace: dict, expected: list[str]) -> None:
    claimed = re.findall(r"^print\(.*\)\s*#\s*(\S+)$", code, re.M)
    assert claimed == expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    printed = out.getvalue().split()
    assert len(printed) == len(claimed)
    for value, claim in zip(printed, claimed):
        if claim.endswith("..."):
            assert value.startswith(claim[:-3]), (value, claim)
        else:
            assert value == claim, (value, claim)


def test_quick_start_prints_its_figures():
    _check_prints(_snippet("## Quick start"), {}, ["1.0", "0.845", "0.760..."])


def test_multistart_example_prints_its_figures():
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(_snippet("## Quick start"), str(README), "exec"),
             namespace)
    _check_prints(_snippet("## Multi-start"), namespace,
                  ["2", "5", "0.845", "1.0"])
    # The example's labels and stop reasons equal those of the same call
    # on the dense shifted matrix, as the README says of it.
    dense, passes = multistart_cluster(
        shift_offdiag(namespace["A"], 4.0), namespace["plan"],
        namespace["cfg"], max_clusters=5)
    result = namespace["result"]
    assert passes == namespace["passes"]
    assert dense.labels.tolist() == result.labels.tolist()
    assert dense.stop_reasons == result.stop_reasons


def _commands(heading: str) -> list[list[str]]:
    """The command lines of a README sh block, continuations joined, each
    of which must be a dscfw command."""
    script = _snippet(heading, "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines()]
    assert all(argv[:1] == ["dscfw"] for argv in commands), commands
    return commands


def test_cli_quick_start_synth_and_cluster_run_as_printed(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands("## CLI")
    assert [argv[1] for argv in commands] == [
        "synth", "cluster", "eval", "synth", "similarity", "cluster"]
    # The block points to the trace-check section instead of tracing a
    # pfw run, whose bound holds trivially.
    assert all("--trace" not in argv and argv[1] != "trace-check"
               for argv in commands)
    for argv in commands[:2]:
        assert main(argv[1:]) == 0, argv
    # The summary line the README quotes, which the manifest records.
    summary = strict_json(capsys.readouterr().out.splitlines()[-1])
    assert summary == {"k_found": 5, "assignment_rate": 0.845}
    manifest = strict_json((tmp_path / "run.manifest.json").read_text())
    assert manifest["warnings"] == []
    assert manifest["result"] == summary
    # eval reads the labels and the truth as cluster and synth wrote them,
    # and prints the quick start's figures: 84.5 % assigned, ARI 1.0 on
    # those.
    assert commands[2][2:] == ["--pred", "run.labels.csv",
                               "--truth", "data.truth.csv"]
    capsys.readouterr()
    assert main(commands[2][1:]) == 0
    report = strict_json(capsys.readouterr().out)
    quoted = re.search(r'`(\{"ar": .*?\})`', README.read_text()).group(1)
    assert report == strict_json(quoted)
    assert (report["ar"], report["ari"]) == (0.845, 1.0)
    # The similarity line reads the features the second synth line writes.
    for argv in commands[3:]:
        assert main(argv[1:]) == 0, argv
    # The last line clusters with sampled starts (--sampler), and its
    # --seed fixes its samples, so the summary the README quotes is the one
    # it prints.
    summary = strict_json(capsys.readouterr().out.splitlines()[-1])
    quoted = re.search(r'`(\{"passes": .*?\})`', README.read_text()).group(1)
    assert summary == strict_json(quoted)
    assert list(summary) == ["passes", "k_found", "assignment_rate"]


def test_trace_check_example_runs_as_printed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands("### Checking a run against its gap bound")
    assert [argv[:2] for argv in commands] == [
        ["dscfw", "synth"], ["dscfw", "cluster"], ["dscfw", "trace-check"]]
    assert "--trace" in commands[1]
    for argv in commands:
        capsys.readouterr()
        assert main(argv[1:]) == 0, argv
    # The example's check could fail: its bound lies below the first gap.
    report = strict_json(capsys.readouterr().out)
    assert report["satisfied"] is True
    assert report["informative"] is True
    assert report["progress_violations"] == 0
