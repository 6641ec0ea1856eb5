"""Smoke test of the benchmark at tiny sizes:

    python3 -m pytest perfbench/smoke_check.py

Every workload, untraced and traced, must emit every metric BENCHMARK.json
names, with its unit, pass its output checks, and leave no tracing wrapper
behind.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_benchmark_json_matches_the_code():
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(workload, trace, capsys):
    workloads.load_program(run.ROOT)
    before = tracing.wrapped_targets()
    result = run.main(["--workload", workload, "--seed", "1", "--seconds",
                       "0.2", "--trace", str(trace), "--tiny"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _units("per_layer" if trace else "end_to_end")
    after = tracing.wrapped_targets()
    assert all(a is b for a, b in zip(before, after, strict=True))


def test_a_missing_name_is_reported_absent(monkeypatch):
    workloads.load_program(run.ROOT)
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + [
        ("dscfw.peel", "no_such_function", "peel.none", None)])
    rec = tracing.Recorder()
    rec.install()
    rec.restore()
    assert rec.absent == ["dscfw.peel.no_such_function"]
