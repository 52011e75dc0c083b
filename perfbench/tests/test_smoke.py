"""Smoke tests of the benchmark itself, at the tiny scale.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from inputs import bundle_path, load_bundle, write_bundle  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import CheckFailed, Workload  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        if not trace:
            assert printed["value"] > 0, metric["name"]


def _tiny_bundle(workload: str) -> dict:
    path = bundle_path(workload, "tiny", 3)
    if not path.exists():
        write_bundle(workload, "tiny", 3)
    return load_bundle(path)


@pytest.mark.parametrize("workload", ["replay-serial", "live-faults"])
def test_reference_check_catches_an_altered_verdict(workload):
    bench = Workload(workload, _tiny_bundle(workload))
    report = bench.run_pass().report
    bench.check(report)  # the untouched pass agrees with the reference
    unit, results = next(
        (name, rounds) for name, rounds in report.results.items() if rounds
    )
    result = results[-1]
    db, record = next(iter(result.records.items()))
    flipped = "HEALTHY" if record.state.name == "ABNORMAL" else "ABNORMAL"
    result.records[db] = dataclasses.replace(
        record, state=type(record.state)[flipped]
    )
    with pytest.raises(CheckFailed, match=unit):
        bench.check(report)


def test_missing_trace_target_is_reported_absent():
    import repro.core.detector as detector

    original = detector.calculate_levels
    tracer = Tracer()
    absent = tracer.install([
        Target("gone.module", "repro.no_such_module:function"),
        Target("gone.attribute", "repro.core.detector:NoSuchClass.method"),
        Target("levels.calculate", "repro.core.detector:calculate_levels"),
    ])
    try:
        assert set(absent) == {
            "repro.no_such_module:function",
            "repro.core.detector:NoSuchClass.method",
        }
        assert detector.calculate_levels is not original
    finally:
        tracer.uninstall()
    assert detector.calculate_levels is original


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    stats = tracer.layer_seconds()
    child = stats["inner"]["total_s"]
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - child
    )
    assert stats["inner"]["self_s"] == pytest.approx(child)
