"""Self-tests of the benchmark's own parts: reference driver, generators, tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tufsim.cli  # noqa: E402
from reference import (PINNED_DIGESTS, PINNED_SEED, digest,  # noqa: E402
                       expected_output, inputs_digest)
from tracer import Tracer, summarize, sweep_metrics  # noqa: E402
from workloads import DEFAULT_ROLES, WORKLOADS, Scenario  # noqa: E402


def _ten_day(max_sigs: int) -> Scenario:
    return Scenario(
        start=date(2020, 1, 1),
        end=date(2020, 1, 10),
        cadence="daily",
        catalog=[("AlgA", 100, 50, max_sigs, 1.0)],
        roles=list(DEFAULT_ROLES),
        assignments=["AlgA"],
        events={(date(2020, 1, 3), "Target 1"), (date(2020, 1, 7), "Target 1")},
    )


@pytest.mark.parametrize("max_sigs, row", [
    (10**6, "Device_A,AlgA,1700,200,1900,17.000000,17,4,1"),  # golden trace A
    (4, "Device_A,AlgA,1900,600,2500,19.000000,19,6,3"),      # golden trace B
])
def test_reference_reproduces_golden_traces(max_sigs, row):
    report, warnings = expected_output(_ten_day(max_sigs))
    assert report.splitlines()[1:] == [row]
    assert warnings == ""


def _write(scenario: Scenario, directory: Path) -> list[str]:
    for name, text in scenario.files.items():
        (directory / name).write_bytes(text.encode("utf-8"))
    return scenario.argv(str(directory))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_matches_cli_on_tiny_instance(name, tmp_path):
    scenario = WORKLOADS[name](5, tiny=True)
    out, err = io.StringIO(), io.StringIO()
    assert tufsim.cli.run_cli(_write(scenario, tmp_path), stdout=out, stderr=err) == 0
    report, warnings = expected_output(scenario)
    assert len(report.splitlines()) == 1 + len(scenario.assignments)
    assert (out.getvalue(), err.getvalue()) == (report, warnings)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(name):
    first, again, other = WORKLOADS[name](7), WORKLOADS[name](7), WORKLOADS[name](8)
    assert (first.files, first.flags) == (again.files, again.flags)
    assert (first.files, first.flags) != (other.files, other.flags)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_digests_at_default_seed(name):
    scenario = WORKLOADS[name](PINNED_SEED)
    assert inputs_digest(scenario) == PINNED_DIGESTS[name]["inputs"]
    assert digest(*expected_output(scenario)) == PINNED_DIGESTS[name]["report"]


def _traced_sweep(tmp_path) -> tuple[Tracer, Scenario]:
    scenario = WORKLOADS["dense-fleet"](3, tiny=True)
    argv = _write(scenario, tmp_path)
    original = tufsim.cli.run_sweep
    tracer = Tracer()
    tracer.install()
    try:
        run_cli = tracer.span("run_cli", tufsim.cli.run_cli)
        assert run_cli(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    finally:
        tracer.uninstall()
    assert tufsim.cli.run_sweep is original
    return tracer, scenario


def test_self_time_plus_children_equals_span(tmp_path):
    tracer, _ = _traced_sweep(tmp_path)
    child_spans: dict[int, float] = {}
    for node in tracer.spans:
        if node.parent is not None:
            child_spans[node.parent] = child_spans.get(node.parent, 0.0) + node.duration

    def check(node, spans_below: float) -> None:
        folded = sum(fold.duration for fold in node.folds.values())
        assert node.self_s + spans_below + folded == pytest.approx(node.duration, abs=1e-9)
        assert node.self_s >= 0
        for fold in node.folds.values():
            check(fold, 0.0)

    assert tracer.spans[0].name == "run_cli"
    for node in tracer.spans:
        check(node, child_spans.get(node.id, 0.0))


def test_traced_sweep_emits_every_per_layer_metric(tmp_path):
    tracer, scenario = _traced_sweep(tmp_path)
    tracer.write(str(tmp_path / "trace.jsonl"))
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans)

    metrics, run_s = sweep_metrics(tracer.spans)
    ticks = (scenario.end - scenario.start).days + 1
    assert metrics["repository.publish_timestamp_calls"] == ticks * len(scenario.catalog)
    assert metrics["algorithms.catalog_rows"] == len(scenario.catalog)
    assert len(run_s) == len(scenario.catalog)

    names = set(summarize([metrics], run_s))
    names |= {"trace.overhead_s", "bench.sweep_wall_s", "bench.calibration_s"}
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert names == {entry["name"] for entry in bench["per_layer"]}


def test_peak_rss_is_the_program_s_not_the_calibration_loop_s(tmp_path):
    scenario = WORKLOADS["quiet-minute"](3, tiny=True)
    report, warnings = expected_output(scenario)
    (tmp_path / "report.csv").write_bytes(report.encode("utf-8"))
    (tmp_path / "stderr.txt").write_bytes(warnings.encode("utf-8"))
    spec = {"src": str(HERE.parent / "src"), "argv": _write(scenario, tmp_path),
            "expected_report": str(tmp_path / "report.csv"),
            "expected_stderr": str(tmp_path / "stderr.txt")}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    sweep = json.loads(subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "sweep", str(tmp_path / "spec.json"), "0", "0"],
        capture_output=True, text=True, check=True).stdout)
    assert sweep["failed"] == 0

    # A fresh process that imports the same modules and runs the loop once.
    probe = (f"import sys; sys.path[:0] = [{str(HERE.parent / 'src')!r}, {str(HERE)!r}]; "
             "import tufsim.cli, worker; worker.calibrate(); print(worker.peak_rss_kb())")
    calibrated_kb = int(subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                       text=True, check=True).stdout)
    assert sweep["maxrss_kb"] < calibrated_kb - 2048
