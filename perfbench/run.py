"""tufsim benchmark: seeded CLI-sweep workloads, host-time metrics, traced run.

    python3 perfbench/run.py --workload quiet-minute --seed 0 --seconds 20 --trace 0

Run from the repository root.  The script generates the workload's input
files from --seed under .perfbench_work/, builds the expected report with
its own tick-by-tick reference driver, then measures in fresh worker
processes, one at a time (no threads, nothing in parallel):

  --trace 0  end-to-end metrics, tracing off.  sweep_s is the median time
             of one `tufsim.cli.run_cli` sweep (input files on disk to
             report string) over a closed loop of --seconds after one
             untimed warm-up; setup_s is the median over SETUP_WORKERS
             fresh processes of `import tufsim.cli` plus the input stage;
             both are scaled to the calibration host (CAL_REF_S below).
             peak_rss_mb is the sweep worker's own peak RSS after its
             warm-up sweep, before any calibration loop has run.
  --trace 1  per-layer metrics: half of --seconds untraced, half traced,
             trace.overhead_s the difference of their median sweep times.
             Spans are written to .perfbench_work/traces/.

Every sweep's exit status, report and warnings are checked; `failed`
counts the sweeps that differ.  At --seed 0 the reference output and the
inputs must also match pinned digests, or every sweep counts as failed.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_WORKERS = 7
WORKER_TIMEOUT_S = 150
# Median time of `worker.calibrate` on the host the baseline was taken on
# (2 vCPUs at 2.1 GHz, Python 3.11.7).  Host times are reported as
# measured wall time x CAL_REF_S / calibration time measured next to it:
# seconds on that host, with the shared host's drift divided out.
CAL_REF_S = 0.075

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_TARGET, WORKLOADS  # noqa: E402


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {args[0]} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tufsim" / "cli.py").is_file():
        raise SystemExit(f"tufsim sources not found under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    scenario = WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = _measure(args, scenario, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def _measure(args, scenario, work: Path) -> dict:
    import reference  # imports tufsim, so only once SRC is on the path

    for name, text in scenario.files.items():
        (work / name).write_bytes(text.encode("utf-8"))
    report, warnings = reference.expected_output(scenario)
    (work / "expected_report.csv").write_bytes(report.encode("utf-8"))
    (work / "expected_stderr.txt").write_bytes(warnings.encode("utf-8"))

    pinned_ok = True
    if args.seed == reference.PINNED_SEED:
        pinned = reference.PINNED_DIGESTS[args.workload]
        got = {"inputs": reference.inputs_digest(scenario),
               "report": reference.digest(report, warnings)}
        for key, value in got.items():
            if value != pinned[key]:
                pinned_ok = False
                print(f"pinned {key} digest mismatch: {value}", file=sys.stderr)

    traces = WORK / "traces"
    traces.mkdir(exist_ok=True)
    spec = {
        "src": str(SRC),
        "argv": scenario.argv(str(work)),
        "inputs": {name.split(".")[0]: str(work / name) for name in scenario.files},
        "start": scenario.start.isoformat(),
        "end": scenario.end.isoformat(),
        "cadence": scenario.cadence,
        "poisson": scenario.poisson,
        "target": DEFAULT_TARGET,
        "expected_report": str(work / "expected_report.csv"),
        "expected_stderr": str(work / "expected_stderr.txt"),
        "trace_path": str(traces / f"{args.workload}-{args.seed}.jsonl"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    seconds = args.seconds
    timeout = seconds + WORKER_TIMEOUT_S
    if args.trace:
        plain = _worker(["sweep", str(spec_path), str(seconds / 2), "0"], timeout)
        traced = _worker(["sweep", str(spec_path), str(seconds / 2), "1"], timeout)
        runs = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = _scaled(traced) - _scaled(plain)
        metrics["bench.sweep_wall_s"] = statistics.median(plain["times"])
        metrics["bench.calibration_s"] = statistics.median(plain["calibrations"])
        units = _layer_units()
        # Layer metrics are missing only when every traced sweep failed.
        metrics = {name: {"value": metrics.get(name, 0), "unit": units[name]} for name in units}
    else:
        setups = [_worker(["setup", str(spec_path)], WORKER_TIMEOUT_S)
                  for _ in range(SETUP_WORKERS)]
        plain = _worker(["sweep", str(spec_path), str(seconds), "0"], timeout)
        runs = [plain]
        times = plain["times"]
        setup_s = statistics.median(s["setup_s"] * CAL_REF_S / s["calibration_s"] for s in setups)
        metrics = {
            "sweep_s": {"value": _scaled(plain), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": plain["maxrss_kb"] / 1024, "unit": "MB"},
        }
        walls = ", ".join(f"{s['setup_s']:.4f}" for s in setups)
        print(f"# {args.workload} seed {args.seed}: {len(times)} timed sweeps, wall "
              f"median {statistics.median(times):.4f} s (min {min(times):.4f}, max "
              f"{max(times):.4f}), calibration median "
              f"{statistics.median(plain['calibrations']):.4f} s; set-up wall over "
              f"{len(setups)} workers {walls}")

    attempted = sum(run["attempted"] for run in runs)
    failed = attempted if not pinned_ok else sum(run["failed"] for run in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _scaled(run: dict) -> float:
    """Median over sweeps of wall time / mean of the two calibrations
    bracketing it, rescaled to the calibration host's speed."""
    times, cals = run["times"], run["calibrations"]
    return CAL_REF_S * statistics.median(
        t / ((before + after) / 2) for t, before, after in zip(times, cals, cals[1:])
    )


def _layer_units() -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in bench["per_layer"]}


if __name__ == "__main__":
    main()
