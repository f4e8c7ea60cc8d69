"""One fresh benchmark process: `setup` or `sweep` mode, JSON on stdout.

    python3 worker.py setup SPEC
    python3 worker.py sweep SPEC SECONDS TRACE

SPEC is the JSON file `run.py` writes next to the generated inputs.
`setup` times `import tufsim.cli` plus the workload's input stage through
the public functions, in a process that has not imported tufsim yet.
`sweep` runs one untimed warm-up `run_cli` sweep, then sweeps back to
back (a closed loop, one at a time) until SECONDS have passed, checking
every report and warning stream against the reference.  A calibration
loop runs before each timed sweep and once after the last, so every
sweep is bracketed by two.  The peak RSS is read right after the warm-up
sweep, before the first calibration loop, whose 40,000 objects would
otherwise set the high-water mark.  With TRACE 1 the
tracer wraps tufsim's layers first and per-layer figures are returned.
"""

from __future__ import annotations

import gc
import io
import json
import sys
import traceback
from datetime import date
from pathlib import Path
from time import perf_counter

MIN_SWEEPS = 5


class _Item:
    def __init__(self, key: int):
        self.key = key
        self.hits = 0


def calibrate() -> float:
    """Time a fixed pure-Python loop shaped like the simulator's work
    (small objects, a dict per item, attribute updates).

    Neighbours on a shared host slow every process on it by up to a half
    for seconds to minutes at a time; this loop slows with them, so
    dividing by its time cancels most of that drift while leaving the
    program's own speed in.
    """
    started = perf_counter()
    items = [_Item(i) for i in range(40_000)]
    total = 0
    for item in items:
        counts = {k: 0 for k in range(4)}
        counts[item.key % 4] += item.key
        item.hits += 1
        total += sum(counts.values())
    return perf_counter() - started


def peak_rss_kb() -> int:
    """This process's own resident-set high-water mark (VmHWM), in KiB.

    Not ru_maxrss: on Linux that keeps the parent's mark across fork and
    exec, so a worker started by a larger run.py would report run.py's size.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def setup(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    inputs = spec["inputs"]
    started = perf_counter()
    import tufsim.cli  # noqa: F401  (timed: the import is part of set-up)
    from tufsim import (Cadence, EventCalendar, Uniform, default_architecture,
                        generate_poisson_events, generate_ticks, load_event_dates,
                        load_role_actions, merge_calendars, parse_algorithm_catalog,
                        parse_architecture_csv, parse_assignment_csv)

    catalog = parse_algorithm_catalog(_read(inputs["algorithms"]))
    if inputs.get("arch"):
        arch = parse_architecture_csv(_read(inputs["arch"]), device_name="Device_A")
    else:
        arch = default_architecture("Device_A")
    if inputs.get("assignment"):
        label = Path(inputs["assignment"]).stem
        assignments = [parse_assignment_csv(_read(inputs["assignment"]), label=label)]
    else:
        assignments = [Uniform(alg.name) for alg in catalog]
    start, end = date.fromisoformat(spec["start"]), date.fromisoformat(spec["end"])
    if inputs.get("events"):
        calendar = load_event_dates(_read(inputs["events"]), spec["target"])
    elif spec["poisson"]:
        rate, seed = spec["poisson"]
        calendar = generate_poisson_events(rate, start, end, seed, spec["target"])
    else:
        calendar = EventCalendar()
    if inputs.get("actions"):
        calendar = merge_calendars(calendar, load_role_actions(_read(inputs["actions"])))
    ticks = generate_ticks(start, end, Cadence(spec["cadence"]))
    elapsed = perf_counter() - started
    del catalog, arch, assignments, calendar, ticks
    gc.collect()
    return {"setup_s": elapsed, "calibration_s": sorted(calibrate() for _ in range(3))[1]}


def sweep(spec: dict, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, spec["src"])
    import tufsim.cli

    report = _read(spec["expected_report"])
    warnings = _read(spec["expected_stderr"])
    argv = spec["argv"]
    run_cli = tufsim.cli.run_cli
    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, summarize, sweep_metrics

        tracer = Tracer()
        tracer.install()
        run_cli = tracer.span("run_cli", run_cli)

    failed = 0
    attempted = 0
    times: list[float] = []
    cals: list[float] = []
    layers: list[dict] = []
    run_s: list[float] = []
    deadline = None
    while deadline is None or perf_counter() < deadline or len(times) < MIN_SWEEPS:
        first_span = len(tracer.spans) if tracer else 0
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        cal = calibrate() if deadline is not None else 0.0
        gc.collect()
        started = perf_counter()
        try:
            status = run_cli(argv, stdout=out, stderr=err)
        except Exception:
            traceback.print_exc()
            status = None
        elapsed = perf_counter() - started
        attempted += 1
        ok = status == 0 and out.getvalue() == report and err.getvalue() == warnings
        if not ok:
            failed += 1
            print(f"sweep {attempted}: status {status}, report "
                  f"{'ok' if out.getvalue() == report else 'differs'}, warnings "
                  f"{'ok' if err.getvalue() == warnings else 'differ'}", file=sys.stderr)
        if deadline is None:  # the warm-up sweep: checked, not timed
            maxrss_kb = peak_rss_kb()
            deadline = perf_counter() + seconds
            continue
        times.append(elapsed)
        cals.append(cal)
        if tracer is not None and status == 0:
            metrics, durations = sweep_metrics(tracer.spans[first_span:])
            layers.append(metrics)
            run_s += durations

    gc.collect()
    cals.append(calibrate())  # closes the bracket around the last sweep
    result = {
        "times": times,
        "calibrations": cals,
        "attempted": attempted,
        "failed": failed,
        "maxrss_kb": maxrss_kb,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spec["trace_path"])
        result["layers"] = summarize(layers, run_s) if layers else {}
    return result


def main(argv: list[str]) -> None:
    mode, spec_path = argv[0], argv[1]
    spec = json.loads(_read(spec_path))
    if mode == "setup":
        result = setup(spec)
    else:
        result = sweep(spec, float(argv[2]), argv[3] == "1")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
