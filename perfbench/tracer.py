"""In-memory spans around tufsim's layer boundaries, installed from outside.

`Tracer.install` replaces, by attribute assignment, the functions
`tufsim.cli` imports, `tufsim.runner.run_scenario` and
`tufsim.runner.find_algorithm` with span-recording wrappers, and the
public `Repository` methods with folding wrappers.  A span records name,
start, end and parent.  A folded call records no span: it adds one to a
per-parent count and its duration to a per-parent time sum, so per-tick
methods keep the trace bounded.  Self time is duration minus the time
covered by child spans and folded calls.

The classes `tufsim.cli` imports (Cadence, EventCalendar, Uniform) are
left alone: wrapping a class in a function would break attribute and
isinstance use.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

SPANNED = {
    "tufsim.cli": (
        "parse_algorithm_catalog", "default_architecture", "emit_report_csv",
        "parse_architecture_csv", "parse_assignment_csv", "run_sweep",
        "generate_poisson_events", "generate_ticks", "load_event_dates",
        "load_role_actions", "merge_calendars",
    ),
    "tufsim.runner": ("run_scenario",),
}
FOLDED_FUNCTIONS = {"tufsim.runner": ("find_algorithm",)}
FOLDED_METHODS = (
    "add_role", "remove_role", "set_reserve", "stage_update",
    "rollover_check", "publish_timestamp", "ledger_totals",
)
ROLE_ACTIONS = ("add_role", "remove_role", "set_reserve")


class Node:
    """A span, or the per-parent aggregate of one folded callable."""

    __slots__ = ("id", "name", "parent", "start", "end", "count", "total",
                 "child_s", "folds", "payload")

    def __init__(self, name: str, parent: int | None = None, span_id: int | None = None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.count = 0
        self.total = 0.0
        self.child_s = 0.0
        self.folds: dict[str, Node] = {}
        self.payload = None

    @property
    def duration(self) -> float:
        return self.end - self.start if self.id is not None else self.total

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        out = {"name": self.name, "self_s": self.self_s}
        if self.id is None:
            out.update(count=self.count, total_s=self.total)
        else:
            out.update(id=self.id, parent=self.parent, start=self.start, end=self.end)
        if self.folds:
            out["folds"] = [fold.as_dict() for fold in self.folds.values()]
        return out


class Tracer:
    def __init__(self):
        self.spans: list[Node] = []
        self._stack: list[Node] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            node = Node(name, parent.id if parent else None, len(spans))
            spans.append(node)
            stack.append(node)
            node.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += node.end - node.start
            node.payload = (args, result)
            return result

        return wrapper

    def fold(self, name: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent.folds.get(name)
            if node is None:
                node = parent.folds[name] = Node(name)
            stack.append(node)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                node.count += 1
                node.total += elapsed
                parent.child_s += elapsed

        return wrapper

    def install(self) -> None:
        import importlib

        from tufsim.repository import Repository

        def patch(owner, attr, wrapper):
            self._restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        for module_name, names in SPANNED.items():
            module = importlib.import_module(module_name)
            for name in names:
                patch(module, name, self.span(name, getattr(module, name)))
        for module_name, names in FOLDED_FUNCTIONS.items():
            module = importlib.import_module(module_name)
            for name in names:
                patch(module, name, self.fold(name, getattr(module, name)))
        for name in FOLDED_METHODS:
            patch(Repository, name, self.fold(name, getattr(Repository, name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for node in self.spans:
                out.write(json.dumps(node.as_dict()) + "\n")


def _fold_totals(node: Node, into: dict[str, list[float]]) -> None:
    for fold in node.folds.values():
        entry = into.setdefault(fold.name, [0, 0.0])
        entry[0] += fold.count
        entry[1] += fold.total
        _fold_totals(fold, into)


def sweep_metrics(nodes: list[Node]) -> tuple[dict, list[float]]:
    """Per-layer figures of one traced sweep: its `run_cli` span, then the
    spans it caused.

    Returns the metrics and the durations of each `run_scenario` span.
    Payloads (call arguments and results) are dropped once counted.
    """
    root, below = nodes[0], nodes[1:]
    by_name: dict[str, list[Node]] = {}
    for node in below:
        by_name.setdefault(node.name, []).append(node)
    folds: dict[str, list[float]] = {}
    for node in nodes:
        _fold_totals(node, folds)

    def total(name):
        return sum(node.duration for node in by_name.get(name, ()))

    def result_of(name):
        found = by_name.get(name)
        return found[0].payload[1] if found else None

    def calls(*names):
        return sum(folds.get(name, [0, 0.0])[0] for name in names)

    def seconds(*names):
        return sum(folds.get(name, [0, 0.0])[1] for name in names)

    scenarios = by_name.get("run_scenario", [])
    sweep_args = by_name["run_sweep"][0].payload[0]
    calendar, ticks = sweep_args[2], sweep_args[3]
    event_dates = len({day for day, _ in calendar.update_events})
    action_dates = len({action.date for action in calendar.role_actions})
    results = [node.payload[1] for node in scenarios]
    run_s = [node.duration for node in scenarios]
    change_points = sum(event_dates + action_dates + r.rollover_events for r in results)
    events = result_of("load_event_dates")
    actions = result_of("load_role_actions")
    metrics = {
        "cli.self_s": root.self_s,
        "algorithms.parse_catalog_s": total("parse_algorithm_catalog"),
        "algorithms.catalog_rows": len(result_of("parse_algorithm_catalog")),
        "algorithms.find_algorithm_calls": calls("find_algorithm"),
        "algorithms.find_algorithm_s": seconds("find_algorithm"),
        "schedule.generate_ticks_s": total("generate_ticks"),
        "schedule.ticks_materialized": len(ticks),
        "schedule.poisson_s": total("generate_poisson_events"),
        "schedule.event_dates": event_dates,
        "schedule.load_events_s": total("load_event_dates"),
        "schedule.load_actions_s": total("load_role_actions"),
        "schedule.event_rows": len(events.update_events) if events else 0,
        "schedule.action_rows": len(actions.role_actions) if actions else 0,
        "runner.parse_arch_s": total("parse_architecture_csv"),
        "runner.parse_assignment_s": total("parse_assignment_csv"),
        "runner.run_scenario_s": sum(run_s),
        "runner.self_s": sum(node.self_s for node in by_name["run_sweep"] + scenarios),
        "runner.us_per_tick": 1e6 * sum(run_s) / (len(ticks) * len(scenarios)),
        "runner.us_per_change_point": 1e6 * sum(run_s) / change_points,
        "runner.emit_s": total("emit_report_csv"),
        "runner.warnings": sum(len(r.warnings) for r in results),
        "repository.publish_timestamp_calls": calls("publish_timestamp"),
        "repository.publish_timestamp_s": seconds("publish_timestamp"),
        "repository.stage_update_calls": calls("stage_update"),
        "repository.stage_update_s": seconds("stage_update"),
        "repository.role_action_calls": calls(*ROLE_ACTIONS),
        "repository.role_action_s": seconds(*ROLE_ACTIONS),
        "repository.signatures": sum(r.total_signatures for r in results),
        "repository.rollover_events": sum(r.rollover_events for r in results),
        "repository.root_publications": sum(r.root_publications for r in results),
    }
    for node in nodes:
        node.payload = None
    return metrics, run_s


def summarize(per_sweep: list[dict], run_s: list[float]) -> dict:
    """Median over traced sweeps of each per-sweep time, the counts (equal
    in every sweep) as they are, plus the spread of single `run_scenario`
    calls."""
    last = per_sweep[-1]
    out = {key: value if isinstance(value, int) else
           statistics.median(sweep[key] for sweep in per_sweep)
           for key, value in last.items()}
    quantiles = statistics.quantiles(run_s, n=10) if len(run_s) > 1 else run_s * 9
    out["runner.run_scenario_p50_s"] = statistics.median(run_s)
    out["runner.run_scenario_p90_s"] = quantiles[8]
    return out
