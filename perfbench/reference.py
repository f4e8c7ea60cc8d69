"""Reference report for a scenario, from a tick-by-tick driver of its own.

It replays the scenario's inputs, taken as plain values from the
generator rather than parsed from its files, through the public
`Repository` API only (add_role, set_reserve, remove_role, stage_update,
publish_timestamp, ledger_totals).  It owns the run semantics the CLI
promises: on the first tick of a date, scripted actions in file order,
then a role-coverage check, then that date's update events by target
name, then the timestamp; every other tick only publishes.  Poisson
calendars come from the public `generate_poisson_events`.
"""

from __future__ import annotations

import hashlib
from datetime import timedelta

from tufsim import Repository, RoleType, SignatureAlgorithm, generate_poisson_events

from workloads import DEFAULT_TARGET, Scenario

DEVICE = "Device_A"
REPORT_HEADER = (
    "Device,Assignment,Signature Bytes,Public Key Bytes,Total Bytes,"
    "Verification Cost,Total Signatures,Rollover Events,Root Publications\n"
)
_SUB_TICKS = {"daily": 1, "hourly": 24, "minute": 1440}

# sha256 of the generated files and of the reference output at seed 0.
# A change in the report digest with unchanged inputs means the
# Repository model itself drifted.
PINNED_SEED = 0
PINNED_DIGESTS = {
    "quiet-minute": {
        "inputs": "7b49eacc83a9da380720c12ead27f3b1315a4c0d06fa56cce207a415394cdcbe",
        "report": "1629574e79b6410739625213392114851a8f75cfbf687c41511055fe6a9affba",
    },
    "dense-fleet": {
        "inputs": "b151b746c7631c59bbe77d2f51f91315a60ab65e3b14da089c7b4de44bf47111",
        "report": "e17613dd3328982f7dc6b45687afee0497ca8414086414c5595ca109483f3674",
    },
    "bulk-inputs": {
        "inputs": "2a214f292f069bfedab6e9883192c239e0740b916a4eba84c6671fc1d6d5ff30",
        "report": "74146cd3baeff83cf48f77d96008a21649879cc13d15925d767b04d50a5e1153",
    },
}


def expected_output(scenario: Scenario) -> tuple[str, str]:
    """The exact stdout report and stderr text the CLI must produce."""
    algorithms = {row[0]: SignatureAlgorithm(*row) for row in scenario.catalog}
    if scenario.poisson is not None:
        rate, seed = scenario.poisson
        events = generate_poisson_events(
            rate, scenario.start, scenario.end, seed, DEFAULT_TARGET
        ).update_events
    else:
        events = scenario.events or set()
    events_by_day: dict = {}
    for day, target in sorted(events):
        events_by_day.setdefault(day, []).append(target)
    actions_by_day: dict = {}
    for action in scenario.actions:
        actions_by_day.setdefault(action[0], []).append(action)

    rows = [REPORT_HEADER]
    warnings: list[str] = []
    for assignment in scenario.assignments:
        if scenario.assignment_label is not None:
            label, choose = scenario.assignment_label, assignment.__getitem__
        else:
            label, choose = assignment, (lambda _name, alg=assignment: alg)
        repo, run_warnings = _replay(scenario, algorithms, choose, events_by_day, actions_by_day)
        t = repo.ledger_totals()
        rows.append(
            f"{DEVICE},{label},{t.sig_bytes},{t.pk_bytes},{t.sig_bytes + t.pk_bytes},"
            f"{t.cost:.6f},{t.signatures},{t.rollover_events},{t.root_publications}\n"
        )
        warnings += run_warnings
    return "".join(rows), "".join(f"warning: {w}\n" for w in warnings)


def _replay(scenario, algorithms, choose, events_by_day, actions_by_day):
    repo = Repository(DEVICE)
    for name, role_type, pinned, reserve in scenario.roles:
        repo.add_role(name, RoleType(role_type), algorithms[pinned or choose(name)])
        if reserve:
            repo.set_reserve(name, True)

    warnings = []
    sub_ticks = _SUB_TICKS[scenario.cadence]
    day = scenario.start
    while day <= scenario.end:
        if day in actions_by_day:
            for _, kind, name, role_type, pinned, flag in actions_by_day[day]:
                if kind == "add":
                    repo.add_role(name, RoleType(role_type), algorithms[pinned or choose(name)])
                elif kind == "remove":
                    repo.remove_role(name)
                else:
                    repo.set_reserve(name, flag)
            present = {role.role_type for role in repo.roles}
            missing = [t.value for t in RoleType if t not in present]
            if missing:
                warnings.append(
                    f"{day.isoformat()}: no {', '.join(missing)} role remains after scripted actions"
                )
        for target in events_by_day.get(day, ()):
            if repo.stage_update(target) == 0:
                warnings.append(
                    f"{day.isoformat()}: update event for '{target}' matched no Target role"
                )
        for _ in range(sub_ticks):
            repo.publish_timestamp()
        day += timedelta(days=1)
    return repo, warnings


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def inputs_digest(scenario: Scenario) -> str:
    return digest(*(f"{name}\n{scenario.files[name]}" for name in sorted(scenario.files)),
                  " ".join(scenario.flags))
