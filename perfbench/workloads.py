"""Seeded input generators for the benchmark workloads.

Each generator turns a seed into a `Scenario`: the CSV files the program
reads, the CLI flags that point at them, and the same inputs as plain
Python values for the reference driver.  Equal seeds give byte-identical
files.  Sizes do not depend on the seed, so run time stays comparable
across seeds; only dates, names, parameters and event draws move.

This module imports nothing from tufsim: `run.py` imports it before it
puts `src/` on the import path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date, timedelta

# The README's three-entry catalog.
README_CATALOG = (
    ("ECDSA-P256", 64, 64, 10**18, 0.5),
    ("LMS-SHA256-H10", 1456, 60, 1024, 2.9),
    ("XMSS-SHA256-H10", 2500, 64, 1024, 4.3),
)
DEFAULT_ROLES = (
    ("Root 1", "Root", None, False),
    ("Timestamp 1", "Timestamp", None, False),
    ("Snapshot 1", "Snapshot", None, False),
    ("Target 1", "Target", None, False),
)
DEFAULT_TARGET = "Target 1"


@dataclass
class Scenario:
    """One workload instance: files, flags and the inputs they encode.

    catalog rows are (name, sig_size, pk_size, max_sigs, cost); roles are
    (name, role type, pinned algorithm or None, reserve); actions are
    (date, kind, name, role type or None, algorithm or None, flag or None).
    `assignments` holds algorithm names for a sweep, or a single
    {role name: algorithm} map when `assignment_label` is set.  `events`
    is None when the program generates Poisson events itself.
    """

    start: date
    end: date
    cadence: str
    catalog: list[tuple[str, int, int, int, float]]
    roles: list[tuple[str, str, str | None, bool]]
    assignments: list
    files: dict[str, str] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)
    events: set[tuple[date, str]] | None = None
    actions: list[tuple] = field(default_factory=list)
    poisson: tuple[float, int] | None = None
    assignment_label: str | None = None

    def argv(self, directory: str) -> list[str]:
        """The run_cli argument list with input files under `directory`."""
        args = []
        for flag in self.flags:
            if flag in self.files:
                args.append(f"{directory}/{flag}")
            else:
                args.append(flag)
        return args


def _flags(files: dict[str, str], start: date, end: date, cadence: str, extra=()):
    flags = ["--algorithms", "algorithms.csv"]
    for option, name in (("--arch", "arch.csv"), ("--events", "events.csv"),
                         ("--actions", "actions.csv"), ("--assignment", "assignment.csv")):
        if name in files:
            flags += [option, name]
    flags += ["--start", start.isoformat(), "--end", end.isoformat(), "--cadence", cadence]
    return flags + list(extra)


def _catalog_csv(rows, max_sigs_text) -> str:
    lines = ["Name,Signature Size,Public Key Size,Max Signatures,Computational Cost"]
    for name, sig, pk, max_sigs, cost in rows:
        lines.append(f"{name},{sig},{pk},{max_sigs_text(max_sigs)},{cost!r}")
    return "\n".join(lines) + "\n"


def _arch_csv(roles) -> str:
    lines = ["Role Name,Role Type,Algorithm,Reserve"]
    for name, role_type, algorithm, reserve in roles:
        lines.append(f"{name},{role_type},{algorithm or ''},{'true' if reserve else ''}")
    return "\n".join(lines) + "\n"


def _events_csv(events) -> str:
    lines = ["Date,Target"]
    for day, target in sorted(events):
        lines.append(f"{day.isoformat()},{target}")
    return "\n".join(lines) + "\n"


def _actions_csv(actions) -> str:
    lines = ["Date,Action,Name,RoleType,Algorithm,Flag"]
    for day, kind, name, role_type, algorithm, flag in actions:
        flag_text = "" if flag is None else ("true" if flag else "false")
        lines.append(
            f"{day.isoformat()},{kind},{name},{role_type or ''},{algorithm or ''},{flag_text}"
        )
    return "\n".join(lines) + "\n"


def _plain_budget(value: int) -> str:
    return "1E18" if value == 10**18 else str(value)


def _scientific(value: int) -> str:
    """`1024` -> `1.024E3`: the catalog's decimal scientific notation."""
    digits = str(value)
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{mantissa}E{len(digits) - 1}"


def _start_date(rng: random.Random) -> date:
    return date(2020, 1, 1) + timedelta(days=rng.randrange(3650))


def quiet_minute(seed: int, tiny: bool = False) -> Scenario:
    """README catalog, default architecture, minute cadence, Poisson 0.1/day.

    Why: almost every tick is idle.  Only the Timestamp signs, and the only
    change points are sparse events and hash-key rollovers (LMS and XMSS
    keys of 1024 signatures roll over about every 17 hours at this
    cadence).  Run time is pure per-tick cost in
    `Repository.publish_timestamp` plus `generate_ticks` and its memory, so
    an event-driven engine or a tick-free timeline shows its full effect
    here.
    """
    rng = random.Random(f"quiet-minute/{seed}")
    days = 2 if tiny else 21
    start = _start_date(rng)
    end = start + timedelta(days=days - 1)
    poisson_seed = rng.randrange(2**32)
    files = {"algorithms.csv": _catalog_csv(README_CATALOG, _plain_budget)}
    return Scenario(
        start=start,
        end=end,
        cadence="minute",
        catalog=list(README_CATALOG),
        roles=list(DEFAULT_ROLES),
        assignments=[row[0] for row in README_CATALOG],
        files=files,
        flags=_flags(files, start, end, "minute",
                     ["--poisson-rate", "0.1", "--seed", str(poisson_seed)]),
        poisson=(0.1, poisson_seed),
    )


def dense_fleet(seed: int, tiny: bool = False) -> Scenario:
    """40 small-budget algorithms over a 31-role fleet, daily for a year.

    Why: nearly every tick is a change point (24 Targets with events at
    ~10%/day each put an event on ~92% of days, and monthly scripts add,
    reserve and remove roles), so skipping quiet stretches has nothing to
    skip: an event-driven engine should show no change here.  Cost is
    per-tick work that grows with role count, so a faster per-tick ledger
    shows, and so does a regression from an event-driven engine.
    """
    rng = random.Random(f"dense-fleet/{seed}")
    n_algs, days = (4, 120) if tiny else (40, 365)
    budgets = [(16, 32, 64, 128, 256, 512, 1024, 10**18)[i % 8] for i in range(n_algs)]
    rng.shuffle(budgets)
    catalog = [
        (f"DF-{i:02d}-{rng.randrange(16**4):04x}", rng.randrange(32, 5000),
         rng.randrange(32, 2000), max_sigs, rng.randrange(1, 1000) / 100)
        for i, max_sigs in enumerate(budgets)
    ]

    roles = [(f"Root {i}", "Root", None, False) for i in (1, 2)]
    roles += [("Root 3", "Root", rng.choice(catalog)[0], False)]
    roles += [(f"Timestamp {i}", "Timestamp", None, False) for i in (1, 2)]
    roles += [(f"Snapshot {i}", "Snapshot", None, False) for i in (1, 2)]
    roles += [(f"Target {i}", "Target", None, i % 5 == 0) for i in range(1, 25)]

    start = _start_date(rng)
    end = start + timedelta(days=days - 1)
    # One scripted action per 30 days, in a seeded order of a fixed mix,
    # plus two Root additions; the amount of work does not depend on the seed.
    months = days // 30 - 1
    kinds = [("add", "reserve", "remove")[i % 3] for i in range(months)]
    rng.shuffle(kinds)
    root_months = set(rng.sample(range(months), 2))
    targets = {f"Target {i}": 0 for i in range(1, 25)}
    live = sorted(targets)
    actions = []
    for month, kind in enumerate(kinds):
        offset = 30 * (month + 1) + rng.randrange(30)
        day = start + timedelta(days=offset)
        if kind == "add":
            name = f"Target {25 + month}"
            pinned = rng.choice(catalog)[0] if rng.random() < 0.3 else None
            actions.append((day, "add", name, "Target", pinned, None))
            targets[name] = offset
            live.append(name)
        elif kind == "reserve":
            actions.append((day, "reserve", rng.choice(live), None, None, rng.random() < 0.5))
        else:
            name = live.pop(rng.randrange(len(live)))
            actions.append((day, "remove", name, None, None, None))
        if month in root_months:
            actions.append((day, "add", f"Root {10 + month}", "Root", None, None))

    # Each Target gets an event on a tenth of its days.  Events keep
    # arriving for removed Targets, which the program reports as warnings;
    # events for added Targets start on their add date.
    events = set()
    for name, first in targets.items():
        for offset in rng.sample(range(first, days), (days - first) // 10):
            events.add((start + timedelta(days=offset), name))

    files = {
        "algorithms.csv": _catalog_csv(catalog, _plain_budget),
        "arch.csv": _arch_csv(roles),
        "events.csv": _events_csv(events),
        "actions.csv": _actions_csv(actions),
    }
    return Scenario(
        start=start,
        end=end,
        cadence="daily",
        catalog=catalog,
        roles=roles,
        assignments=[row[0] for row in catalog],
        files=files,
        flags=_flags(files, start, end, "daily"),
        events=events,
        actions=actions,
    )


def bulk_inputs(seed: int, tiny: bool = False) -> Scenario:
    """One per-role assignment run over a catalog of tens of thousands of rows.

    Why: the work is in parsing and lookup and the simulation is small:
    `parse_algorithm_catalog` dominates, then the linear `find_algorithm`
    scans and `stage_update`.  A single CSV reader, a faster catalog parser
    or an indexed lookup shows here, and so does any parse regression the
    other two workloads hide.
    """
    rng = random.Random(f"bulk-inputs/{seed}")
    n_rows, n_targets, days = (50, 4, 20) if tiny else (60_000, 60, 731)
    catalog = []
    for i in range(n_rows):
        max_sigs = 10**18 if i % 11 == 0 else rng.randrange(16, 2**20)
        catalog.append((
            f"BULK-{i:06d}-{rng.randrange(16**6):06x}",
            rng.randrange(16, 50_000),
            rng.randrange(16, 5_000),
            max_sigs,
            rng.randrange(1, 100_000) / 1000,
        ))

    roles = [("Root 1", "Root", None, False), ("Root 2", "Root", None, False),
             ("Timestamp 1", "Timestamp", None, False),
             ("Snapshot 1", "Snapshot", None, False)]
    roles += [(f"Target {i}", "Target", None, i % 7 == 0) for i in range(1, n_targets + 1)]
    # One catalog row from each equal slice of the catalog, so the total
    # length of the linear name lookups does not depend on the seed.
    rows = [rng.randrange(j * n_rows // len(roles), (j + 1) * n_rows // len(roles))
            for j in range(len(roles))]
    rng.shuffle(rows)
    mapping = {role[0]: catalog[row][0] for role, row in zip(roles, rows)}

    start = _start_date(rng)
    end = start + timedelta(days=days - 1)
    events = set()
    for name, role_type, *_ in roles:
        if role_type == "Target":
            for offset in rng.sample(range(days), days // 10):
                events.add((start + timedelta(days=offset), name))
    for offset in rng.sample(range(days), days // 100 + 1):
        events.add((start + timedelta(days=offset), f"Target {n_targets + 1}"))  # no such role

    assignment_csv = "Role Name,Algorithm\n" + "".join(
        f"{name},{algorithm}\n" for name, algorithm in mapping.items()
    )
    files = {
        "algorithms.csv": _catalog_csv(
            catalog, lambda v: _scientific(v) if v % 2 else str(v)
        ),
        "arch.csv": _arch_csv(roles),
        "events.csv": _events_csv(events),
        "assignment.csv": assignment_csv,
    }
    return Scenario(
        start=start,
        end=end,
        cadence="daily",
        catalog=catalog,
        roles=roles,
        assignments=[mapping],
        files=files,
        flags=_flags(files, start, end, "daily"),
        events=events,
        assignment_label="assignment",
    )


WORKLOADS = {
    "quiet-minute": quiet_minute,
    "dense-fleet": dense_fleet,
    "bulk-inputs": bulk_inputs,
}
