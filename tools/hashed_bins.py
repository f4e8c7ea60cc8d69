"""Time one in-process sweep over a fleet of 16,384 hashed Target bins.

The fleet has the shape of PEP 458's hashed-bin delegation: a Root, a
Timestamp, a Snapshot and a `targets` role, plus 16,384 Target bins.  The
calendar is hourly over 2020 with 2,000 seeded bin updates, and the
catalog holds 12 entries with 64-byte signatures and 32-byte public keys
that differ only in their budget, 32 to 65,536.  The sweep runs once
without role actions and once with 60 seeded ones (bins added, reserved
and removed), and for each the best of 3 wall times is printed with the
first 16 hex digits of the SHA-256 of the report and its warnings, so a
change of either shows.  The inputs are built in memory, so only
`run_sweep` and `emit_report_csv` are timed.  Run as
`PYTHONPATH=src python tools/hashed_bins.py`.
"""

import hashlib
import random
import time
from datetime import date, timedelta

from tufsim import (
    ActionKind,
    Architecture,
    Cadence,
    Catalog,
    EventCalendar,
    RoleAction,
    RoleSpec,
    RoleType,
    SignatureAlgorithm,
    Uniform,
    emit_report_csv,
    generate_ticks,
    run_sweep,
)

BINS = 16_384
UPDATES = 2_000
ACTIONS = 60
REPEATS = 3
START, END = date(2020, 1, 1), date(2020, 12, 31)


def fleet() -> Architecture:
    specs = [RoleSpec(f"{t.value} 1", t) for t in (RoleType.ROOT, RoleType.TIMESTAMP,
                                                  RoleType.SNAPSHOT)]
    specs.append(RoleSpec("targets", RoleType.TARGET))
    specs += [RoleSpec(f"bin-{i}", RoleType.TARGET) for i in range(BINS)]
    return Architecture("hashed-bins", tuple(specs))


def calendar(actions: int) -> EventCalendar:
    """2,000 bin updates and `actions` role actions, each on a seeded day;
    the actions take turns to add a bin (a name taken or new), reserve or
    release one, and remove one."""
    rng = random.Random(2020)
    days = (END - START).days + 1

    def day() -> date:
        return START + timedelta(days=rng.randrange(days))

    def name() -> str:  # one in nine names no bin of the fleet
        return f"bin-{rng.randrange(BINS + BINS // 8)}"

    updates = {(day(), f"bin-{rng.randrange(BINS)}") for _ in range(UPDATES)}
    script = []
    for i in range(actions):
        if i % 3 == 0:
            script.append(RoleAction(day(), ActionKind.ADD, name(), RoleType.TARGET))
        elif i % 3 == 1:
            script.append(RoleAction(day(), ActionKind.RESERVE, name(), flag=rng.random() < 0.5))
        else:
            script.append(RoleAction(day(), ActionKind.REMOVE, name()))
    return EventCalendar(update_events=updates, role_actions=tuple(script))


def main() -> None:
    arch = fleet()
    timeline = generate_ticks(START, END, Cadence.HOURLY)
    catalog = Catalog([SignatureAlgorithm(f"Alg-{2**k}", 64, 32, 2**k, 1.0) for k in range(5, 17)])
    assignments = [Uniform(algorithm.name) for algorithm in catalog]
    for actions in (0, ACTIONS):
        events = calendar(actions)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            results = run_sweep(arch, assignments, events, timeline, catalog)
            report = emit_report_csv(results)
            times.append(time.perf_counter() - start)
        warnings = "".join(line + "\n" for result in results for line in result.warnings)
        digest = hashlib.sha256((report + warnings).encode("utf-8")).hexdigest()[:16]
        print(f"{BINS} bins, {len(catalog)} budgets, {actions} role actions: "
              f"best of {REPEATS} {min(times):.3f} s, report sha256 {digest}")


if __name__ == "__main__":
    main()
