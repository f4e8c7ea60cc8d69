"""The reference the engine is checked against, written without its shortcuts.

`reference_tick` advances a repository one tick in four plain phases,
`materialized_ticks` enumerates a calendar's ticks one by one, and
`reference_run` walks every tick of a run through those two.  None of them
calls the engine's one-pass tick, its quiet-stretch jumps or
`Timeline.position`, so a fault in any of them shows up as a difference
instead of being shared by both sides.
"""

from __future__ import annotations

from collections.abc import Iterator
from datetime import date, timedelta

from tufsim import ActionKind, Cadence, Repository, RoleType, RunResult


def reference_tick(repo: Repository) -> None:
    """One tick in four phases: the root file, the Targets, then the
    Timestamps and Snapshots, then every collected signer signs."""
    signers = []
    if repo.rollover_check() > 0 or repo.update_root:
        for role in repo.roles:
            repo.accum_pk_size += role.algorithm.pk_size
            if role.role_type is RoleType.ROOT:
                signers.append(role)
            role.rollover = False
        repo.update_root = False
        repo.root_publications += 1

    updated = False
    for role in repo.roles:
        if role.role_type is RoleType.TARGET and role.pending and not role.reserve:
            signers.append(role)
            role.pending = False
            updated = True

    for role in repo.roles:
        if not role.reserve and (
            role.role_type is RoleType.TIMESTAMP
            or (updated and role.role_type is RoleType.SNAPSHOT)
        ):
            signers.append(role)

    for role in signers:
        role.num_sigs += 1
        role.lifetime_sigs += 1


def materialized_ticks(start: date, end: date, cadence: Cadence) -> Iterator[tuple[date, int]]:
    """Every tick of the calendar as a (date, position within the date) pair,
    one at a time: weekly steps 7 days from `start`, the others take every
    date with `cadence.sub_ticks` ticks each."""
    if cadence is Cadence.WEEKLY:
        day = start
        while day <= end:
            yield day, 0
            day += timedelta(days=7)
        return
    for offset in range((end - start).days + 1):
        day = start + timedelta(days=offset)
        for sub in range(cadence.sub_ticks):
            yield day, sub


def reference_run(arch, assignment, calendar, timeline, catalog) -> RunResult:
    """Reference run: walk every tick, act on each date's first tick.

    Takes a Uniform assignment; names resolve against the catalog directly.
    A date that no tick carries gets its dropped-item warnings in date
    order, found from the ticks themselves rather than `Timeline.position`.
    """
    algorithms = {alg.name: alg for alg in catalog}

    def algorithm(pinned):
        return algorithms[pinned or assignment.algorithm_name]

    repo = Repository(arch.device_name)
    for spec in arch.role_specs:
        repo.add_role(spec.name, spec.role_type, algorithm(spec.algorithm_name))
        repo.roles[-1].reserve = spec.reserve
    warnings = []
    ticks = list(materialized_ticks(timeline.start, timeline.end, timeline.cadence))
    item_dates = {day for day, _ in calendar.update_events} | {a.date for a in calendar.role_actions}
    dropped = sorted(item_dates - {day for day, _ in ticks})

    def warn_dropped(before):
        while dropped and (before is None or dropped[0] < before):
            day = dropped.pop(0)
            items = [f"{a.kind.value} action for '{a.name}'"
                     for a in calendar.role_actions if a.date == day]
            items += [f"update event for '{target}'"
                      for event_day, target in sorted(calendar.update_events) if event_day == day]
            warnings.extend(f"{day}: {item} falls on no tick and was not applied" for item in items)

    for day, sub in ticks:
        if sub == 0:
            warn_dropped(day)
            actions = [a for a in calendar.role_actions if a.date == day]
            for action in actions:
                if action.kind is ActionKind.ADD:
                    repo.add_role(action.name, action.role_type, algorithm(action.algorithm_name))
                    matched = 1
                elif action.kind is ActionKind.REMOVE:
                    matched = repo.remove_role(action.name)
                else:
                    matched = repo.set_reserve(action.name, action.flag)
                if not matched:
                    warnings.append(
                        f"{day}: {action.kind.value} action for '{action.name}' matched no role"
                    )
            missing = [t.value for t in RoleType if t not in {r.role_type for r in repo.roles}]
            if actions and missing:
                warnings.append(
                    f"{day.isoformat()}: no {', '.join(missing)} role remains after scripted actions"
                )
            for event_day, target in sorted(calendar.update_events):
                if event_day == day and repo.stage_update(target) == 0:
                    warnings.append(
                        f"{day.isoformat()}: update event for '{target}' matched no Target role"
                    )
        reference_tick(repo)
    warn_dropped(None)
    t = repo.ledger_totals()
    return RunResult(
        arch.device_name, assignment.label, t.sig_bytes, t.pk_bytes, t.cost,
        t.signatures, t.rollover_events, t.root_publications, tuple(warnings),
    )
