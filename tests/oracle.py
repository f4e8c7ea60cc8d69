"""The reference the engine is checked against, written without its shortcuts.

`reference_tick` advances a repository one tick in four plain phases,
`materialized_ticks` enumerates a calendar's ticks one by one, and
`reference_run` walks every tick of a run through those two.
`first_tick_index` finds a date's first tick in the enumerated ticks by a
scan.  None of them calls the engine's tick, its rollover check, its
quiet-stretch jumps or `Timeline.position`, and each tick scans every role
rather than the engine's lists of the roles that can act, so a fault in
any of them shows up as a difference instead of being shared by both sides.

The oracle manages its own roles and imports no engine class: a
`ReferenceRepository` keeps one plain list of `ReferenceRole` records,
which carry `RoleState`'s field names, and writes out adding (with the
re-key of a same-named role of the same type), removing to `retired`,
reserving, staging and the missing role types as scans of that list, from
the README's rules.  `reference_tick` reads only fields by name, so it
ticks these records and the engine's alike.  `reference_run` prices its
counts by the documented rule in its own code: merged per algorithm, the
cost one `math.fsum`.

`reference_catalog` parses a catalog row by row: header, stripped cells,
then each field's own check, calling none of `tufsim._table` or the
catalog parser's helpers, and reading the whole text, after any leading
byte-order mark, through one `io.StringIO`.  `reference_actions` and
`reference_architecture` read an action file and an architecture table
the same way, each writing out its row checks in order, with their
messages, instead of reading the loaders' kind table or cell reader.
All three walk the header, blank and short rows through `_reference_rows`.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Iterator
from datetime import date, timedelta
from decimal import Decimal, InvalidOperation

from tufsim import (
    ActionKind,
    Architecture,
    Cadence,
    CalendarError,
    Catalog,
    CatalogError,
    ConfigurationError,
    EventCalendar,
    PerRole,
    RoleAction,
    RoleSpec,
    RoleType,
    RunResult,
    SignatureAlgorithm,
    ValidationError,
)

CATALOG_COLUMNS = ("Name", "Signature Size", "Public Key Size", "Max Signatures",
                   "Computational Cost")


class ReferenceRole:
    """One role as a plain record, under `RoleState`'s field names.  A new
    role is pending and flagged for rollover, so it signs, and its key is
    published, on the next tick."""

    def __init__(self, name, role_type, algorithm):
        self.name = name
        self.role_type = role_type
        self.algorithm = algorithm
        self.lifetime_sigs = 0
        self.key_start = 0
        self.key_publications = 0
        self.reserve = False
        self.pending = True
        self.rollover = True


class ReferenceRepository:
    """Roles kept on one plain list, each operation a scan of all of it.

    The public names are the engine's, so a test applies the same
    operation to both sides and compares the same public state.
    """

    def __init__(self, name):
        self.name = name
        self.roles = []
        self.retired = []
        self.rollover_events = 0
        self.root_publications = 0
        self.update_root = True

    def add_role(self, name, role_type, algorithm):
        """A new role publishes a root file, and a current role of the same
        name and type gets a new key with it; a Target among them is due
        to sign again."""
        for role in self.roles:
            if role.name == name and role.role_type is role_type:
                role.rollover = True
                role.pending = True
        added = ReferenceRole(name, role_type, algorithm)
        self.roles.append(added)
        self.update_root = True
        return added

    def remove_role(self, name):
        """Every role of the name leaves for `retired`, counts and all, and
        a root file is published; returns how many left."""
        removed = [role for role in self.roles if role.name == name]
        if removed:
            self.retired += removed
            self.roles = [role for role in self.roles if role.name != name]
            self.update_root = True
        return len(removed)

    def set_reserve(self, name, flag):
        """Set the reserve flag of every role of the name; returns how many."""
        matched = [role for role in self.roles if role.name == name]
        for role in matched:
            role.reserve = flag
        return len(matched)

    def stage_update(self, name):
        """Mark every Target of the name pending; returns how many."""
        targets = [role for role in self.roles
                   if role.name == name and role.role_type is RoleType.TARGET]
        for role in targets:
            role.pending = True
        return len(targets)

    def missing_role_types(self):
        """The role types that no current role has, in enum order."""
        present = {role.role_type for role in self.roles}
        return [role_type for role_type in RoleType if role_type not in present]


def reference_prices(roles):
    """(signature bytes, public-key bytes, cost, signatures) of the roles'
    counts: merged per algorithm first, the cost one `math.fsum` of a
    product per algorithm."""
    merged = {}
    for role in roles:
        sigs, keys = merged.get(role.algorithm, (0, 0))
        merged[role.algorithm] = (sigs + role.lifetime_sigs, keys + role.key_publications)
    return (
        sum(sigs * algorithm.sig_size for algorithm, (sigs, _) in merged.items()),
        sum(keys * algorithm.pk_size for algorithm, (_, keys) in merged.items()),
        math.fsum(sigs * algorithm.cost for algorithm, (sigs, _) in merged.items()),
        sum(sigs for sigs, _ in merged.values()),
    )


def reference_tick(repo) -> None:
    """One tick in four phases: the rollover check and root file over every
    role, the Targets, then the Timestamps and Snapshots, then every
    collected signer signs.  It reads and writes fields by name, so it
    ticks a `ReferenceRepository` or a copy of the engine's repository."""
    rolled = 0
    for role in repo.roles:
        used = role.lifetime_sigs - role.key_start
        if role.rollover or (used == role.algorithm.max_sigs and role.pending):
            role.rollover = True
            role.key_start = role.lifetime_sigs
            rolled += 1
    repo.rollover_events += rolled
    signers = []
    if rolled or repo.update_root:
        for role in repo.roles:
            role.key_publications += 1
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


def first_tick_index(ticks, day):
    """Linear-scan oracle for `Timeline.position` over (date, sub) pairs."""
    return next((i for i, (tick_day, _) in enumerate(ticks) if tick_day == day), None)


def reference_run(arch, assignment, calendar, timeline, catalog) -> RunResult:
    """Reference run: walk every tick of a `ReferenceRepository`, act on
    each date's first tick, and price the counts with `reference_prices`.

    Names resolve against the catalog directly: a pin first, then the
    Uniform algorithm or the PerRole row of the role's name.  A PerRole
    row that no role takes is warned about first.  A date that no tick
    carries gets its dropped-item warnings in date order, found from the
    ticks themselves rather than `Timeline.position`.  The result carries
    each role spec's and each add action's final counts, (0, 0) for an
    add that never ran.
    """
    algorithms = {alg.name: alg for alg in catalog}

    def algorithm(pinned, name):
        if pinned:
            return algorithms[pinned]
        if isinstance(assignment, PerRole):
            return algorithms[assignment.algorithms[name]]
        return algorithms[assignment.algorithm_name]

    repo = ReferenceRepository(arch.device_name)
    for spec in arch.role_specs:
        repo.add_role(spec.name, spec.role_type, algorithm(spec.algorithm_name, spec.name))
        repo.roles[-1].reserve = spec.reserve
    spec_states = list(repo.roles)
    adds = [i for i, a in enumerate(calendar.role_actions) if a.kind is ActionKind.ADD]
    added = {}  # position in role_actions -> the role that add created
    warnings = []
    if isinstance(assignment, PerRole):
        pins = [(spec.name, spec.algorithm_name) for spec in arch.role_specs]
        pins += [(calendar.role_actions[i].name, calendar.role_actions[i].algorithm_name) for i in adds]
        for row in assignment.algorithms:
            pinned = [pin for name, pin in pins if name == row]
            if not pinned:
                warnings.append(
                    f"assignment row for '{row}' names no role of the architecture or an add action"
                )
            elif all(pinned):
                distinct = list(dict.fromkeys(pinned))
                warnings.append(
                    f"assignment row for '{row}' is overridden by its pinned algorithm"
                    + ("s " if len(distinct) > 1 else " ")
                    + ", ".join(f"'{pin}'" for pin in distinct)
                )
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
            actions = [(i, a) for i, a in enumerate(calendar.role_actions) if a.date == day]
            for position, action in actions:
                if action.kind is ActionKind.ADD:
                    repo.add_role(
                        action.name, action.role_type, algorithm(action.algorithm_name, action.name)
                    )
                    added[position] = repo.roles[-1]
                    matched = 1
                elif action.kind is ActionKind.REMOVE:
                    matched = repo.remove_role(action.name)
                else:
                    matched = repo.set_reserve(action.name, action.flag)
                if not matched:
                    warnings.append(
                        f"{day}: {action.kind.value} action for '{action.name}' matched no role"
                    )
            missing = [t.value for t in repo.missing_role_types()]
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
    sig_bytes, pk_bytes, cost, signatures = reference_prices(repo.roles + repo.retired)
    states = spec_states + [added.get(i) for i in adds]
    return RunResult(
        arch.device_name, assignment.label, sig_bytes, pk_bytes, cost,
        signatures, repo.rollover_events, repo.root_publications, tuple(warnings),
        tuple((s.lifetime_sigs, s.key_publications) if s else (0, 0) for s in states),
    )


def reference_catalog(text: str) -> Catalog:
    """A catalog parsed one stripped row at a time, each field by its own
    check, raising the first failure's error; a record csv cannot read is
    a `CatalogError` naming its line.  One leading byte-order mark is
    dropped first."""
    entries: dict[str, SignatureAlgorithm] = {}
    for lineno, cells in _reference_rows(text, "catalog", CatalogError, CATALOG_COLUMNS):
        name, sig_size, pk_size, max_sigs, cost = cells
        if not name:
            raise CatalogError(f"row {lineno}: algorithm name is empty")
        if name in entries:
            raise CatalogError(f"row {lineno}: duplicate algorithm name '{name}'")
        fields = (
            _reference_number(int, sig_size, "Signature Size", "an integer", lineno),
            _reference_number(int, pk_size, "Public Key Size", "an integer", lineno),
            _reference_budget(max_sigs, lineno),
            _reference_number(float, cost, "Computational Cost", "a number", lineno),
        )
        checks = (
            (fields[0] >= 0, "sig_size must be >= 0"),
            (fields[1] >= 0, "pk_size must be >= 0"),
            (fields[2] >= 1, "max_sigs must be >= 1"),
            (0.0 <= fields[3] < math.inf, "cost must be finite and >= 0"),
        )
        for ok, problem in checks:
            if not ok:
                raise ValidationError(f"row {lineno}: {name}: {problem}")
        entries[name] = SignatureAlgorithm(name, *fields)
    return Catalog(entries.values())


def _reference_number(kind, text, column, expected, lineno):
    try:
        return kind(text)
    except ValueError:
        raise CatalogError(f"row {lineno}: '{column}' value {text!r} is not {expected}") from None


def _reference_budget(text: str, lineno: int) -> int:
    """`Max Signatures` as a `Decimal`, truncated, checked against 2**63."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():
        raise CatalogError(f"row {lineno}: 'Max Signatures' value {text!r} is not numeric")
    if value >= 2**63:
        raise CatalogError(f"row {lineno}: 'Max Signatures' value {text!r} exceeds 2**63 - 1")
    return 0 if value.is_signed() else int(value)


def reference_actions(text: str) -> EventCalendar:
    """An action file read row by row: the date, the action, the name, the
    cells the action must leave empty, then the cells it reads."""
    actions = []
    columns = ("Date", "Action", "Name", "RoleType", "Algorithm", "Flag")
    for lineno, cells in _reference_rows(text, "action file", CalendarError, columns):
        day_text, kind_text, name, type_text, algorithm, flag_text = cells
        if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", day_text):
            raise CalendarError(f"row {lineno}: invalid date {day_text!r}")
        try:
            day = date(int(day_text[:4]), int(day_text[5:7]), int(day_text[8:]))
        except ValueError:
            raise CalendarError(f"row {lineno}: invalid date {day_text!r}") from None
        kind_text = kind_text.lower()
        if kind_text not in ("add", "remove", "reserve"):
            raise CalendarError(
                f"row {lineno}: unknown action {kind_text!r}; expected add, remove or reserve"
            )
        if not name:
            raise CalendarError(f"row {lineno}: action is missing a role name")
        unread = {
            "add": [("Flag", flag_text)],
            "remove": [("RoleType", type_text), ("Algorithm", algorithm), ("Flag", flag_text)],
            "reserve": [("RoleType", type_text), ("Algorithm", algorithm)],
        }[kind_text]
        for column, cell in unread:
            if cell:
                raise CalendarError(
                    f"row {lineno}: {kind_text} action takes no {column}, got {cell!r}"
                )
        if kind_text == "add":
            role_type = _reference_role_type(type_text)
            if role_type is None:
                raise CalendarError(f"row {lineno}: unknown role type {type_text!r}")
            actions.append(RoleAction(day, ActionKind.ADD, name, role_type, algorithm or None))
        elif kind_text == "reserve":
            if flag_text.lower() not in ("true", "false"):
                raise CalendarError(f"row {lineno}: reserve action needs Flag true or false")
            flag = flag_text.lower() == "true"
            actions.append(RoleAction(day, ActionKind.RESERVE, name, flag=flag))
        else:
            actions.append(RoleAction(day, ActionKind.REMOVE, name))
    return EventCalendar(role_actions=actions)


def reference_architecture(text: str, device_name: str) -> Architecture:
    """An architecture table read row by row: the name, the role type,
    then Reserve, which reads empty as false."""
    specs = []
    columns = ("Role Name", "Role Type", "Algorithm", "Reserve")
    for lineno, cells in _reference_rows(text, "architecture file", ConfigurationError, columns):
        name, type_text, algorithm, reserve_text = cells
        if not name:
            raise ConfigurationError(f"row {lineno}: role name is empty")
        role_type = _reference_role_type(type_text)
        if role_type is None:
            raise ConfigurationError(f"row {lineno}: unknown role type {type_text!r}")
        reserve_text = reserve_text.lower()
        if reserve_text not in ("", "false", "true"):
            raise ConfigurationError(
                f"row {lineno}: Reserve must be true or false, got {reserve_text!r}"
            )
        specs.append(RoleSpec(name, role_type, algorithm or None, reserve_text == "true"))
    return Architecture(device_name, specs)


def _reference_role_type(text: str) -> RoleType | None:
    """The role type whose value is exactly `text`, or None."""
    for role_type in RoleType:
        if role_type.value == text:
            return role_type
    return None


def _reference_rows(text, what, error, columns):
    """Yield `(row number, stripped cells)` for each data row that has a
    non-blank cell, the cells in the order of `columns`; the text after
    one leading byte-order mark is read through one `io.StringIO`."""
    rows = csv.reader(io.StringIO(text[1:] if text.startswith("\ufeff") else text))
    try:
        header = next(rows, None)
        if header is None:
            raise error(f"{what} is empty; expected a header row")
        header = [cell.strip() for cell in header]
        for column in columns:
            if column not in header:
                raise error(f"{what} is missing the '{column}' column")
        for column in columns:
            if header.count(column) > 1:
                raise error(f"{what} names the '{column}' column twice")
        positions = [header.index(column) for column in columns]
        for lineno, row in enumerate(rows, start=2):
            if "".join(row).strip():
                yield lineno, [row[i].strip() if i < len(row) else "" for i in positions]
    except csv.Error as exc:
        raise error(f"{what} line {rows.line_num}: {exc}") from None
