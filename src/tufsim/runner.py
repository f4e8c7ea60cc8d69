"""Assemble and execute simulation runs, and render the comparison report.

A run's slots are the architecture's role specs, then the calendar's add
actions, by position, so two identical add rows are two slots.  An
algorithm changes a run only through its slot's key budget (`max_sigs`),
and only up to `len(ticks)`: a role signs at most once per tick, so a
larger budget never runs out.  So `run_sweep`, the one path from an
assignment to a report row, compiles its inputs once into a `Script`,
resolves each assignment to one algorithm per slot, calls `run_scenario`
once per distinct vector of effective budgets `min(max_sigs, len(ticks))`,
and prices each assignment from that run's per-slot counts with
`repository.price_counts`, the one pricing function: bytes are exact and
the cost is one `math.fsum`, so no total depends on the order of signing.

`run_scenario(script, algorithms)` only counts.  It replays the script's
change points against a fresh repository and advances it between them
with `Repository.publish_timestamps`, so its cost grows with the number
of change points, not the number of ticks.  Each replay still makes the
warnings that depend on which roles exist, and `Simulation` keeps its
totals: the benchmark's tracer reads both from every `run_scenario` result.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import date
from typing import NamedTuple

from ._table import read_table
from .algorithms import Catalog, SignatureAlgorithm, find_algorithm
from .errors import AlgorithmNotFoundError, ConfigurationError
from .repository import Repository, RoleState, RoleType, price_counts
from .schedule import ActionKind, EventCalendar, RoleAction, Timeline

REPORT_COLUMNS = (
    "Device", "Assignment", "Signature Bytes", "Public Key Bytes", "Total Bytes",
    "Verification Cost", "Total Signatures", "Rollover Events", "Root Publications",
)


@dataclass(frozen=True)
class RoleSpec:
    """One role instance in an architecture.

    algorithm_name None means the run's assignment supplies the algorithm.
    """

    name: str
    role_type: RoleType
    algorithm_name: str | None = None
    reserve: bool = False


@dataclass(frozen=True)
class Architecture:
    """A device's signing layout: its name plus an ordered list of roles.

    Construction requires at least one instance of each of the four role
    types; scripted actions may still drop below that mid-run, which is
    reported as a warning rather than an error.
    """

    device_name: str
    role_specs: tuple[RoleSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "role_specs", tuple(self.role_specs))
        present = {spec.role_type for spec in self.role_specs}
        missing = [t.value for t in RoleType if t not in present]
        if missing:
            raise ConfigurationError(
                f"architecture '{self.device_name}' has no {', '.join(missing)} role"
            )


def default_architecture(device_name: str = "Device_A") -> Architecture:
    """One instance of each role, algorithms left to the assignment."""
    return Architecture(device_name, (
        RoleSpec("Root 1", RoleType.ROOT), RoleSpec("Timestamp 1", RoleType.TIMESTAMP),
        RoleSpec("Snapshot 1", RoleType.SNAPSHOT), RoleSpec("Target 1", RoleType.TARGET),
    ))


@dataclass(frozen=True)
class Uniform:
    """Assign one algorithm to every role that does not pin its own."""

    algorithm_name: str

    @property
    def label(self) -> str:
        return self.algorithm_name


@dataclass(frozen=True)
class PerRole:
    """Assign algorithms per role name; roles with a pinned algorithm keep it."""

    algorithms: dict[str, str]
    label: str = "per-role"


AlgorithmAssignment = Uniform | PerRole


@dataclass(frozen=True)
class RunResult:
    """Priced ledger of one (architecture, assignment, scenario) run.

    slot_counts holds each slot's (lifetime signatures, key publications)
    in slot order; an add action on a date without a tick counts (0, 0).
    Equality leaves it out: it compares the priced ledger and warnings.
    """

    device_name: str
    assignment: str
    sig_bytes: int
    pk_bytes: int
    cost: float
    total_signatures: int
    rollover_events: int
    root_publications: int
    warnings: tuple[str, ...] = ()
    slot_counts: tuple[tuple[int, int], ...] = field(default=(), compare=False)

    @property
    def total_bytes(self) -> int:
        return self.sig_bytes + self.pk_bytes


class Simulation(NamedTuple):
    """What one engine run counts, before any pricing.

    slot_counts is as in `RunResult`; warnings are only those that depend
    on names and dates.
    """

    slot_counts: tuple[tuple[int, int], ...]
    total_signatures: int
    rollover_events: int
    root_publications: int
    warnings: tuple[str, ...]


class ChangePoint(NamedTuple):
    """One calendar date of a `Script`: its first tick, its actions, each
    with its slot (-1 unless it adds a role), and its update events' Target
    names.  On a date without a tick (tick None) nothing applies, and
    `dropped` holds one warning per action and event."""

    day: date
    tick: int | None
    actions: tuple[tuple[int, RoleAction], ...]
    targets: tuple[str, ...]
    dropped: tuple[str, ...] = ()


class Script(NamedTuple):
    """What every run of a sweep replays: the initial roles, each slot's
    (name, pinned algorithm), the tick count and the change points in date
    order."""

    device_name: str
    role_specs: tuple[RoleSpec, ...]
    slots: tuple[tuple[str, str | None], ...]
    ticks: int
    points: tuple[ChangePoint, ...]


def compile_script(arch: Architecture, calendar: EventCalendar, ticks: Timeline) -> Script:
    """Compile a run's inputs once; `Timeline.position` places each date."""
    slots = [(spec.name, spec.algorithm_name) for spec in arch.role_specs]
    actions: dict[date, list[tuple[int, RoleAction]]] = {}
    for action in calendar.role_actions:
        slot = -1
        if action.kind is ActionKind.ADD:
            slot = len(slots)
            slots.append((action.name, action.algorithm_name))
        actions.setdefault(action.date, []).append((slot, action))
    targets: dict[date, list[str]] = {}
    for day, target in sorted(calendar.update_events):
        targets.setdefault(day, []).append(target)
    points = []  # popping frees each date's list once its tuple exists
    for day in sorted(actions.keys() | targets.keys()):
        point = ChangePoint(day, ticks.position(day), tuple(actions.pop(day, ())),
                            tuple(targets.pop(day, ())))
        if point.tick is None:
            items = [f"{a.kind.value} action for '{a.name}'" for _, a in point.actions]
            items += [f"update event for '{target}'" for target in point.targets]
            point = point._replace(dropped=tuple(
                f"{day}: {item} falls on no tick and was not applied" for item in items))
        points.append(point)
    return Script(arch.device_name, arch.role_specs, tuple(slots), len(ticks), tuple(points))


def run_scenario(script: Script, algorithms: Sequence[SignatureAlgorithm]) -> Simulation:
    """Replay the script with one resolved algorithm per slot and count.

    A date's events and actions apply on its first tick.  Inputs that
    cannot take effect become warnings, not errors: an event or action on
    a date without a tick, and an update event, remove or reserve that
    matches no role.
    """
    repo = Repository(script.device_name)
    for spec, algorithm in zip(script.role_specs, algorithms):
        repo.add_role(spec.name, spec.role_type, algorithm)
        repo.roles[-1].reserve = spec.reserve
    states: list[RoleState | None] = [*repo.roles]
    states += [None] * (len(script.slots) - len(states))

    warnings: list[str] = []
    published = 0
    for point in script.points:
        if point.tick is None:
            warnings += point.dropped
            continue
        repo.publish_timestamps(point.tick - published)
        published = point.tick
        if point.actions:
            for slot, action in point.actions:
                if action.kind is ActionKind.ADD:
                    repo.add_role(action.name, action.role_type, algorithms[slot])
                    states[slot] = repo.roles[-1]
                elif not _apply_action(repo, action):
                    warnings.append(f"{point.day}: {action.kind.value} action for "
                                    f"'{action.name}' matched no role")
            _check_role_coverage(repo, point.day, warnings)
        for target in point.targets:
            if repo.stage_update(target) == 0:
                warnings.append(f"{point.day}: update event for '{target}' matched no Target role")
    repo.publish_timestamps(script.ticks - published)

    slot_counts = tuple(
        (state.lifetime_sigs, state.key_publications) if state else (0, 0) for state in states
    )
    return Simulation(
        slot_counts=slot_counts,
        total_signatures=sum(sigs for sigs, _ in slot_counts),
        rollover_events=repo.rollover_events,
        root_publications=repo.root_publications,
        warnings=tuple(warnings),
    )


def run_sweep(
    arch: Architecture,
    assignments: list[AlgorithmAssignment],
    calendar: EventCalendar,
    ticks: Timeline,
    catalog: Catalog,
) -> list[RunResult]:
    """Run each assignment and return its priced result, in input order.

    The inputs compile once into a `Script`.  All algorithm names — from
    role specs, the assignments, and scripted add actions — resolve
    against the catalog first, one algorithm per slot and one lookup per
    distinct name, so a bad name fails before anything runs.  Then `run_scenario` runs once per distinct
    vector of effective slot budgets, the first time an assignment has it,
    and each assignment is priced from that run's `slot_counts` with its
    own algorithms, which gives exactly what a run of its own would.  An
    assignment's warnings are those on its own rows first — a per-role row
    naming no role of the architecture or of an add action, and a row
    whose every role pins its algorithm — then the run's.
    """
    if not assignments:
        raise ConfigurationError("at least one algorithm assignment is required")
    script = compile_script(arch, calendar, ticks)
    found: dict[str, SignatureAlgorithm] = {}
    resolved = [_resolve(script.slots, assignment, catalog, found) for assignment in assignments]
    runs: dict[tuple[int, ...], Simulation] = {}
    results = []
    for assignment, algorithms in zip(assignments, resolved):
        # a role signs at most once per tick, so a budget of len(ticks) or
        # more never runs out: it behaves as any other such budget
        budgets = tuple(min(alg.max_sigs, script.ticks) for alg in algorithms)
        run = runs.get(budgets)
        if run is None:
            run = runs[budgets] = run_scenario(script, algorithms)
        sig_bytes, pk_bytes, cost, signatures = price_counts(
            (alg, sigs, keys) for alg, (sigs, keys) in zip(algorithms, run.slot_counts)
        )
        results.append(
            RunResult(
                device_name=arch.device_name,
                assignment=assignment.label,
                sig_bytes=sig_bytes,
                pk_bytes=pk_bytes,
                cost=cost,
                total_signatures=signatures,
                rollover_events=run.rollover_events,
                root_publications=run.root_publications,
                warnings=tuple(_assignment_warnings(script.slots, assignment)) + run.warnings,
                slot_counts=run.slot_counts,
            )
        )
    return results


def emit_report_csv(results: list[RunResult]) -> str:
    """Render results as the comparison CSV, one row per run in order.

    Byte and count columns are plain integers; verification cost carries
    six decimal places.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for result in results:
        writer.writerow([
            result.device_name, result.assignment, result.sig_bytes, result.pk_bytes,
            result.total_bytes, f"{result.cost:.6f}", result.total_signatures,
            result.rollover_events, result.root_publications,
        ])
    return out.getvalue()


def parse_architecture_csv(csv_text: str, device_name: str = "Device_A") -> Architecture:
    """Parse an architecture table: `Role Name,Role Type,Algorithm,Reserve`.

    An empty Algorithm cell defers to the run's assignment; an empty
    Reserve cell means false.
    """
    specs: list[RoleSpec] = []
    for lineno, (name, type_text, algorithm, reserve_text) in read_table(
        csv_text,
        "architecture file",
        ConfigurationError,
        ("Role Name", "Role Type", "Algorithm", "Reserve"),
    ):
        if not name:
            raise ConfigurationError(f"row {lineno}: role name is empty")
        try:
            role_type = RoleType(type_text)
        except ValueError:
            raise ConfigurationError(
                f"row {lineno}: unknown role type {type_text!r}"
            ) from None
        reserve_text = reserve_text.lower()
        if reserve_text in ("", "false"):
            reserve = False
        elif reserve_text == "true":
            reserve = True
        else:
            raise ConfigurationError(
                f"row {lineno}: Reserve must be true or false, got {reserve_text!r}"
            )
        specs.append(RoleSpec(name, role_type, algorithm or None, reserve))
    return Architecture(device_name=device_name, role_specs=tuple(specs))


def parse_assignment_csv(csv_text: str, label: str = "per-role") -> PerRole:
    """Parse a per-role assignment table: `Role Name,Algorithm`."""
    algorithms: dict[str, str] = {}
    for lineno, (name, algorithm) in read_table(
        csv_text, "assignment file", ConfigurationError, ("Role Name", "Algorithm")
    ):
        if not name or not algorithm:
            raise ConfigurationError(
                f"row {lineno}: assignment rows need both a role name and an algorithm"
            )
        if name in algorithms:
            raise ConfigurationError(f"row {lineno}: duplicate role name '{name}'")
        algorithms[name] = algorithm
    return PerRole(algorithms=algorithms, label=label)


def _assignment_warnings(
    slots: Sequence[tuple[str, str | None]], assignment: AlgorithmAssignment
) -> list[str]:
    """One warning per per-role row that cannot take effect: it names no
    slot, or every slot it names pins its own algorithm."""
    if not isinstance(assignment, PerRole):
        return []
    pins: dict[str, list[str | None]] = {}
    for name, pinned in slots:
        pins.setdefault(name, []).append(pinned)
    warnings = []
    for name in assignment.algorithms:
        pinned = pins.get(name)
        if pinned is None:
            warnings.append(
                f"assignment row for '{name}' names no role of the architecture or an add action"
            )
        elif None not in pinned:
            algorithms = [f"'{algorithm}'" for algorithm in dict.fromkeys(pinned)]
            warnings.append(
                f"assignment row for '{name}' is overridden by its pinned "
                f"algorithm{'s' if len(algorithms) > 1 else ''} {', '.join(algorithms)}"
            )
    return warnings


def _resolve(
    slots: Sequence[tuple[str, str | None]],
    assignment: AlgorithmAssignment,
    catalog: Catalog,
    found: dict[str, SignatureAlgorithm],
) -> list[SignatureAlgorithm]:
    """Each slot's algorithm: its pin, else the assignment's choice.  Each
    name is looked up in the catalog once and kept in `found`."""
    algorithms = []
    for role_name, pinned in slots:
        if pinned is not None:
            name = pinned
        elif isinstance(assignment, Uniform):
            name = assignment.algorithm_name
        else:
            mapped = assignment.algorithms.get(role_name)
            if mapped is None:
                raise ConfigurationError(
                    f"assignment does not name an algorithm for role '{role_name}'"
                )
            name = mapped
        algorithm = found.get(name)
        if algorithm is None:
            try:
                algorithm = found[name] = find_algorithm(name, catalog)
            except AlgorithmNotFoundError:
                raise ConfigurationError(
                    f"role '{role_name}': algorithm '{name}' is not in the catalog"
                ) from None
        algorithms.append(algorithm)
    return algorithms


def _apply_action(repo: Repository, action: RoleAction) -> bool:
    """Apply a remove or reserve action; False when it matched no role."""
    if action.kind is ActionKind.REMOVE:
        return repo.remove_role(action.name) > 0
    return repo.set_reserve(action.name, bool(action.flag)) > 0


def _check_role_coverage(repo: Repository, day: date, warnings: list[str]) -> None:
    missing = repo.missing_role_types()
    if missing:
        warnings.append(
            f"{day}: no {', '.join(t.value for t in missing)} role remains after scripted actions"
        )
