"""Assemble and execute simulation runs, and render the comparison report.

A run's slots are the architecture's role specs, then the calendar's add
actions, by position, so two identical add rows are two slots.  An
algorithm changes a run only through its slot's key budget (`max_sigs`),
and only up to `len(ticks)`: a role signs at most once per tick, so a
larger budget never runs out.  So `run_sweep`, the one path from an
assignment to a report row, compiles its inputs once into a `Script`,
resolves each assignment in one pass to one algorithm per slot and a
warning per per-role row that no slot took, calls `run_scenario`
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

Every record here is a `typing.NamedTuple`.  `Architecture` checks its
roles in every constructor, `_make` and `_replace` included, and
`RunResult` leaves `slot_counts` out of its equality and hash.
"""

# No `from __future__ import annotations`: typing.NamedTuple compiles every
# postponed (string) field annotation when its class is made, at import.

import csv
import io
from collections.abc import Iterable, Sequence
from datetime import date
from typing import NamedTuple

from ._record import Checked
from ._table import Table, parse_bool, read_cell
from .algorithms import Catalog, SignatureAlgorithm
from .errors import ConfigurationError
from .repository import Repository, RoleState, RoleType, price_counts
from .schedule import ActionKind, EventCalendar, RoleAction, Timeline

REPORT_COLUMNS = (
    "Device", "Assignment", "Signature Bytes", "Public Key Bytes", "Total Bytes",
    "Verification Cost", "Total Signatures", "Rollover Events", "Root Publications",
)


class RoleSpec(NamedTuple):
    """One role instance in an architecture.

    algorithm_name None means the run's assignment supplies the algorithm.
    """

    name: str
    role_type: RoleType
    algorithm_name: str | None = None
    reserve: bool = False


class _ArchitectureFields(NamedTuple):
    device_name: str
    role_specs: tuple[RoleSpec, ...]


class Architecture(Checked, _ArchitectureFields):
    """A device's signing layout: its name plus an ordered list of roles.

    Construction, `_make` and `_replace` store the role specs as a tuple,
    require each spec's role_type to be a `RoleType` and its reserve a
    `bool`, and require at least one instance of each of the four role
    types; scripted actions may still drop below that mid-run, which is
    reported as a warning rather than an error.
    """

    __slots__ = ()

    def __new__(cls, device_name: str, role_specs: Iterable[RoleSpec]) -> "Architecture":
        role_specs = tuple(role_specs)
        for spec in role_specs:
            if not (isinstance(spec.role_type, RoleType) and isinstance(spec.reserve, bool)):
                raise ConfigurationError(f"role '{spec.name}' needs a RoleType and a bool "
                                         f"reserve, got {spec.role_type!r} and {spec.reserve!r}")
        present = {spec.role_type for spec in role_specs}
        missing = [t.value for t in RoleType if t not in present]
        if missing:
            raise ConfigurationError(
                f"architecture '{device_name}' has no {', '.join(missing)} role"
            )
        return super().__new__(cls, device_name, role_specs)


def default_architecture(device_name: str = "Device_A") -> Architecture:
    """One instance of each role, algorithms left to the assignment."""
    return Architecture(device_name, (
        RoleSpec("Root 1", RoleType.ROOT), RoleSpec("Timestamp 1", RoleType.TIMESTAMP),
        RoleSpec("Snapshot 1", RoleType.SNAPSHOT), RoleSpec("Target 1", RoleType.TARGET),
    ))


class Uniform(NamedTuple):
    """Assign one algorithm to every role that does not pin its own."""

    algorithm_name: str

    @property
    def label(self) -> str:
        return self.algorithm_name


class PerRole(NamedTuple):
    """Assign algorithms per role name; roles with a pinned algorithm keep it."""

    algorithms: dict[str, str]
    label: str = "per-role"


AlgorithmAssignment = Uniform | PerRole


class RunResult(NamedTuple):
    """Priced ledger of one (architecture, assignment, scenario) run.

    slot_counts holds each slot's (lifetime signatures, key publications)
    in slot order; an add action on a date without a tick counts (0, 0).
    Equality and the hash leave it out: they compare the priced ledger and
    warnings, and a RunResult equals only another RunResult.
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
    slot_counts: tuple[tuple[int, int], ...] = ()

    @property
    def total_bytes(self) -> int:
        return self.sig_bytes + self.pk_bytes

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RunResult):
            return self[:-1] == other[:-1]
        return NotImplemented

    def __ne__(self, other: object) -> bool:  # tuple's own != compares slot_counts too
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:-1])


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
    states: list[RoleState | None] = [None] * len(script.slots)
    for slot, (spec, algorithm) in enumerate(zip(script.role_specs, algorithms)):
        state = states[slot] = repo.add_role(spec.name, spec.role_type, algorithm)
        state.reserve = spec.reserve

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
                    states[slot] = repo.add_role(action.name, action.role_type, algorithms[slot])
                    continue
                if action.kind is ActionKind.REMOVE:
                    matched = repo.remove_role(action.name)
                else:
                    matched = repo.set_reserve(action.name, action.flag)
                if not matched:
                    warnings.append(f"{point.day}: {action.kind.value} action for "
                                    f"'{action.name}' matched no role")
            missing = repo.missing_role_types()
            if missing:
                warnings.append(f"{point.day}: no {', '.join(t.value for t in missing)} "
                                "role remains after scripted actions")
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

    The inputs compile once into a `Script`.  Every assignment resolves
    before anything runs, so a bad name fails first: one pass over the
    slots takes each slot's pin, else its Uniform algorithm or its
    per-role row, with one catalog lookup per distinct name, and notes
    the rows it took.  Then `run_scenario` runs once per distinct vector
    of effective slot budgets, the first time an assignment has it, and
    each assignment is priced from that run's `slot_counts` with its own
    algorithms, which gives exactly what a run of its own would.  An
    assignment's warnings are those on its per-role rows that no slot
    took first, in row order — a row naming no role of the architecture
    or of an add action, and a row whose every role pins its algorithm —
    then the run's.
    """
    if not assignments:
        raise ConfigurationError("at least one algorithm assignment is required")
    script = compile_script(arch, calendar, ticks)
    found: dict[str, SignatureAlgorithm] = {}
    resolved = [_resolve(script.slots, assignment, catalog, found) for assignment in assignments]
    runs: dict[tuple[int, ...], Simulation] = {}
    results = []
    for assignment, (algorithms, row_warnings) in zip(assignments, resolved):
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
                warnings=(*row_warnings, *run.warnings),
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
    for lineno, (name, type_text, algorithm, reserve_text) in Table(
        csv_text, "architecture file", ConfigurationError,
        ("Role Name", "Role Type", "Algorithm", "Reserve"),
    ).rows():
        if not name:
            raise ConfigurationError(f"row {lineno}: role name is empty")
        role_type = read_cell(RoleType, type_text, lineno, ConfigurationError,
                              "unknown role type {!r}")
        reserve = read_cell(parse_bool, reserve_text.lower() or "false", lineno,
                            ConfigurationError, "Reserve must be true or false, got {!r}")
        specs.append(RoleSpec(name, role_type, algorithm or None, reserve))
    return Architecture(device_name=device_name, role_specs=tuple(specs))


def parse_assignment_csv(csv_text: str, label: str = "per-role") -> PerRole:
    """Parse a per-role assignment table: `Role Name,Algorithm`."""
    algorithms: dict[str, str] = {}
    for lineno, (name, algorithm) in Table(
        csv_text, "assignment file", ConfigurationError, ("Role Name", "Algorithm")
    ).rows():
        if not name or not algorithm:
            raise ConfigurationError(
                f"row {lineno}: assignment rows need both a role name and an algorithm"
            )
        if name in algorithms:
            raise ConfigurationError(f"row {lineno}: duplicate role name '{name}'")
        algorithms[name] = algorithm
    return PerRole(algorithms=algorithms, label=label)


def find_algorithm(name: str, catalog: Catalog, role_name: str) -> SignatureAlgorithm:
    """The catalog entry named exactly `name`, which role `role_name` takes."""
    algorithm = catalog.get(name)
    if algorithm is None:
        raise ConfigurationError(f"role '{role_name}': algorithm '{name}' is not in the catalog")
    return algorithm


def _resolve(
    slots: Sequence[tuple[str, str | None]],
    assignment: AlgorithmAssignment,
    catalog: Catalog,
    found: dict[str, SignatureAlgorithm],
) -> tuple[list[SignatureAlgorithm], list[str]]:
    """Each slot's algorithm, its pin or else the assignment's choice, and
    one warning per per-role row that no slot took, in row order: the row
    names no slot, or every slot of its name pins an algorithm.  Each name
    is looked up in the catalog once and kept in `found`."""
    algorithms = []
    taken: set[str] = set()
    pins: dict[str, dict[str, None]] = {}  # each role name's distinct pins, in slot order
    for role_name, name in slots:
        if name is not None:
            pins.setdefault(role_name, {})[name] = None
        elif isinstance(assignment, Uniform):
            name = assignment.algorithm_name
        else:
            name = assignment.algorithms.get(role_name)
            if name is None:
                raise ConfigurationError(
                    f"assignment does not name an algorithm for role '{role_name}'"
                )
            taken.add(role_name)
        algorithm = found.get(name)
        if algorithm is None:
            algorithm = found[name] = find_algorithm(name, catalog, role_name)
        algorithms.append(algorithm)
    warnings = []
    for row in assignment.algorithms if isinstance(assignment, PerRole) else ():
        if row in taken:
            continue
        pinned = [f"'{pin}'" for pin in pins.get(row, ())]
        if pinned:
            warnings.append(f"assignment row for '{row}' is overridden by its pinned "
                            f"algorithm{'s' if len(pinned) > 1 else ''} {', '.join(pinned)}")
        else:
            warnings.append(f"assignment row for '{row}' names no role of the architecture "
                            "or an add action")
    return algorithms, warnings
