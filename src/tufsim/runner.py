"""Assemble and execute simulation runs, and render the comparison report.

A run pairs a role architecture with an algorithm assignment and replays a
tick calendar against a fresh repository.  Scripted role actions apply
first on a date, then that date's update events, then the timestamp — a
fixed order so identical inputs always produce identical ledgers.  The
run visits only the dates that carry events or actions, asks the
`Timeline` which tick each lands on, and advances the
repository between them with `Repository.publish_timestamps`, so its cost
grows with the number of change points, not the number of ticks.  The
result reads the repository's integer signature counts once, at the end:
bytes are exact and the verification cost is one `math.fsum` over the
algorithms, so no total depends on the order in which roles signed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date

from ._table import read_table
from .algorithms import SignatureAlgorithm, find_algorithm
from .errors import AlgorithmNotFoundError, ConfigurationError
from .repository import Repository, RoleType
from .schedule import ActionKind, EventCalendar, RoleAction, Timeline

REPORT_COLUMNS = (
    "Device",
    "Assignment",
    "Signature Bytes",
    "Public Key Bytes",
    "Total Bytes",
    "Verification Cost",
    "Total Signatures",
    "Rollover Events",
    "Root Publications",
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
    return Architecture(
        device_name=device_name,
        role_specs=(
            RoleSpec("Root 1", RoleType.ROOT),
            RoleSpec("Timestamp 1", RoleType.TIMESTAMP),
            RoleSpec("Snapshot 1", RoleType.SNAPSHOT),
            RoleSpec("Target 1", RoleType.TARGET),
        ),
    )


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
    """Final ledger of one (architecture, assignment, scenario) run."""

    device_name: str
    assignment: str
    sig_bytes: int
    pk_bytes: int
    cost: float
    total_signatures: int
    rollover_events: int
    root_publications: int
    warnings: tuple[str, ...] = ()

    @property
    def total_bytes(self) -> int:
        return self.sig_bytes + self.pk_bytes


def run_scenario(
    arch: Architecture,
    assignment: AlgorithmAssignment,
    calendar: EventCalendar,
    ticks: Timeline,
    catalog: list[SignatureAlgorithm],
) -> RunResult:
    """Execute one run and return its aggregated ledger.

    A date's events and actions apply on its first tick.  All algorithm
    names — from role specs, the assignment, and scripted add actions —
    resolve against the catalog before the first tick, so a bad
    configuration never produces a partial ledger.  Inputs that cannot
    take effect become warnings, not errors: an event or action on a date
    without a tick, an update event, remove or reserve that matches no
    role, and a per-role assignment row naming no role of the
    architecture or of an add action.
    """
    role_algorithms = [
        _resolve(spec.algorithm_name, spec.name, assignment, catalog)
        for spec in arch.role_specs
    ]
    add_algorithms = {
        action: _resolve(action.algorithm_name, action.name, assignment, catalog)
        for action in calendar.role_actions
        if action.kind is ActionKind.ADD
    }

    repo = Repository(arch.device_name)
    for spec, algorithm in zip(arch.role_specs, role_algorithms):
        repo.add_role(spec.name, spec.role_type, algorithm)
        repo.roles[-1].reserve = spec.reserve

    events_by_date: dict[date, list[str]] = {}
    for day, target in sorted(calendar.update_events):
        events_by_date.setdefault(day, []).append(target)
    actions_by_date: dict[date, list[RoleAction]] = {}
    for action in calendar.role_actions:
        actions_by_date.setdefault(action.date, []).append(action)

    warnings: list[str] = []
    if isinstance(assignment, PerRole):
        named = {spec.name for spec in arch.role_specs} | {a.name for a in add_algorithms}
        warnings += [
            f"assignment row for '{name}' names no role of the architecture or an add action"
            for name in assignment.algorithms
            if name not in named
        ]
    published = 0
    for day in sorted(events_by_date.keys() | actions_by_date.keys()):
        actions = actions_by_date.get(day, ())
        targets = events_by_date.get(day, ())
        index = ticks.position(day)
        if index is None:
            dropped = [f"{a.kind.value} action for '{a.name}'" for a in actions]
            dropped += [f"update event for '{target}'" for target in targets]
            warnings += [f"{day}: {item} falls on no tick and was not applied" for item in dropped]
            continue
        repo.publish_timestamps(index - published)
        published = index
        if actions:
            for action in actions:
                if not _apply_action(repo, action, add_algorithms):
                    warnings.append(
                        f"{day}: {action.kind.value} action for '{action.name}' matched no role"
                    )
            _check_role_coverage(repo, day, warnings)
        for target in targets:
            if repo.stage_update(target) == 0:
                warnings.append(f"{day}: update event for '{target}' matched no Target role")
    repo.publish_timestamps(len(ticks) - published)

    totals = repo.ledger_totals()
    return RunResult(
        device_name=totals.name,
        assignment=assignment.label,
        sig_bytes=totals.sig_bytes,
        pk_bytes=totals.pk_bytes,
        cost=totals.cost,
        total_signatures=totals.signatures,
        rollover_events=totals.rollover_events,
        root_publications=totals.root_publications,
        warnings=tuple(warnings),
    )


def run_sweep(
    arch: Architecture,
    assignments: list[AlgorithmAssignment],
    calendar: EventCalendar,
    ticks: Timeline,
    catalog: list[SignatureAlgorithm],
) -> list[RunResult]:
    """Run each assignment against a fresh repository, preserving input order."""
    if not assignments:
        raise ConfigurationError("at least one algorithm assignment is required")
    return [
        run_scenario(arch, assignment, calendar, ticks, catalog)
        for assignment in assignments
    ]


def emit_report_csv(results: list[RunResult]) -> str:
    """Render results as the comparison CSV, one row per run in order.

    Byte and count columns are plain integers; verification cost carries
    six decimal places.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for result in results:
        writer.writerow(
            [
                result.device_name,
                result.assignment,
                result.sig_bytes,
                result.pk_bytes,
                result.total_bytes,
                f"{result.cost:.6f}",
                result.total_signatures,
                result.rollover_events,
                result.root_publications,
            ]
        )
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
        specs.append(
            RoleSpec(
                name=name,
                role_type=role_type,
                algorithm_name=algorithm or None,
                reserve=reserve,
            )
        )
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


def _resolve(
    pinned: str | None,
    role_name: str,
    assignment: AlgorithmAssignment,
    catalog: list[SignatureAlgorithm],
) -> SignatureAlgorithm:
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
    try:
        return find_algorithm(name, catalog)
    except AlgorithmNotFoundError:
        raise ConfigurationError(
            f"role '{role_name}': algorithm '{name}' is not in the catalog"
        ) from None


def _apply_action(
    repo: Repository,
    action: RoleAction,
    add_algorithms: dict[RoleAction, SignatureAlgorithm],
) -> bool:
    """Apply one scripted action; False when a remove or reserve matched no role."""
    if action.kind is ActionKind.ADD:
        repo.add_role(action.name, action.role_type, add_algorithms[action])
        return True
    if action.kind is ActionKind.REMOVE:
        return repo.remove_role(action.name) > 0
    return repo.set_reserve(action.name, bool(action.flag)) > 0


def _check_role_coverage(repo: Repository, day: date, warnings: list[str]) -> None:
    present = {role.role_type for role in repo.roles}
    missing = [t.value for t in RoleType if t not in present]
    if missing:
        warnings.append(
            f"{day}: no {', '.join(missing)} role remains after scripted actions"
        )
