"""Deterministic cost accounting for multi-role software-update signing.

tufsim replays a calendar of update events against a TUF-style repository
(Root, Timestamp, Snapshot, Target roles, any number of instances each)
and tallies what a worst-case client downloads and verifies: signature
bytes, public-key bytes, and verification effort.  Signature algorithms
are plain parameter sets, so bounded-signature schemes with key rollover
can be compared against conventional ones over identical update schedules.

The records are `typing.NamedTuple`s (with `_replace`, `_asdict` and tuple
behaviour), except three `__slots__` classes: `SignatureAlgorithm` and
`RoleState`, whose fields the engine reads on every busy tick, and
`Timeline`, which stores its date range instead of its ticks and which
`compile_script` reads once per calendar date, not per tick.  Copy a
NamedTuple with changes through `_replace` and convert it with `_asdict`;
a `__slots__` record has no instance `__dict__` for `vars()`, and a
changed one is built with its constructor.
"""

from .algorithms import (
    Catalog,
    SignatureAlgorithm,
    parse_algorithm_catalog,
)
from .errors import (
    CalendarError,
    CatalogError,
    ConfigurationError,
    TufSimError,
    ValidationError,
)
from .repository import LedgerTotals, Repository, RoleState, RoleType
from .runner import (
    AlgorithmAssignment,
    Architecture,
    PerRole,
    RoleSpec,
    RunResult,
    Uniform,
    default_architecture,
    emit_report_csv,
    parse_architecture_csv,
    parse_assignment_csv,
    run_sweep,
)
from .schedule import (
    ActionKind,
    Cadence,
    EventCalendar,
    RoleAction,
    Timeline,
    generate_poisson_events,
    generate_ticks,
    load_event_dates,
    load_role_actions,
    merge_calendars,
)

__version__ = "0.1.0"

__all__ = [
    "ActionKind",
    "AlgorithmAssignment",
    "Architecture",
    "Cadence",
    "CalendarError",
    "Catalog",
    "CatalogError",
    "ConfigurationError",
    "EventCalendar",
    "LedgerTotals",
    "PerRole",
    "Repository",
    "RoleAction",
    "RoleSpec",
    "RoleState",
    "RoleType",
    "RunResult",
    "SignatureAlgorithm",
    "Timeline",
    "TufSimError",
    "Uniform",
    "ValidationError",
    "default_architecture",
    "emit_report_csv",
    "generate_poisson_events",
    "generate_ticks",
    "load_event_dates",
    "load_role_actions",
    "merge_calendars",
    "parse_algorithm_catalog",
    "parse_architecture_csv",
    "parse_assignment_csv",
    "run_sweep",
]
