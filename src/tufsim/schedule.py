"""Timelines of ticks, update-event lists, and scripted role changes.

All values here are immutable after construction.  `RoleAction` and
`EventCalendar` are `typing.NamedTuple`s whose every constructor, `_make`
and `_replace` included, checks or normalises the fields: a `RoleAction`
holds only the fields its kind reads, and `EventCalendar` stores a
frozenset and a tuple.  A tick calendar is a lazy `Timeline`, a
`__slots__` record: it stores its date range and cadence, not its ticks,
and `len` counts the ticks.
Update events are date-granular: several arrivals on one date collapse to
a single event, and under sub-daily cadence an event fires on the first
tick of its date.  `Timeline.position` is the one place that decides
which tick a date lands on, if any.
"""

# No `from __future__ import annotations`: typing.NamedTuple compiles every
# postponed (string) field annotation when its class is made, at import.

import enum
import math
import re
from collections.abc import Iterable
from datetime import date, timedelta
from typing import NamedTuple

from ._record import Checked, FrozenRecord
from ._table import Table, parse_bool, read_cell
from .errors import CalendarError
from .repository import RoleType


class Cadence(enum.Enum):
    """How calendar time maps to timestamp ticks."""

    WEEKLY = "weekly"
    DAILY = "daily"
    HOURLY = "hourly"
    MINUTE = "minute"

    @property
    def sub_ticks(self) -> int:
        """Ticks on each included date (weekly includes only every 7th date)."""
        return _SUB_TICKS[self]


_SUB_TICKS = {
    Cadence.WEEKLY: 1,
    Cadence.DAILY: 1,
    Cadence.HOURLY: 24,
    Cadence.MINUTE: 1440,
}


class ActionKind(enum.Enum):
    ADD = "add"
    REMOVE = "remove"
    RESERVE = "reserve"


# RoleAction's optional fields, each with its action-file column
_OPTIONAL_COLUMNS = {"role_type": "RoleType", "algorithm_name": "Algorithm", "flag": "Flag"}
# the optional fields each kind does not read: None in a RoleAction, empty in a file
_UNREAD_FIELDS = {
    ActionKind.ADD: ("flag",),
    ActionKind.REMOVE: tuple(_OPTIONAL_COLUMNS),
    ActionKind.RESERVE: ("role_type", "algorithm_name"),
}
# how load_role_actions reads each optional cell its kind reads: a parse, and
# the problem its error names when the parse raises ValueError
_CELL_READERS = {
    "role_type": (RoleType, "unknown role type {!r}"),
    "algorithm_name": (lambda text: text or None, ""),
    "flag": (lambda text: parse_bool(text.lower()), "reserve action needs Flag true or false"),
}


class _RoleActionFields(NamedTuple):
    date: date
    kind: ActionKind
    name: str
    role_type: RoleType | None = None
    algorithm_name: str | None = None
    flag: bool | None = None


class RoleAction(Checked, _RoleActionFields):
    """A scripted mid-run role change, applied on the first tick of its date.

    kind=ADD reads a `RoleType` role_type and algorithm_name (None means
    the run's algorithm assignment supplies one); kind=RESERVE reads a
    `bool` flag; kind=REMOVE reads the name alone.  Construction, `_make`
    and `_replace` raise `CalendarError` for a kind that is not an
    `ActionKind`, a field the kind does not read that is not None, and an
    add without a `RoleType` or a reserve without a `bool` flag.
    """

    __slots__ = ()

    def __new__(
        cls,
        date: date,
        kind: ActionKind,
        name: str,
        role_type: RoleType | None = None,
        algorithm_name: str | None = None,
        flag: bool | None = None,
    ) -> "RoleAction":
        self = super().__new__(cls, date, kind, name, role_type, algorithm_name, flag)
        if not isinstance(kind, ActionKind):
            raise CalendarError(f"action for '{name}' needs an ActionKind, got {kind!r}")
        for field in _UNREAD_FIELDS[kind]:
            value = getattr(self, field)
            if value is not None:
                raise CalendarError(f"{kind.value} action for '{name}' takes no {field}, "
                                    f"got {value!r}")
        if kind is ActionKind.ADD and not isinstance(role_type, RoleType):
            raise CalendarError(f"add action for '{name}' needs a RoleType, got {role_type!r}")
        if kind is ActionKind.RESERVE and not isinstance(flag, bool):
            raise CalendarError(f"reserve action for '{name}' needs a bool flag, got {flag!r}")
        return self


class _EventCalendarFields(NamedTuple):
    update_events: frozenset[tuple[date, str]]
    role_actions: tuple[RoleAction, ...]


class EventCalendar(Checked, _EventCalendarFields):
    """Update events (a set of date/target pairs) plus scripted role actions.

    The constructor, and so `_make` and `_replace`, stores the events as a
    frozenset and the actions as a tuple, whatever iterables they come in.
    """

    __slots__ = ()

    def __new__(
        cls,
        update_events: Iterable[tuple[date, str]] = frozenset(),
        role_actions: Iterable[RoleAction] = (),
    ) -> "EventCalendar":
        return super().__new__(cls, frozenset(update_events), tuple(role_actions))


class Timeline(FrozenRecord):
    """The ascending ticks of an inclusive date range at one cadence.

    Daily has one tick per date, hourly 24, per-minute 1440; weekly has
    one tick on the start date and each 7th date after it.  Only the range
    and cadence are stored: `len` and `position` are date arithmetic.

    An immutable, hashable `__slots__` record with field-wise equality.
    """

    __slots__ = _fields = ("start", "end", "cadence")

    def __init__(self, start: date, end: date, cadence: Cadence) -> None:
        if start > end:
            raise CalendarError(f"start date {start} is after end date {end}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "cadence", cadence)

    @property
    def _step(self) -> int:
        return 7 if self.cadence is Cadence.WEEKLY else 1

    def __len__(self) -> int:
        return ((self.end - self.start).days // self._step + 1) * self.cadence.sub_ticks

    def position(self, day: date) -> int | None:
        """Index of the first tick on `day`; None when `day` is outside the
        range or off the weekly grid, so nothing on it can apply."""
        offset, off_grid = divmod((day - self.start).days, self._step)
        if off_grid or not self.start <= day <= self.end:
            return None
        return offset * self.cadence.sub_ticks


def generate_ticks(start: date, end: date, cadence: Cadence) -> Timeline:
    """The ticks of an inclusive date range at `cadence`, as a `Timeline`."""
    return Timeline(start, end, cadence)


def load_event_dates(csv_text: str, default_target: str) -> EventCalendar:
    """Parse update events from CSV with a `Date` column and optional `Target`.

    Dates are ISO-8601 (YYYY-MM-DD).  Rows without a target bind to
    `default_target`; duplicate (date, target) pairs collapse.
    """
    events: set[tuple[date, str]] = set()
    for lineno, (day, target) in Table(
        csv_text, "event file", CalendarError, ("Date",), ("Target",)
    ).rows():
        events.add((_parse_date(day, lineno), target or default_target))
    return EventCalendar(update_events=frozenset(events))


def load_role_actions(csv_text: str) -> EventCalendar:
    """Parse scripted role changes from CSV.

    Columns: `Date,Action,Name,RoleType,Algorithm,Flag` with Action one of
    add/remove/reserve, in any case.  The kind table `_UNREAD_FIELDS`
    decides which optional cells an action reads: a cell it does not read
    must be empty, and a filled one is an error; the cells it reads are
    then converted.  An add row may leave Algorithm empty to inherit the
    run's assignment.
    """
    actions: list[RoleAction] = []
    for lineno, (day_text, kind_text, name, *optional) in Table(
        csv_text, "action file", CalendarError,
        ("Date", "Action", "Name", *_OPTIONAL_COLUMNS.values()),
    ).rows():
        day = _parse_date(day_text, lineno)
        kind = read_cell(ActionKind, kind_text.lower(), lineno, CalendarError,
                         "unknown action {!r}; expected add, remove or reserve")
        if not name:
            raise CalendarError(f"row {lineno}: action is missing a role name")
        cells = dict(zip(_OPTIONAL_COLUMNS, optional))
        for field in _UNREAD_FIELDS[kind]:
            text = cells.pop(field)
            if text:
                raise CalendarError(f"row {lineno}: {kind.value} action takes no "
                                    f"{_OPTIONAL_COLUMNS[field]}, got {text!r}")
        for field, text in cells.items():
            parse, problem = _CELL_READERS[field]
            cells[field] = read_cell(parse, text, lineno, CalendarError, problem)
        actions.append(RoleAction(day, kind, name, **cells))
    return EventCalendar(role_actions=tuple(actions))


def generate_poisson_events(
    rate_per_day: float, start: date, end: date, seed: int, target: str
) -> EventCalendar:
    """Generate update events from a seeded per-day Poisson arrival model.

    Each date in the inclusive range draws an arrival count with mean
    `rate_per_day`; the date carries one event when the draw is >= 1
    (same-day arrivals collapse).  Sampling is inverse-transform on a
    uniform variate from SplitMix64 keyed by (seed, day index), so equal
    inputs reproduce the same calendar on any platform.
    """
    if not rate_per_day >= 0:
        raise CalendarError("event rate must be non-negative")
    if start > end:
        raise CalendarError(f"start date {start} is after end date {end}")
    events: set[tuple[date, str]] = set()
    for offset in range((end - start).days + 1):
        # a draw is >= 1 exactly when u is past the mass at 0, exp(-rate)
        if _uniform01(seed, offset) >= math.exp(-rate_per_day):
            events.add((start + timedelta(days=offset), target))
    return EventCalendar(update_events=frozenset(events))


def merge_calendars(a: EventCalendar, b: EventCalendar) -> EventCalendar:
    """Union of update events; role actions interleaved by date, a before b."""
    actions = sorted(a.role_actions + b.role_actions, key=lambda action: action.date)
    return EventCalendar(
        update_events=a.update_events | b.update_events,
        role_actions=tuple(actions),
    )


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_iso_date(text: str) -> date:
    """A strict YYYY-MM-DD date; ValueError for any other form, whatever
    else `date.fromisoformat` accepts on this Python version."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"not YYYY-MM-DD: {text!r}")
    return date.fromisoformat(text)


def _parse_date(text: str, lineno: int) -> date:
    return read_cell(parse_iso_date, text, lineno, CalendarError, "invalid date {!r}")


_MASK64 = 2**64 - 1


def _splitmix64(state: int) -> int:
    """One SplitMix64 output for the given 64-bit state."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _uniform01(seed: int, index: int) -> float:
    """Uniform variate in [0, 1) for stream position `index` under `seed`.

    Two SplitMix64 rounds decorrelate the seed from the index; the top 53
    bits form the double.
    """
    word = _splitmix64((_splitmix64(seed & _MASK64) + index) & _MASK64)
    return (word >> 11) * 2.0**-53

