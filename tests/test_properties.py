"""Metamorphic properties of the model: each relates two runs of the engine
and needs no reference run, so it also catches a mistake that the engine
and `tests/oracle.py` would share."""

from __future__ import annotations

import io
import re
import tempfile
from datetime import date, timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tufsim import (
    ActionKind,
    Architecture,
    Cadence,
    Catalog,
    EventCalendar,
    PerRole,
    RoleAction,
    RoleSpec,
    RoleType,
    Uniform,
    default_architecture,
    generate_ticks,
    run_sweep,
)
from tufsim.cli import run_cli
from tests.conftest import make_alg

START = date(2020, 1, 1)
# shared across role types, so names repeat within and across types
NAMES = ["Root 1", "Timestamp 1", "Timestamp 2", "Snapshot 1", "Target 1", "Target 2", "Shared"]
MAX_DAYS = {Cadence.WEEKLY: 200, Cadence.DAILY: 90, Cadence.HOURLY: 5}
PINS = ["Alg0", "Alg1"]
budgets = st.integers(1, 12) | st.just(10**18)


@st.composite
def scenarios(draw, pins=()):
    """An architecture, a calendar and a timeline.  Roles may start in
    reserve, actions add, remove and reserve roles, and a few dates fall
    outside the range or, at weekly cadence, off the grid.  With `pins`,
    roles and added roles may pin one of those algorithm names."""
    cadence = draw(st.sampled_from(list(MAX_DAYS)))
    days = draw(st.integers(1, MAX_DAYS[cadence]))
    pinned = st.sampled_from([None, *pins])
    specs = [RoleSpec(f"{t.value} 1", t, draw(pinned), draw(st.booleans())) for t in RoleType]
    specs += [
        RoleSpec(name, draw(st.sampled_from(list(RoleType))), draw(pinned), draw(st.booleans()))
        for name in draw(st.lists(st.sampled_from(NAMES), max_size=5))
    ]
    when = st.integers(-2, days + 2).map(lambda offset: START + timedelta(days=offset))
    events = draw(st.sets(st.tuples(when, st.sampled_from(NAMES)), max_size=20))
    name, unread = st.sampled_from(NAMES), st.none()
    actions = draw(
        st.lists(
            st.builds(RoleAction, when, st.just(ActionKind.ADD), name,
                      st.sampled_from(list(RoleType)), pinned, unread)
            | st.builds(RoleAction, when, st.just(ActionKind.REMOVE), name,
                        unread, unread, unread)
            | st.builds(RoleAction, when, st.just(ActionKind.RESERVE), name,
                        unread, unread, st.booleans()),
            max_size=6,
        )
    )
    return (
        Architecture("Device_A", specs),
        EventCalendar(update_events=events, role_actions=actions),
        generate_ticks(START, START + timedelta(days=days - 1), cadence),
    )


def slot_types(arch: Architecture, calendar: EventCalendar) -> list[RoleType]:
    """The role type of each slot: the architecture's roles, then the add
    actions in calendar order."""
    return [spec.role_type for spec in arch.role_specs] + [
        action.role_type for action in calendar.role_actions if action.kind is ActionKind.ADD
    ]


def sweep(arch, calendar, ticks, catalog):
    return run_sweep(arch, [Uniform(alg.name) for alg in catalog], calendar, ticks, catalog)


class TestBudgets:
    @given(
        run=scenarios(pins=PINS),
        budget_pairs=st.lists(st.tuples(budgets, budgets), min_size=len(PINS), max_size=4),
    )
    @settings(deadline=None, max_examples=150)
    def test_only_root_signatures_depend_on_a_budget(self, run, budget_pairs):
        """Two catalogs that differ only in `max_sigs`: every assignment of
        either gives every non-Root slot the same signature count."""
        arch, calendar, ticks = run
        results = []
        for side in (0, 1):
            catalog = Catalog([
                make_alg(f"Alg{i}", max_sigs=pair[side]) for i, pair in enumerate(budget_pairs)
            ])
            results += sweep(arch, calendar, ticks, catalog)
        others = [i for i, t in enumerate(slot_types(arch, calendar)) if t is not RoleType.ROOT]
        signed = {tuple(result.slot_counts[i][0] for i in others) for result in results}
        assert len(signed) == 1

    @given(run=scenarios(), data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_a_larger_budget_for_all_but_root_never_raises_rollover_events(self, run, data):
        """Budgets up to the tick count, the range where a budget can run
        out, in ascending order for every role but Root, whose keys never
        run out: the rollover counts never rise.  A Timestamp, Snapshot or
        Target signs on the same ticks whatever the budgets, so each of its
        keys runs out no sooner.  A role that shares a name with a Root
        role shares its budget too."""
        arch, calendar, ticks = run
        roots = {spec.name for spec in arch.role_specs if spec.role_type is RoleType.ROOT}
        roots |= {action.name for action in calendar.role_actions
                  if action.kind is ActionKind.ADD and action.role_type is RoleType.ROOT}
        sizes = sorted(data.draw(st.sets(st.integers(1, len(ticks) + 1), min_size=2, max_size=6)))
        catalog = Catalog([make_alg("Unlimited", max_sigs=10**18),
                           *(make_alg(f"Alg{b}", max_sigs=b) for b in sizes)])
        assignments = [
            PerRole({name: "Unlimited" if name in roots else f"Alg{b}" for name in NAMES})
            for b in sizes
        ]
        results = run_sweep(arch, assignments, calendar, ticks, catalog)
        rollovers = [result.rollover_events for result in results]
        assert rollovers == sorted(rollovers, reverse=True)

    def test_rollover_events_are_not_monotone_in_the_budget(self):
        """Two Timestamp keys that run out on the same ticks share a root
        file.  At budget 7 the keys of Timestamp 1 and of Timestamp 2,
        added on Jan 8, run out together: 12 rollovers in 5 root files.
        At budget 8 they fall out of phase, and the 9 root files use up
        the Root key too: 13 rollovers."""
        calendar = EventCalendar(role_actions=[
            RoleAction(date(2020, 1, 8), ActionKind.ADD, "Timestamp 2", RoleType.TIMESTAMP),
        ])
        ticks = generate_ticks(START, date(2020, 2, 2), Cadence.DAILY)
        catalog = Catalog([make_alg("Budget7", max_sigs=7), make_alg("Budget8", max_sigs=8)])
        small, large = sweep(default_architecture(), calendar, ticks, catalog)
        assert (small.rollover_events, small.root_publications) == (12, 5)
        assert (large.rollover_events, large.root_publications) == (13, 9)

    def test_root_publications_are_not_monotone_in_the_budget(self):
        """Rollovers on one tick share a root file.  At budget 8 the
        Timestamp key runs out on Jan 8 and rolls over on Jan 9, the day
        Target 2 is added: one root file for both.  At budget 10 it rolls
        over on Jan 11, in a root file of its own."""
        calendar = EventCalendar(role_actions=[
            RoleAction(date(2020, 1, 9), ActionKind.ADD, "Target 2", RoleType.TARGET),
        ])
        ticks = generate_ticks(START, date(2020, 1, 11), Cadence.DAILY)
        catalog = Catalog([make_alg("Budget8", max_sigs=8), make_alg("Budget10", max_sigs=10)])
        small, large = sweep(default_architecture(), calendar, ticks, catalog)
        assert (small.root_publications, large.root_publications) == (2, 3)
        assert small.rollover_events == large.rollover_events == 6


class TestScaling:
    @given(
        run=scenarios(pins=PINS),
        algorithms=st.lists(
            st.fixed_dictionaries({
                "sig_size": st.integers(0, 5000),
                "pk_size": st.integers(0, 3000),
                "max_sigs": budgets,
                "cost": st.sampled_from([0.1, 1 / 3, 2.9, 4.3, 1e6]),
            }),
            min_size=len(PINS), max_size=4,
        ),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=150)
    def test_sizes_and_power_of_two_costs_scale_their_column_exactly(self, run, algorithms, data):
        """Multiply every `sig_size` or every `pk_size` by an integer k, or
        every `cost` by a power of two, which binary floating point scales
        exactly: that column of every result multiplies by k, and nothing
        else changes, counts included."""
        arch, calendar, ticks = run
        field, column = data.draw(st.sampled_from(
            [("sig_size", "sig_bytes"), ("pk_size", "pk_bytes"), ("cost", "cost")]
        ))
        if field == "cost":
            k = data.draw(st.sampled_from([2.0**j for j in range(-4, 11)]))
        else:
            k = data.draw(st.integers(0, 10**6))
        base = sweep(arch, calendar, ticks, Catalog(
            [make_alg(f"Alg{i}", **fields) for i, fields in enumerate(algorithms)]
        ))
        scaled = sweep(arch, calendar, ticks, Catalog(
            [make_alg(f"Alg{i}", **{**fields, field: fields[field] * k})
             for i, fields in enumerate(algorithms)]
        ))
        assert scaled == [result._replace(**{column: getattr(result, column) * k})
                          for result in base]
        assert [r.slot_counts for r in scaled] == [r.slot_counts for r in base]


ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}")


def shift_dates(text: str, days: int) -> str:
    return ISO_DATE.sub(
        lambda m: (date.fromisoformat(m.group()) + timedelta(days=days)).isoformat(), text
    )


def cli_files(folder: Path, arch: Architecture, calendar: EventCalendar, catalog: Catalog) -> None:
    (folder / "algorithms.csv").write_text(
        "Name,Signature Size,Public Key Size,Max Signatures,Computational Cost\n"
        + "".join(f"{a.name},{a.sig_size},{a.pk_size},{a.max_sigs},{a.cost}\n" for a in catalog)
    )
    (folder / "arch.csv").write_text("Role Name,Role Type,Algorithm,Reserve\n" + "".join(
        f"{s.name},{s.role_type.value},{s.algorithm_name or ''},{str(s.reserve).lower()}\n"
        for s in arch.role_specs
    ))
    (folder / "events.csv").write_text("Date,Target\n" + "".join(
        f"{day},{target}\n" for day, target in sorted(calendar.update_events)
    ))
    (folder / "actions.csv").write_text("Date,Action,Name,RoleType,Algorithm,Flag\n" + "".join(
        f"{a.date},{a.kind.value},{a.name},{a.role_type.value if a.role_type else ''},"
        f"{a.algorithm_name or ''},{'' if a.flag is None else str(a.flag).lower()}\n"
        for a in calendar.role_actions
    ))


def invoke(folder: Path, ticks, poisson: tuple[float, int] | None) -> tuple[int, str, str]:
    argv = [
        "--algorithms", str(folder / "algorithms.csv"), "--arch", str(folder / "arch.csv"),
        "--actions", str(folder / "actions.csv"), "--cadence", ticks.cadence.value,
        "--start", ticks.start.isoformat(), "--end", ticks.end.isoformat(), "--verbose",
    ]
    if poisson is None:
        argv += ["--events", str(folder / "events.csv")]
    else:
        argv += ["--poisson-rate", str(poisson[0]), "--seed", str(poisson[1])]
    out, err = io.StringIO(), io.StringIO()
    status = run_cli(argv, stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


class TestCalendarShift:
    @given(
        run=scenarios(pins=PINS),
        sizes=st.lists(budgets, min_size=len(PINS), max_size=4),
        poisson=st.none() | st.tuples(st.sampled_from([0.1, 0.5, 2.0]), st.integers(0, 2**32)),
        weeks=st.integers(-150, 150).filter(bool),
    )
    @settings(deadline=None, max_examples=100)
    def test_a_shift_by_whole_weeks_changes_only_the_dates(self, run, sizes, poisson, weeks):
        """Move `--start`, `--end` and every event and action date by the
        same number of weeks: the report is byte-identical and the
        warnings differ only by the shifted dates."""
        arch, calendar, ticks = run
        catalog = Catalog([make_alg(f"Alg{i}", max_sigs=b) for i, b in enumerate(sizes)])
        days = 7 * weeks
        shifted_calendar = EventCalendar(
            {(day + timedelta(days=days), target) for day, target in calendar.update_events},
            [action._replace(date=action.date + timedelta(days=days))
             for action in calendar.role_actions],
        )
        shifted_ticks = generate_ticks(
            ticks.start + timedelta(days=days), ticks.end + timedelta(days=days), ticks.cadence
        )
        with tempfile.TemporaryDirectory() as tmp:
            before, after = Path(tmp, "before"), Path(tmp, "after")
            for folder, cal in ((before, calendar), (after, shifted_calendar)):
                folder.mkdir()
                cli_files(folder, arch, cal, catalog)
            status, report, warnings = invoke(before, ticks, poisson)
            assert status == 0
            assert invoke(after, shifted_ticks, poisson) == (
                status, report, shift_dates(warnings, days)
            )
