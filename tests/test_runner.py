from __future__ import annotations

import importlib.util
import random
import sys
from collections import Counter
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tufsim.runner
from tufsim.runner import (
    ChangePoint,
    Script,
    Simulation,
    compile_script,
    find_algorithm,
    run_scenario,
)
from tufsim import (
    ActionKind,
    Architecture,
    Cadence,
    Catalog,
    ConfigurationError,
    EventCalendar,
    PerRole,
    RoleAction,
    RoleSpec,
    RoleType,
    SignatureAlgorithm,
    Uniform,
    default_architecture,
    emit_report_csv,
    generate_poisson_events,
    generate_ticks,
    load_event_dates,
    load_role_actions,
    merge_calendars,
    parse_algorithm_catalog,
    parse_architecture_csv,
    parse_assignment_csv,
    run_sweep,
)
from tests.conftest import (
    BOOL_CELLS,
    NAME_CELLS,
    ROLE_TYPE_CELLS,
    make_alg,
    outcome,
    run_one,
    table_texts,
)
from tests.oracle import (
    first_tick_index,
    materialized_ticks,
    reference_architecture,
    reference_run,
)

START = date(2020, 1, 1)


def ten_day_ticks():
    return generate_ticks(START, date(2020, 1, 10), Cadence.DAILY)


def ten_day_events():
    return EventCalendar(
        update_events={
            (date(2020, 1, 3), "Target 1"),
            (date(2020, 1, 7), "Target 1"),
        }
    )


class TestRunScenario:
    def test_ten_day_trace(self):
        result = run_one(
            default_architecture(),
            Uniform("AlgA"),
            ten_day_events(),
            ten_day_ticks(),
            Catalog([make_alg()]),
        )
        assert result.total_signatures == 17
        assert result.sig_bytes == 1700
        assert result.pk_bytes == 200
        assert result.total_bytes == 1900
        assert result.cost == pytest.approx(17.0, abs=1e-6)
        assert result.rollover_events == 4
        assert result.root_publications == 1
        assert result.warnings == ()

    def test_run_scenario_only_counts_a_slot_vector(self):
        script = compile_script(default_architecture(), ten_day_events(), ten_day_ticks())
        simulation = run_scenario(script, [make_alg()] * 4)
        # lifetimes from the ten-day trace: root 1, timestamp 10, snapshot 3, target 3
        assert simulation == Simulation(
            slot_counts=((1, 1), (10, 1), (3, 1), (3, 1)),
            total_signatures=17,
            rollover_events=4,
            root_publications=1,
            warnings=(),
        )

    def test_ten_day_trace_with_key_exhaustion(self):
        result = run_one(
            default_architecture(),
            Uniform("AlgA"),
            ten_day_events(),
            ten_day_ticks(),
            Catalog([make_alg(max_sigs=4)]),
        )
        assert result.total_signatures == 19
        assert result.sig_bytes == 1900
        assert result.pk_bytes == 600
        assert result.cost == pytest.approx(19.0, abs=1e-6)
        assert result.rollover_events == 6
        assert result.root_publications == 3

    def test_zero_ticks(self):
        result = run_one(
            default_architecture(), Uniform("AlgA"), EventCalendar(), [], Catalog([make_alg()])
        )
        assert result.total_signatures == 0
        assert result.total_bytes == 0
        assert result.rollover_events == 0
        assert result.root_publications == 0

    def test_unknown_target_warns_and_continues(self):
        calendar = EventCalendar(update_events={(date(2020, 1, 3), "Target X")})
        result = run_one(
            default_architecture(), Uniform("AlgA"), calendar, ten_day_ticks(),
            Catalog([make_alg()]),
        )
        assert len(result.warnings) == 1
        assert "Target X" in result.warnings[0]
        # the miss leaves the ledger on the no-update path
        assert result.total_signatures == 13

    def test_unresolvable_algorithm_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="AlgZ"):
            run_one(
                default_architecture(),
                Uniform("AlgZ"),
                EventCalendar(),
                ten_day_ticks(),
                Catalog([make_alg()]),
            )

    def test_per_role_assignment_missing_name(self):
        with pytest.raises(ConfigurationError, match="Snapshot 1"):
            run_one(
                default_architecture(),
                PerRole({"Root 1": "AlgA", "Timestamp 1": "AlgA", "Target 1": "AlgA"}),
                EventCalendar(),
                ten_day_ticks(),
                Catalog([make_alg()]),
            )

    def test_pinned_algorithm_wins_over_assignment(self):
        arch = Architecture(
            "Device_A",
            (
                RoleSpec("Root 1", RoleType.ROOT),
                RoleSpec("Timestamp 1", RoleType.TIMESTAMP, algorithm_name="AlgBig"),
                RoleSpec("Snapshot 1", RoleType.SNAPSHOT),
                RoleSpec("Target 1", RoleType.TARGET),
            ),
        )
        catalog = Catalog([make_alg("AlgA"), make_alg("AlgBig", sig_size=1000)])
        result = run_one(
            arch, Uniform("AlgA"), EventCalendar(), ten_day_ticks(), catalog
        )
        # ten timestamp signatures at 1000 B, seven others at 100 B
        assert result.sig_bytes == 10 * 1000 + 3 * 100

    def test_reserve_role_publishes_key_but_never_signs(self):
        arch = Architecture(
            "Device_A",
            (
                RoleSpec("Root 1", RoleType.ROOT),
                RoleSpec("Timestamp 1", RoleType.TIMESTAMP),
                RoleSpec("Timestamp 2", RoleType.TIMESTAMP, reserve=True),
                RoleSpec("Snapshot 1", RoleType.SNAPSHOT),
                RoleSpec("Target 1", RoleType.TARGET),
            ),
        )
        result = run_one(
            arch, Uniform("AlgA"), ten_day_events(), ten_day_ticks(), Catalog([make_alg()])
        )
        # same signature count as the plain trace, one extra key in the root file
        assert result.total_signatures == 17
        assert result.pk_bytes == 250

    def test_scripted_actions_apply_before_events(self):
        actions = load_role_actions(
            "Date,Action,Name,RoleType,Algorithm,Flag\n"
            "2020-01-03,add,Target 2,Target,,\n"
        )
        calendar = EventCalendar(
            update_events={(date(2020, 1, 3), "Target 2")},
            role_actions=actions.role_actions,
        )
        result = run_one(
            default_architecture(), Uniform("AlgA"), calendar, ten_day_ticks(),
            Catalog([make_alg()]),
        )
        # the staged update lands on the role added the same day
        assert result.warnings == ()

    def test_removing_last_root_warns(self):
        actions = load_role_actions(
            "Date,Action,Name,RoleType,Algorithm,Flag\n"
            "2020-01-05,remove,Root 1,,,\n"
        )
        result = run_one(
            default_architecture(),
            Uniform("AlgA"),
            EventCalendar(role_actions=actions.role_actions),
            ten_day_ticks(),
            Catalog([make_alg()]),
        )
        assert any("Root" in w for w in result.warnings)


class TestClosedFormOracle:
    """No-rollover runs obey a closed-form signature count.

    With one non-reserve instance per role and no key exhaustion, over D
    daily ticks with E event dates of which e1 is on the first date:
    root signs once, timestamps sign D times, the target signs on the
    first tick plus once per later event date, and each of those target
    signatures drags one snapshot signature along.
    """

    @staticmethod
    def expected(D: int, E: int, e1: int) -> int:
        return D + 3 + 2 * (E - e1)

    def test_randomized_scenarios_match(self):
        rng = random.Random(1234)
        for _ in range(40):
            D = rng.randint(1, 120)
            days = [START + timedelta(days=i) for i in range(D)]
            event_days = rng.sample(days, rng.randint(0, min(D, 12)))
            calendar = EventCalendar(
                update_events={(d, "Target 1") for d in event_days}
            )
            ticks = generate_ticks(START, days[-1], Cadence.DAILY)
            result = run_one(
                default_architecture(), Uniform("AlgA"), calendar, ticks, Catalog([make_alg()])
            )
            e1 = int(START in event_days)
            assert result.total_signatures == self.expected(D, len(event_days), e1)
            assert result.pk_bytes == 4 * 50
            assert result.rollover_events == 4
            assert result.root_publications == 1


DIFF_NAMES = ["Root 2", "Timestamp 1", "Timestamp 2", "Snapshot 1", "Target 1", "Target 2"]
# Date ranges stay near 400 ticks so the reference run stays quick.
MAX_DAYS = {Cadence.WEEKLY: 120, Cadence.DAILY: 60, Cadence.HOURLY: 12, Cadence.MINUTE: 2}


@st.composite
def differential_runs(draw, algorithms=3, budgets=(1, 2, 3, 4, 5, 10**18)):
    cadence = draw(st.sampled_from(list(Cadence)))
    days = draw(st.integers(1, MAX_DAYS[cadence]))
    catalog = Catalog([
        make_alg(
            f"Alg{i}",
            sig_size=draw(st.integers(1, 3000)),
            pk_size=draw(st.integers(1, 500)),
            max_sigs=draw(st.sampled_from(budgets)),
            cost=draw(st.sampled_from([0.1, 0.5, 2.9, 4.3, 1 / 3])),
        )
        for i in range(draw(st.integers(1, algorithms)))
    ])
    names = [alg.name for alg in catalog]
    pinned = st.none() | st.sampled_from(names)
    specs = [RoleSpec(f"{t.value} 1", t, draw(pinned)) for t in RoleType]
    specs += [
        RoleSpec(name, draw(st.sampled_from(list(RoleType))), draw(pinned), draw(st.booleans()))
        for name in draw(st.lists(st.sampled_from(DIFF_NAMES), max_size=4))
    ]
    # a few dates fall outside [start, end]; weekly ones may fall off the grid
    when = st.integers(-2, days + 2).map(lambda offset: START + timedelta(days=offset))
    events = draw(st.sets(st.tuples(when, st.sampled_from(DIFF_NAMES + ["Target 1"])), max_size=12))
    # st.builds would fill an optional field it is not given, so the fields
    # an action's kind does not read are passed as None
    unread = st.none()
    # an add of an initial role's name as that role's own type, which
    # re-keys the role, such as "Timestamp 1" added as a Timestamp
    same_named = st.sampled_from(specs[:len(RoleType)]).flatmap(
        lambda spec: st.builds(RoleAction, date=when, kind=st.just(ActionKind.ADD),
                               name=st.just(spec.name), role_type=st.just(spec.role_type),
                               algorithm_name=pinned, flag=unread)
    )
    actions = draw(
        st.lists(
            st.builds(RoleAction, date=when, kind=st.just(ActionKind.ADD),
                      name=st.sampled_from(DIFF_NAMES),
                      role_type=st.sampled_from(list(RoleType)), algorithm_name=pinned,
                      flag=unread)
            | same_named
            | st.builds(RoleAction, date=when, kind=st.just(ActionKind.REMOVE),
                        name=st.sampled_from(DIFF_NAMES + ["Root 1", "Target 1"]),
                        role_type=unread, algorithm_name=unread, flag=unread)
            | st.builds(RoleAction, date=when, kind=st.just(ActionKind.RESERVE),
                        name=st.sampled_from(DIFF_NAMES + ["Timestamp 1"]),
                        role_type=unread, algorithm_name=unread, flag=st.booleans()),
            max_size=6,
        )
    )
    return (
        Architecture("Device_A", tuple(specs)),
        Uniform(draw(st.sampled_from(names))),
        EventCalendar(update_events=events, role_actions=tuple(actions)),
        generate_ticks(START, START + timedelta(days=days - 1), cadence),
        catalog,
    )


@st.composite
def fleet_runs(draw):
    """A differential run over a few hundred Target bins, fewer names than
    bins so names repeat, with reserve toggles and bins removed and then
    re-added.  The bulk comes from a `random.Random` of a drawn seed, so
    a failing fleet shrinks by its seed, not call by call."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cadence = draw(st.sampled_from([Cadence.WEEKLY, Cadence.DAILY, Cadence.HOURLY]))
    days = draw(st.integers(1, {Cadence.WEEKLY: 120, Cadence.DAILY: 40, Cadence.HOURLY: 3}[cadence]))
    catalog = Catalog([
        make_alg(f"Alg{i}", sig_size=rng.randrange(1, 3000), pk_size=rng.randrange(1, 500),
                 max_sigs=draw(st.sampled_from([1, 2, 3, 5, 10**18])), cost=rng.choice([0.1, 1 / 3]))
        for i in range(draw(st.integers(1, 3)))
    ])
    pins = [None, None, None] + [alg.name for alg in catalog]
    names = draw(st.integers(100, 400))
    bins = [f"bin-{rng.randrange(names)}" for _ in range(draw(st.integers(200, 400)))]
    specs = [RoleSpec(f"{t.value} {i}", t, rng.choice(pins), rng.random() < 0.2)
             for t in (RoleType.ROOT, RoleType.TIMESTAMP, RoleType.SNAPSHOT) for i in (1, 2)]
    specs += [RoleSpec(name, RoleType.TARGET, rng.choice(pins), rng.random() < 0.1) for name in bins]

    def day():
        return START + timedelta(days=rng.randrange(days))

    events = {(day(), rng.choice(bins + ["bin-none"])) for _ in range(rng.randrange(400))}
    actions = []
    for _ in range(rng.randrange(40)):
        name, kind = rng.choice(bins), rng.randrange(3)
        if kind == 0:
            actions.append(RoleAction(day(), ActionKind.RESERVE, name, flag=rng.random() < 0.5))
        elif kind == 1:  # a sibling joins, which re-flags the bins of its name
            actions.append(RoleAction(day(), ActionKind.ADD, name, RoleType.TARGET, rng.choice(pins)))
        else:
            removed, added = sorted((day(), day()))
            actions.append(RoleAction(removed, ActionKind.REMOVE, name))
            actions.append(RoleAction(added, ActionKind.ADD, name, RoleType.TARGET, rng.choice(pins)))
    return (
        Architecture("Device_A", tuple(specs)),
        Uniform(catalog[0].name),
        EventCalendar(update_events=events, role_actions=tuple(actions)),
        generate_ticks(START, START + timedelta(days=days - 1), cadence),
        catalog,
    )


@st.composite
def per_role_runs(draw):
    """A differential run under a `PerRole` assignment with a row for each
    name an unpinned slot has, a row for each name whose every slot is
    pinned, and rows naming no role, in any order.  A row no slot takes
    may name an algorithm that is not in the catalog."""
    arch, _, calendar, timeline, catalog = draw(differential_runs())
    slots = [(spec.name, spec.algorithm_name) for spec in arch.role_specs]
    slots += [(a.name, a.algorithm_name) for a in calendar.role_actions if a.kind is ActionKind.ADD]
    unpinned = {name for name, pinned in slots if pinned is None}
    taken = st.sampled_from([alg.name for alg in catalog])
    rows = {name: draw(taken) for name in sorted(unpinned)}
    untaken = taken | st.just("AlgZ")
    for name in sorted({name for name, _ in slots} - unpinned):
        rows[name] = draw(untaken)
    for name in draw(st.lists(st.sampled_from(["Ghost 1", "Ghost 2", "Target 9"]), unique=True)):
        rows[name] = draw(untaken)
    order = draw(st.permutations(list(rows)))
    return arch, PerRole({name: rows[name] for name in order}), calendar, timeline, catalog


class TestEngineMatchesTickByTick:
    @given(run=differential_runs())
    @settings(deadline=None, max_examples=100)
    def test_same_result_and_report(self, run):
        expected = reference_run(*run)
        result = run_one(*run)
        assert result == expected
        assert result.slot_counts == expected.slot_counts
        assert emit_report_csv([result]) == emit_report_csv([expected])

    @given(run=fleet_runs())
    @settings(deadline=None, max_examples=100)
    def test_same_result_over_a_fleet_of_bins(self, run):
        expected = reference_run(*run)
        result = run_one(*run)
        assert result == expected
        assert result.slot_counts == expected.slot_counts

    @given(run=per_role_runs())
    @settings(deadline=None, max_examples=100)
    def test_same_result_and_warnings_under_a_per_role_assignment(self, run):
        expected = reference_run(*run)
        result = run_one(*run)
        assert result == expected
        assert result.slot_counts == expected.slot_counts



def dense_fleet_inputs(seed: int):
    """The benchmark's full-size `dense-fleet` inputs at `seed`, written by
    its generator in `perfbench/workloads.py`, which is imported as it is,
    and parsed as the command line parses them: (arch, calendar,
    timeline, catalog)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workloads)
        scenario = workloads.dense_fleet(seed)
    finally:
        del sys.modules[spec.name]
    files = scenario.files
    calendar = merge_calendars(load_event_dates(files["events.csv"], workloads.DEFAULT_TARGET),
                               load_role_actions(files["actions.csv"]))
    timeline = generate_ticks(scenario.start, scenario.end, Cadence(scenario.cadence))
    return (parse_architecture_csv(files["arch.csv"]), calendar, timeline,
            parse_algorithm_catalog(files["algorithms.csv"]))


@pytest.mark.parametrize("seed", [7, 11])
def test_dense_fleet_sweep_equals_the_reference(seed):
    """The benchmark checks these seeds, which have no pinned digests, only
    against a replay through the engine's own tick, so the oracle checks
    here the assignment of the first algorithm of each key budget, run
    over the fleet's 365 days of events and role actions."""
    arch, calendar, timeline, catalog = dense_fleet_inputs(seed)
    assignments = [Uniform(alg.name) for alg in catalog]
    swept = run_sweep(arch, assignments, calendar, timeline, catalog)
    firsts = {}
    for position, alg in enumerate(catalog):
        firsts.setdefault(alg.max_sigs, position)
    assert len(assignments) == 40 and len(firsts) == 8
    for position in firsts.values():
        expected = reference_run(arch, assignments[position], calendar, timeline, catalog)
        assert swept[position] == expected
        assert swept[position].slot_counts == expected.slot_counts
        assert emit_report_csv([swept[position]]) == emit_report_csv([expected])

# names listed out of name order
COMPILE_TARGETS = ["Target 1", "Target 10", "Target 2", "bin-7", "Ghost", "target 1"]


@st.composite
def compile_inputs(draw):
    """An architecture, an event calendar as a list, role actions and the
    timeline's range: 1-6 targets on each event date, dates before, inside
    and after the range (off the weekly grid too), and actions on the
    event dates and on others."""
    cadence = draw(st.sampled_from(list(Cadence)))
    days = draw(st.integers(1, MAX_DAYS[cadence]))
    when = st.integers(-3, days + 3).map(lambda offset: START + timedelta(days=offset))
    dates = draw(st.lists(when, min_size=1, max_size=10, unique=True))
    events = [
        (day, target) for day in dates
        for target in draw(st.lists(st.sampled_from(COMPILE_TARGETS), min_size=1, max_size=6,
                                    unique=True))
    ]
    events = draw(st.permutations(events))
    on_a_date = st.sampled_from(dates) | when
    actions = draw(st.lists(
        st.builds(RoleAction, date=on_a_date, kind=st.just(ActionKind.ADD),
                  name=st.sampled_from(COMPILE_TARGETS), role_type=st.sampled_from(list(RoleType)),
                  algorithm_name=st.none() | st.just("AlgA"), flag=st.none())
        | st.builds(RoleAction, date=on_a_date, kind=st.just(ActionKind.REMOVE),
                    name=st.sampled_from(COMPILE_TARGETS), role_type=st.none(),
                    algorithm_name=st.none(), flag=st.none())
        | st.builds(RoleAction, date=on_a_date, kind=st.just(ActionKind.RESERVE),
                    name=st.sampled_from(COMPILE_TARGETS), role_type=st.none(),
                    algorithm_name=st.none(), flag=st.booleans()),
        max_size=8,
    ))
    return default_architecture(), events, actions, START, START + timedelta(days=days - 1), cadence


def sorted_pairs_script(arch, calendar, start, end, cadence) -> Script:
    """A `Script` by the rule of sorting every (date, target) pair and
    grouping the sorted pairs by date, each date placed by a scan of the
    materialized ticks."""
    ticks = list(materialized_ticks(start, end, cadence))
    slots = [(spec.name, spec.algorithm_name) for spec in arch.role_specs]
    actions: dict[date, list] = {}
    for action in calendar.role_actions:
        slot = -1
        if action.kind is ActionKind.ADD:
            slot = len(slots)
            slots.append((action.name, action.algorithm_name))
        actions.setdefault(action.date, []).append((slot, action))
    targets: dict[date, list[str]] = {}
    for day, target in sorted(calendar.update_events):
        targets.setdefault(day, []).append(target)
    points = []
    for day in sorted(actions.keys() | targets.keys()):
        tick = first_tick_index(ticks, day)
        day_actions = tuple(actions.get(day, ()))
        day_targets = tuple(targets.get(day, ()))
        dropped = ()
        if tick is None:
            items = [f"{a.kind.value} action for '{a.name}'" for _, a in day_actions]
            items += [f"update event for '{target}'" for target in day_targets]
            dropped = tuple(f"{day}: {item} falls on no tick and was not applied" for item in items)
        points.append(ChangePoint(day, tick, day_actions, day_targets, dropped))
    return Script(arch.device_name, arch.role_specs, tuple(slots), len(ticks), tuple(points))


class TestCompileScript:
    @given(inputs=compile_inputs())
    @settings(deadline=None, max_examples=200)
    def test_grouping_per_date_equals_sorting_every_pair(self, inputs):
        arch, events, actions, start, end, cadence = inputs
        calendar = EventCalendar(events, actions)
        ticks = generate_ticks(start, end, cadence)
        expected = sorted_pairs_script(arch, calendar, start, end, cadence)
        assert compile_script(arch, calendar, ticks) == expected
        # the same calendar built from the events in reverse
        reversed_calendar = EventCalendar(events[::-1], actions)
        assert reversed_calendar == calendar
        assert compile_script(arch, reversed_calendar, ticks) == expected


class TestInputsThatCannotApplyWarn:
    def test_weekly_off_grid_items_warn_instead_of_vanishing(self):
        ticks = generate_ticks(START, date(2020, 1, 31), Cadence.WEEKLY)
        calendar = EventCalendar(
            update_events={(date(2020, 1, 3), "Target 1")},
            role_actions=(RoleAction(date(2020, 1, 4), ActionKind.REMOVE, "Root 1"),),
        )
        result = run_one(
            default_architecture(), Uniform("AlgA"), calendar, ticks, Catalog([make_alg()])
        )
        empty = run_one(
            default_architecture(), Uniform("AlgA"), EventCalendar(), ticks, Catalog([make_alg()])
        )
        assert result._replace(warnings=()) == empty
        assert result.warnings == (
            "2020-01-03: update event for 'Target 1' falls on no tick and was not applied",
            "2020-01-04: remove action for 'Root 1' falls on no tick and was not applied",
        )

    def test_assignment_row_naming_no_role_warns(self):
        rows = {"Root 1": "AlgA", "Timestamp 1": "AlgA", "Snapshot 1": "AlgA", "Target 1": "AlgA"}
        add = RoleAction(date(2020, 1, 5), ActionKind.ADD, "Target 2", RoleType.TARGET)
        calendar = EventCalendar(role_actions=(add,))
        extra = PerRole({**rows, "Target 7": "AlgA", "Target 2": "AlgA", "Ghost": "AlgZ"})
        result = run_one(
            default_architecture(), extra, calendar, ten_day_ticks(), Catalog([make_alg()])
        )
        plain = run_one(
            default_architecture(), PerRole({**rows, "Target 2": "AlgA"}), calendar,
            ten_day_ticks(), Catalog([make_alg()]),
        )
        assert result._replace(warnings=()) == plain
        assert result.warnings == tuple(
            f"assignment row for '{name}' names no role of the architecture or an add action"
            for name in ("Target 7", "Ghost")
        )

    def test_assignment_row_overridden_by_a_pin_warns(self):
        arch = Architecture(
            "Device_A",
            (
                RoleSpec("Root 1", RoleType.ROOT),
                RoleSpec("Timestamp 1", RoleType.TIMESTAMP),
                RoleSpec("Snapshot 1", RoleType.SNAPSHOT),
                RoleSpec("Target 1", RoleType.TARGET, algorithm_name="AlgA"),
            ),
        )
        pinned_add = RoleAction(date(2020, 1, 5), ActionKind.ADD, "Target 2", RoleType.TARGET, "AlgA")
        calendar = EventCalendar(role_actions=(pinned_add,))
        rows = {"Root 1": "AlgA", "Timestamp 1": "AlgA", "Snapshot 1": "AlgA"}
        catalog = Catalog([make_alg("AlgA"), make_alg("AlgB", sig_size=7)])
        result = run_one(
            arch, PerRole({**rows, "Target 1": "AlgB", "Target 2": "AlgB"}), calendar,
            ten_day_ticks(), catalog,
        )
        plain = run_one(arch, PerRole(rows), calendar, ten_day_ticks(), catalog)
        assert result._replace(warnings=()) == plain
        assert plain.warnings == ()
        assert result.warnings == (
            "assignment row for 'Target 1' is overridden by its pinned algorithm 'AlgA'",
            "assignment row for 'Target 2' is overridden by its pinned algorithm 'AlgA'",
        )

    def test_assignment_row_taken_by_one_unpinned_role_does_not_warn(self):
        unpinned = RoleAction(date(2020, 1, 5), ActionKind.ADD, "Target 1", RoleType.TARGET)
        pinned = RoleAction(date(2020, 1, 6), ActionKind.ADD, "Target 1", RoleType.TARGET, "AlgB")
        rows = {"Root 1": "AlgA", "Timestamp 1": "AlgA", "Snapshot 1": "AlgA", "Target 1": "AlgA"}
        catalog = Catalog([make_alg("AlgA"), make_alg("AlgB")])
        taken = run_one(
            default_architecture(), PerRole(rows), EventCalendar(role_actions=(pinned, unpinned)),
            ten_day_ticks(), catalog,
        )
        assert taken.warnings == ()
        arch = Architecture(
            "Device_A",
            tuple(spec._replace(algorithm_name="AlgA") for spec in default_architecture().role_specs),
        )
        overridden = run_one(
            arch, PerRole(rows), EventCalendar(role_actions=(pinned,)), ten_day_ticks(), catalog
        )
        assert overridden.warnings == tuple(
            f"assignment row for '{name}' is overridden by its pinned algorithm 'AlgA'"
            for name in ("Root 1", "Timestamp 1", "Snapshot 1")
        ) + ("assignment row for 'Target 1' is overridden by its pinned algorithms 'AlgA', 'AlgB'",)

    @given(run=differential_runs())
    @settings(deadline=None, max_examples=100)
    def test_dropped_items_only_add_one_warning_each(self, run):
        arch, assignment, calendar, timeline, catalog = run
        ticks = materialized_ticks(timeline.start, timeline.end, timeline.cadence)
        tick_dates = {day for day, _ in ticks}
        kept = EventCalendar(
            update_events={e for e in calendar.update_events if e[0] in tick_dates},
            role_actions=tuple(a for a in calendar.role_actions if a.date in tick_dates),
        )
        dropped = len(calendar.update_events) + len(calendar.role_actions)
        dropped -= len(kept.update_events) + len(kept.role_actions)
        full = run_one(arch, assignment, calendar, timeline, catalog)
        on_ticks = run_one(arch, assignment, kept, timeline, catalog)
        assert full._replace(warnings=()) == on_ticks._replace(warnings=())
        extra = Counter(full.warnings) - Counter(on_ticks.warnings)
        assert len(full.warnings) == len(on_ticks.warnings) + dropped
        assert sum(extra.values()) == dropped
        assert all(w.endswith(" falls on no tick and was not applied") for w in extra)


class TestLedgerIsOrderIndependent:
    def test_hourly_decade_cost_is_exact(self):
        end = date(2029, 12, 31)
        result = run_one(
            default_architecture(),
            Uniform("AlgA"),
            generate_poisson_events(0.1, START, end, 0, "Target 1"),
            generate_ticks(START, end, Cadence.HOURLY),
            Catalog([make_alg(cost=0.1)]),
        )
        assert result.total_signatures == 88_325
        # 88,325 one-tick adds of 0.1 would drift to 8832.500000014446
        assert result.cost == 8832.5

    @given(run=differential_runs(), data=st.data())
    @settings(deadline=None, max_examples=100)
    def test_role_order_does_not_change_the_result(self, run, data):
        arch, *rest = run
        shuffled = Architecture(
            arch.device_name, tuple(data.draw(st.permutations(arch.role_specs)))
        )
        assert run_one(shuffled, *rest) == reference_run(arch, *rest)


class TestRunSweep:
    def test_uniform_sweep_rows(self):
        catalog = Catalog([
            make_alg("AlgA", sig_size=100, pk_size=50),
            make_alg("AlgB", sig_size=200, pk_size=10),
            make_alg("AlgC", sig_size=4000, pk_size=60),
        ])
        results = run_sweep(
            default_architecture(),
            [Uniform(a.name) for a in catalog],
            ten_day_events(),
            ten_day_ticks(),
            catalog,
        )
        assert [r.assignment for r in results] == ["AlgA", "AlgB", "AlgC"]
        assert len({r.total_signatures for r in results}) == 1
        assert [r.sig_bytes for r in results] == [1700, 3400, 68000]

    def test_sweep_equals_individual_runs(self):
        catalog = Catalog([make_alg("AlgA"), make_alg("AlgB", sig_size=300)])
        assignments = [Uniform("AlgA"), Uniform("AlgB")]
        swept = run_sweep(
            default_architecture(), assignments, ten_day_events(), ten_day_ticks(), catalog
        )
        alone = [
            run_one(
                default_architecture(), a, ten_day_events(), ten_day_ticks(), catalog
            )
            for a in assignments
        ]
        assert swept == alone

    def test_per_role_bytes_are_per_role_lifetimes_times_sizes(self):
        catalog = Catalog([
            make_alg("AlgRoot", sig_size=1000),
            make_alg("AlgTs", sig_size=1),
            make_alg("AlgSnap", sig_size=10),
            make_alg("AlgTgt", sig_size=100),
        ])
        assignment = PerRole(
            {
                "Root 1": "AlgRoot",
                "Timestamp 1": "AlgTs",
                "Snapshot 1": "AlgSnap",
                "Target 1": "AlgTgt",
            }
        )
        [result] = run_sweep(
            default_architecture(), [assignment], ten_day_events(), ten_day_ticks(), catalog
        )
        # lifetimes from the ten-day trace: root 1, timestamp 10, snapshot 3, target 3
        assert result.sig_bytes == 1 * 1000 + 10 * 1 + 3 * 10 + 3 * 100
        assert result.assignment == "per-role"

    def test_empty_assignments_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(default_architecture(), [], EventCalendar(), [], Catalog([make_alg()]))

    def test_signature_count_ignores_sizes(self):
        rng = random.Random(99)
        for _ in range(10):
            D = rng.randint(1, 60)
            days = [START + timedelta(days=i) for i in range(D)]
            calendar = EventCalendar(
                update_events={
                    (d, "Target 1") for d in rng.sample(days, rng.randint(0, min(D, 6)))
                }
            )
            ticks = generate_ticks(START, days[-1], Cadence.DAILY)
            max_sigs = rng.choice([2, 5, 10**6])
            small = run_one(
                default_architecture(),
                Uniform("Alg"),
                calendar,
                ticks,
                Catalog([make_alg("Alg", sig_size=10, pk_size=5, max_sigs=max_sigs, cost=0.25)]),
            )
            big = run_one(
                default_architecture(),
                Uniform("Alg"),
                calendar,
                ticks,
                Catalog(
                    [make_alg("Alg", sig_size=9999, pk_size=888, max_sigs=max_sigs, cost=7.5)]
                ),
            )
            assert small.total_signatures == big.total_signatures
            assert small.rollover_events == big.rollover_events


@st.composite
def sweep_runs(draw):
    """A differential run whose catalog has budgets that often collide."""
    arch, _, calendar, timeline, catalog = draw(
        differential_runs(algorithms=5, budgets=(1, 3, 10**18))
    )
    if draw(st.booleans()):
        # every spec pins and an unpinned add joins, so only an add slot
        # tells the runs apart
        pin = st.sampled_from([alg.name for alg in catalog])
        arch = Architecture(
            arch.device_name,
            tuple(spec._replace(algorithm_name=draw(pin)) for spec in arch.role_specs),
        )
        offset = draw(st.integers(0, (timeline.end - timeline.start).days))
        add = RoleAction(timeline.start + timedelta(days=offset), ActionKind.ADD,
                         draw(st.sampled_from(DIFF_NAMES)), draw(st.sampled_from(list(RoleType))))
        calendar = calendar._replace(role_actions=calendar.role_actions + (add,))
    return arch, calendar, timeline, catalog


@st.composite
def saturating_runs(draw):
    """A sweep whose budgets sit around the tick count n: a role signs at
    most once per tick, so n - 1 can run out on the last tick and n or more
    never can."""
    arch, calendar, timeline, catalog = draw(
        sweep_runs().filter(lambda run: run[2].cadence is not Cadence.MINUTE)
    )
    n = len(timeline)
    budgets = st.sampled_from([b for b in (n - 1, n, n + 1, 10**18) if b >= 1])
    return arch, calendar, timeline, Catalog([
        SignatureAlgorithm(a.name, a.sig_size, a.pk_size, draw(budgets), a.cost) for a in catalog
    ])


def counted_runs(monkeypatch):
    """Record the per-slot algorithm names of each call the sweep makes of
    the module-global `run_scenario`."""
    calls = []

    def counting(script, algorithms):
        calls.append(tuple(alg.name for alg in algorithms))
        return run_scenario(script, algorithms)

    monkeypatch.setattr(tufsim.runner, "run_scenario", counting)
    return calls


class TestSweepSimulatesOncePerBudgetVector:
    @given(run=sweep_runs())
    @settings(deadline=None, max_examples=100)
    def test_sweep_equals_one_reference_run_per_assignment(self, run):
        arch, calendar, timeline, catalog = run
        assignments = [Uniform(alg.name) for alg in catalog]
        swept = run_sweep(arch, assignments, calendar, timeline, catalog)
        expected = [reference_run(arch, a, calendar, timeline, catalog) for a in assignments]
        assert swept == expected
        assert [r.slot_counts for r in swept] == [r.slot_counts for r in expected]
        assert emit_report_csv(swept) == emit_report_csv(expected)

    @given(run=saturating_runs())
    @settings(deadline=None, max_examples=100)
    def test_budgets_that_cannot_run_out_share_a_run(self, run):
        arch, calendar, timeline, catalog = run
        assignments = [Uniform(alg.name) for alg in catalog]
        swept = run_sweep(arch, assignments, calendar, timeline, catalog)
        expected = [reference_run(arch, a, calendar, timeline, catalog) for a in assignments]
        assert swept == expected
        assert [r.slot_counts for r in swept] == [r.slot_counts for r in expected]

    def test_budgets_of_the_tick_count_or_more_simulate_once(self, monkeypatch):
        catalog = Catalog([
            make_alg("Alg10", max_sigs=10, sig_size=7),
            make_alg("Alg11", max_sigs=11, sig_size=70),
            make_alg("AlgHuge", max_sigs=10**18, sig_size=700),
            make_alg("Alg9", max_sigs=9),
        ])
        assignments = [Uniform(alg.name) for alg in catalog]
        calls = counted_runs(monkeypatch)
        swept = run_sweep(
            default_architecture(), assignments, ten_day_events(), ten_day_ticks(), catalog
        )
        assert len(ten_day_ticks()) == 10
        assert calls == [("Alg10",) * 4, ("Alg9",) * 4]
        assert swept == [
            reference_run(default_architecture(), a, ten_day_events(), ten_day_ticks(), catalog)
            for a in assignments
        ]
        # the ninth Timestamp signature exhausts Alg9's key before the last tick
        assert swept[3].rollover_events == swept[0].rollover_events + 1

    def test_per_role_sweep_groups_by_every_slot_s_budget(self, monkeypatch):
        arch = Architecture(
            "Device_A",
            (
                RoleSpec("Root 1", RoleType.ROOT),
                RoleSpec("Timestamp 1", RoleType.TIMESTAMP, algorithm_name="AlgA"),
                RoleSpec("Snapshot 1", RoleType.SNAPSHOT),
                RoleSpec("Target 1", RoleType.TARGET),
            ),
        )
        calendar = EventCalendar(
            update_events={(date(2020, 1, d), "Target 2") for d in (6, 7, 8, 9)},
            role_actions=(RoleAction(date(2020, 1, 5), ActionKind.ADD, "Target 2", RoleType.TARGET),),
        )
        catalog = Catalog([
            make_alg("AlgA"),
            make_alg("AlgB", sig_size=2420, pk_size=1312, cost=0.25),
            make_alg("AlgSmall", sig_size=1456, pk_size=60, max_sigs=2, cost=0.5),
        ])
        rows = {"Root 1": "AlgA", "Snapshot 1": "AlgA", "Target 1": "AlgA", "Target 2": "AlgA"}
        assignments = [
            PerRole(rows, label="base"),
            PerRole({**rows, "Target 2": "AlgSmall"}, label="small-add"),
            PerRole({**rows, "Root 1": "AlgB", "Target 1": "AlgB"}, label="same-budgets"),
            PerRole({**rows, "Timestamp 1": "AlgSmall"}, label="pinned-row"),
        ]
        calls = counted_runs(monkeypatch)
        swept = run_sweep(arch, assignments, calendar, ten_day_ticks(), catalog)
        expected = [reference_run(arch, a, calendar, ten_day_ticks(), catalog) for a in assignments]
        assert swept == expected
        assert [r.slot_counts for r in swept] == [r.slot_counts for r in expected]
        # base, same-budgets and pinned-row share one budget vector; the
        # run is made with the algorithms of the first, base
        assert calls == [("AlgA",) * 5, ("AlgA",) * 4 + ("AlgSmall",)]
        assert swept[3].warnings == (
            "assignment row for 'Timestamp 1' is overridden by its pinned algorithm 'AlgA'",
        )
        assert swept[0].total_signatures != swept[1].total_signatures
        assert swept[0].sig_bytes != swept[2].sig_bytes

    def test_identical_add_rows_are_two_slots(self, monkeypatch):
        add = RoleAction(date(2020, 1, 4), ActionKind.ADD, "Target 2", RoleType.TARGET)
        calendar = EventCalendar(
            update_events={(date(2020, 1, 6), "Target 2")}, role_actions=(add, add)
        )
        catalog = Catalog([make_alg("AlgA"), make_alg("AlgB", sig_size=9, pk_size=3, max_sigs=1)])
        rows = {"Root 1": "AlgA", "Timestamp 1": "AlgA", "Snapshot 1": "AlgA", "Target 1": "AlgA"}
        assignments = [PerRole({**rows, "Target 2": name}, label=name) for name in ("AlgA", "AlgB")]
        calls = counted_runs(monkeypatch)
        swept = run_sweep(default_architecture(), assignments, calendar, ten_day_ticks(), catalog)
        expected = [
            reference_run(default_architecture(), a, calendar, ten_day_ticks(), catalog)
            for a in assignments
        ]
        assert swept == expected
        assert [r.slot_counts for r in swept] == [r.slot_counts for r in expected]
        assert len(calls) == 2
        assert len(swept[0].slot_counts) == 6
        assert swept[0].slot_counts[4] == swept[0].slot_counts[5] != (0, 0)

    def test_each_name_resolves_once_per_sweep(self, monkeypatch):
        names = []

        def counting(name, *args):
            names.append(name)
            return find_algorithm(name, *args)

        monkeypatch.setattr(tufsim.runner, "find_algorithm", counting)
        add = RoleAction(date(2020, 1, 4), ActionKind.ADD, "Target 2", RoleType.TARGET)
        catalog = Catalog(
            [make_alg("AlgA"), make_alg("AlgB", sig_size=7), make_alg("AlgC", max_sigs=3)]
        )
        run_sweep(
            default_architecture(), [Uniform(a.name) for a in catalog],
            EventCalendar(role_actions=(add,)), ten_day_ticks(), catalog,
        )
        # five slots (four role specs and one add) per assignment, one lookup per name
        assert names == ["AlgA", "AlgB", "AlgC"]

    def test_add_on_a_date_without_a_tick_counts_zero(self):
        add = RoleAction(date(2020, 1, 3), ActionKind.ADD, "Target 2", RoleType.TARGET)
        result = run_one(
            default_architecture(), Uniform("AlgA"), EventCalendar(role_actions=(add,)),
            generate_ticks(START, date(2020, 1, 31), Cadence.WEEKLY), Catalog([make_alg()]),
        )
        assert result.slot_counts[4] == (0, 0)
        assert sum(sigs for sigs, _ in result.slot_counts) == result.total_signatures

    def test_catalog_of_one_budget_simulates_once(self, monkeypatch):
        catalog = Catalog([make_alg(f"Alg{i}", sig_size=10 + i, cost=i / 7) for i in range(20)])
        calls = counted_runs(monkeypatch)
        swept = run_sweep(
            default_architecture(), [Uniform(a.name) for a in catalog], ten_day_events(),
            ten_day_ticks(), catalog,
        )
        assert calls == [("Alg0",) * 4]
        assert swept == [
            run_one(default_architecture(), Uniform(a.name), ten_day_events(),
                         ten_day_ticks(), catalog)
            for a in catalog
        ]

    def test_bad_name_fails_before_any_run(self, monkeypatch):
        calls = counted_runs(monkeypatch)
        with pytest.raises(ConfigurationError, match="role 'Root 1': algorithm 'AlgZ'"):
            run_sweep(
                default_architecture(), [Uniform("AlgA"), Uniform("AlgZ")], EventCalendar(),
                ten_day_ticks(), Catalog([make_alg()]),
            )
        assert calls == []

    def test_bad_name_after_found_names_its_first_slot(self, monkeypatch):
        calls = counted_runs(monkeypatch)
        rows = {"Root 1": "AlgA", "Timestamp 1": "AlgA", "Snapshot 1": "AlgZ", "Target 1": "AlgZ"}
        message = "^role 'Snapshot 1': algorithm 'AlgZ' is not in the catalog$"
        with pytest.raises(ConfigurationError, match=message):
            run_sweep(
                default_architecture(), [Uniform("AlgA"), PerRole(rows)], EventCalendar(),
                ten_day_ticks(), Catalog([make_alg()]),
            )
        assert calls == []

    def test_find_algorithm_gives_the_entry_or_the_sweep_error(self):
        catalog = Catalog([make_alg("AlgA")])
        assert find_algorithm("AlgA", catalog, "Root 1") is catalog.get("AlgA")
        message = "^role 'Root 1': algorithm 'AlgB' is not in the catalog$"
        with pytest.raises(ConfigurationError, match=message):
            find_algorithm("AlgB", catalog, "Root 1")
        with pytest.raises(ConfigurationError, match=message):
            find_algorithm("AlgB", Catalog(), "Root 1")


class TestEmitReportCsv:
    def test_golden_row(self):
        result = run_one(
            default_architecture(), Uniform("AlgA"), ten_day_events(), ten_day_ticks(),
            Catalog([make_alg()]),
        )
        text = emit_report_csv([result])
        lines = text.splitlines()
        assert lines[0] == (
            "Device,Assignment,Signature Bytes,Public Key Bytes,Total Bytes,"
            "Verification Cost,Total Signatures,Rollover Events,Root Publications"
        )
        assert lines[1] == "Device_A,AlgA,1700,200,1900,17.000000,17,4,1"

    def test_empty_results(self):
        assert emit_report_csv([]).splitlines() == [
            "Device,Assignment,Signature Bytes,Public Key Bytes,Total Bytes,"
            "Verification Cost,Total Signatures,Rollover Events,Root Publications"
        ]

    def test_round_trip(self):
        import csv
        import io

        results = run_sweep(
            default_architecture(),
            [Uniform("AlgA"), Uniform("AlgB")],
            ten_day_events(),
            ten_day_ticks(),
            Catalog([make_alg("AlgA"), make_alg("AlgB", sig_size=77, cost=0.125)]),
        )
        rows = list(csv.reader(io.StringIO(emit_report_csv(results))))
        for row, result in zip(rows[1:], results):
            assert int(row[2]) == result.sig_bytes
            assert int(row[3]) == result.pk_bytes
            assert int(row[4]) == result.total_bytes
            assert float(row[5]) == pytest.approx(result.cost, abs=1e-6)
            assert int(row[6]) == result.total_signatures
            assert int(row[7]) == result.rollover_events
            assert int(row[8]) == result.root_publications


ARCHITECTURE_COLUMNS = ["Role Name", "Role Type", "Algorithm", "Reserve"]


@st.composite
def architecture_rows(draw):
    """Rows of names, role types, Algorithm and Reserve cells, on most
    draws with one well-formed role of each type among them."""
    rows = draw(st.lists(st.fixed_dictionaries({
        "Role Name": NAME_CELLS,
        "Role Type": ROLE_TYPE_CELLS,
        "Algorithm": st.sampled_from(["", "AlgA"]),
        "Reserve": BOOL_CELLS,
    }), max_size=4))
    if draw(st.integers(0, 3)):
        rows += [{"Role Name": f"{t.value} 1", "Role Type": t.value, "Algorithm": "",
                  "Reserve": ""} for t in RoleType]
    return draw(st.permutations(rows))


class TestArchitecture:
    def test_missing_role_type_is_a_hard_error(self):
        with pytest.raises(ConfigurationError, match="Snapshot"):
            Architecture(
                "Device_A",
                (
                    RoleSpec("Root 1", RoleType.ROOT),
                    RoleSpec("Timestamp 1", RoleType.TIMESTAMP),
                    RoleSpec("Target 1", RoleType.TARGET),
                ),
            )

    def test_parse_architecture_csv(self):
        arch = parse_architecture_csv(
            "Role Name,Role Type,Algorithm,Reserve\n"
            "Root 1,Root,,\n"
            "Timestamp 1,Timestamp,AlgA,false\n"
            "Snapshot 1,Snapshot,,\n"
            "Target 1,Target,,true\n"
        )
        assert arch.device_name == "Device_A"
        assert arch.role_specs[1].algorithm_name == "AlgA"
        assert arch.role_specs[3].reserve is True
        assert arch.role_specs[0].algorithm_name is None

    def test_parse_architecture_rejects_bad_reserve(self):
        with pytest.raises(ConfigurationError, match="Reserve"):
            parse_architecture_csv(
                "Role Name,Role Type,Algorithm,Reserve\nRoot 1,Root,,maybe\n"
            )

    def test_parse_architecture_rejects_unknown_role_type(self):
        with pytest.raises(ConfigurationError, match="role type"):
            parse_architecture_csv(
                "Role Name,Role Type,Algorithm,Reserve\nMirror 1,Mirror,,\n"
            )

    def test_parse_architecture_missing_column(self):
        with pytest.raises(ConfigurationError, match="Reserve"):
            parse_architecture_csv("Role Name,Role Type,Algorithm\n")

    @pytest.mark.parametrize(
        "spec, message",
        [
            (RoleSpec("Target 2", "Target"), "role 'Target 2' needs a RoleType and a bool "
                                             "reserve, got 'Target' and False"),
            (RoleSpec("Target 2", RoleType.TARGET, reserve="false"),
             "got <RoleType.TARGET: 'Target'> and 'false'"),
            (RoleSpec("Target 2", RoleType.TARGET, reserve=0), "and 0$"),
            (RoleSpec("Target 2", RoleType.TARGET, reserve=None), "and None$"),
        ],
        ids=["role type as text", "reserve as text", "reserve 0", "reserve None"],
    )
    def test_a_spec_of_the_wrong_type_is_rejected(self, spec, message):
        arch = default_architecture()
        specs = (*arch.role_specs, spec)
        with pytest.raises(ConfigurationError, match=message):
            Architecture("Device_A", specs)
        with pytest.raises(ConfigurationError, match=message):
            Architecture._make(("Device_A", specs))
        with pytest.raises(ConfigurationError, match=message):
            arch._replace(role_specs=specs)

    @settings(max_examples=400, deadline=None)
    @given(text=table_texts(ARCHITECTURE_COLUMNS, architecture_rows()))
    def test_same_architecture_or_error_as_row_by_row_reference(self, text):
        parsed = outcome(lambda t: parse_architecture_csv(t, "D"), text)
        assert parsed == outcome(lambda t: reference_architecture(t, "D"), text)


class TestParseAssignmentCsv:
    def test_parse(self):
        assignment = parse_assignment_csv(
            "Role Name,Algorithm\nRoot 1,AlgA\nTarget 1,AlgB\n", label="mixed"
        )
        assert assignment.algorithms == {"Root 1": "AlgA", "Target 1": "AlgB"}
        assert assignment.label == "mixed"

    def test_duplicate_role_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_assignment_csv("Role Name,Algorithm\nRoot 1,AlgA\nRoot 1,AlgB\n")

    def test_blank_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_assignment_csv("Role Name,Algorithm\nRoot 1,\n")
