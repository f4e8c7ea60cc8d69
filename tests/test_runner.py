from __future__ import annotations

import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tufsim import (
    ActionKind,
    Architecture,
    Cadence,
    ConfigurationError,
    EventCalendar,
    PerRole,
    Repository,
    RoleAction,
    RoleSpec,
    RoleType,
    RunResult,
    Uniform,
    default_architecture,
    emit_report_csv,
    generate_poisson_events,
    generate_ticks,
    load_role_actions,
    parse_architecture_csv,
    parse_assignment_csv,
    run_scenario,
    run_sweep,
)
from tests.conftest import make_alg

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
        result = run_scenario(
            default_architecture(),
            Uniform("AlgA"),
            ten_day_events(),
            ten_day_ticks(),
            [make_alg()],
        )
        assert result.total_signatures == 17
        assert result.sig_bytes == 1700
        assert result.pk_bytes == 200
        assert result.total_bytes == 1900
        assert result.cost == pytest.approx(17.0, abs=1e-6)
        assert result.rollover_events == 4
        assert result.root_publications == 1
        assert result.warnings == ()

    def test_ten_day_trace_with_key_exhaustion(self):
        result = run_scenario(
            default_architecture(),
            Uniform("AlgA"),
            ten_day_events(),
            ten_day_ticks(),
            [make_alg(max_sigs=4)],
        )
        assert result.total_signatures == 19
        assert result.sig_bytes == 1900
        assert result.pk_bytes == 600
        assert result.cost == pytest.approx(19.0, abs=1e-6)
        assert result.rollover_events == 6
        assert result.root_publications == 3

    def test_zero_ticks(self):
        result = run_scenario(
            default_architecture(), Uniform("AlgA"), EventCalendar(), [], [make_alg()]
        )
        assert result.total_signatures == 0
        assert result.total_bytes == 0
        assert result.rollover_events == 0
        assert result.root_publications == 0

    def test_unknown_target_warns_and_continues(self):
        calendar = EventCalendar(update_events={(date(2020, 1, 3), "Target X")})
        result = run_scenario(
            default_architecture(), Uniform("AlgA"), calendar, ten_day_ticks(), [make_alg()]
        )
        assert len(result.warnings) == 1
        assert "Target X" in result.warnings[0]
        # the miss leaves the ledger on the no-update path
        assert result.total_signatures == 13

    def test_unresolvable_algorithm_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="AlgZ"):
            run_scenario(
                default_architecture(),
                Uniform("AlgZ"),
                EventCalendar(),
                ten_day_ticks(),
                [make_alg()],
            )

    def test_per_role_assignment_missing_name(self):
        with pytest.raises(ConfigurationError, match="Snapshot 1"):
            run_scenario(
                default_architecture(),
                PerRole({"Root 1": "AlgA", "Timestamp 1": "AlgA", "Target 1": "AlgA"}),
                EventCalendar(),
                ten_day_ticks(),
                [make_alg()],
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
        catalog = [make_alg("AlgA"), make_alg("AlgBig", sig_size=1000)]
        result = run_scenario(
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
        result = run_scenario(
            arch, Uniform("AlgA"), ten_day_events(), ten_day_ticks(), [make_alg()]
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
        result = run_scenario(
            default_architecture(), Uniform("AlgA"), calendar, ten_day_ticks(), [make_alg()]
        )
        # the staged update lands on the role added the same day
        assert result.warnings == ()

    def test_removing_last_root_warns(self):
        actions = load_role_actions(
            "Date,Action,Name,RoleType,Algorithm,Flag\n"
            "2020-01-05,remove,Root 1,,,\n"
        )
        result = run_scenario(
            default_architecture(),
            Uniform("AlgA"),
            EventCalendar(role_actions=actions.role_actions),
            ten_day_ticks(),
            [make_alg()],
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
            result = run_scenario(
                default_architecture(), Uniform("AlgA"), calendar, ticks, [make_alg()]
            )
            e1 = int(START in event_days)
            assert result.total_signatures == self.expected(D, len(event_days), e1)
            assert result.pk_bytes == 4 * 50
            assert result.rollover_events == 4
            assert result.root_publications == 1


def tick_by_tick(arch, assignment, calendar, ticks, catalog) -> RunResult:
    """Reference run: walk every tick, act on each date's first tick.

    Takes a Uniform assignment; names resolve against the catalog directly.
    """
    algorithms = {alg.name: alg for alg in catalog}

    def algorithm(pinned):
        return algorithms[pinned or assignment.algorithm_name]

    repo = Repository(arch.device_name)
    for spec in arch.role_specs:
        repo.add_role(spec.name, spec.role_type, algorithm(spec.algorithm_name))
        repo.roles[-1].reserve = spec.reserve
    warnings = []
    for tick in ticks:
        if tick.sub_index == 0:
            day = tick.date
            actions = [a for a in calendar.role_actions if a.date == day]
            for action in actions:
                if action.kind is ActionKind.ADD:
                    repo.add_role(action.name, action.role_type, algorithm(action.algorithm_name))
                elif action.kind is ActionKind.REMOVE:
                    repo.remove_role(action.name)
                else:
                    repo.set_reserve(action.name, action.flag)
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
        repo.publish_timestamp()
    t = repo.ledger_totals()
    return RunResult(
        arch.device_name, assignment.label, t.sig_bytes, t.pk_bytes, t.cost,
        t.signatures, t.rollover_events, t.root_publications, tuple(warnings),
    )


DIFF_NAMES = ["Root 2", "Timestamp 1", "Timestamp 2", "Snapshot 1", "Target 1", "Target 2"]
# Date ranges stay near 400 ticks so the reference run stays quick.
MAX_DAYS = {Cadence.WEEKLY: 120, Cadence.DAILY: 60, Cadence.HOURLY: 12, Cadence.MINUTE: 2}


@st.composite
def differential_runs(draw):
    cadence = draw(st.sampled_from(list(Cadence)))
    days = draw(st.integers(1, MAX_DAYS[cadence]))
    catalog = [
        make_alg(
            f"Alg{i}",
            sig_size=draw(st.integers(1, 3000)),
            pk_size=draw(st.integers(1, 500)),
            max_sigs=draw(st.sampled_from([1, 2, 3, 4, 5, 10**18])),
            cost=draw(st.sampled_from([0.1, 0.5, 2.9, 4.3, 1 / 3])),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
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
    actions = draw(
        st.lists(
            st.builds(RoleAction, date=when, kind=st.just(ActionKind.ADD),
                      name=st.sampled_from(DIFF_NAMES),
                      role_type=st.sampled_from(list(RoleType)), algorithm_name=pinned)
            | st.builds(RoleAction, date=when, kind=st.just(ActionKind.REMOVE),
                        name=st.sampled_from(DIFF_NAMES + ["Root 1", "Target 1"]))
            | st.builds(RoleAction, date=when, kind=st.just(ActionKind.RESERVE),
                        name=st.sampled_from(DIFF_NAMES + ["Timestamp 1"]),
                        flag=st.booleans()),
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


class TestEngineMatchesTickByTick:
    @given(run=differential_runs())
    @settings(deadline=None, max_examples=100)
    def test_same_result_and_report(self, run):
        expected = tick_by_tick(*run)
        arch, assignment, calendar, ticks, catalog = run
        for sequence in (ticks, list(ticks)):
            result = run_scenario(arch, assignment, calendar, sequence, catalog)
            assert result == expected
            assert emit_report_csv([result]) == emit_report_csv([expected])


class TestLedgerIsOrderIndependent:
    def test_hourly_decade_cost_is_exact(self):
        end = date(2029, 12, 31)
        result = run_scenario(
            default_architecture(),
            Uniform("AlgA"),
            generate_poisson_events(0.1, START, end, 0, "Target 1"),
            generate_ticks(START, end, Cadence.HOURLY),
            [make_alg(cost=0.1)],
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
        assert run_scenario(shuffled, *rest) == run_scenario(arch, *rest)


class TestRunSweep:
    def test_uniform_sweep_rows(self):
        catalog = [
            make_alg("AlgA", sig_size=100, pk_size=50),
            make_alg("AlgB", sig_size=200, pk_size=10),
            make_alg("AlgC", sig_size=4000, pk_size=60),
        ]
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
        catalog = [make_alg("AlgA"), make_alg("AlgB", sig_size=300)]
        assignments = [Uniform("AlgA"), Uniform("AlgB")]
        swept = run_sweep(
            default_architecture(), assignments, ten_day_events(), ten_day_ticks(), catalog
        )
        alone = [
            run_scenario(
                default_architecture(), a, ten_day_events(), ten_day_ticks(), catalog
            )
            for a in assignments
        ]
        assert swept == alone

    def test_per_role_bytes_are_per_role_lifetimes_times_sizes(self):
        catalog = [
            make_alg("AlgRoot", sig_size=1000),
            make_alg("AlgTs", sig_size=1),
            make_alg("AlgSnap", sig_size=10),
            make_alg("AlgTgt", sig_size=100),
        ]
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
            run_sweep(default_architecture(), [], EventCalendar(), [], [make_alg()])

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
            small = run_scenario(
                default_architecture(),
                Uniform("Alg"),
                calendar,
                ticks,
                [make_alg("Alg", sig_size=10, pk_size=5, max_sigs=max_sigs, cost=0.25)],
            )
            big = run_scenario(
                default_architecture(),
                Uniform("Alg"),
                calendar,
                ticks,
                [make_alg("Alg", sig_size=9999, pk_size=888, max_sigs=max_sigs, cost=7.5)],
            )
            assert small.total_signatures == big.total_signatures
            assert small.rollover_events == big.rollover_events


class TestEmitReportCsv:
    def test_golden_row(self):
        result = run_scenario(
            default_architecture(), Uniform("AlgA"), ten_day_events(), ten_day_ticks(), [make_alg()]
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
            [make_alg("AlgA"), make_alg("AlgB", sig_size=77, cost=0.125)],
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
