from __future__ import annotations

import hashlib
import pickle
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tufsim import (
    ActionKind,
    Cadence,
    CalendarError,
    EventCalendar,
    RoleAction,
    RoleType,
    Timeline,
    generate_poisson_events,
    generate_ticks,
    load_event_dates,
    load_role_actions,
    merge_calendars,
)
from tests.oracle import materialized_ticks

START = date(2020, 1, 1)
# basic-format and week dates: `date.fromisoformat` takes them from Python
# 3.11 on, but they are not YYYY-MM-DD
NOT_YYYY_MM_DD = ["20200105", "2020-W02-1", "2020W021"]


class TestGenerateTicks:
    def test_daily_inclusive_count(self):
        end = date(2020, 1, 10)
        timeline = generate_ticks(START, end, Cadence.DAILY)
        ticks = list(materialized_ticks(START, end, Cadence.DAILY))
        assert len(timeline) == len(ticks) == 10
        assert ticks[0] == (START, 0) and ticks[-1] == (end, 0)
        assert timeline.position(end) == 9

    def test_degenerate_range(self):
        assert len(generate_ticks(START, START, Cadence.DAILY)) == 1

    def test_hourly_sub_indices(self):
        assert len(generate_ticks(START, START, Cadence.HOURLY)) == 24
        ticks = generate_ticks(START, START + timedelta(days=1), Cadence.HOURLY)
        assert len(ticks) == 48
        # the first date's ticks take positions 0-23, so the next one starts at 24
        days = [START + timedelta(days=d) for d in range(3)]
        assert [ticks.position(day) for day in days] == [0, 24, None]

    def test_minute_count(self):
        assert len(generate_ticks(START, START, Cadence.MINUTE)) == 1440

    def test_weekly_every_seventh_date(self):
        ticks = generate_ticks(START, date(2020, 1, 31), Cadence.WEEKLY)
        assert len(ticks) == 5
        assert [ticks.position(START + timedelta(days=d)) for d in range(32)] == [
            None if d % 7 else d // 7 for d in range(31)
        ] + [None]

    def test_reversed_range_is_an_error(self):
        with pytest.raises(CalendarError):
            generate_ticks(date(2020, 1, 2), START, Cadence.DAILY)

    @given(
        offset=st.integers(min_value=0, max_value=3000),
        length=st.integers(min_value=1, max_value=200),
        cadence=st.sampled_from(list(Cadence)),
    )
    @settings(deadline=None)
    def test_count_matches_closed_form(self, offset, length, cadence):
        start = START + timedelta(days=offset)
        end = start + timedelta(days=length - 1)
        ticks = generate_ticks(start, end, cadence)
        if cadence is Cadence.WEEKLY:
            expected = (length + 6) // 7
        else:
            expected = length * cadence.sub_ticks
        assert len(ticks) == expected


# Ranges stay under ~3000 ticks so the materialized oracle stays quick.
ORACLE_DAYS = {Cadence.WEEKLY: 400, Cadence.DAILY: 400, Cadence.HOURLY: 60, Cadence.MINUTE: 2}


def first_tick_index(ticks, day):
    """Linear-scan oracle for `Timeline.position` over (date, sub) pairs."""
    return next((i for i, (tick_day, _) in enumerate(ticks) if tick_day == day), None)


class TestTimeline:
    @given(
        offset=st.integers(min_value=0, max_value=3000),
        cadence=st.sampled_from(list(Cadence)),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_matches_materialized_list(self, offset, cadence, data):
        start = START + timedelta(days=offset)
        end = start + timedelta(days=data.draw(st.integers(0, ORACLE_DAYS[cadence] - 1)))
        timeline = generate_ticks(start, end, cadence)
        expected = list(materialized_ticks(start, end, cadence))
        assert isinstance(timeline, Timeline)
        assert len(timeline) == len(expected)
        day = start + timedelta(days=data.draw(st.integers(-8, (end - start).days + 8)))
        assert timeline.position(day) == first_tick_index(expected, day)

    def test_every_on_grid_tick_indexes_to_its_position(self):
        for cadence in Cadence:
            timeline = generate_ticks(START, date(2020, 1, 15), cadence)
            for i, (day, sub) in enumerate(materialized_ticks(START, date(2020, 1, 15), cadence)):
                if sub == 0:
                    assert timeline.position(day) == i

    @pytest.mark.parametrize(
        "cadence, tick",
        [
            (Cadence.WEEKLY, (date(2020, 1, 3), 0)),  # off the 7-day grid
            (Cadence.WEEKLY, (START, 1)),
            (Cadence.DAILY, (START, 1)),
            (Cadence.HOURLY, (START, 24)),
            (Cadence.MINUTE, (START, 1440)),
            (Cadence.MINUTE, (START, -1)),
            (Cadence.DAILY, (date(2019, 12, 31), 0)),  # before start
            (Cadence.DAILY, (date(2020, 2, 1), 0)),  # after end
            (Cadence.WEEKLY, (date(2020, 2, 5), 0)),  # on the grid, after end
            (Cadence.DAILY, (date(2020, 1, 3), 1)),  # a date with one tick
        ],
    )
    def test_index_rejects_ticks_off_the_timeline(self, cadence, tick):
        timeline = generate_ticks(START, date(2020, 1, 31), cadence)
        ticks = list(materialized_ticks(START, date(2020, 1, 31), cadence))
        assert tick not in ticks
        # position agrees with the ticks: None exactly when no tick has the
        # date, else the index of the date's first tick
        day, _ = tick
        assert timeline.position(day) == first_tick_index(ticks, day)

    def test_size_does_not_grow_with_the_range(self):
        timeline = generate_ticks(START, date(2119, 12, 31), Cadence.MINUTE)
        assert len(timeline) == 36524 * 1440  # 2100 is not a leap year
        assert timeline.position(date(2119, 12, 31)) == len(timeline) - 1440
        assert timeline.position(date(2120, 1, 1)) is None


class TestLoadEventDates:
    def test_rows_bind_to_default_target(self):
        calendar = load_event_dates("Date\n2020-01-03\n2020-01-07\n", "Target 1")
        assert calendar.update_events == {
            (date(2020, 1, 3), "Target 1"),
            (date(2020, 1, 7), "Target 1"),
        }

    def test_duplicate_rows_collapse(self):
        calendar = load_event_dates("Date\n2020-01-03\n2020-01-03\n", "Target 1")
        assert len(calendar.update_events) == 1

    def test_invalid_date_names_row(self):
        with pytest.raises(CalendarError, match="row 2"):
            load_event_dates("Date\n2020-13-40\n", "Target 1")

    @pytest.mark.parametrize("text", NOT_YYYY_MM_DD)
    def test_date_must_be_yyyy_mm_dd(self, text):
        with pytest.raises(CalendarError, match=f"row 2: invalid date '{text}'"):
            load_event_dates(f"Date\n{text}\n", "Target 1")

    def test_missing_date_header(self):
        with pytest.raises(CalendarError, match="Date"):
            load_event_dates("When\n2020-01-03\n", "Target 1")

    def test_target_column(self):
        calendar = load_event_dates(
            "Date,Target\n2020-01-03,Target 2\n2020-01-04,\n", "Target 1"
        )
        assert calendar.update_events == {
            (date(2020, 1, 3), "Target 2"),
            (date(2020, 1, 4), "Target 1"),
        }

    def test_blank_rows_skipped(self):
        calendar = load_event_dates("Date\n\n2020-01-03\n\n", "Target 1")
        assert len(calendar.update_events) == 1


class TestPoissonEvents:
    def test_zero_rate_is_empty(self):
        calendar = generate_poisson_events(0.0, START, date(2022, 1, 1), 7, "Target 1")
        assert calendar.update_events == frozenset()

    def test_deterministic_for_equal_inputs(self):
        a = generate_poisson_events(0.3, START, date(2021, 1, 1), 42, "Target 1")
        b = generate_poisson_events(0.3, START, date(2021, 1, 1), 42, "Target 1")
        assert a == b

    def test_seed_changes_the_calendar(self):
        a = generate_poisson_events(0.3, START, date(2021, 1, 1), 1, "Target 1")
        b = generate_poisson_events(0.3, START, date(2021, 1, 1), 2, "Target 1")
        assert a != b

    def test_negative_rate_rejected(self):
        with pytest.raises(CalendarError):
            generate_poisson_events(-0.1, START, START, 0, "Target 1")

    def test_nan_rate_rejected(self):
        with pytest.raises(CalendarError, match="non-negative"):
            generate_poisson_events(float("nan"), START, START, 0, "Target 1")

    def test_reversed_range_rejected(self):
        with pytest.raises(CalendarError):
            generate_poisson_events(0.1, date(2020, 2, 1), START, 0, "Target 1")

    def test_high_rate_fills_every_date(self):
        calendar = generate_poisson_events(50.0, START, date(2020, 1, 20), 3, "Target 1")
        assert len(calendar.update_events) == 20

    def test_events_fall_inside_range(self):
        end = date(2020, 6, 1)
        calendar = generate_poisson_events(0.5, START, end, 9, "Target 1")
        assert all(START <= day <= end for day, _ in calendar.update_events)

    def test_calendar_digest_is_pinned(self):
        calendar = generate_poisson_events(0.3, START, date(2020, 12, 31), 42, "Target 1")
        text = "\n".join(day.isoformat() for day, _ in sorted(calendar.update_events))
        assert len(calendar.update_events) == 97
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9c62dcf4ed5c695bdab111250bad0c28766f3d660738985d66ef8468945d6274"
        )


class TestMergeCalendars:
    def test_empty_calendar_is_identity(self):
        calendar = load_event_dates("Date\n2020-01-03\n", "Target 1")
        assert merge_calendars(calendar, EventCalendar()) == calendar
        assert merge_calendars(EventCalendar(), calendar) == calendar

    def test_overlapping_events_collapse(self):
        a = load_event_dates("Date\n2020-01-03\n2020-01-04\n", "Target 1")
        b = load_event_dates("Date\n2020-01-03\n", "Target 1")
        assert len(merge_calendars(a, b).update_events) == 2

    def test_disjoint_union_size(self):
        a = load_event_dates("Date\n2020-01-01\n2020-01-02\n", "Target 1")
        b = load_event_dates("Date\n2020-02-01\n2020-02-02\n2020-02-03\n", "Target 1")
        assert len(merge_calendars(a, b).update_events) == 5

    def test_actions_interleave_by_date_first_argument_first(self):
        a = load_role_actions(
            "Date,Action,Name,RoleType,Algorithm,Flag\n"
            "2020-01-05,remove,Target 2,,,\n"
            "2020-01-01,remove,Target 3,,,\n"
        )
        b = load_role_actions(
            "Date,Action,Name,RoleType,Algorithm,Flag\n"
            "2020-01-05,remove,Target 4,,,\n"
        )
        merged = merge_calendars(a, b)
        assert [(x.date, x.name) for x in merged.role_actions] == [
            (date(2020, 1, 1), "Target 3"),
            (date(2020, 1, 5), "Target 2"),
            (date(2020, 1, 5), "Target 4"),
        ]

    @given(st.data())
    def test_merge_is_associative_on_events(self, data):
        days = st.integers(min_value=0, max_value=20)
        def calendar():
            picked = data.draw(st.lists(days, max_size=6))
            return EventCalendar(
                update_events={(START + timedelta(days=d), "Target 1") for d in picked}
            )
        a, b, c = calendar(), calendar(), calendar()
        left = merge_calendars(merge_calendars(a, b), c).update_events
        right = merge_calendars(a, merge_calendars(b, c)).update_events
        assert left == right


class TestLoadRoleActions:
    HEADER = "Date,Action,Name,RoleType,Algorithm,Flag\n"

    def test_parses_all_three_kinds(self):
        calendar = load_role_actions(
            self.HEADER
            + "2020-01-02,add,Target 2,Target,AlgB,\n"
            + "2020-01-03,reserve,Target 2,,,true\n"
            + "2020-01-04,remove,Target 2,,,\n"
        )
        kinds = [a.kind for a in calendar.role_actions]
        assert kinds == [ActionKind.ADD, ActionKind.RESERVE, ActionKind.REMOVE]
        add = calendar.role_actions[0]
        assert add.role_type is RoleType.TARGET
        assert add.algorithm_name == "AlgB"
        assert calendar.role_actions[1].flag is True

    def test_add_without_algorithm_defers_to_assignment(self):
        calendar = load_role_actions(self.HEADER + "2020-01-02,add,Target 2,Target,,\n")
        assert calendar.role_actions[0].algorithm_name is None

    def test_action_case_is_insensitive(self):
        calendar = load_role_actions(self.HEADER + "2020-01-02,Remove,Target 2,,,\n")
        assert calendar.role_actions[0].kind is ActionKind.REMOVE

    @pytest.mark.parametrize("text", NOT_YYYY_MM_DD)
    def test_date_must_be_yyyy_mm_dd(self, text):
        with pytest.raises(CalendarError, match=f"row 2: invalid date '{text}'"):
            load_role_actions(self.HEADER + f"{text},remove,Target 2,,,\n")

    def test_unknown_action_rejected(self):
        with pytest.raises(CalendarError, match="row 2"):
            load_role_actions(self.HEADER + "2020-01-02,rename,Target 2,,,\n")

    def test_bad_role_type_rejected(self):
        with pytest.raises(CalendarError, match="role type"):
            load_role_actions(self.HEADER + "2020-01-02,add,Target 2,Mirror,AlgA,\n")

    def test_reserve_needs_flag(self):
        with pytest.raises(CalendarError, match="Flag"):
            load_role_actions(self.HEADER + "2020-01-02,reserve,Target 2,,,\n")

    def test_missing_column_rejected(self):
        with pytest.raises(CalendarError, match="Flag"):
            load_role_actions("Date,Action,Name,RoleType,Algorithm\n")

    @pytest.mark.parametrize(
        "row, column, cell",
        [
            ("add,Target 2,Target,AlgB,true", "Flag", "true"),
            ("reserve,Target 2,Snapshot,,false", "RoleType", "Snapshot"),
            ("reserve,Target 2,,AlgA,false", "Algorithm", "AlgA"),
            ("remove,Target 2,Target,,", "RoleType", "Target"),
            ("remove,Target 2,,AlgA,", "Algorithm", "AlgA"),
            ("remove,Target 2,,,true", "Flag", "true"),
        ],
    )
    def test_cell_the_action_does_not_read_is_rejected(self, row, column, cell):
        kind = row.split(",")[0]
        message = f"^row 3: {kind} action takes no {column}, got '{cell}'$"
        with pytest.raises(CalendarError, match=message):
            load_role_actions(
                self.HEADER + "2020-01-02,remove,Target 1,,,\n" + "2020-01-03," + row + "\n"
            )


class TestRoleActionRecord:
    """A `RoleAction` holds only the fields its kind reads, however it is
    made, so a library caller cannot build an action the loader would
    reject."""

    DAY = date(2020, 1, 2)
    UNSET = {"role_type": None, "algorithm_name": None, "flag": None}
    GOOD = {
        ActionKind.ADD: {"role_type": RoleType.TARGET, "algorithm_name": "AlgA"},
        ActionKind.REMOVE: {},
        ActionKind.RESERVE: {"flag": False},
    }
    BAD = [
        (ActionKind.ADD, {"role_type": RoleType.TARGET, "flag": True}, "takes no flag"),
        (ActionKind.ADD, {"role_type": RoleType.TARGET, "flag": False}, "takes no flag"),
        (ActionKind.ADD, {}, "needs a RoleType"),
        (ActionKind.ADD, {"role_type": "Target"}, "needs a RoleType"),
        (ActionKind.REMOVE, {"role_type": RoleType.TARGET}, "takes no role_type"),
        (ActionKind.REMOVE, {"algorithm_name": "AlgA"}, "takes no algorithm_name"),
        (ActionKind.REMOVE, {"flag": False}, "takes no flag"),
        (ActionKind.RESERVE, {"role_type": RoleType.TARGET, "flag": True}, "takes no role_type"),
        (ActionKind.RESERVE, {"algorithm_name": "AlgA", "flag": True}, "takes no algorithm_name"),
        (ActionKind.RESERVE, {}, "needs a bool flag"),
        (ActionKind.RESERVE, {"flag": "true"}, "needs a bool flag"),
        (ActionKind.RESERVE, {"flag": 1}, "needs a bool flag"),
    ]

    @pytest.mark.parametrize("kind", list(ActionKind))
    def test_each_kind_builds_from_the_fields_it_reads(self, kind):
        fields = {**self.UNSET, **self.GOOD[kind]}
        action = RoleAction(self.DAY, kind, "Target 2", **fields)
        assert action == (self.DAY, kind, "Target 2", *fields.values())
        assert RoleAction._make(action) == action
        assert action._replace(name="Target 3").name == "Target 3"
        assert pickle.loads(pickle.dumps(action)) == action

    @pytest.mark.parametrize("kind, fields, message", BAD)
    def test_constructor_rejects_a_field_its_kind_does_not_take(self, kind, fields, message):
        with pytest.raises(CalendarError, match=f"^{kind.value} action for 'Target 2' {message}"):
            RoleAction(self.DAY, kind, "Target 2", **fields)

    @pytest.mark.parametrize("kind, fields, message", BAD)
    def test_make_rejects_a_field_its_kind_does_not_take(self, kind, fields, message):
        with pytest.raises(CalendarError, match=message):
            RoleAction._make((self.DAY, kind, "Target 2", *{**self.UNSET, **fields}.values()))

    @pytest.mark.parametrize("kind, fields, message", BAD)
    def test_replace_rejects_a_field_its_kind_does_not_take(self, kind, fields, message):
        good = RoleAction(self.DAY, kind, "Target 2", **self.GOOD[kind])
        with pytest.raises(CalendarError, match=message):
            good._replace(**{**self.UNSET, **fields})

    def test_replace_checks_a_changed_kind(self):
        remove = RoleAction(self.DAY, ActionKind.REMOVE, "Target 2")
        with pytest.raises(CalendarError, match="reserve action for 'Target 2' needs a bool flag"):
            remove._replace(kind=ActionKind.RESERVE)
