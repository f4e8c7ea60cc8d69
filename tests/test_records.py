"""The public records: what each constructor, comparison and copy gives.

Cold records are `typing.NamedTuple`s; `SignatureAlgorithm` and
`RoleState`, read on every busy tick, and `Timeline`, which
`compile_script` reads once per calendar date, are `__slots__` classes.
None is a dataclass, so importing the CLI loads neither `dataclasses` nor
`inspect`.
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from tufsim import (
    ActionKind,
    Architecture,
    Cadence,
    CalendarError,
    ConfigurationError,
    EventCalendar,
    LedgerTotals,
    PerRole,
    RoleAction,
    RoleSpec,
    RoleState,
    RoleType,
    RunResult,
    SignatureAlgorithm,
    Timeline,
    Uniform,
    ValidationError,
    default_architecture,
)

SRC = Path(__file__).resolve().parent.parent / "src"
DAY = date(2020, 1, 1)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -I -S: no site packages or environment can import either first;
    # -B: no bytecode written into src/ for a later run to skip compiling
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tufsim.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"


def fields(record) -> tuple:
    return tuple(getattr(record, field) for field in record._fields)


def alg(**changes) -> SignatureAlgorithm:
    values = {"name": "AlgA", "sig_size": 100, "pk_size": 50, "max_sigs": 1024, "cost": 1.5}
    return SignatureAlgorithm(**{**values, **changes})


def run_result(**changes) -> RunResult:
    values = dict(device_name="Device_A", assignment="AlgA", sig_bytes=10, pk_bytes=5,
                  cost=1.5, total_signatures=3, rollover_events=1, root_publications=1)
    return RunResult(**{**values, **changes})


# one instance of each record, and an equal one built separately
RECORDS = {
    "SignatureAlgorithm": lambda: alg(),
    "RoleState": lambda: RoleState("Root 1", RoleType.ROOT, alg()),
    "LedgerTotals": lambda: LedgerTotals("Device_A", 1, 2, 3, 0.5, 4, 5, 6),
    "RoleAction": lambda: RoleAction(DAY, ActionKind.ADD, "Target 2", RoleType.TARGET),
    "EventCalendar": lambda: EventCalendar(
        {(DAY, "Target 1")}, [RoleAction(DAY, ActionKind.REMOVE, "x")]
    ),
    "Timeline": lambda: Timeline(DAY, date(2020, 1, 31), Cadence.HOURLY),
    "RoleSpec": lambda: RoleSpec("Root 1", RoleType.ROOT),
    "Architecture": lambda: default_architecture(),
    "Uniform": lambda: Uniform("AlgA"),
    "PerRole": lambda: PerRole({"Root 1": "AlgA"}),
    "RunResult": lambda: run_result(warnings=("w",), slot_counts=((1, 2),)),
}
record_names = pytest.mark.parametrize("name", list(RECORDS))
FROZEN = [name for name in RECORDS if name != "RoleState"]
SLOTS = ["SignatureAlgorithm", "Timeline", "RoleState"]
UNHASHABLE = {"RoleState", "PerRole"}  # mutable, or holding a dict


@record_names
def test_equal_fields_make_equal_records(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert first is not second
    assert first == second and not first != second
    if name not in UNHASHABLE:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_mutable_records_are_unhashable(name):
    with pytest.raises(TypeError, match="unhashable"):
        hash(RECORDS[name]())


@pytest.mark.parametrize("name", FROZEN)
def test_assigning_a_field_of_a_frozen_record_raises(name):
    record = RECORDS[name]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)


@record_names
def test_records_copy_and_pickle_by_value(name):
    record = RECORDS[name]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record


def test_role_state_fields_are_writable_but_not_extensible():
    role = RECORDS["RoleState"]()
    role.lifetime_sigs += 1
    assert role != RECORDS["RoleState"]()
    with pytest.raises(AttributeError):
        role.extra = 1


def test_constructor_defaults():
    role = RoleState("T", RoleType.TARGET, alg())
    assert fields(role)[3:] == (0, 0, 0, False, True, True)
    assert RoleAction(DAY, ActionKind.REMOVE, "x")[3:] == (None, None, None)
    assert EventCalendar() == (frozenset(), ())
    assert RoleSpec("Root 1", RoleType.ROOT)[2:] == (None, False)
    assert PerRole({}).label == "per-role"
    assert Uniform("AlgA").label == "AlgA"
    result = run_result()
    assert (result.warnings, result.slot_counts, result.total_bytes) == ((), (), 15)


def test_field_order_and_keywords():
    assert SignatureAlgorithm("A", 1, 2, 3, 4.0) == alg(name="A", sig_size=1, pk_size=2,
                                                        max_sigs=3, cost=4.0)
    assert Timeline(DAY, DAY, Cadence.DAILY) == Timeline(start=DAY, end=DAY, cadence=Cadence.DAILY)
    role = RoleState(name="R", role_type=RoleType.ROOT, algorithm=alg(), lifetime_sigs=7,
                     key_start=2, key_publications=3, reserve=True, pending=False, rollover=False)
    assert fields(role) == ("R", RoleType.ROOT, alg(), 7, 2, 3, True, False, False)
    assert Architecture(device_name="D", role_specs=default_architecture().role_specs)[0] == "D"
    assert LedgerTotals._fields == ("name", "sig_bytes", "pk_bytes", "total_bytes", "cost",
                                    "signatures", "rollover_events", "root_publications")
    assert RunResult._fields[-2:] == ("warnings", "slot_counts")


def test_records_of_one_class_compare_field_by_field():
    assert alg() != alg(cost=2.0)
    assert Timeline(DAY, DAY, Cadence.DAILY) != Timeline(DAY, DAY, Cadence.HOURLY)
    assert alg() != ("AlgA", 100, 50, 1024, 1.5)
    assert Uniform("AlgA") == ("AlgA",)  # a NamedTuple is a tuple


def test_run_result_equality_and_hash_leave_out_slot_counts():
    counted = run_result(slot_counts=((5, 1), (2, 1)))
    assert counted == run_result() and not counted != run_result()
    assert hash(counted) == hash(run_result())
    assert counted != run_result(warnings=("w",))
    assert counted != tuple(run_result())


def test_signature_algorithm_repr_and_hash():
    assert repr(alg()) == (
        "SignatureAlgorithm(name='AlgA', sig_size=100, pk_size=50, max_sigs=1024, cost=1.5)"
    )
    assert hash(alg()) == hash(("AlgA", 100, 50, 1024, 1.5))


def test_reprs_name_every_field():
    assert repr(Timeline(DAY, DAY, Cadence.DAILY)) == (
        "Timeline(start=datetime.date(2020, 1, 1), end=datetime.date(2020, 1, 1), "
        "cadence=<Cadence.DAILY: 'daily'>)"
    )
    assert repr(RoleState("R", RoleType.ROOT, alg())).startswith(
        "RoleState(name='R', role_type=<RoleType.ROOT: 'Root'>, algorithm=SignatureAlgorithm("
    )
    assert repr(EventCalendar()) == "EventCalendar(update_events=frozenset(), role_actions=())"
    assert repr(Uniform("A")) == "Uniform(algorithm_name='A')"


def test_constructors_check_their_fields():
    with pytest.raises(ValidationError, match="^algorithm name must be non-empty$"):
        alg(name=" ")
    with pytest.raises(ValidationError, match="^AlgA: max_sigs must be >= 1$"):
        alg(max_sigs=0)
    with pytest.raises(CalendarError, match="^start date 2020-01-02 is after end date 2020-01-01$"):
        Timeline(date(2020, 1, 2), DAY, Cadence.DAILY)
    with pytest.raises(ConfigurationError, match="^architecture 'D' has no Target role$"):
        Architecture("D", default_architecture().role_specs[:3])


def test_replace_and_make_check_and_normalise_like_the_constructor():
    arch = default_architecture()
    with pytest.raises(ConfigurationError, match="has no Root role"):
        arch._replace(role_specs=arch.role_specs[1:])
    with pytest.raises(ConfigurationError, match="has no Root role"):
        Architecture._make(["D", arch.role_specs[1:]])
    assert arch._replace(role_specs=list(arch.role_specs)) == arch
    assert type(arch._replace(role_specs=list(arch.role_specs)).role_specs) is tuple

    calendar = EventCalendar()._replace(update_events={(DAY, "T")}, role_actions=[])
    assert type(calendar.update_events) is frozenset and type(calendar.role_actions) is tuple
    made = EventCalendar._make([[(DAY, "T")], iter(())])
    assert made == calendar and type(made.update_events) is frozenset


@pytest.mark.parametrize("name", SLOTS)
def test_slots_records_have_no_replace(name):
    record = RECORDS[name]()
    assert not hasattr(record, "_replace")
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", [n for n in RECORDS if n not in SLOTS])
def test_namedtuple_records_replace_and_convert_to_dicts(name):
    record = RECORDS[name]()
    field = record._fields[-1]
    assert record._replace(**{field: getattr(record, field)}) == record
    assert list(record._asdict()) == list(record._fields)
