from __future__ import annotations

import io
import subprocess
import sys

import pytest

from tufsim.cli import run_cli

ALGORITHMS = (
    "Name,Signature Size,Public Key Size,Max Signatures,Computational Cost\n"
    "AlgA,100,50,1E6,1.0\n"
    "AlgB,2420,32,1E6,0.5\n"
    "AlgC,4000,60,1E4,2.0\n"
)
EVENTS = "Date\n2020-01-03\n2020-01-07\n"


@pytest.fixture
def inputs(tmp_path):
    alg = tmp_path / "algorithms.csv"
    alg.write_text(ALGORITHMS)
    events = tmp_path / "device_A.csv"
    events.write_text(EVENTS)
    return tmp_path


def invoke(args):
    out, err = io.StringIO(), io.StringIO()
    status = run_cli(args, stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


def base_args(inputs, *extra):
    return [
        "--algorithms", str(inputs / "algorithms.csv"),
        "--events", str(inputs / "device_A.csv"),
        "--start", "2020-01-01",
        "--end", "2020-01-10",
        *extra,
    ]


def test_one_row_per_catalog_algorithm(inputs):
    status, out, err = invoke(base_args(inputs))
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 4  # header + three algorithms
    assert [line.split(",")[1] for line in lines[1:]] == ["AlgA", "AlgB", "AlgC"]


def test_golden_first_row(inputs):
    status, out, _ = invoke(base_args(inputs))
    assert status == 0
    assert out.splitlines()[1] == "Device_A,AlgA,1700,200,1900,17.000000,17,4,1"


def test_report_is_sole_stdout_payload(inputs):
    status, out, err = invoke(base_args(inputs, "--verbose"))
    assert status == 0
    assert out.splitlines()[0].startswith("Device,")
    assert "- match 2020-01-03" in err
    assert "- match 2020-01-07" in err
    assert "match" not in out


def test_verbose_matches_only_dates_on_the_weekly_grid(inputs):
    (inputs / "device_A.csv").write_text("Date\n2020-01-15\n2020-01-03\n2020-01-08\n2020-02-05\n")
    args = base_args(inputs, "--verbose", "--cadence", "weekly")
    args[args.index("--end") + 1] = "2020-01-31"
    status, _, err = invoke(args)
    assert status == 0
    # 2020-01-03 is off the 7-day grid and 2020-02-05 is past the end:
    # no match line, and a warning in each of the three runs
    dropped = (
        "warning: 2020-01-03: update event for 'Target 1' falls on no tick and was not applied\n"
        "warning: 2020-02-05: update event for 'Target 1' falls on no tick and was not applied\n"
    )
    assert err == "- match 2020-01-08\n- match 2020-01-15\n" + 3 * dropped


def test_verbose_matches_each_date_once_at_minute_cadence(inputs):
    args = base_args(inputs, "--verbose", "--cadence", "minute")
    args[args.index("--end") + 1] = "2020-01-03"
    status, _, err = invoke(args)
    assert status == 0
    # the 2020-01-07 event is past the end: a warning in each of the three runs
    dropped = "warning: 2020-01-07: update event for 'Target 1' falls on no tick and was not applied\n"
    assert err == "- match 2020-01-03\n" + 3 * dropped


def test_output_flag_writes_file(inputs, tmp_path):
    report = tmp_path / "report.csv"
    status, out, _ = invoke(base_args(inputs, "--output", str(report)))
    assert status == 0
    assert out == ""
    assert report.read_text().splitlines()[1].startswith("Device_A,AlgA,")


def test_missing_algorithms_file(inputs):
    args = base_args(inputs)
    args[1] = str(inputs / "nope.csv")
    status, out, err = invoke(args)
    assert status != 0
    assert out == ""
    assert "nope.csv" in err


# each input flag with a table naming a role or an algorithm in a Latin-1
# spreadsheet export, whose é is the one byte 0xE9, not UTF-8
LATIN_1_INPUTS = {
    "--algorithms": ALGORITHMS.replace("AlgB", "Algé"),
    "--events": "Date,Target\n2020-01-03,Ciblé\n",
    "--actions": "Date,Action,Name,RoleType,Algorithm,Flag\n2020-01-02,add,Ciblé,Target,,\n",
    "--arch": "Role Name,Role Type,Algorithm,Reserve\nRoot 1,Root,,\nCiblé,Target,,\n",
    "--assignment": "Role Name,Algorithm\nRoot 1,Algé\n",
}


@pytest.mark.parametrize("flag", list(LATIN_1_INPUTS))
def test_an_input_that_is_not_utf8_is_an_error_naming_it(inputs, tmp_path, flag):
    path = tmp_path / "latin-1.csv"
    data = LATIN_1_INPUTS[flag].encode("latin-1")
    path.write_bytes(data)
    args = base_args(inputs)
    if flag in args:
        args[args.index(flag) + 1] = str(path)
    else:
        args += [flag, str(path)]
    status, out, err = invoke(args)
    assert (status, out) == (2, "")
    byte = data.index("é".encode("latin-1"))
    assert err == f"error: cannot read '{path}': not UTF-8 text (byte {byte})\n"


def test_seed_requires_poisson_rate(inputs):
    status, _, err = invoke(base_args(inputs, "--seed", "7"))
    assert status != 0
    assert "--poisson-rate" in err


def test_events_and_poisson_are_mutually_exclusive(inputs):
    status, _, err = invoke(base_args(inputs, "--poisson-rate", "0.1"))
    assert status != 0
    assert "mutually exclusive" in err


def test_target_requires_events_or_poisson_rate(inputs):
    args = base_args(inputs, "--target", "Nobody")
    del args[2:4]  # no --events
    status, out, err = invoke(args)
    assert status != 0
    assert out == ""
    assert "--target" in err


def test_target_unused_by_fully_targeted_events_warns(inputs, tmp_path):
    events = tmp_path / "targeted.csv"
    events.write_text("Date,Target\n2020-01-03,Target 1\n2020-01-07,Target 1\n")
    args = base_args(inputs)
    args[3] = str(events)
    _, plain, plain_err = invoke(args)
    status, out, err = invoke([*args, "--target", "Nobody"])
    assert status == 0
    assert out == plain and plain_err == ""
    assert err == "warning: --target not used: every row of the event file names its Target\n"

    # one row without a Target binds it to the flag, so the flag is used
    events.write_text("Date,Target\n2020-01-03,Target 1\n2020-01-07,\n")
    status, _, err = invoke([*args, "--target", "Nobody"])
    assert status == 0
    assert err == 3 * "warning: 2020-01-07: update event for 'Nobody' matched no Target role\n"


def test_target_unused_by_an_event_file_without_rows_says_so(inputs, tmp_path):
    events = tmp_path / "header_only.csv"
    events.write_text("Date,Target\n\n")
    args = base_args(inputs)
    args[3] = str(events)
    status, out, err = invoke([*args, "--target", "Nobody"])
    assert status == 0
    assert out == invoke(args)[1]
    assert err == "warning: --target not used: the event file has no rows\n"


def test_start_after_end(inputs):
    args = base_args(inputs)
    args[args.index("--end") + 1] = "2019-01-01"
    status, _, err = invoke(args)
    assert status != 0
    assert "error:" in err


def test_invalid_date_flag(inputs):
    args = base_args(inputs)
    args[args.index("--start") + 1] = "2020-1-1-1"
    status, _, err = invoke(args)
    assert status != 0


@pytest.mark.parametrize("text", ["20200105", "2020-W02-1", "2020W021"])
def test_start_must_be_yyyy_mm_dd(inputs, text):
    args = base_args(inputs)
    args[args.index("--start") + 1] = text
    status, out, err = invoke(args)
    assert status != 0
    assert out == ""
    assert f"invalid date '{text}'; expected YYYY-MM-DD" in err


def test_missing_required_flag(inputs):
    status, _, err = invoke(["--start", "2020-01-01", "--end", "2020-01-02"])
    assert status != 0
    assert "--algorithms" in err


def test_repeat_invocations_are_byte_identical(inputs):
    _, first, _ = invoke(base_args(inputs))
    _, second, _ = invoke(base_args(inputs))
    assert first == second


def test_files_starting_with_a_byte_order_mark_read_as_plain_ones(inputs, tmp_path):
    # Excel's "CSV UTF-8" writes a byte-order mark before the header
    bom = tmp_path / "bom"
    bom.mkdir()
    (bom / "algorithms.csv").write_text(ALGORITHMS, encoding="utf-8-sig")
    (bom / "device_A.csv").write_text(EVENTS, encoding="utf-8-sig")
    assert (bom / "algorithms.csv").read_bytes().startswith(b"\xef\xbb\xbfName,")
    status, out, err = invoke(base_args(bom))
    assert (status, err) == (0, "")
    assert out == invoke(base_args(inputs))[1]


def test_poisson_mode_runs_and_is_deterministic(inputs):
    args = [
        "--algorithms", str(inputs / "algorithms.csv"),
        "--poisson-rate", "0.2",
        "--seed", "11",
        "--start", "2020-01-01",
        "--end", "2020-06-30",
    ]
    status, first, _ = invoke(args)
    assert status == 0
    _, second, _ = invoke(args)
    assert first == second


def test_nan_poisson_rate_is_an_error(inputs):
    args = base_args(inputs, "--poisson-rate", "nan")
    del args[2:4]  # no --events
    status, out, err = invoke(args)
    assert status == 2
    assert out == ""
    assert err == "error: event rate must be non-negative\n"


def test_without_events_only_timestamps_fire(inputs):
    args = [
        "--algorithms", str(inputs / "algorithms.csv"),
        "--start", "2020-01-01",
        "--end", "2020-01-10",
    ]
    status, out, _ = invoke(args)
    assert status == 0
    # D + 3 signatures with no staged update beyond the first-tick publication
    assert out.splitlines()[1].split(",")[6] == "13"


def test_unknown_target_warning_goes_to_stderr(inputs, tmp_path):
    events = tmp_path / "other.csv"
    events.write_text("Date,Target\n2020-01-03,Ghost\n")
    args = base_args(inputs)
    args[3] = str(events)
    status, out, err = invoke(args)
    assert status == 0
    assert "warning:" in err and "Ghost" in err
    assert "Ghost" not in out


def test_remove_or_reserve_matching_no_role_warns(inputs, tmp_path):
    actions = tmp_path / "actions.csv"
    actions.write_text(
        "Date,Action,Name,RoleType,Algorithm,Flag\n"
        "2020-01-08,remove,Target 9,,,\n"
        "2020-01-08,reserve,Nobody,,,true\n"
    )
    _, plain, _ = invoke(base_args(inputs))
    status, out, err = invoke(base_args(inputs, "--actions", str(actions)))
    assert status == 0
    assert out == plain
    assert err == 3 * (
        "warning: 2020-01-08: remove action for 'Target 9' matched no role\n"
        "warning: 2020-01-08: reserve action for 'Nobody' matched no role\n"
    )


def test_architecture_file(inputs, tmp_path):
    arch = tmp_path / "arch.csv"
    arch.write_text(
        "Role Name,Role Type,Algorithm,Reserve\n"
        "Root 1,Root,,\n"
        "Timestamp 1,Timestamp,,\n"
        "Snapshot 1,Snapshot,,\n"
        "Target 1,Target,,\n"
        "Target 2,Target,,true\n"
    )
    status, out, _ = invoke(base_args(inputs, "--arch", str(arch)))
    assert status == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "250"  # five public keys in the root file


def test_actions_file(inputs, tmp_path):
    actions = tmp_path / "actions.csv"
    actions.write_text(
        "Date,Action,Name,RoleType,Algorithm,Flag\n"
        "2020-01-05,reserve,Timestamp 1,,,true\n"
    )
    status, out, _ = invoke(base_args(inputs, "--actions", str(actions)))
    assert status == 0
    # six timestamp signatures disappear from the ten-day trace
    assert out.splitlines()[1].split(",")[6] == "11"


def test_action_cell_the_action_does_not_read_is_an_error(inputs, tmp_path):
    actions = tmp_path / "actions.csv"
    actions.write_text(
        "Date,Action,Name,RoleType,Algorithm,Flag\n"
        "2020-01-05,add,Target 2,Target,AlgB,true\n"
    )
    status, out, err = invoke(base_args(inputs, "--actions", str(actions)))
    assert status == 2
    assert out == ""
    assert err == "error: row 2: add action takes no Flag, got 'true'\n"


def test_assignment_file(inputs, tmp_path):
    assignment = tmp_path / "mixed.csv"
    assignment.write_text(
        "Role Name,Algorithm\n"
        "Root 1,AlgA\nTimestamp 1,AlgB\nSnapshot 1,AlgA\nTarget 1,AlgC\n"
    )
    status, out, _ = invoke(base_args(inputs, "--assignment", str(assignment)))
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 2  # a per-role map is a single run
    assert lines[1].split(",")[1] == "mixed"


def test_assignment_row_overridden_by_a_pin_warns(inputs, tmp_path):
    arch = tmp_path / "arch.csv"
    arch.write_text(
        "Role Name,Role Type,Algorithm,Reserve\n"
        "Root 1,Root,,\nTimestamp 1,Timestamp,,\nSnapshot 1,Snapshot,,\nTarget 1,Target,AlgA,\n"
    )
    rows = "Role Name,Algorithm\nRoot 1,AlgA\nTimestamp 1,AlgA\nSnapshot 1,AlgA\n"
    reports = []
    for name, extra in (("plain", ""), ("pinned-b", "Target 1,AlgB\n"), ("pinned-a", "Target 1,AlgA\n")):
        assignment = tmp_path / f"{name}.csv"
        assignment.write_text(rows + extra)
        status, out, err = invoke(
            base_args(inputs, "--arch", str(arch), "--assignment", str(assignment))
        )
        assert status == 0
        reports.append(out.splitlines()[1].split(",")[2:])
        if extra:
            assert err == (
                "warning: assignment row for 'Target 1' is overridden by its pinned "
                "algorithm 'AlgA'\n"
            )
        else:
            assert err == ""
    assert reports[0] == reports[1] == reports[2]


def test_empty_catalog_is_an_error(inputs, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("Name,Signature Size,Public Key Size,Max Signatures,Computational Cost\n")
    args = base_args(inputs)
    args[1] = str(empty)
    status, _, err = invoke(args)
    assert status != 0
    assert "no entries" in err


@pytest.mark.parametrize("cell", ["Infinity", "-Infinity", "1E1000000"])
def test_unrepresentable_max_signatures_is_an_error(inputs, tmp_path, cell):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(ALGORITHMS.splitlines()[0] + f"\nAlgA,100,50,{cell},1.0\n")
    args = base_args(inputs)
    args[1] = str(catalog)
    status, out, err = invoke(args)
    assert status == 2
    assert out == ""
    assert err.startswith("error: row 2: 'Max Signatures' value ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("cell", ["inf", "Infinity", "1e400", "-inf", "nan"])
def test_non_finite_cost_is_an_error(inputs, tmp_path, cell):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(ALGORITHMS + f"AlgD,100,50,1E4,{cell}\n")
    args = base_args(inputs)
    args[1] = str(catalog)
    status, out, err = invoke(args)
    assert status == 2
    assert out == ""
    assert err == "error: row 5: AlgD: cost must be finite and >= 0\n"


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("algorithms.csv", ALGORITHMS + "x" * 140_000 + ",100,50,1E4,1.0\n",
         "error: catalog line 5: field larger than field limit (131072)\n"),
        ("device_A.csv", EVENTS + "2020-01-08," + "x" * 140_000 + "\n",
         "error: event file line 4: field larger than field limit (131072)\n"),
    ],
    ids=["catalog", "event file"],
)
def test_a_cell_past_the_csv_field_limit_is_an_error(inputs, name, text, message):
    (inputs / name).write_text(text)
    status, out, err = invoke(base_args(inputs))
    assert (status, out, err) == (2, "", message)


def test_console_entry_point(inputs):
    proc = subprocess.run(
        [sys.executable, "-m", "tufsim.cli", *base_args(inputs)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "Device_A,AlgA,1700,200,1900,17.000000,17,4,1"
