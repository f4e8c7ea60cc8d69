"""The rules every input table shares, checked once per reader.

Each reader takes a header row, requires some columns, skips blank rows
and reads a cell missing from a short row as empty; what a reader does
with an empty cell is its own field check.
"""

from __future__ import annotations

import io
from datetime import date

import pytest

from tufsim import (
    CalendarError,
    CatalogError,
    ConfigurationError,
    RoleType,
    load_event_dates,
    load_role_actions,
    parse_algorithm_catalog,
    parse_architecture_csv,
    parse_assignment_csv,
)
from tufsim.cli import run_cli

# reader, its error class, the header, some valid rows, its required columns
READERS = {
    "catalog": (
        parse_algorithm_catalog,
        CatalogError,
        "Name,Signature Size,Public Key Size,Max Signatures,Computational Cost",
        ["AlgA,100,50,1E4,1.5", "AlgB,2420,32,1024,0.75"],
        ["Name", "Signature Size", "Public Key Size", "Max Signatures", "Computational Cost"],
    ),
    "events": (
        lambda text: load_event_dates(text, "Target 1"),
        CalendarError,
        "Date,Target",
        ["2020-01-03,Target 2", "2020-01-04,"],
        ["Date"],
    ),
    "actions": (
        load_role_actions,
        CalendarError,
        "Date,Action,Name,RoleType,Algorithm,Flag",
        ["2020-01-02,add,Target 2,Target,AlgB,", "2020-01-03,reserve,Target 2,,,true"],
        ["Date", "Action", "Name", "RoleType", "Algorithm", "Flag"],
    ),
    "architecture": (
        parse_architecture_csv,
        ConfigurationError,
        "Role Name,Role Type,Algorithm,Reserve",
        ["Root 1,Root,,", "Timestamp 1,Timestamp,AlgA,false",
         "Snapshot 1,Snapshot,,", "Target 1,Target,,true"],
        ["Role Name", "Role Type", "Algorithm", "Reserve"],
    ),
    "assignment": (
        parse_assignment_csv,
        ConfigurationError,
        "Role Name,Algorithm",
        ["Root 1,AlgA", "Target 1,AlgB"],
        ["Role Name", "Algorithm"],
    ),
}
reader_names = pytest.mark.parametrize("reader", list(READERS))


@reader_names
def test_empty_text_is_that_reader_s_error(reader):
    parse, error, *_ = READERS[reader]
    with pytest.raises(error):
        parse("")


@reader_names
def test_missing_required_column_is_named(reader):
    parse, error, header, _, required = READERS[reader]
    for column in required:
        kept = ",".join(c for c in header.split(",") if c != column)
        with pytest.raises(error, match=f"'{column}'"):
            parse(kept + "\n")


@reader_names
def test_blank_rows_are_skipped(reader):
    parse, _, header, rows, _ = READERS[reader]
    width = header.count(",")
    padded = [header, "", rows[0], " " + ", " * width, *rows[1:], ""]
    assert parse("\n".join(padded) + "\n") == parse("\n".join([header, *rows]) + "\n")


@reader_names
def test_a_column_named_twice_is_an_error_naming_it(reader):
    parse, error, header, rows, _ = READERS[reader]
    for column in header.split(","):
        with pytest.raises(error, match=f"names the '{column}' column twice$"):
            parse("\n".join([f"{header},{column}", *(row + "," for row in rows)]) + "\n")


@reader_names
def test_a_repeated_column_no_reader_uses_is_ignored(reader):
    parse, _, header, rows, _ = READERS[reader]
    noted = [f"{header},Note,Note", *(row + ",x,y" for row in rows)]
    assert parse("\n".join(noted) + "\n") == parse("\n".join([header, *rows]) + "\n")


@reader_names
def test_one_leading_byte_order_mark_is_dropped(reader):
    # spreadsheet "CSV UTF-8" exports write U+FEFF before the header
    parse, error, header, rows, _ = READERS[reader]
    text = "\n".join([header, *rows]) + "\n"
    assert parse("\ufeff" + text) == parse(text)
    with pytest.raises(error, match="is empty"):
        parse("\ufeff")
    first = header.split(",")[0]
    with pytest.raises(error, match=f"missing the '{first}' column"):
        parse("\ufeff\ufeff" + text)


def test_a_catalog_column_named_twice_fails_the_run(tmp_path):
    header, rows = READERS["catalog"][2:4]
    catalog = tmp_path / "algorithms.csv"
    catalog.write_text(f"{header},Signature Size\n" + "".join(row + ",999\n" for row in rows))
    out, err = io.StringIO(), io.StringIO()
    argv = ["--algorithms", str(catalog), "--start", "2020-01-01", "--end", "2020-01-10"]
    assert run_cli(argv, stdout=out, stderr=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue() == "error: catalog names the 'Signature Size' column twice\n"


def test_short_event_row_binds_the_default_target():
    calendar = load_event_dates("Date,Target\n2020-01-03\n", "Target 1")
    assert calendar.update_events == {(date(2020, 1, 3), "Target 1")}


def test_short_architecture_row_defers_algorithm_and_is_not_reserve():
    arch = parse_architecture_csv(
        "Role Name,Role Type,Algorithm,Reserve\n"
        "Root 1,Root\nTimestamp 1,Timestamp\nSnapshot 1,Snapshot\nTarget 1,Target\n"
    )
    root = arch.role_specs[0]
    assert (root.role_type, root.algorithm_name, root.reserve) == (RoleType.ROOT, None, False)


def test_short_action_row_reads_missing_cells_as_empty():
    [action] = load_role_actions(
        "Date,Action,Name,RoleType,Algorithm,Flag\n2020-01-04,remove,Target 2\n"
    ).role_actions
    assert (action.name, action.algorithm_name, action.flag) == ("Target 2", None, None)


def test_short_assignment_row_needs_its_algorithm():
    with pytest.raises(ConfigurationError, match="row 3"):
        parse_assignment_csv("Role Name,Algorithm\nRoot 1,AlgA\nTarget 1\n")


@pytest.mark.parametrize(
    "header",
    [
        "Name,Signature Size,Public Key Size,Max Signatures,Computational Cost",
        "Signature Size,Public Key Size,Max Signatures,Computational Cost,Name",
    ],
)
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_short_catalog_row_is_an_error_naming_its_row(header, width):
    cells = {"Name": "AlgA", "Signature Size": "100", "Public Key Size": "50",
             "Max Signatures": "1E4", "Computational Cost": "1.5"}
    short = ",".join(cells[column] for column in header.split(",")[:width])
    with pytest.raises(CatalogError, match="row 2"):
        parse_algorithm_catalog(f"{header}\n{short}\n")
