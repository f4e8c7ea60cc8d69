from __future__ import annotations

import csv
import io
from datetime import date

import pytest
from hypothesis import strategies as st

from tufsim import EventCalendar, RunResult, SignatureAlgorithm, run_sweep

# whitespace that str.strip() removes, some of which csv has to quote
PADDING = st.text(" \t\r\n\xa0\u2003\u3000", max_size=2)


def make_alg(
    name: str = "AlgA",
    sig_size: int = 100,
    pk_size: int = 50,
    max_sigs: int = 10**6,
    cost: float = 1.0,
) -> SignatureAlgorithm:
    return SignatureAlgorithm(name, sig_size, pk_size, max_sigs, cost)


def run_one(arch, assignment, calendar, ticks, catalog) -> RunResult:
    """The result of a sweep of one assignment, the one way to run it."""
    [result] = run_sweep(arch, [assignment], calendar, ticks, catalog)
    return result


@pytest.fixture
def uniform_alg() -> SignatureAlgorithm:
    return make_alg()


@pytest.fixture
def ten_day_calendar() -> EventCalendar:
    """Events on the 3rd and 7th day of the canonical ten-day scenario."""
    return EventCalendar(
        update_events={
            (date(2020, 1, 3), "Target 1"),
            (date(2020, 1, 7), "Target 1"),
        }
    )


def outcome(parse, text):
    """What `parse(text)` gives, as its repr, or its error's type and
    message, so a reader and its reference can be compared either way."""
    try:
        return repr(parse(text))
    except Exception as exc:  # any error: both sides must fail alike
        return type(exc), str(exc)


@st.composite
def table_texts(draw, columns, rows):
    """A CSV table of `columns` and of the list of cell dicts `rows` draws.

    The header has the columns in any order, maybe an extra one, and on
    some draws one column missing or named twice; header and cells are
    padded.  Some rows are short, blank or all whitespace.  The table is
    written by `csv.writer`, cells quoted where needed or all of them, on
    some draws after a byte-order mark (U+FEFF).
    """
    header = draw(st.permutations([*columns, *draw(st.sampled_from([[], ["Notes"]]))]))
    shape = draw(st.sampled_from(["full"] * 18 + ["missing", "twice"]))
    if shape == "missing":
        header.remove(draw(st.sampled_from(columns)))
    elif shape == "twice":
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(columns)))
    table = [[draw(PADDING) + column + draw(PADDING) for column in header]]
    for cells in draw(rows):
        row = [draw(PADDING) + cells.get(column, "x") + draw(PADDING) for column in header]
        shape = draw(st.sampled_from(["full"] * 8 + ["short", "blank", "spaces"]))
        if shape == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif shape == "blank":
            row = draw(st.sampled_from([[], [""] * len(row)]))
        elif shape == "spaces":
            row = [draw(PADDING) for _ in row]
        table.append(row)
    out = io.StringIO()
    csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))).writerows(
        table
    )
    return draw(st.sampled_from(["", "\ufeff"])) + out.getvalue()


def any_case(word):
    """`word` with each letter in either case."""
    return st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in word)).map("".join)


# a Flag or Reserve cell: true or false in any case, or empty or junk
BOOL_CELLS = st.one_of(
    any_case("true"), any_case("false"), st.sampled_from(["", "yes", "1", "t"])
)
# a role type cell: a role type, maybe in the wrong case, or no role type
ROLE_TYPE_CELLS = st.sampled_from(
    ["Root", "Timestamp", "Snapshot", "Target"] * 2 + ["target", "ROOT", "Mirror", ""]
)
# a role name cell: one of a few names, or empty
NAME_CELLS = st.sampled_from(["Root 1", "Target 2", "Snapshot 3", "Timestamp 4", ""])
