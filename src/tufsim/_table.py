"""The CSV table reader behind every input file.

`Table` resolves the header and picks a record's cells; `read_table` yields
the picked cells of every data row and serves four of the five readers.
The catalog parser walks `Table.records` itself, converting each record's
cells in place, and hands `Table.cells` only the records it cannot accept
whole: a short or blank row, a cell that does not convert, a range
failure, or an empty or repeated name.  The header rules live only here,
and so does the one error csv itself raises, which each walk of
`Table.records` turns into the reader's own error by `Table.failed`.

`read_cell` is the one place a reader converts a picked cell: it returns
the parse's value, or raises the reader's error naming the row and the
problem when the parse raises ValueError.  `parse_bool` is the parse of a
true/false cell, which the caller lower-cases first.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable, Iterator, Sequence
from itertools import chain
from typing import TypeVar

from .errors import TufSimError

# Characters per piece of the text that csv reads through one StringIO,
# rounded up to the end of a line.  A StringIO holds four bytes a
# character, so one over the whole text is a copy four times the size of
# an ASCII text; pieces cut after a newline give csv the same lines and
# line numbers.
CHUNK_CHARS = 1 << 16

T = TypeVar("T")


class Table:
    """A CSV table's data records and where each column read sits in them.

    One leading byte-order mark (U+FEFF), which spreadsheet "CSV UTF-8"
    exports write first, is dropped.  The first row is the header; its
    cells are matched after stripping surrounding whitespace, and column
    order is free.  Each `required` column must be present, or `error`
    names it; an absent `optional` column reads as empty.  A header that
    names a `required` or `optional` column twice is an error too; other
    columns, repeated or not, are ignored.  `positions` holds each read
    column's index, in the order of `required` then `optional`, None for
    an absent optional one.
    """

    def __init__(
        self,
        text: str,
        what: str,
        error: type[TufSimError],
        required: Sequence[str],
        optional: Sequence[str] = (),
    ) -> None:
        if text.startswith("\ufeff"):
            text = text[1:]
        self.what, self.error = what, error
        self.records = csv.reader(chain.from_iterable(_pieces(text)))
        try:
            header = next(self.records, None)
        except csv.Error as exc:
            raise self.failed(exc) from None
        if header is None:
            raise error(f"{what} is empty; expected a header row")
        header = [cell.strip() for cell in header]
        for column in required:
            if column not in header:
                raise error(f"{what} is missing the '{column}' column")
        for column in (*required, *optional):
            if header.count(column) > 1:
                raise error(f"{what} names the '{column}' column twice")
        positions = [header.index(column) for column in required]
        positions += [header.index(c) if c in header else None for c in optional]
        self.positions = positions

    def failed(self, exc: csv.Error) -> TufSimError:
        """The error for a record csv cannot read, such as a cell past
        `csv.field_size_limit()`, naming the input and the record's line."""
        return self.error(f"{self.what} line {self.records.line_num}: {exc}")

    def cells(self, row: list[str]) -> list[str] | None:
        """The record's cells stripped, in the order of `positions`, with a
        cell missing from a short row read as ""; None when every cell of
        the record is blank."""
        if not "".join(row).strip():
            return None
        return [row[i].strip() if i is not None and i < len(row) else "" for i in self.positions]


def read_table(
    text: str,
    what: str,
    error: type[TufSimError],
    required: Sequence[str],
    optional: Sequence[str] = (),
) -> Iterator[tuple[int, list[str]]]:
    """Yield `(row number, cells)` for each data row of a CSV table, as
    `Table.cells` picks them, skipping rows whose cells are all blank.
    Row numbers count CSV records from 1, the header included."""
    table = Table(text, what, error, required, optional)
    try:
        for lineno, row in enumerate(table.records, start=2):
            cells = table.cells(row)
            if cells is not None:
                yield lineno, cells
    except csv.Error as exc:
        raise table.failed(exc) from None


def read_cell(parse: Callable[[str], T], text: str, lineno: int,
              error: type[TufSimError], problem: str) -> T:
    """`parse(text)`; when it raises ValueError, `error` with the message
    "row {lineno}: " and `problem`, its `{}` fields filled with `text`."""
    try:
        return parse(text)
    except ValueError:
        raise error(f"row {lineno}: " + problem.format(text)) from None


def parse_bool(text: str) -> bool:
    """True for "true", False for "false"; ValueError for any other text."""
    if text not in ("true", "false"):
        raise ValueError(f"not true or false: {text!r}")
    return text == "true"


def _pieces(text: str) -> Iterator[io.StringIO]:
    """The text as StringIOs of about `CHUNK_CHARS` characters, each but
    the last ending just after a newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + CHUNK_CHARS) + 1 or len(text)
        yield io.StringIO(text[start:end])
        start = end
