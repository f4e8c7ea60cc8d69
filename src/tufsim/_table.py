"""The CSV table reader behind every input file.

`Table` resolves the header and picks a record's cells, and `Table.rows`
is the one walk of a table's data records that all five readers use.  The
header rules live only here, and so does the one error csv itself raises,
which the walk turns into the reader's own error naming the line.  csv
reads the text from the top, a piece of whole lines at a time (see
`_pieces`), so a large input is never copied whole.

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

# Characters per piece of the text, rounded up to the end of a line: csv
# reads one piece through each StringIO, and the catalog's line pattern
# takes one piece at a time.  A StringIO holds four bytes a character, so
# one over the whole text is a copy four times the size of an ASCII text;
# pieces cut after a newline give csv the same lines and line numbers.
# A catalog's first read of a row searches for its name within its piece,
# so the size also bounds that search.
CHUNK_CHARS = 1 << 12

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
    an absent optional one, and `width` counts the header's cells.
    """

    def __init__(
        self,
        text: str,
        what: str,
        error: type[TufSimError],
        required: Sequence[str],
        optional: Sequence[str] = (),
    ) -> None:
        self._records = _records(text, what, error)
        header = next(self._records, None)
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
        self.positions, self.width = positions, len(header)

    def rows(self) -> Iterator[tuple[int, list[str]]]:
        """Yield `(row number, cells)` for each data record: its cells
        stripped, in the order of `positions`, with a cell missing from a
        short record read as "".  Records whose cells are all blank are
        skipped.  Row numbers count CSV records from 1, the header
        included.  csv reads on from where it stopped, so a table is
        walked once."""
        positions = self.positions
        for lineno, row in enumerate(self._records, start=2):
            if "".join(row).strip():
                yield lineno, [row[i].strip() if i is not None and i < len(row) else ""
                               for i in positions]


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


def _records(text: str, what: str, error: type[TufSimError]) -> Iterator[list[str]]:
    """csv's records of the text after any byte-order mark; a record csv
    cannot read, such as one with a cell past `csv.field_size_limit()`,
    raises `error` naming the input and the record's line."""
    pieces = _pieces(text, int(text.startswith("\ufeff")))
    records = csv.reader(chain.from_iterable(map(io.StringIO, pieces)))
    try:
        yield from records
    except csv.Error as exc:
        raise error(f"{what} line {records.line_num}: {exc}") from None


def _pieces(text: str, start: int) -> Iterator[str]:
    """The text from `start` on in pieces of about `CHUNK_CHARS`
    characters, each but the last ending just after a newline."""
    while start < len(text):
        end = text.find("\n", start + CHUNK_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end
