"""The CSV table reader behind every input file."""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator, Sequence

from .errors import TufSimError


def read_table(
    text: str,
    what: str,
    error: type[TufSimError],
    required: Sequence[str],
    optional: Sequence[str] = (),
) -> Iterator[tuple[int, list[str]]]:
    """Yield `(row number, cells)` for each data row of a CSV table.

    The first row is the header; its cells are matched after stripping
    surrounding whitespace, and column order is free.  Each `required`
    column must be present, or `error` names it; an absent `optional`
    column reads as empty.  Cells come back stripped, in the order of
    `required` then `optional`, with a cell missing from a short row read
    as "".  Rows whose cells are all blank are skipped.  Row numbers count
    CSV records from 1, the header included.
    """
    rows = csv.reader(io.StringIO(text))
    header = next(rows, None)
    if header is None:
        raise error(f"{what} is empty; expected a header row")
    header = [cell.strip() for cell in header]
    for column in required:
        if column not in header:
            raise error(f"{what} is missing the '{column}' column")
    positions = [header.index(column) for column in required]
    positions += [header.index(c) if c in header else None for c in optional]
    # a row this wide has every cell, unless an optional column is absent
    width = float("inf") if None in positions else max(positions) + 1
    for lineno, row in enumerate(rows, start=2):
        if not "".join(row).strip():
            continue
        if len(row) >= width:
            yield lineno, [row[i].strip() for i in positions]
        else:
            yield lineno, [
                row[i].strip() if i is not None and i < len(row) else "" for i in positions
            ]
