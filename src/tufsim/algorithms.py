"""Signature-algorithm parameter catalogs.

A catalog is a sequence of named parameter sets (signature size, public-key
size, signature budget per key, per-verification cost) loaded from a CSV
table.  Every row is checked when the table is parsed, but a row becomes
a `SignatureAlgorithm` only when it is first read, since a sweep over a
large catalog may use a handful of its rows.

One regular expression takes the whole body of a plain catalog in one
pass over pieces of whole lines (see `_table`), so a large catalog is
never copied whole: it accepts only lines that csv and a split at commas
read alike and whose cells the per-row checks accept.  The csv field
limit is checked once a piece: no cell is longer than the piece that
holds it, so csv accepts every cell of a piece no longer than the limit.
The pattern gives only the names: the catalog keeps the text it parsed,
and each name maps to the number of the piece that holds its line.
Every read of a row, by name, by index or by iteration, goes through
`Catalog.get`, which on a row's first read searches for its name within
that piece of about 4 KB, so iterating over a whole large catalog costs
one such search a row.  When any line fails the pattern, a piece is
longer than the field limit or a name repeats, it takes nothing, and the
catalog is read by csv and checked row by row through `Table.rows`, as
every other input is; such a row is kept as the text of its four number
cells.  Either way a row is checked once, when the catalog is parsed,
and its first read only converts its cells.

`SignatureAlgorithm` is an immutable `__slots__` record, since the engine
reads its `max_sigs` on every busy tick; it has no `_replace`, so build a
changed one with the constructor, which checks it again.

Catalogs are immutable after parsing and safe to share between threads.
What a catalog fills in on first read never changes what a read returns:
each built entry is stored with `dict.setdefault`, so threads that read a
row for the first time at once all get the one object stored first, and
the list of names behind indexing comes out the same whichever thread
makes it.
"""

from __future__ import annotations

import csv
import math
import re
from collections.abc import Container, Iterable, Iterator, Sequence
from decimal import Decimal, InvalidOperation
from functools import lru_cache
from itertools import repeat
from operator import itemgetter

from ._record import FrozenRecord
from ._table import Table, _pieces, read_cell
from .errors import CatalogError, ValidationError

_REQUIRED_COLUMNS = (
    "Name",
    "Signature Size",
    "Public Key Size",
    "Max Signatures",
    "Computational Cost",
)

# Signature budgets are kept as exact integers; a budget from this bound up
# would overflow a signed 64-bit counter.
_MAX_SIGS_BOUND = 2**63

# The line pattern's cells: an unread cell csv reads as is, and the number
# cells the per-row checks convert in range.  No cell has a length bound,
# since `_taken` tests the csv field limit once a piece; only values are
# bounded.  A size has at most 18 digits, so that a digit run past int()'s
# limit (4,300 digits since Python 3.11) fails the pattern at parse, not
# on first read.  A budget is 1 <= value < 2**63 with no leading zero, as
# an integer or as d[.ddd]E<exp>; at 19 digits or E18 only a leading 1 to 8
# stays below 2**63.  A cost of at most 308 digits before the point is finite.
_CELL = r'[^"\r\n\0,]'
_BUDGET = (r"(?:[1-9][0-9]{0,17}|[1-8][0-9]{18}"
           r"|[1-9](?:\.[0-9]*)?E(?:1[0-7]|[0-9])|[1-8](?:\.[0-9]*)?E18)")
_COST = r"[0-9]{1,308}(?:\.[0-9]*)?"


class SignatureAlgorithm(FrozenRecord):
    """One signature scheme's parameter set.

    sig_size and pk_size are byte counts, max_sigs is the number of
    signatures one key pair may produce before it must be replaced, and
    cost is the finite effort to verify one signature in millions of cycles.

    An immutable `__slots__` record: assigning a field raises
    AttributeError and equality compares the five fields.  The hash is
    computed once, here, since pricing hashes every slot's algorithm.
    """

    __slots__ = ("name", "sig_size", "pk_size", "max_sigs", "cost", "_hash")
    _fields = __slots__[:5]

    def __init__(
        self, name: str, sig_size: int, pk_size: int, max_sigs: int, cost: float
    ) -> None:
        if not name.strip():
            raise ValidationError("algorithm name must be non-empty")
        problem = _range_problem(name, sig_size, pk_size, max_sigs, cost)
        if problem is not None:
            raise ValidationError(problem)
        set_field = object.__setattr__
        set_field(self, "name", name)
        set_field(self, "sig_size", sig_size)
        set_field(self, "pk_size", pk_size)
        set_field(self, "max_sigs", max_sigs)
        set_field(self, "cost", cost)
        set_field(self, "_hash", hash((name, sig_size, pk_size, max_sigs, cost)))

    def __hash__(self) -> int:
        return self._hash


class Catalog(Sequence[SignatureAlgorithm]):
    """The entries of a catalog in file order, with a lookup by name.

    Build one from `SignatureAlgorithm`s with `Catalog(algorithms)`; names
    must be unique.  `parse_algorithm_catalog` builds one from checked
    rows.  A row the line pattern took is kept as its name and the number
    of the piece of the parsed text that holds its line, and the catalog
    keeps that text; a row csv read is kept as the text of its four number
    cells.  On first read a row's cells are converted, without checking
    them again, turned into a `SignatureAlgorithm` and kept in its place,
    so every read of a name gives the same object.  `get` is the one read:
    it finds a kept line by its name within its piece, and iteration,
    indexing and `==` read each row through it.  A catalog equals another
    with the same entries in the same order, and a list of them.
    """

    def __init__(self, algorithms: Iterable[SignatureAlgorithm] = ()) -> None:
        self._entries: dict[str, SignatureAlgorithm | str | int] = {}
        self._built: dict[str, SignatureAlgorithm] = {}  # decides a race to build a row
        self._names: list[str] | None = None  # for indexing, made on first use
        self._text, self._cuts = "", (0,)  # the parsed text, when rows are kept as pieces
        for algorithm in algorithms:
            if algorithm.name in self._entries:
                raise CatalogError(f"duplicate algorithm name '{algorithm.name}'")
            self._entries[algorithm.name] = algorithm

    def get(self, name: str) -> SignatureAlgorithm | None:
        """The entry named exactly `name`, or None.  A kept row was checked
        when the catalog was parsed, so its first read only converts its
        four number cells, builds its entry and keeps it."""
        entry = self._entries.get(name)
        if isinstance(entry, int):
            entry = self._line(name, entry)
        if isinstance(entry, str):
            sig_size, pk_size, max_sigs, cost = self._pick(entry.split(","))
            entry = self._built.setdefault(name, SignatureAlgorithm(
                name, int(sig_size), int(pk_size), int(Decimal(max_sigs)), float(cost)))
            self._entries[name] = entry
        return entry

    def _line(self, name: str, piece: int) -> str:
        """The line of `name`: the line of piece number `piece` whose cell
        number `_column` is `name`.  The name may also make up or sit
        inside other cells, so a match counts only when it fills a cell
        and has `_column` commas before it on its line."""
        text, start, end = self._text, self._cuts[piece], self._cuts[piece + 1]
        at = start - 1  # a newline ends the text before each piece
        while True:  # names are unique, so this stops at the line of `name`
            at = text.find(name, at + 1, end)
            after, line = at + len(name), text.rfind("\n", start - 1, at) + 1
            if (text[at - 1] in ",\n" and (after == end or text[after] in ",\n")
                    and text.count(",", line, at) == self._column):
                stop = text.find("\n", after, end)
                return text[line:stop] if stop >= 0 else text[line:end]

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int | slice) -> SignatureAlgorithm | list[SignatureAlgorithm]:
        if self._names is None:
            self._names = list(self._entries)
        if isinstance(index, slice):
            return [self.get(name) for name in self._names[index]]
        return self.get(self._names[index])

    def __iter__(self) -> Iterator[SignatureAlgorithm]:
        return map(self.get, self._entries)  # a first read replaces a value, never a key

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Catalog, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Catalog({list(self)!r})"


def parse_algorithm_catalog(csv_text: str) -> Catalog:
    """Parse an algorithm catalog from CSV text.

    The first row must name the five required columns (surrounding
    whitespace on header cells is ignored, column order is free, extra
    columns are ignored).  `Max Signatures` accepts integer literals and
    decimal scientific notation such as ``1E4``, truncated to an integer.
    Blank rows are skipped.  A cell missing from a short row reads as
    empty and fails its field's check.  Empty and duplicate names are
    rejected.  Every row is checked here, and every error names its row;
    a record csv cannot read, such as one with a cell longer than
    `csv.field_size_limit()`, is an error naming its line.

    When `_line_pattern` takes every line after the header, no piece is
    longer than `csv.field_size_limit()` and no name repeats, the rows are
    taken in one pass; otherwise csv reads the catalog and each row is
    checked as it is read.  Either way a row gives the same entry or the
    same error, and is converted on first read.
    """
    table, catalog = Table(csv_text, "catalog", CatalogError, _REQUIRED_COLUMNS), Catalog()
    name, *numbers = table.positions
    taken = _taken(csv_text, _line_pattern((name, *numbers), table.width), csv.field_size_limit())
    if taken is not None:  # each name maps to the number of the piece that holds its line
        catalog._entries, catalog._cuts = taken
        catalog._text, catalog._column, catalog._pick = csv_text, name, itemgetter(*numbers)
        return catalog
    rows, catalog._pick = catalog._entries, itemgetter(0, 1, 2, 3)
    for lineno, cells in table.rows():
        _check_row(lineno, rows, *cells)
        rows[cells[0]] = ",".join(cells[1:])
    return catalog


def _taken(text: str, line: re.Pattern[str], limit: int) -> tuple[dict[str, int], list[int]] | None:
    """Each name that `findall` gives mapped to the number of the piece
    (see `_pieces`) that holds its line, and where each piece starts, then
    the end of the text, when `line` matches every line after a header
    line that holds no quote, which csv therefore reads as the whole
    header, no piece is longer than the csv field limit `limit`, so csv
    would accept each of its cells, and no name repeats; else None."""
    start = text.find("\n") + 1
    if not start or '"' in text[:start]:
        return None
    rows, cuts, count = {}, [start], 0
    for k, piece in enumerate(_pieces(text, start)):
        found = line.findall(piece)
        if len(piece) > limit or len(found) < piece.count("\n") + (piece[-1] != "\n"):
            return None
        rows.update(zip(found, repeat(k)))
        count += len(found)
        cuts.append(cuts[-1] + len(piece))
    return (rows, cuts) if len(rows) == count else None


@lru_cache(maxsize=32)
def _line_pattern(positions: tuple[int, ...], width: int) -> re.Pattern[str]:
    """A pattern of the catalog lines the per-row checks accept, read alike
    by csv and by a split at commas: exactly `width` cells, none holding a
    quote, CR or NUL, a name with no surrounding whitespace, and sizes,
    budget and cost that convert in range.  It bounds no cell's length:
    `_taken` tests the csv field limit once a piece.  `findall` gives each
    line's name.  Built once per header shape."""
    n, s, p, m, c = positions
    cells = [f"{_CELL}*"] * width
    cells[n] = rf"((?!\s){_CELL}+(?<!\s))"
    cells[s] = cells[p] = "[0-9]{1,18}"
    cells[m], cells[c] = _BUDGET, _COST
    return re.compile(f"^{','.join(cells)}$", re.M)


def _check_row(
    lineno: int, rows: Container[str], name: str, sig_size: str, pk_size: str,
    max_sigs: str, cost: str,
) -> None:
    """Check one row's fields one by one; raises the first failure."""
    if not name:
        raise CatalogError(f"row {lineno}: algorithm name is empty")
    if name in rows:
        raise CatalogError(f"row {lineno}: duplicate algorithm name '{name}'")
    fields = (
        read_cell(int, sig_size, lineno, CatalogError,
                  "'Signature Size' value {!r} is not an integer"),
        read_cell(int, pk_size, lineno, CatalogError,
                  "'Public Key Size' value {!r} is not an integer"),
        _parse_max_sigs(max_sigs, lineno),
        read_cell(float, cost, lineno, CatalogError,
                  "'Computational Cost' value {!r} is not a number"),
    )
    problem = _range_problem(name, *fields)
    if problem is not None:
        raise ValidationError(f"row {lineno}: {problem}")


def _range_problem(
    name: str, sig_size: int, pk_size: int, max_sigs: int, cost: float
) -> str | None:
    """The message of the first range check the fields fail, or None."""
    if sig_size < 0:
        return f"{name}: sig_size must be >= 0"
    if pk_size < 0:
        return f"{name}: pk_size must be >= 0"
    if max_sigs < 1:
        return f"{name}: max_sigs must be >= 1"
    if not 0.0 <= cost < math.inf:
        return f"{name}: cost must be finite and >= 0"
    return None


def _parse_max_sigs(text: str, lineno: int) -> int:
    """`Max Signatures` read as a `Decimal` and truncated to an integer."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():
        raise CatalogError(f"row {lineno}: 'Max Signatures' value {text!r} is not numeric")
    # int() of a cell such as 1E1000000 or -1E1000000 takes seconds, so the
    # bounds are checked on the Decimal.  int() truncates, so this check is
    # int(value) > 2**63 - 1; a negative value becomes 0, which the range
    # check rejects with the same error whatever the cell.
    if value >= _MAX_SIGS_BOUND:
        raise CatalogError(f"row {lineno}: 'Max Signatures' value {text!r} exceeds 2**63 - 1")
    return 0 if value.is_signed() else int(value)
