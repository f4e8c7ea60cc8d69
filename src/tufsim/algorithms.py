"""Signature-algorithm parameter catalogs.

A catalog is a sequence of named parameter sets (signature size, public-key
size, signature budget per key, per-verification cost) loaded from a CSV
table.  Every row is checked when the table is parsed, but a row becomes a
`SignatureAlgorithm` only when it is first read, since a sweep over a large
catalog may use a handful of its rows.  A row is converted in one step
straight from its CSV record; only a record that step cannot accept whole
goes through the per-row checks.  csv reads the text a piece of whole
lines at a time (see `_table`), so a large catalog is never copied whole.

`SignatureAlgorithm` is an immutable `__slots__` record, since the engine
reads its `max_sigs` on every busy tick; it has no `_replace`, so build a
changed one with the constructor, which checks it again.

Catalogs are immutable after parsing and safe to share between threads.
What a catalog fills in on first read never changes what a read returns:
each built entry is stored with `dict.setdefault`, so threads that read a
row for the first time at once all get the one object stored first, and
the name list behind indexing comes out the same whichever thread makes it.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Iterator, Sequence
from decimal import Decimal, InvalidOperation

from ._record import FrozenRecord
from ._table import Table, read_cell
from .errors import AlgorithmNotFoundError, CatalogError, ValidationError

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
_ONE, _DECIMAL_BOUND = Decimal(1), Decimal(_MAX_SIGS_BOUND)

# A row's checked fields: sig_size, pk_size, max_sigs, cost.
_Fields = tuple[int, int, int, float]


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
    must be unique.  `parse_algorithm_catalog` builds one from checked rows,
    each turned into a `SignatureAlgorithm` the first time it is read and
    cached, so every read of a name gives the same object.  A catalog
    equals another with the same entries in the same order, and a list of
    them.
    """

    def __init__(self, algorithms: Iterable[SignatureAlgorithm] = ()) -> None:
        self._fields: dict[str, _Fields] = {}
        self._built: dict[str, SignatureAlgorithm] = {}
        self._names: list[str] | None = None  # for indexing, made on first use
        for algorithm in algorithms:
            name = algorithm.name
            if name in self._fields:
                raise CatalogError(f"duplicate algorithm name '{name}'")
            self._fields[name] = (
                algorithm.sig_size, algorithm.pk_size, algorithm.max_sigs, algorithm.cost
            )
            self._built[name] = algorithm

    @classmethod
    def _of_rows(cls, fields: dict[str, _Fields]) -> Catalog:
        catalog = cls()
        catalog._fields = fields
        return catalog

    def get(self, name: str) -> SignatureAlgorithm | None:
        """The entry named exactly `name`, or None."""
        algorithm = self._built.get(name)
        if algorithm is None:
            fields = self._fields.get(name)
            if fields is None:
                return None
            algorithm = self._built.setdefault(name, SignatureAlgorithm(name, *fields))
        return algorithm

    def __len__(self) -> int:
        return len(self._fields)

    def __getitem__(self, index: int | slice) -> SignatureAlgorithm | list[SignatureAlgorithm]:
        if self._names is None:
            self._names = list(self._fields)
        if isinstance(index, slice):
            return [self.get(name) for name in self._names[index]]
        return self.get(self._names[index])

    def __iter__(self) -> Iterator[SignatureAlgorithm]:
        return map(self.get, self._fields)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Catalog):
            return list(self._fields.items()) == list(other._fields.items())
        if isinstance(other, list):
            return list(self) == other
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

    Each record is converted straight from its cells.  Only a record that
    is short or blank, has a cell that does not convert, fails a range
    check, or has an empty or repeated name takes the per-row path: it
    skips a blank row, raises the row's error, or accepts a budget only
    `Decimal` reads, such as one past `int()`'s digit limit.
    """
    table = Table(csv_text, "catalog", CatalogError, _REQUIRED_COLUMNS)
    n, s, p, m, c = table.positions
    rows: dict[str, _Fields] = {}
    try:
        for lineno, row in enumerate(table.records, start=2):
            # int(), float() and Decimal() skip the whitespace strip() would.  A
            # decimal budget is bounded before int(), which takes seconds on 1E1000000
            try:
                name, budget = row[n].strip(), row[m]
                if "." in budget or "E" in budget or "e" in budget:
                    budget = Decimal(budget)
                    budget = int(budget) if _ONE <= budget < _DECIMAL_BOUND else 0
                else:
                    budget = int(budget)
                sigs, keys, price = int(row[s]), int(row[p]), float(row[c])
            except (IndexError, ValueError, ArithmeticError):
                name = ""
            if (
                name and name not in rows and sigs >= 0 and keys >= 0
                and 0 < budget < _MAX_SIGS_BOUND and 0.0 <= price < math.inf
            ):
                rows[name] = sigs, keys, budget, price
                continue
            cells = table.cells(row)
            if cells is not None:
                rows[cells[0]] = _check_row(lineno, rows, *cells)
    except csv.Error as exc:
        raise table.failed(exc) from None
    return Catalog._of_rows(rows)


def _check_row(
    lineno: int, rows: dict[str, _Fields], name: str, sig_size: str, pk_size: str,
    max_sigs: str, cost: str,
) -> _Fields:
    """One row's fields, checked one by one; raises the first failure."""
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
    return fields


def find_algorithm(name: str, catalog: Catalog) -> SignatureAlgorithm:
    """Return the catalog entry named exactly `name`."""
    algorithm = catalog.get(name)
    if algorithm is None:
        raise AlgorithmNotFoundError("Requested algorithm type not found.")
    return algorithm


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
