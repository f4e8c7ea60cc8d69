"""Signature-algorithm parameter catalogs.

A catalog is a list of named parameter sets (signature size, public-key size,
signature budget per key, per-verification cost) loaded from a CSV table.
Catalogs are immutable after parsing and safe to share between threads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from ._table import read_table
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
_MAX_SIGS_BOUND = Decimal(2**63)


@dataclass(frozen=True)
class SignatureAlgorithm:
    """One signature scheme's parameter set.

    sig_size and pk_size are byte counts, max_sigs is the number of
    signatures one key pair may produce before it must be replaced, and
    cost is the finite effort to verify one signature in millions of cycles.
    """

    name: str
    sig_size: int
    pk_size: int
    max_sigs: int
    cost: float

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValidationError("algorithm name must be non-empty")
        if self.sig_size < 0:
            raise ValidationError(f"{self.name}: sig_size must be >= 0")
        if self.pk_size < 0:
            raise ValidationError(f"{self.name}: pk_size must be >= 0")
        if self.max_sigs < 1:
            raise ValidationError(f"{self.name}: max_sigs must be >= 1")
        if not 0.0 <= self.cost < math.inf:
            raise ValidationError(f"{self.name}: cost must be finite and >= 0")


def parse_algorithm_catalog(csv_text: str) -> list[SignatureAlgorithm]:
    """Parse an algorithm catalog from CSV text.

    The first row must name the five required columns (surrounding
    whitespace on header cells is ignored, column order is free, extra
    columns are ignored).  `Max Signatures` accepts integer literals and
    decimal scientific notation such as ``1E4``, truncated to an integer.
    Blank rows are skipped.  A cell missing from a short row reads as
    empty and fails its field's check.  Empty and duplicate names are
    rejected.  Every error names its row.
    """
    catalog: list[SignatureAlgorithm] = []
    seen: set[str] = set()
    for lineno, (name, sig_size, pk_size, max_sigs, cost) in read_table(
        csv_text, "catalog", CatalogError, _REQUIRED_COLUMNS
    ):
        if not name:
            raise CatalogError(f"row {lineno}: algorithm name is empty")
        if name in seen:
            raise CatalogError(f"row {lineno}: duplicate algorithm name '{name}'")
        seen.add(name)

        try:
            catalog.append(
                SignatureAlgorithm(
                    name=name,
                    sig_size=_parse_int(sig_size, "Signature Size", lineno),
                    pk_size=_parse_int(pk_size, "Public Key Size", lineno),
                    max_sigs=_parse_max_sigs(max_sigs, lineno),
                    cost=_parse_float(cost, "Computational Cost", lineno),
                )
            )
        except ValidationError as exc:  # a range check in SignatureAlgorithm
            raise ValidationError(f"row {lineno}: {exc}") from None
    return catalog


def find_algorithm(
    name: str, index: Mapping[str, SignatureAlgorithm]
) -> SignatureAlgorithm:
    """Return the entry named exactly `name` from a `{name: algorithm}`
    index of a catalog, such as `{alg.name: alg for alg in catalog}`.

    Catalog names are unique, so the index loses no entry.
    """
    try:
        return index[name]
    except KeyError:
        raise AlgorithmNotFoundError("Requested algorithm type not found.") from None


def _parse_int(text: str, column: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CatalogError(
            f"row {lineno}: '{column}' value {text!r} is not an integer"
        ) from None


def _parse_float(text: str, column: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise CatalogError(
            f"row {lineno}: '{column}' value {text!r} is not a number"
        ) from None


def _parse_max_sigs(text: str, lineno: int) -> int:
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():
        raise CatalogError(
            f"row {lineno}: 'Max Signatures' value {text!r} is not numeric"
        )
    # int() of a cell such as 1E1000000 or -1E1000000 takes seconds, so the
    # bounds are checked on the Decimal.  int() truncates, so this check is
    # int(value) > 2**63 - 1; a negative value becomes 0, which
    # SignatureAlgorithm rejects with the same error whatever the cell.
    if value >= _MAX_SIGS_BOUND:
        raise CatalogError(
            f"row {lineno}: 'Max Signatures' value {text!r} exceeds 2**63 - 1"
        )
    return 0 if value.is_signed() else int(value)
