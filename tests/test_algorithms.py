from __future__ import annotations

import pytest

from tufsim import (
    AlgorithmNotFoundError,
    CatalogError,
    SignatureAlgorithm,
    ValidationError,
    find_algorithm,
    parse_algorithm_catalog,
)
from tests.conftest import make_alg

HEADER = "Name,Signature Size,Public Key Size,Max Signatures,Computational Cost"


def test_parse_single_row_with_scientific_notation():
    catalog = parse_algorithm_catalog(HEADER + "\nAlgA, 100, 50, 1E4, 1.5\n")
    assert catalog == [SignatureAlgorithm("AlgA", 100, 50, 10000, 1.5)]


def test_padded_header_parses_identically():
    padded = (
        " Name , Signature Size , Public Key Size , Max Signatures , Computational Cost \n"
        "AlgA,100,50,1E4,1.5\n"
    )
    plain = HEADER + "\nAlgA,100,50,1E4,1.5\n"
    assert parse_algorithm_catalog(padded) == parse_algorithm_catalog(plain)


def test_missing_column_names_it():
    text = "Name,Signature Size,Public Key Size,Max Signatures\nAlgA,100,50,1E4\n"
    with pytest.raises(CatalogError, match="Computational Cost"):
        parse_algorithm_catalog(text)


def test_column_order_is_free():
    reordered = (
        "Computational Cost,Max Signatures,Public Key Size,Signature Size,Name\n"
        "1.5,1E4,50,100,AlgA\n"
    )
    plain = HEADER + "\nAlgA,100,50,1E4,1.5\n"
    assert parse_algorithm_catalog(reordered) == parse_algorithm_catalog(plain)


def test_row_order_is_preserved():
    text = HEADER + "\nAlgC,1,1,1,0.1\nAlgA,2,2,2,0.2\nAlgB,3,3,3,0.3\n"
    assert [a.name for a in parse_algorithm_catalog(text)] == ["AlgC", "AlgA", "AlgB"]


def test_blank_rows_are_skipped():
    text = HEADER + "\n\nAlgA,100,50,1E4,1.5\n   ,  ,,,\n\n"
    assert len(parse_algorithm_catalog(text)) == 1


def test_values_are_trimmed():
    text = HEADER + "\n  AlgA , 100 , 50 , 1E4 , 1.5 \n"
    alg = parse_algorithm_catalog(text)[0]
    assert alg.name == "AlgA"
    assert alg.sig_size == 100


def test_duplicate_name_rejected():
    text = HEADER + "\nAlgA,100,50,1E4,1.5\nAlgA,200,60,1E4,2.5\n"
    with pytest.raises(CatalogError, match="duplicate"):
        parse_algorithm_catalog(text)


def test_non_numeric_field_reports_row_number():
    text = HEADER + "\nAlgA,100,50,1E4,1.5\nAlgB,abc,50,1E4,1.5\n"
    with pytest.raises(CatalogError, match="row 3"):
        parse_algorithm_catalog(text)


def test_non_numeric_max_signatures_reports_row_number():
    for cell in ("many", "Infinity", "-Infinity", "NaN"):
        text = HEADER + f"\nAlgA,100,50,{cell},1.5\n"
        with pytest.raises(CatalogError, match=r"^row 2: .* is not numeric$"):
            parse_algorithm_catalog(text)


def test_max_signatures_beyond_int64_rejected():
    # 1E1000000 must be rejected without expanding it to a million digits
    for cell in ("1E30", "1E1000000", "9223372036854775808"):
        text = HEADER + f"\nAlgA,100,50,{cell},1.5\n"
        with pytest.raises(CatalogError, match="^row 2: .*2\\*\\*63"):
            parse_algorithm_catalog(text)
    # the cell is truncated before the check, as it always was
    text = HEADER + "\nAlgA,100,50,9223372036854775807.9,1.5\n"
    assert parse_algorithm_catalog(text)[0].max_sigs == 2**63 - 1


def test_zero_max_signatures_is_invalid():
    text = HEADER + "\nAlgA,100,50,0,1.5\n"
    with pytest.raises(ValidationError):
        parse_algorithm_catalog(text)


@pytest.mark.parametrize(
    "row",
    [
        "AlgB,100,50,0,1.5",
        "AlgB,-1,50,1E4,1.5",
        "AlgB,100,50,-1E1000000,1.5",
        "AlgB,100,50,1E4,inf",
        "AlgB,100,50,1E4,1e400",
        "AlgB,100,50,1E4,-inf",
        "AlgB,100,50,1E4,nan",
    ],
)
def test_range_error_names_its_row(row):
    text = HEADER + "\nAlgA,100,50,1E4,1.5\n" + row + "\n"
    with pytest.raises(ValidationError, match=r"^row 3: AlgB: "):
        parse_algorithm_catalog(text)


def test_negative_size_is_invalid():
    with pytest.raises(ValidationError):
        SignatureAlgorithm("AlgA", -1, 50, 10, 1.0)


def test_empty_name_is_invalid():
    with pytest.raises(ValidationError):
        SignatureAlgorithm("   ", 100, 50, 10, 1.0)


def test_empty_text_is_an_error():
    with pytest.raises(CatalogError):
        parse_algorithm_catalog("")


def test_header_only_yields_empty_catalog():
    assert parse_algorithm_catalog(HEADER + "\n") == []


def test_round_trip():
    text = HEADER + "\nAlgA,100,50,1E4,1.5\nAlgB,2420,32,4096,0.75\n"
    assert parse_algorithm_catalog(text) == [
        SignatureAlgorithm("AlgA", 100, 50, 10_000, 1.5),
        SignatureAlgorithm("AlgB", 2420, 32, 4096, 0.75),
    ]


def test_find_algorithm_returns_entry():
    catalog = [make_alg("AlgA"), make_alg("AlgB")]
    assert find_algorithm("AlgA", {alg.name: alg for alg in catalog}) is catalog[0]


def test_find_algorithm_missing_name():
    with pytest.raises(AlgorithmNotFoundError) as excinfo:
        find_algorithm("Missing", {"AlgA": make_alg("AlgA")})
    assert str(excinfo.value) == "Requested algorithm type not found."


def test_find_algorithm_empty_catalog():
    with pytest.raises(AlgorithmNotFoundError):
        find_algorithm("AlgA", {})
