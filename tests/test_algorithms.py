from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tufsim.algorithms
import tufsim.runner
from tufsim import (
    AlgorithmNotFoundError,
    Catalog,
    CatalogError,
    SignatureAlgorithm,
    ValidationError,
    find_algorithm,
    parse_algorithm_catalog,
)
from tufsim.cli import run_cli
from tests.conftest import make_alg
from tests.oracle import reference_catalog

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
    catalog = Catalog([make_alg("AlgA"), make_alg("AlgB")])
    assert find_algorithm("AlgA", catalog) is catalog[0]


def test_find_algorithm_missing_name():
    with pytest.raises(AlgorithmNotFoundError) as excinfo:
        find_algorithm("Missing", Catalog([make_alg("AlgA")]))
    assert str(excinfo.value) == "Requested algorithm type not found."


def test_find_algorithm_empty_catalog():
    with pytest.raises(AlgorithmNotFoundError):
        find_algorithm("AlgA", Catalog())


DIGITS = st.text("0123456789", min_size=1, max_size=22)
MAX_SIGNATURES_CELLS = st.one_of(
    DIGITS,
    st.builds("{}{}".format, st.sampled_from("+-"), DIGITS),
    st.text("0123456789_", min_size=1, max_size=12),
    st.text(st.characters(categories=["Nd"]), min_size=1, max_size=6),
    st.builds("{}.{}E{}".format, DIGITS, DIGITS, st.integers(-25, 25)),
    st.sampled_from(["inf", "-Infinity", "NaN", "-nan", "sNaN", "1E1000000", "-0", "+0"]),
    st.sampled_from([str(2**63 + d) for d in (-1, 0, 1)] + [str(-(2**63) - 1)]),
    # Python 3.11+ int() refuses more than 4,300 digits
    st.builds(
        "{}{}".format, st.sampled_from(["", "-"]), st.integers(4_295, 4_310).map("9".__mul__)
    ),
    st.text(max_size=8),
)


def _parsed(parse, text):
    try:
        return repr(list(parse(text)))
    except Exception as exc:  # any error: both sides must fail alike
        return type(exc), str(exc)


@given(cell=MAX_SIGNATURES_CELLS)
def test_max_signatures_int_fast_path_agrees_with_decimal(cell):
    # the parser's row loop reads an integer literal with int(), the
    # reference reads every budget as a Decimal
    out = io.StringIO()
    csv.writer(out).writerows([HEADER.split(","), ["AlgA", "100", "50", cell, "1.5"]])
    text = out.getvalue()
    assert _parsed(parse_algorithm_catalog, text) == _parsed(reference_catalog, text)


def _rows(count):
    return [(f"Alg{i}", 10 + i, 5 + i % 7, 2**i % 1000 + 1, i / 8) for i in range(count)]


def _catalog_text(rows):
    return HEADER + "\n" + "".join(f"{n},{s},{p},{m},{c}\n" for n, s, p, m, c in rows)


class TestCatalog:
    def test_entries_equal_eagerly_built_algorithms_in_file_order(self):
        rows = _rows(50)
        catalog = parse_algorithm_catalog(_catalog_text(rows))
        eager = [SignatureAlgorithm(name, *fields) for name, *fields in rows]
        assert len(catalog) == 50
        assert list(catalog) == eager
        assert [catalog[i] for i in range(50)] == eager
        assert catalog[-1] == eager[-1]
        assert [catalog.get(name) for name, *_ in rows] == eager

    def test_every_read_of_a_name_gives_the_same_object(self):
        catalog = parse_algorithm_catalog(_catalog_text(_rows(3)))
        first = catalog.get("Alg1")
        assert catalog.get("Alg1") is first
        assert catalog[1] is first
        assert list(catalog)[1] is first
        assert find_algorithm("Alg1", catalog) is first

    def test_built_from_algorithms_returns_them(self):
        algorithms = [make_alg("AlgA"), make_alg("AlgB", sig_size=7)]
        catalog = Catalog(algorithms)
        assert catalog.get("AlgB") is algorithms[1]
        assert list(catalog) == algorithms
        text = HEADER + "\nAlgA,100,50,1E6,1.0\nAlgB,7,50,1E6,1.0\n"
        assert catalog == parse_algorithm_catalog(text)
        assert catalog.get("Missing") is None

    def test_built_from_algorithms_rejects_a_duplicate_name(self):
        with pytest.raises(CatalogError, match="duplicate algorithm name 'AlgA'"):
            Catalog([make_alg("AlgA"), make_alg("AlgA", sig_size=7)])

    @pytest.mark.parametrize(
        ("cell", "error", "message"),
        [
            ("Signature Size", CatalogError, "'Signature Size' value 'x' is not an integer"),
            ("Max Signatures", ValidationError, "Alg4999: max_sigs must be >= 1"),
            ("Computational Cost", ValidationError, "Alg4999: cost must be finite and >= 0"),
        ],
    )
    def test_bad_last_row_fails_before_anything_runs(
        self, tmp_path, monkeypatch, cell, error, message
    ):
        rows = _rows(5_000)
        name, sig, pk, max_sigs, cost = rows[-1]
        bad = {"Signature Size": "x", "Max Signatures": "0", "Computational Cost": "nan"}[cell]
        rows[-1] = (
            name,
            bad if cell == "Signature Size" else sig,
            pk,
            bad if cell == "Max Signatures" else max_sigs,
            bad if cell == "Computational Cost" else cost,
        )
        text = _catalog_text(rows)
        with pytest.raises(error, match=f"^row 5001: {message}$"):
            parse_algorithm_catalog(text)

        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(tufsim.runner, "run_scenario", no_run)
        (tmp_path / "algorithms.csv").write_text(text)
        out, err = io.StringIO(), io.StringIO()
        argv = ["--algorithms", str(tmp_path / "algorithms.csv"),
                "--start", "2020-01-01", "--end", "2020-01-10"]
        assert run_cli(argv, stdout=out, stderr=err) == 2
        assert (out.getvalue(), err.getvalue()) == ("", f"error: row 5001: {message}\n")

    def test_a_sweep_builds_only_the_algorithms_it_uses(self, tmp_path, monkeypatch):
        built = []

        class Counted(SignatureAlgorithm):
            __slots__ = ()

            def __init__(self, name, *fields):
                built.append(name)
                super().__init__(name, *fields)

        monkeypatch.setattr(tufsim.algorithms, "SignatureAlgorithm", Counted)
        (tmp_path / "algorithms.csv").write_text(_catalog_text(_rows(1_000)))
        used = {"Root 1": "Alg7", "Timestamp 1": "Alg300", "Snapshot 1": "Alg999",
                "Target 1": "Alg7"}
        (tmp_path / "assignment.csv").write_text(
            "Role Name,Algorithm\n" + "".join(f"{r},{a}\n" for r, a in used.items())
        )
        out, err = io.StringIO(), io.StringIO()
        argv = ["--algorithms", str(tmp_path / "algorithms.csv"),
                "--assignment", str(tmp_path / "assignment.csv"),
                "--start", "2020-01-01", "--end", "2020-01-10"]
        assert run_cli(argv, stdout=out, stderr=err) == 0
        assert err.getvalue() == ""
        assert out.getvalue().splitlines()[1].startswith("Device_A,assignment,")
        assert sorted(built) == ["Alg300", "Alg7", "Alg999"]


# characters str.strip(), int(), float() and Decimal() all take as whitespace
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2003\u2028\u202f\u3000"
PADDING = st.text(WHITESPACE, max_size=2)
LONG_DIGITS = st.integers(4_299, 4_302).map("9".__mul__)  # int() refuses past 4,300
# (usual cells, odd cells) for each column the catalog reads
CELLS = {
    "Name": (
        st.one_of(st.sampled_from(["AlgA", "AlgB", "Alg,C", '"q"']), st.text("ab", min_size=1)),
        st.sampled_from(["", "a b", ",", "\u200b", "a\u200b"]),  # not whitespace
    ),
    "Signature Size": (
        st.integers(0, 10**6).map(str),
        st.one_of(
            st.sampled_from(["-1", "1_000", "+12", "-0", "1__0", "_1", "1.0", "1E3", "\u0663"]),
            LONG_DIGITS,
        ),
    ),
    "Max Signatures": (
        st.one_of(
            st.integers(1, 2**20).map(str),
            st.builds("{}.{}E{}".format, st.integers(1, 9), DIGITS, st.integers(0, 12)),
        ),
        st.one_of(
            st.builds("{}.{}E{}".format, DIGITS, DIGITS, st.integers(-4, 25)),
            st.sampled_from([
                "0", "-3", "1e4", "1.5", ".5", "5.", "1e-3", "-1E1000000", "1E1000000", "1E30",
                "1_0.5", "1_000", "9223372036854775807.9", "9223372036854775807",
                "9223372036854775808", "nan", "sNaN", "inf", "-Infinity", "-0", "-0.0", "0E5",
            ]),
            LONG_DIGITS,
            st.integers(4_299, 4_302).map(lambda n: "0" * n + "7"),
        ),
    ),
    "Computational Cost": (
        st.floats(0, 1e6).map(repr),
        st.one_of(
            st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-0", "-1.5", "1_0.5", "0x1p3"]),
            LONG_DIGITS,
        ),
    ),
}
CELLS["Public Key Size"] = CELLS["Signature Size"]
JUNK = st.text(max_size=4).filter(lambda cell: "\0" not in cell)


@st.composite
def catalog_texts(draw):
    """A catalog's CSV text: a header in any column order, maybe with extra
    columns, then rows of padded, odd, junk, blank, short and quoted cells."""
    extra = draw(st.lists(st.sampled_from(["Notes", "Extra"]), unique=True))
    columns = draw(st.permutations([*CELLS, *extra]))
    rows = [[draw(PADDING) + column for column in columns]]
    for _ in range(draw(st.integers(0, 8))):
        row = []
        for column in columns:
            usual, odd = CELLS.get(column, (JUNK, JUNK))
            value = draw(odd if draw(st.integers(0, 15)) == 0 else usual)
            row.append(draw(PADDING) + value + draw(PADDING))
        shape = draw(st.sampled_from(["full"] * 9 + ["junk", "short", "blank", "spaces"]))
        if shape == "junk":
            for i in draw(st.lists(st.integers(0, len(row) - 1), min_size=1, max_size=2)):
                row[i] = draw(JUNK)
        elif shape == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif shape == "blank":
            row = draw(st.sampled_from([[], [""] * len(row)]))
        elif shape == "spaces":
            row = [draw(PADDING) for _ in row]
        rows.append(row)
    out = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    csv.writer(out, quoting=quoting).writerows(rows)
    return out.getvalue()


@settings(max_examples=400, deadline=None)
@given(text=catalog_texts())
def test_parse_agrees_with_row_by_row_reference(text):
    assert _parsed(parse_algorithm_catalog, text) == _parsed(reference_catalog, text)


def test_catalog_slice_is_a_list_of_entries():
    catalog = parse_algorithm_catalog(_catalog_text(_rows(5)))
    entries = list(catalog)
    for s in (slice(0, 1), slice(1, None), slice(None, None, -2), slice(7, 9), slice(-2, None)):
        assert catalog[s] == entries[s]
    assert catalog[1:3][0] is catalog.get("Alg1")
    with pytest.raises(IndexError):
        catalog[5]
