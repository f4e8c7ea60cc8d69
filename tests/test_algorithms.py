from __future__ import annotations

import csv
import io
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tufsim._table
import tufsim.algorithms
import tufsim.runner
from tufsim import (
    Catalog,
    CatalogError,
    SignatureAlgorithm,
    ValidationError,
    parse_algorithm_catalog,
)
from tufsim.cli import run_cli
from tests.conftest import assert_same_catalog_outcome, make_alg, outcome
from tests.oracle import CATALOG_COLUMNS, reference_catalog

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


@given(cell=MAX_SIGNATURES_CELLS)
def test_max_signatures_int_fast_path_agrees_with_decimal(cell):
    # the parser's line pattern takes some integer literals and some
    # scientific notation, the reference reads every budget as a Decimal
    out = io.StringIO()
    csv.writer(out).writerows([HEADER.split(","), ["AlgA", "100", "50", cell, "1.5"]])
    text = out.getvalue()
    assert_same_catalog_outcome(
        outcome(parse_algorithm_catalog, text), outcome(reference_catalog, text)
    )


def _rows(count):
    return [(f"Alg{i}", 10 + i, 5 + i % 7, 2**i % 1000 + 1, i / 8) for i in range(count)]


def _catalog_text(rows):
    return HEADER + "\n" + "".join(f"{n},{s},{p},{m},{c}\n" for n, s, p, m, c in rows)


@pytest.fixture
def built(monkeypatch):
    """The names of the `SignatureAlgorithm`s catalogs build from here on."""
    names = []

    class Counted(SignatureAlgorithm):
        __slots__ = ()

        def __init__(self, name, *fields):
            names.append(name)
            super().__init__(name, *fields)

    monkeypatch.setattr(tufsim.algorithms, "SignatureAlgorithm", Counted)
    return names


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
        algorithm = make_alg("AlgA")
        with pytest.raises(CatalogError, match="duplicate algorithm name 'AlgA'"):
            Catalog([algorithm, algorithm])

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

    def test_a_sweep_builds_only_the_algorithms_it_uses(self, tmp_path, built):
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
def catalog_rows(draw):
    """A catalog's rows: a header in any column order, maybe with extra
    columns, then rows of padded, odd, junk, blank and short cells."""
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
    return rows


@st.composite
def catalog_texts(draw):
    """`catalog_rows` written by `csv.writer`, lines ended by \\r\\n and
    cells quoted where needed or all of them, on some draws after the
    byte-order mark that spreadsheet exports write first."""
    rows = draw(catalog_rows())
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    return draw(st.sampled_from(["", "\ufeff"])) + _written(rows, quoting=quoting)


def _written(rows, **dialect):
    out = io.StringIO()
    csv.writer(out, **dialect).writerows(rows)
    return out.getvalue()


@settings(max_examples=400, deadline=None)
@given(text=catalog_texts())
def test_parse_agrees_with_row_by_row_reference(text):
    assert_same_catalog_outcome(
        outcome(parse_algorithm_catalog, text), outcome(reference_catalog, text)
    )


@settings(max_examples=400, deadline=None)
@given(rows=catalog_rows())
def test_lf_written_parse_agrees_with_row_by_row_reference(rows):
    # \n line ends, which every file the CLI reads has once read, and only
    # the cells that need it quoted
    text = _written(rows, lineterminator="\n")
    assert_same_catalog_outcome(
        outcome(parse_algorithm_catalog, text), outcome(reference_catalog, text)
    )


# the characters a cell written without quotes may not hold
QUOTED_CHARACTERS = str.maketrans("", "", '",\r\n')


@settings(max_examples=400, deadline=None)
@given(rows=catalog_rows())
def test_quote_free_and_quote_all_texts_parse_alike(rows):
    rows = [[cell.translate(QUOTED_CHARACTERS) for cell in row] for row in rows]
    quote_free = "".join(",".join(row) + "\n" for row in rows)
    quote_all = _written(rows, quoting=csv.QUOTE_ALL, lineterminator="\n")
    assert_same_catalog_outcome(
        outcome(parse_algorithm_catalog, quote_free), outcome(parse_algorithm_catalog, quote_all)
    )


def test_a_record_across_the_cut_between_pieces_reads_as_one_text():
    # the first piece ends inside a quoted name that holds a newline, and
    # a record csv cannot read lies in the next piece: the name and the
    # error's line number are those of the whole text read at once
    rows = _rows(tufsim._table.CHUNK_CHARS // 30)
    head = _catalog_text(rows)
    name = "x" * (tufsim._table.CHUNK_CHARS - len(head) + 10) + "\ny"
    text = head + f'"{name}",1,2,3,4\nAfter,5,6,7,8\n'
    catalog = parse_algorithm_catalog(text)
    assert catalog[len(rows)].name == name
    assert_same_catalog_outcome(
        outcome(parse_algorithm_catalog, text), outcome(reference_catalog, text)
    )
    broken = text + "A\rB,1,2,3,4\n"
    lines = broken.count("\n")
    with pytest.raises(CatalogError, match=f"^catalog line {lines}: new-line character"):
        parse_algorithm_catalog(broken)
    assert_same_catalog_outcome(
        outcome(parse_algorithm_catalog, broken), outcome(reference_catalog, broken)
    )


def test_a_header_record_over_several_lines_is_read_by_csv():
    # csv reads the plain lines after the header line into the header's
    # unclosed quoted cell, so the catalog has no rows
    text = HEADER + ',"Notes\nAlgA,1,2,3,4,\nAlgB,5,6,7,8,\n'
    assert parse_algorithm_catalog(text) == []
    assert_same_catalog_outcome(
        outcome(parse_algorithm_catalog, text), outcome(reference_catalog, text)
    )


def bulk_catalog_text(seed, count=60_000):
    """A catalog of `count` rows shaped like a sweep over generated
    parameter sets: every eleventh budget is `1E18`, the others alternate
    between integers and decimal scientific notation such as `1.024E3`."""
    rng = random.Random(seed)
    lines = [HEADER]
    for i in range(count):
        if i % 11 == 0:
            budget = "1E18"
        else:
            digits = str(rng.randrange(16, 2**20))
            budget = digits if i % 2 else f"{digits[0]}.{digits[1:]}E{len(digits) - 1}"
        lines.append(
            f"BULK-{i:06d}-{rng.randrange(16**6):06x},{rng.randrange(16, 50_000)},"
            f"{rng.randrange(16, 5_000)},{budget},{rng.randrange(1, 100_000) / 1000!r}"
        )
    return "\n".join(lines) + "\n"


def test_full_size_catalog_agrees_with_row_by_row_reference():
    text = bulk_catalog_text(13)
    parsed, reference = list(parse_algorithm_catalog(text)), list(reference_catalog(text))
    assert len(parsed) == len(reference) == 60_000
    for row, (got, want) in enumerate(zip(parsed, reference), start=2):
        assert got == want, f"row {row}"


def late_quoted_catalog_text(seed):
    """`bulk_catalog_text` with the name of its last row quoted, so the
    line pattern takes none of it and csv reads the whole catalog."""
    head, last = bulk_catalog_text(seed).rstrip("\n").rsplit("\n", 1)
    name, rest = last.split(",", 1)
    return f'{head}\n"{name}",{rest}\n'


def parse_traced(text):
    """The catalog parsed from `text`, and the bytes `tracemalloc` counts
    as kept after the parse and at its peak."""
    tracemalloc.start()
    try:
        catalog = parse_algorithm_catalog(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return catalog, kept, peak


def test_parse_peak_memory_stays_below_the_text_size():
    # the parse may hold a piece of the text at a time, never a copy of it
    text = bulk_catalog_text(7)
    catalog, kept, peak = parse_traced(text)
    assert len(catalog) == 60_000
    assert peak - kept < len(text)


def test_a_late_quoted_parse_peak_memory_stays_below_the_text_size():
    # what the line pattern matched before the quoted row is dropped
    # before csv reads the catalog from its first row
    text = late_quoted_catalog_text(7)
    catalog, kept, peak = parse_traced(text)
    assert len(catalog) == 60_000
    assert peak - kept < len(text)


def test_a_catalog_quoted_only_in_its_last_row_agrees_with_row_by_row_reference():
    text = late_quoted_catalog_text(13)
    assert text.count('"') == 2
    assert_same_catalog_outcome(
        outcome(parse_algorithm_catalog, text), outcome(reference_catalog, text)
    )


def test_a_name_repeated_in_the_last_piece_is_the_reference_s_duplicate_error():
    # the line pattern matches every line, but takes none of them
    lines = bulk_catalog_text(13).splitlines()
    name = lines[-2].split(",", 1)[0]
    lines[-1] = name + "," + lines[-1].split(",", 1)[1]
    text = "\n".join(lines) + "\n"
    with pytest.raises(CatalogError, match=f"^row {len(lines)}: duplicate algorithm name '{name}'$"):
        parse_algorithm_catalog(text)
    assert_same_catalog_outcome(
        outcome(parse_algorithm_catalog, text), outcome(reference_catalog, text)
    )


def test_a_fully_quoted_catalog_keeps_under_220_bytes_a_row():
    # a row csv reads is kept as the text of its four number cells until it
    # is first read; a row the line pattern takes is kept as its name and a
    # piece number instead
    text = _written(csv.reader(bulk_catalog_text(7).splitlines()),
                    quoting=csv.QUOTE_ALL, lineterminator="\n")
    catalog, kept, _ = parse_traced(text)
    assert len(catalog) == 60_000
    assert kept < 220 * 60_000


def test_a_plain_catalog_parse_peaks_under_150_bytes_a_row():
    # a row the line pattern takes is kept as its name and the number of
    # the piece that holds its line, and the catalog keeps the caller's
    # text, so the parse allocates no string a row but the name
    catalog, kept, peak = parse_traced(bulk_catalog_text(7))
    assert len(catalog) == 60_000
    assert peak < 150 * 60_000


def test_catalog_slice_is_a_list_of_entries():
    catalog = parse_algorithm_catalog(_catalog_text(_rows(5)))
    entries = list(catalog)
    for s in (slice(0, 1), slice(1, None), slice(None, None, -2), slice(7, 9), slice(-2, None)):
        assert catalog[s] == entries[s]
    assert catalog[1:3][0] is catalog.get("Alg1")
    with pytest.raises(IndexError):
        catalog[5]


def test_a_parsed_catalog_keeps_under_220_bytes_a_row_and_builds_what_is_read(built):
    # a row is kept as its name and the number of the piece that holds its
    # line until it is first read
    text = bulk_catalog_text(7)
    catalog, kept, _ = parse_traced(text)
    assert kept < 220 * 60_000
    names = [line.split(",", 1)[0] for line in text.splitlines()[1::937]][:64]
    for name in names * 2:
        assert catalog.get(name).name == name
    assert sorted(built) == sorted(names)


# whitespace that is neither a line end nor a cell's quote or comma
INNER_SPACE = st.text(" \t\x0b\x0c\x1c\x85\xa0\u2003\u3000", max_size=2)
# each column's usual cells, which the catalog's line pattern takes
USUAL_CELLS = {
    "Name": st.text("abcdefgh", min_size=2, max_size=6),
    "Signature Size": st.integers(0, 10**6).map(str),
    "Public Key Size": st.integers(0, 10**6).map(str),
    "Max Signatures": st.one_of(
        st.integers(1, 2**40).map(str),
        st.builds("{}.{}E{}".format, st.integers(1, 9), DIGITS, st.integers(0, 17)),
    ),
    "Computational Cost": st.integers(0, 10**8).map(lambda n: f"{n // 1000}.{n % 1000:03d}"),
}
SIZE_EDGES = st.sampled_from(["0", "007", "1" * 18, "1" * 19, "9" * 19, "-0", "-1", "+1", "1_0", "",
                              "\u0663", " 5"])
# the rules of the line pattern by name, each as a column and cells on
# both sides of the rule; no cell holds a comma or a line end
EDGE_RULES = {
    "name-whitespace": ("Name", st.builds(
        "{}{}{}".format, INNER_SPACE, st.text("ab \xa0\u2028", min_size=1, max_size=3), INNER_SPACE,
    )),
    "name-other": ("Name", st.sampled_from(["", " ", "Good7", 'a"b', '"a"', "a\rb", "\0",
                                            "a\u200b", "\u200b"])),
    "signature-size": ("Signature Size", SIZE_EDGES),
    "public-key-size": ("Public Key Size", SIZE_EDGES),
    "budget-notation": ("Max Signatures", st.sampled_from([
        "0", "01", "00", "-0", "+1", "1e4", "1E-3", "1E+3", "1E03", "1.E3", ".5E3", "1_0", " 7",
        "9223372036854775807.9",
    ])),
    # integers around 2**63, most of 19 digits led by 8 or 9
    "budget-integer-near-2**63": ("Max Signatures", st.one_of(
        st.sampled_from([str(2**63), "9999999999999999999", str(2**63 - 1), "8999999999999999999",
                         str(2**63 + 1), "9300000000000000000", "999999999999999999",
                         "10000000000000000000"]),
        st.builds("{}{}".format, st.sampled_from("89"),
                  st.text("0123456789", min_size=18, max_size=18)),
    )),
    # d[.ddd]E<exp> around 2**63, with up to 42 digits after the point
    "budget-scientific-near-2**63": ("Max Signatures", st.one_of(
        st.sampled_from(["9.5E18", "1E19", "8.999E18", "9E18", "9.223372036854775808E18", "8E19",
                         "9E17", "1E18", "1.5E19"]),
        st.builds("{}.{}E{}".format, st.sampled_from("189"), st.text("0123456789", max_size=42),
                  st.integers(17, 19)),
    )),
    "cost-notation": ("Computational Cost", st.sampled_from([
        "0", "00", "-0", ".5", "5.", "-1.5", "1e3", "inf", "nan", "1_0", " 2",
    ])),
    # digit runs around float's limit, 1.8E308
    "cost-near-float-limit": ("Computational Cost", st.builds(
        "{}{}".format, st.sampled_from(["9" * 309, "9" * 308, "8" * 309, "1" * 309, "1" * 310]),
        st.sampled_from(["", ".", ".5", "." + "5" * 40, "." + "5" * 41]),
    )),
    "unread-cell": ("Notes", st.sampled_from(["x", " ", "a b", "\x0b", "\u3000", '"', "x\ry",
                                              "\0"])),
}


def _good_rows(columns):
    """Rows the line pattern takes, in the order of `columns`, more than
    one piece of the text long, named Good0, Good1 and so on."""
    cells = {"Signature Size": "100", "Public Key Size": "50", "Max Signatures": "1.024E3",
             "Computational Cost": "0." + "1" * 30}
    rows, size = [], 0
    while size <= tufsim._table.CHUNK_CHARS:
        rows.append(",".join(
            f"Good{len(rows)}" if column == "Name" else cells.get(column, "")
            for column in columns
        ))
        size += len(rows[-1]) + 1
    return rows


@st.composite
def pattern_edge_texts(draw, column, edge_cells):
    """A catalog written without quoting that tests one rule of the line
    pattern: a header of shuffled and extra columns and rows of usual
    cells, one row with an `edge_cells` cell in `column`, and on some
    draws one row that is short, long, blank or holds a lone CR.  Each of
    the two goes among the first rows or, on some draws, after more than
    a piece of good rows.  Lines end in \\n or \\r\\n."""
    extra = draw(st.lists(st.sampled_from(["Notes", "Extra"]), max_size=2))  # may repeat
    if column not in CATALOG_COLUMNS:
        extra.append(column)
    columns = draw(st.permutations([*CATALOG_COLUMNS, *extra]))

    def usual():
        return [draw(USUAL_CELLS.get(c, st.just(""))) for c in columns]

    head = [usual() for _ in range(draw(st.integers(0, 3)))]
    tail = [usual() for _ in range(draw(st.integers(0, 2)))]
    edge = usual()
    edge[columns.index(column)] = draw(edge_cells)
    odd = [edge]
    shape = draw(st.sampled_from(["none"] * 6 + ["short", "long", "blank", "cr"]))
    if shape != "none":
        row = usual()
        if shape == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif shape == "long":
            row.append(draw(st.sampled_from(["x", '"', "x\ry"])))
        elif shape == "blank":
            row = draw(st.sampled_from([[], [""] * len(row)]))
        else:
            row[draw(st.integers(0, len(row) - 1))] += "\rx"
        odd.append(row)
    for row in odd:
        rows = draw(st.sampled_from([head, tail]))
        rows.insert(draw(st.integers(0, len(rows))), row)
    lines = [",".join(draw(st.sampled_from(["", " "])) + c for c in columns)]
    lines += map(",".join, head)
    if draw(st.booleans()):
        lines += _good_rows(columns)
    lines += map(",".join, tail)
    newline = draw(st.sampled_from(["\n"] * 3 + ["\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@pytest.mark.parametrize("rule", EDGE_RULES)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_quote_free_rows_at_the_line_patterns_edges_agree_with_row_by_row_reference(rule, data):
    text = data.draw(pattern_edge_texts(*EDGE_RULES[rule]), label="text")
    assert_same_catalog_outcome(
        outcome(parse_algorithm_catalog, text), outcome(reference_catalog, text)
    )


@pytest.mark.parametrize("limit", [40, 348, 349, 1_000, sys.maxsize])
def test_cells_at_and_past_the_csv_field_limit_read_as_row_by_row(limit):
    # the line pattern reads the limit when the catalog is parsed, and is
    # not used below the longest number cell it takes, a 349-character cost
    old = csv.field_size_limit(limit)
    try:
        width = min(limit, 10_000)
        long_cost = "1" * 308 + "." + "5" * 40
        rows = [f"{'n' * width},1,2,3,4,x", f"{'n' * (width + 1)},1,2,3,4,x",
                f"A,1,2,3,4,{'n' * width}", f"A,1,2,3,4,{'n' * (width + 1)}",
                f"A,1,2,3,{long_cost},x", f"A,1,2,3,{long_cost}5,x"]
        for row in rows:
            text = f"{HEADER},Notes\nGood,1,2,3,4,\n{row}\n"
            assert_same_catalog_outcome(
                outcome(parse_algorithm_catalog, text), outcome(reference_catalog, text)
            )
    finally:
        csv.field_size_limit(old)


# names of few characters, so that one is often a prefix, suffix or inner
# part of another, or the text of a number cell
LOOKUP_NAMES = st.text("ab10", min_size=1, max_size=3)


def assert_same_entries(got, want):
    """Assert that two lists of entries are equal, entry by entry."""
    assert_same_catalog_outcome(repr(got), repr(want))


@st.composite
def lookup_texts(draw):
    """A catalog written without quotes that the line pattern takes whole:
    the Name column anywhere among shuffled and extra columns, and names
    of few characters that are prefixes, suffixes and inner parts of each
    other and the text of other rows' number and unread cells.  On some
    draws the rows lie around more than a piece of other rows, the text
    starts with a byte-order mark, or its last line has no newline."""
    extra = draw(st.lists(st.sampled_from(["Notes", "Extra"]), max_size=2))  # may repeat
    columns = draw(st.permutations([*CATALOG_COLUMNS, *extra]))
    names = draw(st.lists(LOOKUP_NAMES, min_size=1, max_size=12, unique=True))
    other = st.sampled_from(names)
    numbers = st.sampled_from(["1", "10", "100", "11"])
    cells = {
        "Signature Size": st.text("10", min_size=1, max_size=3),
        "Public Key Size": st.text("10", min_size=1, max_size=3),
        "Max Signatures": numbers,
        "Computational Cost": st.one_of(numbers, st.just("0.1")),
    }
    unread = st.one_of(st.just(""), other, st.builds("{}{}".format, other, other))
    rows = [",".join(name if column == "Name" else draw(cells.get(column, unread))
                     for column in columns) for name in names]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(rows)))
        rows[at:at] = _good_rows(columns)  # before, among or after the rows
    text = ",".join(columns) + "\n" + "\n".join(rows) + draw(st.sampled_from(["\n", ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=150, deadline=None)
@given(text=lookup_texts(), data=st.data())
def test_reads_of_a_plain_catalog_agree_with_row_by_row_reference(text, data):
    # every read starts from a fresh parse, so each way of reading finds
    # the lines itself: `get` by name within a piece, and iteration,
    # indexing and `==` through `get`
    want = list(reference_catalog(text))
    by_name = {entry.name: entry for entry in want}
    catalog = parse_algorithm_catalog(text)
    assert catalog._text, "the line pattern did not take the catalog"
    names = data.draw(st.permutations(list(by_name)), label="names")
    for name in names:
        assert catalog.get(name) == by_name[name], name
    for name in data.draw(st.lists(LOOKUP_NAMES | st.sampled_from(["", "Good", "Good1,"])),
                          label="absent"):
        if name not in by_name:
            assert catalog.get(name) is None, name
    assert_same_entries(list(parse_algorithm_catalog(text)), want)
    catalog = parse_algorithm_catalog(text)
    indices = data.draw(st.lists(st.integers(-len(want), len(want) - 1), max_size=20),
                        label="indices")
    assert_same_entries([catalog[i] for i in indices], [want[i] for i in indices])
    bounds = st.none() | st.integers(-len(want) - 2, len(want) + 2)
    part = slice(data.draw(bounds, label="start"), data.draw(bounds, label="stop"),
                 data.draw(st.none() | st.sampled_from([1, 2, -1, -3]), label="step"))
    assert_same_entries(parse_algorithm_catalog(text)[part], want[part])
    assert parse_algorithm_catalog(text) == reference_catalog(text)
    assert parse_algorithm_catalog(text) == want
    # some names read first, then the rest in order by iteration and index
    catalog = parse_algorithm_catalog(text)
    for name in names[:data.draw(st.integers(0, len(names)), label="read first")]:
        catalog.get(name)
    assert_same_entries(list(catalog), want)
    assert_same_entries(catalog[:], want)


def test_every_piece_of_a_plain_catalog_spans_at_most_a_chunk_and_a_line():
    # every read of a row, by iteration and indexing too, searches for its
    # name within its piece, so the piece size bounds what a read scans
    text = bulk_catalog_text(7)
    cuts = parse_algorithm_catalog(text)._cuts
    assert len(cuts) > 2, "the line pattern did not take the catalog in pieces"
    longest = max(len(line) for line in text.splitlines(keepends=True))
    assert max(end - start for start, end in zip(cuts, cuts[1:])) <= (
        tufsim._table.CHUNK_CHARS + longest
    )


# each way of reading row 0 of a catalog
FIRST_ROW_READS = (lambda c: c.get("Alg0"), lambda c: next(iter(c)), lambda c: c[0])
# three rows that the line pattern takes, and the same rows quoted, which
# csv reads row by row
THREE_ROWS = {
    "plain": _catalog_text(_rows(3)),
    "quoted": _written([CATALOG_COLUMNS, *(map(str, row) for row in _rows(3))],
                       quoting=csv.QUOTE_ALL),
}


@pytest.mark.parametrize("threads", [2, 3, 4])
@pytest.mark.parametrize("form", THREE_ROWS)
def test_threads_that_first_read_a_row_at_once_all_get_one_object(monkeypatch, threads, form):
    # every thread has checked the row before any stores what it built, so
    # all but the first to store must return the object stored first
    catalog = parse_algorithm_catalog(THREE_ROWS[form])
    barrier = threading.Barrier(threads)
    check_row = tufsim.algorithms._check_row

    def check_all_at_once(*args):
        fields = check_row(*args)
        barrier.wait(timeout=10)
        return fields

    monkeypatch.setattr(tufsim.algorithms, "_check_row", check_all_at_once)
    read = [None] * threads

    def reader(k):
        read[k] = FIRST_ROW_READS[k % 3](catalog)

    workers = [threading.Thread(target=reader, args=(k,)) for k in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert read[0] == SignatureAlgorithm("Alg0", 10, 5, 2, 0.0)
    for entry in [*read, *(reading(catalog) for reading in FIRST_ROW_READS)]:
        assert entry is read[0]


def test_a_parsed_catalog_without_rows_has_no_index():
    catalog = parse_algorithm_catalog(HEADER + "\n")
    assert catalog[:] == list(catalog) == []
    for index in (0, -1):
        with pytest.raises(IndexError):
            catalog[index]
