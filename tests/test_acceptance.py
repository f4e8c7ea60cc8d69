"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line so `pytest -s tests/test_acceptance.py`
reads as a checklist.  Golden values come from hand traces of the state
machine, cross-checked by the closed-form oracle; statistical bounds are
four-sigma intervals of the exact event-date distribution.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import contextmanager
from datetime import date, timedelta

import pytest

from tufsim import (
    Architecture,
    Cadence,
    Catalog,
    EventCalendar,
    Repository,
    RoleSpec,
    RoleType,
    SignatureAlgorithm,
    Uniform,
    default_architecture,
    emit_report_csv,
    generate_poisson_events,
    generate_ticks,
    parse_algorithm_catalog,
    run_sweep,
)
from tufsim.cli import run_cli
from tests.conftest import make_alg, run_one

START = date(2020, 1, 1)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {label}")
        raise
    print(f"PASS  criterion {number}: {label}")


def ten_day_setup(max_sigs: int):
    calendar = EventCalendar(
        update_events={(date(2020, 1, 3), "Target 1"), (date(2020, 1, 7), "Target 1")}
    )
    ticks = generate_ticks(START, date(2020, 1, 10), Cadence.DAILY)
    return calendar, ticks, Catalog([make_alg(max_sigs=max_sigs)])


def test_criterion_1_golden_trace_a():
    with criterion(1, "golden trace A (no-rollover ten-day run)"):
        calendar, ticks, catalog = ten_day_setup(10**6)
        r = run_one(default_architecture(), Uniform("AlgA"), calendar, ticks, catalog)
        assert r.total_signatures == 17
        assert r.sig_bytes == 1700
        assert r.pk_bytes == 200
        assert r.cost == pytest.approx(17.0, abs=1e-6)
        assert r.rollover_events == 4
        assert r.root_publications == 1


def test_criterion_2_golden_trace_b():
    with criterion(2, "golden trace B (four-signature keys force rollover)"):
        calendar, ticks, catalog = ten_day_setup(4)
        r = run_one(default_architecture(), Uniform("AlgA"), calendar, ticks, catalog)
        assert r.total_signatures == 19
        assert r.sig_bytes == 1900
        assert r.pk_bytes == 600
        assert r.cost == pytest.approx(19.0, abs=1e-6)
        assert r.rollover_events == 6
        assert r.root_publications == 3


def test_criterion_3_closed_form_oracle():
    with criterion(3, "closed-form oracle over 200 randomized no-rollover runs"):
        rng = random.Random(2024)
        catalog = Catalog([make_alg()])
        started = time.perf_counter()
        for _ in range(200):
            D = rng.randint(1, 400)
            days = [START + timedelta(days=i) for i in range(D)]
            event_days = rng.sample(days, rng.randint(0, min(D, 25)))
            calendar = EventCalendar(update_events={(d, "Target 1") for d in event_days})
            ticks = generate_ticks(START, days[-1], Cadence.DAILY)
            r = run_one(default_architecture(), Uniform("AlgA"), calendar, ticks, catalog)
            E = len(event_days)
            e1 = int(START in event_days)
            assert r.total_signatures == D + 3 + 2 * (E - e1)
            assert r.pk_bytes == 4 * 50
            assert r.sig_bytes == r.total_signatures * 100
            assert r.rollover_events == 4
            assert r.root_publications == 1
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def test_criterion_4_invariant_fuzz():
    with criterion(4, "invariant fuzz: 500 scenarios of random ops and short keys"):
        rng = random.Random(515151)
        role_types = list(RoleType)
        for _ in range(500):
            repo = Repository("fuzz")
            names = [f"{t.value} 1" for t in role_types]
            for name, role_type in zip(names, role_types):
                repo.add_role(name, role_type, make_alg(max_sigs=rng.choice([1, 2, 3, 5])))
            prev = repo.ledger_totals()
            for day in range(rng.randint(1, 40)):
                op = rng.random()
                name = rng.choice(names + ["Extra 1", "Extra 2"])
                if op < 0.15:
                    repo.add_role(
                        name,
                        rng.choice(role_types),
                        make_alg(max_sigs=rng.choice([1, 2, 3, 5])),
                    )
                elif op < 0.25:
                    repo.remove_role(name)
                elif op < 0.35:
                    repo.set_reserve(name, rng.random() < 0.5)
                elif op < 0.6:
                    repo.stage_update(name)
                lifetimes = [(role, role.lifetime_sigs) for role in repo.roles]
                repo.publish_timestamp()

                for role in repo.roles:
                    assert 0 <= role.lifetime_sigs - role.key_start <= role.algorithm.max_sigs
                totals = repo.ledger_totals()
                # prev predates this step's op too: adding or removing a role
                # leaves the ledger as it was, so only the tick moves it
                signed = [(role, role.lifetime_sigs - n) for role, n in lifetimes]
                assert totals.signatures - prev.signatures == sum(k for _, k in signed)
                assert totals.sig_bytes >= prev.sig_bytes
                assert totals.pk_bytes >= prev.pk_bytes
                assert totals.cost >= prev.cost
                assert totals.signatures >= prev.signatures
                assert totals.rollover_events >= prev.rollover_events
                assert totals.root_publications >= prev.root_publications
                assert totals.sig_bytes - prev.sig_bytes == sum(
                    role.algorithm.sig_size * k for role, k in signed
                )
                published = totals.root_publications > prev.root_publications
                assert totals.pk_bytes - prev.pk_bytes == (
                    sum(role.algorithm.pk_size for role in repo.roles) if published else 0
                )
                prev = totals


def test_criterion_5_byte_linearity():
    with criterion(5, "byte totals scale linearly with signature and key sizes"):
        rng = random.Random(77)
        for _ in range(50):
            D = rng.randint(1, 80)
            days = [START + timedelta(days=i) for i in range(D)]
            calendar = EventCalendar(
                update_events={
                    (d, "Target 1") for d in rng.sample(days, rng.randint(0, min(D, 10)))
                }
            )
            ticks = generate_ticks(START, days[-1], Cadence.DAILY)
            max_sigs = rng.choice([2, 5, 1000])
            sig, pk = rng.randint(1, 500), rng.randint(1, 200)
            base = run_one(
                default_architecture(),
                Uniform("Alg"),
                calendar,
                ticks,
                Catalog([make_alg("Alg", sig_size=sig, pk_size=pk, max_sigs=max_sigs)]),
            )
            for k in (2, 10):
                scaled = run_one(
                    default_architecture(),
                    Uniform("Alg"),
                    calendar,
                    ticks,
                    Catalog(
                        [make_alg("Alg", sig_size=k * sig, pk_size=k * pk, max_sigs=max_sigs)]
                    ),
                )
                assert scaled.sig_bytes == k * base.sig_bytes
                assert scaled.pk_bytes == k * base.pk_bytes
                assert scaled.total_signatures == base.total_signatures
                assert scaled.rollover_events == base.rollover_events


def test_criterion_6_poisson_determinism_and_calibration():
    with criterion(6, "seeded event generation is reproducible and calibrated"):
        end = START + timedelta(days=999)
        a = generate_poisson_events(0.1, START, end, 123, "Target 1")
        b = generate_poisson_events(0.1, START, end, 123, "Target 1")
        assert a == b
        in_bounds = 0
        for seed in range(100):
            calendar = generate_poisson_events(0.1, START, end, seed, "Target 1")
            if 61 <= len(calendar.update_events) <= 139:
                in_bounds += 1
        assert in_bounds >= 99, f"only {in_bounds}/100 seeds inside [61, 139]"


def test_criterion_7_throughput():
    with criterion(7, "desk-scale throughput"):
        arch = default_architecture()
        catalog = Catalog([make_alg()])
        year = generate_ticks(START, date(2020, 12, 31), Cadence.DAILY)

        started = time.perf_counter()
        run_one(arch, Uniform("AlgA"), EventCalendar(), year, catalog)
        one_year = time.perf_counter() - started
        assert one_year < 0.1, f"one-year daily run took {one_year:.3f}s"

        wide = Catalog([make_alg(f"Alg{i}", sig_size=100 + i) for i in range(100)])
        started = time.perf_counter()
        run_sweep(arch, [Uniform(a.name) for a in wide], EventCalendar(), year, wide)
        sweep = time.perf_counter() - started
        assert sweep < 1.0, f"100-algorithm sweep took {sweep:.3f}s"

        decade = generate_ticks(START, date(2029, 12, 31), Cadence.HOURLY)
        assert len(decade) < 88_000
        started = time.perf_counter()
        run_one(arch, Uniform("AlgA"), EventCalendar(), decade, catalog)
        hourly = time.perf_counter() - started
        assert hourly < 10.0, f"ten-year hourly run took {hourly:.3f}s"

        # quiet ticks are jumped over: run time follows change points, not ticks
        end = date(2020, 12, 31)
        events = generate_poisson_events(0.1, START, end, 0, "Target 1")
        budgeted = Catalog([make_alg("AlgH10", max_sigs=1024)])
        started = time.perf_counter()
        minute_year = generate_ticks(START, end, Cadence.MINUTE)
        run_one(arch, Uniform("AlgH10"), events, minute_year, budgeted)
        minute = time.perf_counter() - started
        assert minute < 1.0, f"one-year minute run took {minute:.3f}s"


def test_criterion_7_hashed_bin_throughput():
    with criterion(7, "a busy tick costs the roles that act, not the fleet"):
        # PEP 458's layout: Root, Timestamp, Snapshot and `targets`, which
        # delegates to hashed bins; 2,000 bin updates over an hourly year
        bins = [RoleSpec(f"bin-{i:03x}", RoleType.TARGET) for i in range(4096)]
        arch = Architecture("PyPI", (
            RoleSpec("root", RoleType.ROOT), RoleSpec("timestamp", RoleType.TIMESTAMP),
            RoleSpec("snapshot", RoleType.SNAPSHOT), RoleSpec("targets", RoleType.TARGET),
            *bins,
        ))
        rng = random.Random(458)
        events = {
            (START + timedelta(days=rng.randrange(366)), rng.choice(bins).name)
            for _ in range(2000)
        }
        hourly = generate_ticks(START, date(2020, 12, 31), Cadence.HOURLY)
        catalog = Catalog([make_alg("Ed25519", 64, 32, 10**18, 0.5),
                           make_alg("LMS-SHA256-H10", 1456, 60, 1024, 2.9)])
        started = time.perf_counter()
        results = run_sweep(arch, [Uniform(alg.name) for alg in catalog],
                            EventCalendar(update_events=events), hourly, catalog)
        sweep = time.perf_counter() - started
        # one root file; the first tick signs every Target, later ticks only
        # the updated bins, and the Snapshot signs on each tick a bin did
        later = {(day, name) for day, name in events if day != START}
        busy_ticks = 1 + len({day for day, _ in later})
        assert results[0].total_signatures == 1 + len(hourly) + 4097 + len(later) + busy_ticks
        assert sweep < 1.0, f"4,096-bin hourly sweep took {sweep:.3f}s"


def test_criterion_8_csv_contracts(tmp_path):
    with criterion(8, "CSV contracts: catalog quirks, report round-trip, CLI sweep"):
        padded = (
            " Name , Signature Size , Public Key Size , Max Signatures , Computational Cost \n"
            "AlgA, 100, 50, 1E4, 1.0\n"
            "AlgB, 2420, 32, 1E6, 0.5\n"
        )
        catalog = parse_algorithm_catalog(padded)
        assert [a.max_sigs for a in catalog] == [10_000, 10**6]

        calendar, ticks, _ = ten_day_setup(10**6)
        results = run_sweep(
            default_architecture(),
            [Uniform(a.name) for a in catalog],
            calendar,
            ticks,
            catalog,
        )
        import csv as csv_mod

        text = emit_report_csv(results)
        rows = list(csv_mod.reader(io.StringIO(text)))
        for row, r in zip(rows[1:], results):
            assert (int(row[2]), int(row[3]), int(row[4])) == (
                r.sig_bytes,
                r.pk_bytes,
                r.total_bytes,
            )
            assert row[5] == f"{r.cost:.6f}"
            assert (int(row[6]), int(row[7]), int(row[8])) == (
                r.total_signatures,
                r.rollover_events,
                r.root_publications,
            )

        alg_path = tmp_path / "algorithms.csv"
        alg_path.write_text(padded)
        events_path = tmp_path / "device_A.csv"
        events_path.write_text("Date\n2020-01-03\n2020-01-07\n")
        out, err = io.StringIO(), io.StringIO()
        status = run_cli(
            [
                "--algorithms", str(alg_path),
                "--events", str(events_path),
                "--start", "2020-01-01",
                "--end", "2020-01-10",
            ],
            stdout=out,
            stderr=err,
        )
        assert status == 0
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 + len(catalog)
        assert [line.split(",")[1] for line in lines[1:]] == ["AlgA", "AlgB"]
