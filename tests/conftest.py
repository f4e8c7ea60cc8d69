from __future__ import annotations

from datetime import date

import pytest

from tufsim import EventCalendar, RunResult, SignatureAlgorithm, run_sweep


def make_alg(
    name: str = "AlgA",
    sig_size: int = 100,
    pk_size: int = 50,
    max_sigs: int = 10**6,
    cost: float = 1.0,
) -> SignatureAlgorithm:
    return SignatureAlgorithm(name, sig_size, pk_size, max_sigs, cost)


def run_one(arch, assignment, calendar, ticks, catalog) -> RunResult:
    """The result of a sweep of one assignment, the one way to run it."""
    [result] = run_sweep(arch, [assignment], calendar, ticks, catalog)
    return result


@pytest.fixture
def uniform_alg() -> SignatureAlgorithm:
    return make_alg()


@pytest.fixture
def ten_day_calendar() -> EventCalendar:
    """Events on the 3rd and 7th day of the canonical ten-day scenario."""
    return EventCalendar(
        update_events={
            (date(2020, 1, 3), "Target 1"),
            (date(2020, 1, 7), "Target 1"),
        }
    )
