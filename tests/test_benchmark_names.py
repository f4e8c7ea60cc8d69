"""The names of tufsim that the benchmark in `perfbench/` reaches.

The tracer patches functions and methods by name, and the benchmark's
worker and reference import from `tufsim` and read result fields by name,
so removing or renaming one breaks the benchmark although no other test
would fail.  These tests read those names from the benchmark's own files.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import tufsim
import tufsim.cli
from tufsim.repository import LedgerTotals, Repository
from tufsim.runner import Simulation
from tufsim.schedule import EventCalendar

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _imported_from_tufsim(filename: str) -> list[str]:
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "tufsim"
            for alias in node.names]


def test_every_name_the_tracer_patches_exists():
    tracer = _tracer()
    for modules in (tracer.SPANNED, tracer.FOLDED_FUNCTIONS):
        for module_name, names in modules.items():
            module = importlib.import_module(module_name)
            missing = [name for name in names if not callable(getattr(module, name, None))]
            assert not missing, f"{module_name} lacks {missing}"
    missing = [name for name in tracer.FOLDED_METHODS
               if not callable(getattr(Repository, name, None))]
    assert not missing, f"Repository lacks {missing}"


@pytest.mark.parametrize("filename", ["worker.py", "reference.py"])
def test_every_name_the_benchmark_imports_from_tufsim_exists(filename):
    names = _imported_from_tufsim(filename)
    assert names
    assert [name for name in names if not hasattr(tufsim, name)] == []


def test_the_benchmark_entry_point_exists():
    assert callable(tufsim.cli.run_cli)


@pytest.mark.parametrize("record, fields", [
    (Simulation, ("warnings", "total_signatures", "rollover_events", "root_publications")),
    (LedgerTotals, ("sig_bytes", "pk_bytes", "cost", "signatures", "rollover_events",
                    "root_publications")),
    (EventCalendar, ("update_events", "role_actions")),
])
def test_every_result_field_the_benchmark_reads_exists(record, fields):
    assert [field for field in fields if field not in record._fields] == []
