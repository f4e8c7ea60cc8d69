"""The README's examples run as written and print what it shows."""

from __future__ import annotations

import io
import re
import shlex
from pathlib import Path

from tufsim.cli import run_cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def test_quick_start_prints_the_report_shown(tmp_path, monkeypatch):
    catalog, events, report = blocks(section("Quick start"), "csv")
    [command] = blocks(section("Quick start"), "sh")
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[0] == "tufsim"
    (tmp_path / argv[argv.index("--algorithms") + 1]).write_text(catalog)
    (tmp_path / argv[argv.index("--events") + 1]).write_text(events)
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(argv[1:], stdout=out, stderr=err) == 0
    assert out.getvalue() == report
    assert len(report.splitlines()) == 4
    assert err.getvalue() == ""


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    catalog = blocks(section("Quick start"), "csv")[0]
    [example] = blocks(section("Library use"), "python")
    (tmp_path / "algorithms.csv").write_text(catalog)
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    total_bytes, cost, rollovers = capsys.readouterr().out.split()
    assert int(total_bytes) > 0 and float(cost) > 0 and int(rollovers) >= 4
