"""The README's commands and library example run as written.

The ``latecast`` commands are read from the README's ``sh`` blocks and
run in-process from the repository root, so an edit to either the
README or the program that makes them disagree fails here.
"""

import gc
import json
import re
import shlex
import tomllib
import warnings
from pathlib import Path

import pytest

from latecast.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README, flags=re.S)
COMMANDS = [
    shlex.split(body.replace("\\\n", " "))[1:]
    for lang, body in BLOCKS
    if lang == "sh" and body.startswith("latecast ")
]


def _run(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return out, [json.loads(line) for line in err.splitlines()]


def _command(name):
    return next(argv for argv in COMMANDS if argv[0] == name)


def test_readme_has_four_commands():
    assert [argv[0] for argv in COMMANDS] == [
        "ingest-check", "forecast", "backtest", "report"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_exits_zero(argv, monkeypatch, capsys):
    out, _ = _run(argv, monkeypatch, capsys)
    assert out


def test_forecast_matches_readme_excerpt(monkeypatch, capsys):
    # the unlabelled block right after the forecast command
    i = next(i for i, (lang, body) in enumerate(BLOCKS)
             if lang == "sh" and body.startswith("latecast forecast"))
    excerpt = [line for line in BLOCKS[i + 1][1].splitlines() if line != "..."]
    assert excerpt[1] == "2020-04-16,30266,1946,6.87,28101,32586"
    out, _ = _run(_command("forecast"), monkeypatch, capsys)
    assert out.splitlines()[:len(excerpt)] == excerpt


def test_backtest_summary_matches_readme(monkeypatch, capsys):
    _, lines = _run(_command("backtest"), monkeypatch, capsys)
    summary = next(p for p in lines if p.get("info") == "backtest_summary")
    assert summary["origins"] == 11
    assert round(summary["mape_total_pct"], 1) == 5.1
    assert "about 5.1% total MAPE" in README


def test_python_floor_matches_pyproject():
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    floor = pyproject["project"]["requires-python"]
    assert floor.startswith(">=")
    assert re.findall(r"Python (\d+\.\d+)\+", README) == [floor[2:]]


def test_library_example_runs(monkeypatch, capsys):
    code = next(body for lang, body in BLOCKS if lang == "python")
    monkeypatch.chdir(ROOT)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
        gc.collect()
    out = capsys.readouterr().out
    assert out.startswith("selected peers:")
    # an unclosed file shows up once the example's namespace is collected
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
