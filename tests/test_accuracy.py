"""The committed accuracy ledger is what the sweep scores today.

``scripts/accuracy_ledger.py`` writes ``ACCURACY.json``; a change that
moves a forecast changes a figure of the ledger, and the ledger has to
be rewritten with it.
"""

import json
import subprocess
import sys

import pytest

from helpers import ROOT, src_env

LEDGER = ROOT / "ACCURACY.json"


def assert_same(fresh, committed, where="ledger"):
    # counts, names and dates exactly, floats to rounding
    if isinstance(committed, float):
        assert fresh == pytest.approx(committed, rel=1e-9), where
    elif isinstance(committed, dict):
        assert sorted(fresh) == sorted(committed), where
        for key, value in committed.items():
            assert_same(fresh[key], value, f"{where}.{key}")
    elif isinstance(committed, list):
        assert len(fresh) == len(committed), where
        for i, (a, b) in enumerate(zip(fresh, committed)):
            assert_same(a, b, f"{where}[{i}]")
    else:
        assert type(fresh) is type(committed) and fresh == committed, where


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "ACCURACY.json"
    proc = subprocess.run(
        [sys.executable, "scripts/accuracy_ledger.py", "--out", str(out)],
        cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(out.read_text(encoding="utf-8"))


def test_rerun_ledger_equals_the_committed_one(fresh):
    assert_same(fresh, json.loads(LEDGER.read_text(encoding="utf-8")))


def test_ledger_holds_the_sweep_figures(fresh):
    published = fresh["replays"]["published"]["all"]
    assert (published["targets"], published["origins_fitted"],
            published["origins_skipped"], published["cells"]) == (45, 789, 90, 6944)
    assert published["targets_failed_whole"] == []
    assert round(published["mape_pct"], 2) == 15.28
    assert round(published["median_ape_pct"], 2) == 7.17
    assert round(100 * published["share_over_100pct"], 1) == 1.1

    realtime = fresh["replays"]["realtime"]["all"]
    assert (realtime["origins_fitted"], realtime["origins_skipped"],
            realtime["cells"]) == (751, 128, 6412)
    assert realtime["targets_failed_whole"] == ["cases/China", "deaths/China"]
    assert round(realtime["median_ape_pct"], 2) == 10.20
    assert round(100 * realtime["share_over_100pct"], 1) == 6.1
