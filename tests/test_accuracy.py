"""The committed accuracy ledger is what the sweep scores today.

``scripts/accuracy_ledger.py`` writes ``ACCURACY.json``; a change that
moves a forecast changes a figure of the ledger, and the ledger has to
be rewritten with it.  The real-time replay's cut of the peers is
held to what a forecaster could have known on each origin.
"""

import importlib.util
import json
import subprocess
import sys
import warnings
from datetime import date, timedelta

import pytest

from helpers import ROOT, src_env
from latecast import backtest
from latecast.errors import LatecastError
from latecast.ingest import CountrySeries

LEDGER = ROOT / "ACCURACY.json"

_spec = importlib.util.spec_from_file_location(
    "accuracy_ledger", ROOT / "scripts" / "accuracy_ledger.py")
accuracy_ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(accuracy_ledger)


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
    assert published["origins_with_calendar_future_peers"] == 558
    assert round(published["mape_pct"], 2) == 15.28
    assert round(published["median_ape_pct"], 2) == 7.17
    assert round(100 * published["share_over_100pct"], 1) == 1.1

    realtime = fresh["replays"]["realtime"]["all"]
    assert (realtime["origins_fitted"], realtime["origins_skipped"],
            realtime["cells"]) == (751, 128, 6412)
    assert realtime["targets_failed_whole"] == ["cases/China", "deaths/China"]
    assert realtime["origins_with_calendar_future_peers"] == 0
    assert round(realtime["median_ape_pct"], 2) == 10.20
    assert round(100 * realtime["share_over_100pct"], 1) == 6.1


def realtime_records(snapshots, origin_start=None, origin_end=None):
    """Each target's real-time backtest over the origin range, as its
    forecast columns, origin records and skip entries by origin, or the
    error it raises."""
    records = {}
    with warnings.catch_warnings(), accuracy_ledger.realtime_peers():
        warnings.simplefilter("ignore", RuntimeWarning)
        for snap, series in snapshots.items():
            config = backtest.BacktestConfig(
                threshold=accuracy_ledger.SNAPSHOTS[snap][1],
                window=accuracy_ledger.WINDOW, horizon=accuracy_ledger.HORIZON,
                origin_start=origin_start, origin_end=origin_end)
            for target in series:
                try:
                    report = backtest.run_backtest(
                        *accuracy_ledger.split(series, target.name), config)
                except LatecastError as exc:
                    records[snap, target.name] = f"{type(exc).__name__}: {exc}"
                    continue
                records[snap, target.name] = (
                    report.matrix,
                    {r["origin"]: r for r in report.origin_details},
                    {s["origin"]: s["reason"] for s in report.skipped})
    return records


def perturbed_after(series, day):
    """The series with every count dated after ``day`` doubled plus 7."""
    counts = series.counts.copy()
    i = max((day - series.start).days + 1, 0)
    counts[i:] = counts[i:] * 2 + 7
    return CountrySeries(series.name, series.start, counts)


CUTOFF = date(2020, 4, 5)


@pytest.fixture(scope="module")
def snapshots():
    return accuracy_ledger.load_snapshots(ROOT)


@pytest.fixture(scope="module")
def early(snapshots):
    return realtime_records(snapshots, origin_end=CUTOFF)


def test_realtime_replay_reads_nothing_after_the_origin(snapshots, early):
    # every series, target and peers, changes after the cutoff; no origin
    # on or before it may see that, in its forecasts, its record or its
    # skip entry
    perturbed = realtime_records(
        {snap: [perturbed_after(s, CUTOFF) for s in series]
         for snap, series in snapshots.items()}, origin_end=CUTOFF)
    assert perturbed == early
    origins = {snap: sum(len(r[1]) + len(r[2]) for (s, _), r in early.items()
                         if s == snap and not isinstance(r, str))
               for snap in snapshots}
    assert origins == {"cases": 254, "deaths": 105}


def test_realtime_replay_keeps_its_drop_reasons(snapshots, early):
    # a peer that crosses the threshold after the origin has no values
    # then, and is dropped as below threshold, not as too short
    late = realtime_records(snapshots, origin_start=CUTOFF + timedelta(days=1))
    drops = {}
    for result in [*early.values(), *late.values()]:
        if isinstance(result, str):
            continue
        for record in result[1].values():
            for entry in record["dropped_peers"]:
                drops[entry["reason"]] = drops.get(entry["reason"], 0) + 1
    assert drops == {"below_threshold": 374, "too_short": 15062}
    italy = early["cases", "Italy"][1]["2020-03-15"]["dropped_peers"]
    below = [(d["peer"], d["len"]) for d in italy if d["reason"] == "below_threshold"]
    assert below == [("Chile", 0), ("Peru", 0)]
