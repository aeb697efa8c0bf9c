"""Rolling-origin evaluation: scoring, leakage, skips, and rendering."""

import json
import re
import warnings
from datetime import date, timedelta

import numpy as np
import pytest

from helpers import FIXTURES, make_series
from latecast import backtest
from latecast.align import (
    CountrySeries, build_panel, parse_jhu_wide, parse_long, truncate_series,
)
from latecast.backtest import (
    BacktestConfig,
    dumps_report,
    report_to_csv,
    report_to_json,
    run_backtest,
    score,
)
from latecast.cli import main
from latecast.errors import DataFormatError


def load_fixture(stem):
    text = (FIXTURES / f"{stem}.csv").read_text()
    series = {s.name: s for s in parse_long(text)}
    target = series.pop("Target")
    return target, list(series.values())


def head(series: CountrySeries, n: int) -> CountrySeries:
    return CountrySeries(series.name, series.start, series.counts[:n])


D = date(2020, 4, 1)


def test_score_single_cell():
    total, worst, by_h = score({D: {D + timedelta(days=1): 110.0}},
                               {D + timedelta(days=1): 100})
    assert total == pytest.approx(10.0)
    assert worst == pytest.approx(10.0)
    np.testing.assert_allclose(by_h, [10.0])


def test_score_perfect_forecasts():
    matrix = {D: {D + timedelta(days=h): 100.0 * h for h in (1, 2, 3)}}
    observed = {D + timedelta(days=h): 100 * h for h in (1, 2, 3)}
    total, worst, by_h = score(matrix, observed)
    assert total == 0.0
    assert worst == 0.0
    np.testing.assert_allclose(by_h, [0.0, 0.0, 0.0])


def test_score_aggregation():
    matrix = {D: {D + timedelta(days=1): 110.0,
                  D + timedelta(days=2): 130.0}}
    observed = {D + timedelta(days=1): 100,
                D + timedelta(days=2): 100}
    total, worst, by_h = score(matrix, observed)
    assert total == pytest.approx(20.0)
    assert worst == pytest.approx(30.0)
    np.testing.assert_allclose(by_h, [10.0, 30.0])


def test_score_ignores_nonpositive_observations():
    matrix = {D: {D + timedelta(days=1): 110.0,
                  D + timedelta(days=2): 500.0}}
    observed = {D + timedelta(days=1): 100,
                D + timedelta(days=2): 0}
    total, worst, by_h = score(matrix, observed)
    assert total == pytest.approx(10.0)
    assert len(by_h) == 1


def test_score_requires_overlap():
    with pytest.raises(DataFormatError, match="overlap"):
        score({D: {D + timedelta(days=1): 1.0}}, {})


def test_config_validation():
    with pytest.raises(ValueError):
        BacktestConfig(horizon=0)
    with pytest.raises(ValueError):
        BacktestConfig(window=1)


def test_single_feasible_origin():
    target, peers = load_fixture("synthetic_ecm_long")
    full = run_backtest(target, peers, BacktestConfig(window=21, horizon=5))
    only = full.origins[2]
    report = run_backtest(
        target, peers,
        BacktestConfig(window=21, horizon=5, origin_start=only,
                       origin_end=only),
    )
    assert report.origins == [only]
    assert set(report.matrix) == {only}
    assert len(report.matrix[only]) == 5


def test_origin_with_no_realized_data_is_unscorable():
    # the target ends on the only feasible origin day, so every forecast
    # lands beyond the data and the scoring contract rejects the run
    target = make_series("T", date(2020, 3, 1),
                         [int(120 * 1.3**i) for i in range(6)])
    peers = [make_series("A", date(2020, 2, 1),
                         [int(150 * 1.3**i) for i in range(30)])]
    cfg = BacktestConfig(threshold=100, window=5, horizon=3)
    with pytest.raises(DataFormatError, match="overlaps"):
        run_backtest(target, peers, cfg)


def test_backtest_is_deterministic_and_scoring_ignores_sims(tmp_path):
    target, peers = load_fixture("synthetic_ecm_long")
    a = run_backtest(target, peers, BacktestConfig(window=21, horizon=5))
    b = run_backtest(target, peers, BacktestConfig(window=21, horizon=5))
    assert a.matrix == b.matrix
    assert a.mape_total == b.mape_total
    # the command line takes a seed, but scoring never simulates
    reports = []
    for seed in ("7", "9"):
        out = tmp_path / f"seed{seed}.json"
        assert main(["backtest", "--data-path",
                     str(FIXTURES / "synthetic_ecm_long.csv"),
                     "--data-format", "long", "--target", "Target",
                     "--seed", seed, "--h", "5",
                     "--format", "json", "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_backtest_is_leakage_free():
    target, peers = load_fixture("synthetic_ecm_long")
    cfg = BacktestConfig(window=21, horizon=5)
    base = run_backtest(target, peers, cfg)
    pivot = base.origins[len(base.origins) // 2]

    # corrupt everything the pivot-origin fit must not see
    cut = (pivot - target.start).days + 1
    counts = list(target.counts)
    for i in range(cut, len(counts)):
        counts[i] = int(counts[i] * 1.9) + 1234
    tampered = CountrySeries(target.name, target.start, counts)

    other = run_backtest(tampered, peers, cfg)
    for origin in base.origins:
        if origin <= pivot:
            assert other.matrix[origin] == base.matrix[origin]
    assert any(other.matrix[o] != base.matrix[o]
               for o in base.origins if o > pivot)


def test_mape_total_is_cellcount_weighted_mean():
    target, peers = load_fixture("synthetic_ecm_long")
    report = run_backtest(target, peers, BacktestConfig(window=21, horizon=7))
    counts = np.zeros(report.horizon)
    for origin, column in report.matrix.items():
        for d in column:
            obs = report.observed.get(d)
            if obs is not None and obs > 0:
                counts[(d - origin).days - 1] += 1
    by_h = report.mape_by_horizon
    total = np.nansum(by_h * counts) / counts.sum()
    assert report.mape_total == pytest.approx(total, abs=1e-12)


def test_errors_grow_with_horizon_on_noisy_fixture():
    target, peers = load_fixture("synthetic_ecm_long")
    report = run_backtest(target, peers, BacktestConfig(window=21, horizon=7))
    assert report.mape_by_horizon[0] < report.mape_by_horizon[6]


def test_noiseless_fixture_is_nearly_exact():
    target, peers = load_fixture("synthetic_ecm_noiseless_long")
    report = run_backtest(target, peers, BacktestConfig(window=21, horizon=7))
    assert not report.skipped
    assert report.mape_total < 0.5


def test_failed_origins_are_skipped_not_fatal():
    target, peers = load_fixture("synthetic_ecm_noiseless_long")
    short_peers = [head(p, 30) for p in peers]
    report = run_backtest(target, short_peers,
                          BacktestConfig(window=21, horizon=7))
    # once the target outgrows the peers' remaining lead, panels die
    assert report.origins and report.skipped
    assert all("peer" in s["reason"] for s in report.skipped)
    assert report.origins == sorted(report.matrix)


def test_each_origin_panel_equals_build_panel(monkeypatch):
    # every series is aligned once per backtest; every origin's panel,
    # drop log and warnings must still be what build_panel gives on
    # the target truncated to that origin
    target, peers = load_fixture("synthetic_ecm_noiseless_long")
    peers = [head(peers[0], 32)] + peers[1:] + [
        make_series("Low", target.start, [5] * 40),
        make_series(target.name, target.start, [500] * 40),
    ]
    seen = []
    assemble = backtest._assemble_panel

    def recording(*args, **kwargs):
        panel = assemble(*args, **kwargs)
        seen.append(panel)
        return panel

    monkeypatch.setattr(backtest, "_assemble_panel", recording)
    cfg = BacktestConfig(window=21, horizon=7)
    with warnings.catch_warnings(record=True) as backtest_warnings:
        warnings.simplefilter("always")
        report = run_backtest(target, peers, cfg)
    # one panel per origin, each ending on its origin
    assert [panel.end_date for panel in seen] == report.origins
    reasons = set()
    with warnings.catch_warnings(record=True) as panel_warnings:
        warnings.simplefilter("always")
        for panel in seen:
            ref = build_panel(truncate_series(target, panel.end_date), peers,
                              threshold=cfg.threshold,
                              max_horizon=cfg.horizon, window=cfg.window)
            assert panel.drop_log == ref.drop_log
            assert panel.peer_names == ref.peer_names
            assert panel.start_date == ref.start_date
            assert panel.peer_start_dates == ref.peer_start_dates
            assert panel.window == ref.window
            np.testing.assert_array_equal(panel.window_weights, ref.window_weights)
            np.testing.assert_array_equal(panel.X, ref.X)
            np.testing.assert_array_equal(panel.y, ref.y)
            reasons |= {d["reason"] for d in panel.drop_log}
    # every origin has window + 1 observations, so neither side shrinks
    # its window; the backtest must not warn where build_panel does not
    assert ([str(w.message) for w in panel_warnings]
            == [str(w.message) for w in backtest_warnings])
    assert len(seen) > 1
    assert reasons == {"is_target", "below_threshold", "too_short"}


def test_peer_with_zero_after_threshold_is_a_data_error():
    target, peers = load_fixture("synthetic_ecm_noiseless_long")
    counts = np.array(peers[0].counts)
    counts[-1] = 0
    broken = CountrySeries(peers[0].name, peers[0].start, counts)
    cfg = BacktestConfig(window=21, horizon=7)
    with pytest.raises(DataFormatError) as err:
        run_backtest(target, [broken] + peers[1:], cfg)
    with pytest.raises(DataFormatError) as ref:
        build_panel(target, [broken] + peers[1:], threshold=cfg.threshold,
                    max_horizon=cfg.horizon, window=cfg.window)
    assert "zero count" in str(ref.value)
    assert str(err.value) == str(ref.value)


def test_all_origins_failing_raises():
    target, peers = load_fixture("synthetic_ecm_noiseless_long")
    stumps = [head(p, 25) for p in peers]
    with pytest.raises(DataFormatError, match="every origin failed"):
        run_backtest(target, stumps, BacktestConfig(window=21, horizon=7))


def test_calendar_flags_and_switch():
    growth = [int(110 * 1.25**i) for i in range(40)]
    target = make_series("T", date(2020, 3, 10), growth[:10])
    # peer crossed only two days before the target, so horizons past 2
    # use calendar-future peer values
    peer = make_series("A", date(2020, 3, 8), growth)
    cfg = BacktestConfig(threshold=100, window=4, horizon=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_backtest(target, [peer], cfg)
    # the target tracks its peer exactly, so gamma is rounding noise (~1e-12)
    assert not [w for w in caught if "outside" in str(w.message)]
    assert report.flags
    assert all(f["days_ahead"] >= 1 for f in report.flags)
    assert all(f["peer"] == "A" for f in report.flags)


def test_origin_bounds_clamp():
    target, peers = load_fixture("synthetic_ecm_long")
    full = run_backtest(target, peers, BacktestConfig(window=21, horizon=5))
    lo, hi = full.origins[3], full.origins[6]
    part = run_backtest(
        target, peers,
        BacktestConfig(window=21, horizon=5, origin_start=lo, origin_end=hi),
    )
    assert part.origins == full.origins[3:7]
    for o in part.origins:
        assert part.matrix[o] == full.matrix[o]


@pytest.mark.parametrize("bounds, requested", [
    (["--origin-start", "2020-04-20"], "2020-04-20 to end of data"),
    (["--origin-end", "2020-03-01"], "start of data to 2020-03-01"),
    (["--origin-start", "2020-04-10", "--origin-end", "2020-04-05"],
     "2020-04-10 to 2020-04-05"),
], ids=["start_after_data", "end_before_first", "start_after_end"])
def test_origin_range_without_feasible_origin_names_both_ranges(
        capsys, bounds, requested):
    # Brazil has 33 aligned observations, so the window is not the problem
    code = main(["backtest", "--data-path",
                 str(FIXTURES / "jhu_confirmed_snapshot_20200415.csv"),
                 "--target", "Brazil", "--seed", "11", *bounds])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataFormatError"
    assert f"requested range {requested}" in err["message"]
    assert "feasible origins 2020-04-04 to 2020-04-15" in err["message"]


def test_window_longer_than_the_target_has_no_feasible_origin():
    series = {s.name: s for s in parse_jhu_wide(
        (FIXTURES / "jhu_confirmed_snapshot_20200415.csv").read_text())}
    target = series.pop("Brazil")
    with pytest.raises(DataFormatError, match=re.escape(
            "no feasible origin: target 'Brazil' needs at least 41 aligned "
            "observations")):
        run_backtest(target, list(series.values()), BacktestConfig(window=40))


def test_observed_comes_from_untruncated_target():
    target, peers = load_fixture("synthetic_ecm_long")
    report = run_backtest(target, peers, BacktestConfig(window=21, horizon=5))
    for d, v in report.observed.items():
        assert v == target.counts[(d - target.start).days]


def test_csv_layout():
    target, peers = load_fixture("synthetic_ecm_long")
    report = run_backtest(target, peers, BacktestConfig(window=21, horizon=5))
    lines = report_to_csv(report).splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["Date", "Observed"]
    assert header[2:] == [o.isoformat() for o in report.origins]
    first_origin = report.origins[0]
    first_date = min(report.matrix[first_origin])
    row = next(l for l in lines if l.startswith(first_date.isoformat()))
    cells = row.split(",")
    assert cells[2] == str(round(report.matrix[first_origin][first_date]))
    # later origins have no forecast that far back: lower-triangular gaps
    assert cells[-1] == ""


def test_json_report_is_stable_and_complete():
    target, peers = load_fixture("synthetic_ecm_long")
    report = run_backtest(target, peers, BacktestConfig(window=21, horizon=9))
    blob = dumps_report(report)
    assert blob == dumps_report(report)
    data = json.loads(blob)
    assert data["mape_total"] == pytest.approx(report.mape_total)
    assert data["window"] == 21 and data["horizon"] == 9
    tail = data["mape_by_horizon"][-1]
    assert tail is None or isinstance(tail, float)
    assert set(data["matrix"]) == {o.isoformat() for o in report.origins}
    assert data["origin_details"][0]["selected"]
    # each origin's lasso path crosses at least one knot
    knots = [d["knots"] for d in data["origin_details"]]
    assert all(type(k) is int and k >= 1 for k in knots)
