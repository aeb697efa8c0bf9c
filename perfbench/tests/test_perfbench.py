"""Self-tests for the benchmark's own code.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import csv
import io
import warnings
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import checks, measure
from perfbench.panelgen import generate_panel
from perfbench.tracer import Tracer, covered, self_times

FIXTURES = Path(__file__).resolve().parents[2] / "fixtures"


def test_generator_is_deterministic_per_seed():
    a = generate_panel(FIXTURES, 7, n_countries=30, n_days=200)
    b = generate_panel(FIXTURES, 7, n_countries=30, n_days=200)
    c = generate_panel(FIXTURES, 8, n_countries=30, n_days=200)
    assert a.wide_text == b.wide_text and a.long_text == b.long_text
    assert a.long_text != c.long_text
    stats = a.stats()
    assert (stats["countries"], stats["days"], stats["long_rows"]) == (30, 200, 6000)
    assert stats["long_bytes"] == len(a.long_text.encode())


def test_generator_layouts_carry_the_same_counts():
    g = generate_panel(FIXTURES, 3, n_countries=40, n_days=150)
    wide = {}
    rows = list(csv.reader(io.StringIO(g.wide_text)))
    for row in rows[1:]:
        wide[row[1]] = wide.get(row[1], 0) + np.array([int(v) for v in row[4:]])
    long = {}
    for rec in csv.DictReader(io.StringIO(g.long_text)):
        long.setdefault(rec["country"], []).append(int(rec["cumulative"]))
    assert len(rows) - 1 > len(g.names)  # some countries are split into provinces
    for name in g.names:
        assert np.array_equal(wide[name], g.counts[name])
        assert np.array_equal(long[name], g.counts[name])
        assert np.all(np.diff(g.counts[name]) >= 0)


def _report(values: dict, skipped=()):
    """Minimal stand-in for BacktestReport: origin -> 2-day forecast column."""
    matrix = {}
    for iso, col in values.items():
        o = date.fromisoformat(iso)
        matrix[o] = {o + timedelta(days=h + 1): v for h, v in enumerate(col)}
    return SimpleNamespace(matrix=matrix,
                           skipped=[{"origin": iso, "reason": "x"} for iso in skipped])


REF = {"fitted": {"2020-04-01": [100.0, 110.0], "2020-04-02": [120.0, 130.0]},
       "failed": ["2020-04-03"], "refused": ["2020-04-04"]}
CLASSES = {"2020-04-03": "failed", "2020-04-04": "refused"}


def test_reference_checker_accepts_the_reference_and_counts_units():
    report = _report(REF["fitted"], skipped=["2020-04-03", "2020-04-04"])
    res = checks.check_backtest(report, REF, CLASSES.get)
    assert res == {"fitted": 2, "failed": 1, "refused": 1, "mismatches": []}


def test_reference_checker_rejects_a_perturbed_output():
    perturbed = {**REF["fitted"], "2020-04-02": [120.0, 130.0 * (1 + 1e-7)]}
    report = _report(perturbed, skipped=["2020-04-03", "2020-04-04"])
    res = checks.check_backtest(report, REF, CLASSES.get)
    assert len(res["mismatches"]) == 1 and "2020-04-02" in res["mismatches"][0]
    assert checks.close([1.0 + 1e-10], [1.0]) and not checks.close([1.0 + 1e-8], [1.0])


def test_fixing_a_reference_failure_is_judged_by_the_oracle_only():
    fitted = {**REF["fitted"], "2020-04-03": [140.0, 150.0]}
    res = checks.check_backtest(_report(fitted, skipped=["2020-04-04"]), REF, CLASSES.get)
    assert res["mismatches"] == [] and res["failed"] == 0 and res["fitted"] == 3
    broken = {**REF["fitted"], "2020-04-03": [float("nan"), 150.0]}
    res = checks.check_backtest(_report(broken, skipped=["2020-04-04"]), REF, CLASSES.get)
    assert len(res["mismatches"]) == 1


def test_losing_a_fitted_origin_is_a_mismatch():
    fitted = {"2020-04-01": REF["fitted"]["2020-04-01"]}
    classes = {**CLASSES, "2020-04-02": "failed"}
    report = _report(fitted, skipped=["2020-04-02", "2020-04-03", "2020-04-04"])
    res = checks.check_backtest(report, REF, classes.get)
    assert res["failed"] == 2 and len(res["mismatches"]) == 1


def test_refusal_versus_failure_classification():
    from latecast.errors import (ConvergenceError, DataFormatError, EstimationError,
                                 ForecastError, NotLatecomerError)

    assert checks.classify_error(DataFormatError("x")) == "refused"
    assert checks.classify_error(NotLatecomerError("A", 100, 5)) == "refused"
    assert checks.classify_error(EstimationError("x")) == "failed"
    assert checks.classify_error(ConvergenceError("x")) == "failed"
    assert checks.classify_error(ForecastError("x")) == "failed"


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0, None),
        ("a", 1.0, 4.0, 0, 0, None),
        ("a.child", 2.0, 3.0, 1, 0, None),
        ("b", 5.0, 6.5, 0, 0, None),
        ("c", 6.0, 7.0, 0, 0, None),  # overlaps b: covered once
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.5, 1.0])
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert covered([]) == 0.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert measure.tail(list(range(45)))[1] == 75.0
    assert measure.tail(list(range(200)))[1] == 95.0
    value, p, beyond = measure.tail(list(range(1000)))
    assert (p, beyond) == (99.0, 10)
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert measure.percentile([1.0, 2.0, 3.0, 4.0], 50) == np.percentile([1, 2, 3, 4], 50)


def test_op_medians_take_each_ops_median_over_rounds():
    ops = ["a", "b", "a", "b", "a"]
    times = [3.0, 5.0, 2.0, 6.0, 4.0]
    assert measure.op_medians(ops, times) == [3.0, 5.5]


class _FakeWorkload:
    """Two ops per round; records the warning filters each op runs under."""

    def __init__(self):
        self.filters_seen = []

    def round_ops(self):
        return ["a", "b"]

    def run(self, op):
        self.filters_seen.append(list(warnings.filters))
        warnings.warn("from the program", RuntimeWarning)
        return op

    def check(self, op, result):
        return measure.Outcome()


def test_untraced_loop_runs_under_the_programs_warning_filters(monkeypatch):
    # a host running at half the reference speed: times are scaled by half
    monkeypatch.setattr(measure, "calibration", lambda: 2 * measure.CALIBRATION_REF_S)
    wl = _FakeWorkload()
    before = list(warnings.filters)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ignoring = list(warnings.filters)
        gaps = []
        ops, times, scaled, outcomes, rounds = measure.run_loop(
            wl, 0.0, min_rounds=3, between_rounds=gaps.append)
    assert (ops, rounds) == (["a", "b"] * 3, 3) and len(times) == 6
    assert scaled == pytest.approx([t / 2 for t in times])
    assert len(gaps) == 2  # after every round but the last
    assert all(f == ignoring for f in wl.filters_seen)
    assert list(warnings.filters) == before


def test_traced_op_counts_runtime_warnings_and_leaves_the_check_untraced():
    import latecast.ecm

    def fit_ecm(*args):
        warnings.warn("loading outside [-1, 1]", RuntimeWarning)

    class Fitting(_FakeWorkload):
        def run(self, op):
            return latecast.ecm.fit_ecm()

        def check(self, op, result):
            latecast.ecm.fit_ecm()  # a check's own calls leave no span
            return measure.Outcome()

    original = latecast.ecm.fit_ecm
    latecast.ecm.fit_ecm = fit_ecm
    tracer = Tracer()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for op in ("a", "b", "c"):
                measure.traced_op(Fitting(), op, tracer)
    finally:
        latecast.ecm.fit_ecm = original
    assert tracer.counters["ecm.runtime_warnings"] == 3
    assert [s[0] for s in tracer.spans] == ["ecm.fit_ecm"] * 3


def test_cold_setup_runs_in_a_fresh_process():
    from perfbench import run

    wl = SimpleNamespace(root=run.ROOT, name="forecast_bands", seed=1)
    times = measure.cold_setup(wl)
    assert set(times) == {"import_s", "setup_s", "calibration_s"}
    assert all(0 < t < 60 for t in times.values())


def test_run_py_lists_every_workload():
    from perfbench import run
    from perfbench.workloads import WORKLOADS

    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


def test_nonjson_stderr_lines_are_counted():
    err = '{"info": "x"}\nplain warning\n[1, 2]\n{"ok": true}\n'
    assert checks.nonjson_lines(err) == 2


def test_tracer_wraps_every_caller_and_restores_them():
    import latecast.backtest
    import latecast.cli
    import latecast.lasso

    original = latecast.lasso.select_by_bic
    tracer = Tracer()
    with tracer:
        assert latecast.backtest.select_by_bic is latecast.cli.select_by_bic
        assert latecast.backtest.select_by_bic is not original
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([y * 0.5, np.ones(4) + np.arange(4) ** 2])
        latecast.backtest.select_by_bic(y, X, np.ones(4))
    assert latecast.backtest.select_by_bic is original
    assert [s[0] for s in tracer.spans] == ["lasso.select_by_bic"]
    tracer.drain()
    assert tracer.counters["lasso.fits"] == 1
    assert tracer.counters["lasso.grid_points"] == 100
    assert tracer.kkt_max <= checks.KKT_TOL
