"""What the benchmark harness reads of the package.

``perfbench`` wraps the traced functions by name, reads the parsers'
``csv_text`` argument, ``LassoFit.path`` and the panel's window arrays,
and replays backtest origins through ``truncate_series`` and
``BacktestConfig``.  A change
that renames or deletes one of these fails here rather than only when
the benchmark runs.
"""

from datetime import date

import numpy as np
import pytest

from helpers import FIXTURES, ROOT
from latecast import align, cli, ingest
from latecast.backtest import BacktestConfig, run_backtest
from perfbench import checks, workloads
from perfbench.tracer import Tracer


def test_perfbench_reads_what_the_package_exposes():
    series = workloads.load_snapshots(ROOT)
    _, threshold = workloads.SNAPSHOTS["cases"]
    target, peers = workloads.split(series["cases"], "Brazil")
    tracer = Tracer()
    # install() looks up every traced function by its attribute name
    with tracer:
        workloads.fit_pipeline(target, peers, threshold)
        # drain() reads LassoFit.path and runs the KKT oracle
        tracer.drain()
    assert tracer.counters["lasso.grid_points"] == 100
    assert tracer.counters["align.peers_kept"] > 0
    config = BacktestConfig(threshold=threshold, window=workloads.WINDOW,
                            horizon=workloads.HORIZON)
    assert checks.rerun_origin(target, peers, config, date(2020, 4, 10)) == "fitted"


def test_traced_backtest_records_each_step_once_per_origin():
    # backtest_sweep's per-layer metrics see the one-origin step only
    # while it calls the traced functions by their module-global names
    series = workloads.load_snapshots(ROOT)
    _, threshold = workloads.SNAPSHOTS["cases"]
    target, peers = workloads.split(series["cases"], "Brazil")
    config = BacktestConfig(threshold=threshold, window=workloads.WINDOW,
                            horizon=workloads.HORIZON)
    with Tracer() as tracer:
        report = run_backtest(target, peers, config)
    assert not report.skipped and len(report.origins) > 1
    names = [span[0] for span in tracer.spans]
    for name in ("lasso.select_by_bic", "ecm.fit_ecm", "ecm.forecast_log"):
        assert names.count(name) == len(report.origins), name


def test_lasso_path_tuples_equal_the_path_arrays():
    # the tracer iterates LassoFit.path as (lambda, beta, bic) tuples
    series = workloads.load_snapshots(ROOT)
    _, threshold = workloads.SNAPSHOTS["cases"]
    target, peers = workloads.split(series["cases"], "Brazil")
    _, fit, _ = workloads.fit_pipeline(target, peers, threshold)
    path = fit.path
    assert len(path) == 100
    rows = zip(path, fit.lambdas, fit.betas, fit.bics, strict=True)
    for (lam, beta, bic), lam_row, beta_row, bic_row in rows:
        assert type(lam) is float and type(bic) is float
        assert isinstance(beta, np.ndarray)
        assert lam == lam_row and bic == bic_row
        assert np.array_equal(beta, beta_row)


def test_perfbench_counts_the_rows_each_parser_reads():
    wide, long = (
        (FIXTURES / name).read_text(encoding="utf-8")
        for name in ("jhu_confirmed_snapshot_20200415.csv", "synthetic_ecm_long.csv")
    )
    tracer = Tracer()
    with tracer:
        # passed by keyword, the text is read by its parameter name
        align.parse_jhu_wide(csv_text=wide)
        align.parse_long(csv_text=long)
        tracer.drain()
    assert tracer.counters["align.parse_jhu_wide.rows"] > 0
    assert tracer.counters["align.parse_long.rows"] > 0


@pytest.mark.parametrize("name,data_format,span", [
    ("jhu_confirmed_snapshot_20200415.csv", "jhu-wide", "align.parse_jhu_wide"),
    ("synthetic_ecm_long.csv", "long", "align.parse_long"),
], ids=["wide", "long"])
def test_cli_parses_are_traced(capsys, name, data_format, span):
    # the tracer rebinds the parsers in align and cli only, so the CLI
    # must call the names it imported, not ingest.parse_* by attribute
    assert align.parse_jhu_wide is ingest.parse_jhu_wide
    assert align.parse_long is ingest.parse_long
    with Tracer() as tracer:
        code = cli.main(["ingest-check", "--data-path", str(FIXTURES / name),
                         "--data-format", data_format])
    capsys.readouterr()
    assert code == 0
    names = [s[0] for s in tracer.spans]
    assert [n for n in names if n.startswith("align.parse_")] == [span]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forecast_bands_check_passes_on_every_target():
    # the benchmark's own check: every band field against the recorded
    # default-seed reference at checks.REL_TOL, on the 14-day snapshots
    workload = workloads.ForecastBands(ROOT, checks.DEFAULT_SEED, checks.load_reference())
    workload.setup()
    ops = workload.round_ops()
    assert len(ops) == 46
    for op in ops:
        outcome = workload.check(op, workload.run(op))
        assert (outcome.failed, outcome.problems) == (0, []), op


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backtest_sweep_check_passes_on_every_pair():
    # the benchmark's own check: every fitted origin's forecasts against
    # the recorded matrices at checks.REL_TOL, and every skipped origin
    # replayed and classified, on the 45 pairs of both snapshots
    workload = workloads.BacktestSweep(ROOT, checks.DEFAULT_SEED, checks.load_reference())
    workload.setup()
    ops = workload.round_ops()
    assert len(ops) == 45
    fitted = refused = 0
    for op in ops:
        outcome = workload.check(op, workload.run(op))
        assert (outcome.failed, outcome.problems) == (0, []), op
        fitted += outcome.units
        refused += outcome.refused
    assert (fitted, refused) == (789, 90)
