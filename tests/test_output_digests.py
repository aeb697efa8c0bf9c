"""``scripts/output_digests.py`` tells outputs apart down to the last bit.

The script's full listing runs every backtest and demo, which the test
suite does elsewhere; here one forecast is digested, nudged by one ulp
and digested again, and the large panel's parsed series are held to the
benchmark's generator and to their listed digests.
"""

import copy
import importlib.util
import warnings

import numpy as np

from helpers import ROOT

_spec = importlib.util.spec_from_file_location(
    "output_digests", ROOT / "scripts" / "output_digests.py")
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def brazil_forecast():
    from latecast import parse_jhu_wide, simulate_bands

    series = parse_jhu_wide((ROOT / output_digests.CASES).read_text(encoding="utf-8"))
    target = next(s for s in series if s.name == "Brazil")
    peers = [s for s in series if s is not target]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        panel, lasso, fit = output_digests.fit_pipeline(target, peers, 100)
        path = simulate_bands(fit, panel, output_digests.HORIZON,
                              n_sims=output_digests.N_SIMS, seed=1)
    return lasso, path


def test_one_ulp_in_one_forecast_changes_its_digest():
    lasso, path = brazil_forecast()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        listed = dict(output_digests.forecast_digests(ROOT, seeds=(1,), names={"Brazil"}))
    assert listed["forecast/cases/Brazil/seed1"] == output_digests.digest(path)
    assert listed["forecast/cases/Brazil/lasso"] == output_digests.digest(lasso)
    assert output_digests.digest(copy.deepcopy(path)) == output_digests.digest(path)

    nudged = copy.deepcopy(path)
    nudged.y_hat[6] = np.nextafter(nudged.y_hat[6], np.inf)
    assert nudged.y_hat[6] != path.y_hat[6]
    assert output_digests.digest(nudged) != output_digests.digest(path)


def test_generated_panel_equals_the_large_panel_workload_s_panel():
    from latecast import parse_jhu_wide, parse_long
    from perfbench.panelgen import generate_panel

    gen = generate_panel(ROOT / "fixtures", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        listed = dict(output_digests.large_panel_digests(ROOT, seeds=(1,)))
    for layout, series in (("wide", parse_jhu_wide(gen.wide_text)),
                           ("long", parse_long(gen.long_text))):
        assert [s.name for s in series] == gen.names
        assert all(s.start == gen.dates[0] for s in series)
        assert all(np.array_equal(s.counts, gen.counts[s.name]) for s in series)
        assert listed[f"large_panel/seed1/{layout}"] == output_digests.series_digest(series)
