"""Print a sha256 digest of every output a speed change must leave alone.

    python3 scripts/output_digests.py TREE > digests.txt

imports ``latecast`` from ``TREE/src``, runs its commands from ``TREE``
and prints one ``<sha256>  <name>`` line per output:

- ``backtest/<snapshot>/<target>``: the pickled ``run_backtest`` report
  of every target of both bundled snapshots at horizon 14 and window
  21, or the type and message of the error it raises;
- ``forecast/<snapshot>/<target>/lasso`` and ``.../seed<k>``: the
  pickled ``LassoFit`` and, for seeds 1-3, the pickled ``ForecastPath``
  of 10,000 simulated paths, for every target the pipeline fits;
- ``large_panel/seed<k>/wide``, ``.../long``, ``.../y_hat`` and
  ``.../betas``, for seeds 1-3: the names, start dates and counts that
  ``parse_jhu_wide`` and ``parse_long`` read from the two layouts of the
  ``large_panel`` workload's generated panel, and the log forecasts and
  the lasso path of the latecomer the seed picks, fitted from the parsed
  wide layout as the workload fits it;
- ``command/<name>``: stdout, stderr and exit code of the four README
  commands and of the four demos.

Run it on two trees and ``diff`` the listings: an empty diff says that
every one of these outputs is byte-identical.  The inputs, commands and
fit pipeline are the benchmark's, imported from this checkout's
``perfbench/``, so a listing depends only on TREE's ``src/``, ``demos/``
and ``fixtures/`` and on this ``perfbench/``, the same for both trees.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.panelgen import generate_panel  # noqa: E402
from perfbench.workloads import (CASES, HORIZON, N_SIMS, README_COMMANDS,  # noqa: E402,F401
                                 SNAPSHOTS, WINDOW, fit_pipeline, split)

SEEDS = (1, 2, 3)


def digest(obj) -> str:
    """sha256 of ``obj`` pickled with protocol 4: equal bits, equal digest."""
    return hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest()


def series_digest(series) -> str:
    """Digest of parsed series' names, start dates and counts alone; a pickle
    of the series would also record which of them share one ``date``."""
    return digest([(s.name, s.start.isoformat(), s.counts) for s in series])


def backtest_digests(tree: Path):
    from latecast import backtest, parse_jhu_wide
    from latecast.errors import LatecastError

    for snap, (path, threshold) in SNAPSHOTS.items():
        series = parse_jhu_wide((tree / path).read_text(encoding="utf-8"))
        config = backtest.BacktestConfig(threshold=threshold, window=WINDOW,
                                         horizon=HORIZON)
        for s in series:
            try:
                out = backtest.run_backtest(*split(series, s.name), config)
            except LatecastError as exc:
                out = (type(exc).__name__, str(exc))
            yield f"backtest/{snap}/{s.name}", digest(out)


def forecast_digests(tree: Path, seeds=SEEDS, names=None):
    from latecast import parse_jhu_wide, simulate_bands
    from latecast.errors import DataFormatError

    for snap, (path, threshold) in SNAPSHOTS.items():
        series = parse_jhu_wide((tree / path).read_text(encoding="utf-8"))
        for s in series:
            if names is not None and s.name not in names:
                continue
            try:
                panel, lasso, fit = fit_pipeline(*split(series, s.name), threshold)
            except DataFormatError:
                continue
            key = f"forecast/{snap}/{s.name}"
            yield f"{key}/lasso", digest(lasso)
            for seed in seeds:
                path = simulate_bands(fit, panel, HORIZON, n_sims=N_SIMS, seed=seed)
                yield f"{key}/seed{seed}", digest(path)


def large_panel_digests(tree: Path, seeds=SEEDS):
    from latecast import parse_jhu_wide, parse_long
    from latecast.ecm import forecast_log

    for seed in seeds:
        gen = generate_panel(tree / "fixtures", seed)
        wide = parse_jhu_wide(gen.wide_text)
        yield f"large_panel/seed{seed}/wide", series_digest(wide)
        yield f"large_panel/seed{seed}/long", series_digest(parse_long(gen.long_text))
        name = gen.late[np.random.default_rng(seed).integers(len(gen.late))]
        panel, lasso, fit = fit_pipeline(*split(wide, name), 100)
        yield f"large_panel/seed{seed}/y_hat", digest(forecast_log(fit, panel, HORIZON))
        yield f"large_panel/seed{seed}/betas", digest(lasso.betas)


def command_digests(tree: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    runs = {f"command/{name}": ["-m", "latecast", *argv]
            for name, argv in README_COMMANDS.items()}
    for demo in sorted((tree / "demos").glob("*.py")):
        runs[f"command/{demo.stem}"] = [str(demo.relative_to(tree))]
    for name, argv in runs.items():
        proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                              capture_output=True, timeout=300)
        yield name, digest((proc.stdout, proc.stderr, proc.returncode))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_digests.py TREE", file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    sys.path.insert(0, str(tree / "src"))
    warnings.simplefilter("ignore")
    for part in (backtest_digests, forecast_digests, large_panel_digests,
                 command_digests):
        for name, value in part(tree):
            print(f"{value}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
