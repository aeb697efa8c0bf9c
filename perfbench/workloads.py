"""The closed-loop workloads, one client each.

Each workload builds its inputs from the workload seed in ``setup``,
lists the operations of one round in ``round_ops``, runs one operation
in ``run`` (the only timed part) and judges its result in ``check``.
``check`` returns an ``Outcome`` whose units are what ``fail_ratio``
counts: an origin or an operation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import checks

CASES = "fixtures/jhu_confirmed_snapshot_20200415.csv"
DEATHS = "fixtures/jhu_deaths_snapshot_20200415.csv"

# the four README commands, exactly as written there
README_COMMANDS = {
    "ingest-check": ["ingest-check", "--data-path", CASES, "--target", "Brazil"],
    "forecast": ["forecast", "--data-path", CASES, "--target", "Brazil",
                 "--seed", "11", "--h", "7"],
    "backtest": ["backtest", "--data-path", CASES, "--target", "Brazil",
                 "--seed", "11", "--h", "14",
                 "--origin-start", "2020-04-04", "--origin-end", "2020-04-14"],
    "report": ["report", "--data-path", CASES, "--deaths-path", DEATHS,
               "--target", "Brazil", "--seed", "11", "--h", "7"],
}
# commands the roadmap names as breaking the one-JSON-object-per-line
# stderr contract; counted in cli.stderr_nonjson_lines with the above
CONTRACT_COMMANDS = {
    "forecast-k60": ["forecast", "--data-path", CASES, "--target", "Brazil",
                     "--seed", "11", "--k", "60"],
    "forecast-japan": ["forecast", "--data-path", CASES, "--target", "Japan",
                       "--seed", "11"],
}

OUT_DIR = ".perfbench_out"
SNAPSHOTS = {"cases": (CASES, 100), "deaths": (DEATHS, 10)}
HORIZON = 14
WINDOW = 21
N_SIMS = 10000


@dataclass
class Outcome:
    units: int = 1
    failed: int = 0
    refused: int = 0
    problems: list[str] = field(default_factory=list)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_snapshots(root: Path) -> dict:
    from latecast import align

    return {
        snap: align.parse_jhu_wide((root / path).read_text(encoding="utf-8"))
        for snap, (path, _) in SNAPSHOTS.items()
    }


def split(series: list, name: str):
    target = next(s for s in series if s.name == name)
    return target, [s for s in series if s.name != name]


def fit_pipeline(target, peers, threshold: int):
    """build_panel -> select_by_bic -> fit_ecm through the module attributes."""
    from latecast import align, ecm, lasso

    panel = align.build_panel(target, peers, threshold=threshold,
                              max_horizon=HORIZON, window=WINDOW)
    fit = lasso.select_by_bic(panel.window_y, panel.window_X, panel.window_weights)
    return panel, fit, ecm.fit_ecm(panel, fit)


class Workload:
    name = ""
    why = ""
    unit = "op"
    # rounds a run makes even when --seconds has passed sooner
    min_rounds = 1

    def __init__(self, root: Path, seed: int, reference: dict):
        self.root = root
        self.seed = seed
        self.ref = reference
        self.tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def round_ops(self) -> list:
        """Op keys of one round, fixed for the run once ``setup`` has run."""
        return self.order

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> Outcome:
        """Judge one result; runs with the span recorder removed."""
        raise NotImplementedError

    def error_outcome(self, op, exc: Exception) -> Outcome:
        return Outcome(failed=1, problems=[f"{op}: {type(exc).__name__}: {exc}"])


class BacktestSweep(Workload):
    name = "backtest_sweep"
    why = ("run_backtest over all 45 feasible (snapshot, target) pairs: "
           "select_by_bic dominates every refit and bands never run")
    unit = "origin"
    # a round takes most of --seconds; three give each pair a median of three
    min_rounds = 3

    def setup(self) -> None:
        from latecast import backtest

        series = load_snapshots(self.root)
        self.pairs = {}
        for snap, name in self.ref["backtest_pairs"]:
            target, peers = split(series[snap], name)
            config = backtest.BacktestConfig(threshold=SNAPSHOTS[snap][1],
                                             window=WINDOW, horizon=HORIZON)
            self.pairs[f"{snap}/{name}"] = (target, peers, config)
        keys = sorted(self.pairs)
        self.order = [keys[i] for i in np.random.default_rng(self.seed).permutation(len(keys))]
        self.classes: dict = {}
        smallest = min(keys, key=lambda k: len(self.ref["backtest"][k]["fitted"]))
        self.run(smallest)

    def run(self, op):
        from latecast import backtest

        return backtest.run_backtest(*self.pairs[op])

    def classify(self, op, iso: str) -> str:
        from datetime import date

        key = (op, iso)
        if key not in self.classes:
            target, peers, config = self.pairs[op]
            self.classes[key] = checks.rerun_origin(
                target, peers, config, date.fromisoformat(iso))
        return self.classes[key]

    def error_outcome(self, op, exc: Exception) -> Outcome:
        ref = self.ref["backtest"][op]
        units = len(ref["fitted"]) + len(ref["failed"])
        return Outcome(units=units, failed=units,
                       problems=[f"{op}: {type(exc).__name__}: {exc}"])

    def check(self, op, report) -> Outcome:
        res = checks.check_backtest(report, self.ref["backtest"][op],
                                    lambda iso: self.classify(op, iso))
        if self.tracer is not None:
            c = self.tracer.counters
            c["backtest.origins_fitted"] += res["fitted"]
            c["backtest.origins_failed"] += res["failed"]
            c["backtest.origins_refused"] += res["refused"]
        problems = [f"{op} {m}" for m in res["mismatches"]]
        return Outcome(units=res["fitted"] + res["failed"],
                       failed=res["failed"] + len(problems),
                       refused=res["refused"], problems=problems)


class ForecastBands(Workload):
    name = "forecast_bands"
    why = ("one full forecast with 10k simulated bands per target: "
           "simulate_bands is about two thirds of an operation")

    def setup(self) -> None:
        series = load_snapshots(self.root)
        keys = [f"{snap}/{name}" for snap, name in self.ref["forecast_targets"]]
        self.inputs = {}
        for key in keys:
            snap, name = key.split("/", 1)
            self.inputs[key] = (*split(series[snap], name), SNAPSHOTS[snap][1])
        self.order = [keys[i] for i in np.random.default_rng(self.seed).permutation(len(keys))]
        self.run(self.order[0])

    def run(self, op):
        from latecast import ecm

        target, peers, threshold = self.inputs[op]
        panel, fit, efit = fit_pipeline(target, peers, threshold)
        path = ecm.simulate_bands(efit, panel, HORIZON, n_sims=N_SIMS, seed=self.seed)
        return panel, fit, path

    def check(self, op, result) -> Outcome:
        from latecast.lasso import kkt_violation

        panel, fit, path = result
        ref = self.ref["forecast"][op]
        problems = checks.band_oracle(path)
        problems += checks.kkt_problem(kkt_violation(
            panel.window_y, panel.window_X, panel.window_weights, fit.beta, fit.lambda_))
        if not (checks.close(path.y_hat, ref["y_hat"])
                and checks.close(path.level_hat, ref["level_hat"])):
            problems.append("point forecast differs from the reference")
        if self.seed == checks.DEFAULT_SEED and not all(
                checks.close(getattr(path, f), ref["bands"][f]) for f in checks.BAND_FIELDS):
            problems.append("bands differ from the default-seed reference")
        return Outcome(failed=int(bool(problems)), problems=[f"{op}: {p}" for p in problems])


class LargePanel(Workload):
    name = "large_panel"
    why = ("a generated 250-country, 1000-day panel: parsing dominates and "
           "lasso runs with about 190 peers against K=21 (p > K)")

    def setup(self) -> None:
        from perfbench.panelgen import generate_panel

        self.panel = generate_panel(self.root / "fixtures", self.seed)
        self.stats = self.panel.stats()
        # one latecomer per run, chosen by the seed: an operation takes over
        # a second, and only repeating the same one many times in a run
        # gives a median time that co-tenant load does not move
        late = self.panel.late
        self.order = [late[np.random.default_rng(self.seed).integers(len(late))]]
        # warm up without the long-layout parse, which is most of an operation
        from latecast import align

        target, peers = split(align.parse_jhu_wide(self.panel.wide_text), self.order[0])
        fit_pipeline(target, peers, 100)

    def run(self, op):
        from latecast import align, ecm

        wide = align.parse_jhu_wide(self.panel.wide_text)
        long = align.parse_long(self.panel.long_text)
        target, peers = split(wide, op)
        panel, fit, efit = fit_pipeline(target, peers, 100)
        return wide, long, panel, fit, ecm.forecast_log(efit, panel, HORIZON)

    def check(self, op, result) -> Outcome:
        from latecast.lasso import kkt_violation

        wide, long, panel, fit, y_hat = result
        problems = []
        for layout, parsed in (("wide", wide), ("long", long)):
            if [s.name for s in parsed] != self.panel.names or not all(
                    np.array_equal(s.counts, self.panel.counts[s.name]) for s in parsed):
                problems.append(f"{layout} layout parsed to other series than generated")
        problems += checks.kkt_problem(kkt_violation(
            panel.window_y, panel.window_X, panel.window_weights, fit.beta, fit.lambda_))
        if not checks.all_finite(y_hat):
            problems.append("non-finite forecast")
        ref = self.ref["large_panel"]
        if self.seed == checks.DEFAULT_SEED and not checks.close(y_hat, ref[op]):
            problems.append("forecast differs from the default-seed reference")
        return Outcome(failed=int(bool(problems)), problems=[f"{op}: {p}" for p in problems])


WORKLOADS = {w.name: w for w in (BacktestSweep, ForecastBands, LargePanel)}
