"""Outside-in span recorder for the latecast modules.

The recorder replaces public functions at every module attribute that
resolves to them (``latecast.backtest.select_by_bic`` as well as
``latecast.lasso.select_by_bic``), so calls made by the package's own
callers are seen too.  A span is ``(name, start, end, parent, op, error)``
with ``parent`` the index of the enclosing span or -1.  Spans stay in
memory until the run writes them out.

Per-call hooks only keep references; ``drain`` turns them into counters
after each operation, outside every span, so the hooks add no time to
the spans they observe.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter, defaultdict

MODULES = ("align", "lasso", "ecm", "backtest", "cli")

# canonical span name -> (defining module, attribute)
TRACED = {
    "align.parse_jhu_wide": ("align", "parse_jhu_wide"),
    "align.parse_long": ("align", "parse_long"),
    "align.build_panel": ("align", "build_panel"),
    "align.to_tau": ("align", "to_tau"),
    "lasso.select_by_bic": ("lasso", "select_by_bic"),
    "ecm.fit_ecm": ("ecm", "fit_ecm"),
    "ecm.forecast_log": ("ecm", "forecast_log"),
    "ecm.simulate_bands": ("ecm", "simulate_bands"),
    "backtest.run_backtest": ("backtest", "run_backtest"),
    "cli.main": ("cli", "main"),
}

# functions whose RuntimeWarnings count towards ecm.runtime_warnings
WARNING_SOURCES = ("ecm.fit_ecm", "ecm.simulate_bands")

PROBE_OP = -1


class Tracer:
    """Span list, per-call result references and boundary counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.pending: list = []
        self.counters: Counter = Counter()
        self.kkt_max = 0.0
        self.warning_log: list | None = None
        self._saved: list = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"latecast.{m}") for m in MODULES}
        for name, (mod, attr) in TRACED.items():
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(name, original)
            for m in mods.values():
                if getattr(m, attr, None) is original:
                    self._saved.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        tracer = self
        count_warnings = name in WARNING_SOURCES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            log = tracer.warning_log
            w0 = len(log) if count_warnings and log is not None else 0
            err = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (name, t0, t1, parent, tracer.op, err)
            tracer.pending.append((name, args, kwargs, result))
            if count_warnings and log is not None:
                tracer.counters["ecm.runtime_warnings"] += sum(
                    issubclass(w.category, RuntimeWarning) for w in log[w0:]
                )
            return result

        return wrapper

    # -- counters -----------------------------------------------------

    def drain(self) -> None:
        """Turn kept call results into counters; call between operations."""
        from latecast.lasso import kkt_violation

        c = self.counters
        for name, args, kwargs, result in self.pending:
            if name == "align.build_panel":
                c["align.peers_kept"] += len(result.peer_names)
                c["align.peers_seen"] += len(result.peer_names) + len(result.drop_log)
            elif name == "lasso.select_by_bic":
                y, X, w = args[:3]
                supports = {tuple(b.nonzero()[0]) for _, b, _ in result.path}
                c["lasso.fits"] += 1
                c["lasso.grid_points"] += len(result.path)
                c["lasso.distinct_supports"] += len(supports)
                c["lasso.design_cols"] += X.shape[1]
                gap = kkt_violation(y, X, w, result.beta, result.lambda_)
                self.kkt_max = max(self.kkt_max, gap if math.isfinite(gap) else math.inf)
            elif name == "ecm.simulate_bands":
                n_sims = result.n_sims
                H = len(result.horizons)
                c["ecm.sim_cells"] += n_sims * H
                # level, daily-new and growth-rate paths, float64 each
                c["ecm.bands_bytes_computed"] += 3 * n_sims * H * 8
            elif name == "backtest.run_backtest":
                c["backtest.reports"] += 1
                c["backtest.mape_sum"] += result.mape_total
                c["backtest.origins_seen"] += len(result.origins) + len(result.skipped)
            elif name in ("align.parse_jhu_wide", "align.parse_long"):
                text = args[0] if args else kwargs["csv_text"]
                c[name + ".rows"] += max(text.count("\n") - 1, 0)
        self.pending.clear()


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list] = defaultdict(list)
    for name, t0, t1, parent, op, err in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    return [
        (t1 - t0) - covered(children.get(i, []))
        for i, (name, t0, t1, parent, op, err) in enumerate(spans)
    ]
