"""Timed loop, metric arithmetic, the traced run and the result line."""

from __future__ import annotations

import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path

import numpy as np

from perfbench import checks
from perfbench.tracer import PROBE_OP, Tracer, self_times
from perfbench.workloads import (CONTRACT_COMMANDS, OUT_DIR, README_COMMANDS, Outcome,
                                 child_env)

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
# fresh processes whose median import + set-up time is setup_s
SETUP_CHILDREN = 5
# end-to-end times are scaled to a host on which calibration() takes this long
CALIBRATION_REF_S = 0.0025
PROBE_REPS = 3
LONG_FIXTURE = "fixtures/synthetic_ecm_long.csv"
MODULES = ("cli", "align", "lasso", "ecm", "backtest")


# -- environment ------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_commit(root: Path) -> str:
    head = _read(str(root / ".git" / "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(str(root / ".git" / ref))
        if not commit:
            for line in _read(str(root / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown (not a git checkout)"


def environment(root: Path, thread_vars, thread_cap: int) -> dict:
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        caches.append(f"L{_read(idx + '/level')} {_read(idx + '/type')} {_read(idx + '/size')}")

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(root),
        "thread_cap": {var: os.environ.get(var) for var in thread_vars},
        "thread_cap_value": thread_cap,
    }


# -- the closed loop --------------------------------------------------

def calibration() -> float:
    """Seconds taken by a fixed piece of the benchmark's own work.

    The shared hosts this runs on change speed by up to 1.6x, in spells
    of seconds and in drifts over minutes, and the program's operations
    slow down with them.  Timed next to every operation, this work
    lets each time be scaled to one host speed (``CALIBRATION_REF_S``).
    It mixes interpreted Python with numpy sampling and sorting, as the
    operations do, and it never calls latecast, so no change to the
    program can move it.
    """
    t0 = time.perf_counter()
    acc = 0
    for k in range(20_000):
        acc += k * k
    np.sort(np.random.default_rng(0).standard_normal(20_000))
    return time.perf_counter() - t0


def run_op(wl, op):
    """Time one ``wl.run(op)``; returns the seconds, the result and the error."""
    t0 = time.perf_counter()
    try:
        result, error = wl.run(op), None
    except Exception as exc:  # a failing op is counted, not fatal
        result, error = None, exc
    return time.perf_counter() - t0, result, error


def judge(wl, op, result, error) -> Outcome:
    return wl.error_outcome(op, error) if error else wl.check(op, result)


def run_loop(wl, seconds: float, min_rounds: int = 1, between_rounds=None):
    """Run whole rounds until ``seconds`` elapse and ``min_rounds`` are done.

    Returns the executed ops, their times in seconds, the same times
    scaled to the reference host speed, their outcomes and the number
    of rounds.  Only ``wl.run`` is inside the timing; the calibration
    runs right before and right after it.  ``between_rounds(elapsed)``
    runs after every round but the last; its own time does not count
    towards ``seconds``.
    """
    done_ops, times, scaled, outcomes, rounds = [], [], [], [], 0
    start = time.perf_counter()
    while True:
        for op in wl.round_ops():
            before = calibration()
            dt, result, error = run_op(wl, op)
            after = calibration()
            done_ops.append(op)
            times.append(dt)
            scaled.append(dt * 2 * CALIBRATION_REF_S / (before + after))
            outcomes.append(judge(wl, op, result, error))
            # a result kept alive into the next op would count in peak_rss_mb
            result = None
        rounds += 1
        if time.perf_counter() - start >= seconds and rounds >= min_rounds:
            break
        if between_rounds is not None:
            t0 = time.perf_counter()
            between_rounds(t0 - start)
            start += time.perf_counter() - t0
    return done_ops, times, scaled, outcomes, rounds


def traced_op(wl, op, tracer: Tracer):
    """Time one op with the span recorder installed and warnings recorded.

    The recorder is removed before the check, so the check's own calls
    into latecast leave no spans.  Returns the seconds and the outcome.
    """
    with tracer, warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        tracer.warning_log = log
        dt, result, error = run_op(wl, op)
    tracer.drain()
    wl.tracer = tracer
    outcome = judge(wl, op, result, error)
    wl.tracer = None
    return dt, outcome


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``; with fewer than 20
    samples no ladder step qualifies and the maximum is reported as
    percentile 100 with no sample beyond.
    """
    n = len(times)
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= MIN_BEYOND:
            value = percentile(times, p)
            return value, p, sum(t > value for t in times)
    return max(times), 100.0, 0


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(outcomes: list[Outcome]) -> dict:
    return {
        "units": sum(o.units for o in outcomes),
        "failed_units": sum(o.failed for o in outcomes),
        "refused_units": sum(o.refused for o in outcomes),
        "failed_ops": sum(1 for o in outcomes if o.problems),
        "problems": [p for o in outcomes for p in o.problems],
    }


# -- untraced run: end-to-end metrics ---------------------------------

def op_medians(ops: list, times: list[float]) -> list[float]:
    """Each distinct op's median time over the rounds of a run.

    Scaling by the calibration takes out most of the host's drift.  What
    is left is mostly a calibration that caught the host in another
    state than the operation beside it, which reads either way; the
    median over rounds drops it where a minimum would pick it.
    """
    per_op: dict = {}
    for op, t in zip(ops, times):
        per_op.setdefault(op, []).append(t)
    return [statistics.median(v) for v in per_op.values()]


def cold_setup(wl) -> dict:
    """Import and set-up seconds of one fresh process (``child.py``), with
    the calibration times taken right before and after it."""
    before = calibration()
    proc = subprocess.run([sys.executable, str(wl.root / "perfbench" / "child.py"),
                           wl.name, str(wl.seed)],
                          cwd=wl.root, capture_output=True, text=True, check=True)
    after = calibration()
    return {**json.loads(proc.stdout.strip().splitlines()[-1]),
            "calibration_s": (before + after) / 2}


def untraced_run(wl, seconds: float, env: dict) -> dict:
    """End-to-end metrics; every time is scaled to the reference host speed.

    The readable lines give each figure unscaled as well.
    """
    setups = [cold_setup(wl)]

    def between_rounds(elapsed):
        # set-ups spread over the run give a median that one slow spell
        # of the host does not move
        if len(setups) < SETUP_CHILDREN and elapsed >= len(setups) * seconds / SETUP_CHILDREN:
            setups.append(cold_setup(wl))

    ops, times, scaled, outcomes, rounds = run_loop(
        wl, seconds=seconds, min_rounds=wl.min_rounds, between_rounds=between_rounds)
    while len(setups) < SETUP_CHILDREN:
        setups.append(cold_setup(wl))
    totals = [c["import_s"] + c["setup_s"] for c in setups]
    setup_raw = statistics.median(totals)
    setup_s = statistics.median(t * CALIBRATION_REF_S / c["calibration_s"]
                                for t, c in zip(totals, setups))
    s = summarize(outcomes)
    per_op, raw = op_medians(ops, scaled), op_medians(ops, times)
    tail_value, tail_p, beyond = tail(per_op)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
        "op_tail_ms": (tail_value * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    fail_ratio = s["failed_units"] / s["units"] if s["units"] else 0.0
    lines = [
        f"workload {wl.name} seed {wl.seed}: {wl.why}",
        f"env {json.dumps(env, sort_keys=True)}",
        f"host calibration median {statistics.median(c['calibration_s'] for c in setups) * 1000:.4f}"
        f" ms (times below are scaled to {CALIBRATION_REF_S * 1000:g} ms; unscaled in brackets)",
        f"setup_s      {setup_s:.6f} s  [{setup_raw:.6f} s]  (median of {len(totals)} fresh "
        f"processes, import + set-up: "
        f"{[(round(c['import_s'], 4), round(c['setup_s'], 4)) for c in setups]})",
        f"ops_per_s    {metrics['ops_per_s'][0]:.6f} 1/s  [{len(raw) / sum(raw):.6f} 1/s]  "
        f"({len(per_op)} distinct ops, each the median of its {rounds} rounds)",
        f"op_p50_ms    {metrics['op_p50_ms'][0]:.4f} ms  [{statistics.median(raw) * 1000:.4f} ms]",
        f"op_tail_ms   {metrics['op_tail_ms'][0]:.4f} ms  [{tail(raw)[0] * 1000:.4f} ms]  "
        f"(p{tail_p:g}, {beyond} of {len(per_op)} samples beyond)",
        f"fail_ratio   {fail_ratio:.6f} ratio  ({s['failed_units']} failed of "
        f"{s['units']} {wl.unit}s attempted; {s['refused_units']} refused, not counted)",
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.3f} MB",
    ]
    if getattr(wl, "stats", None):
        lines.append(f"panel {json.dumps(wl.stats, sort_keys=True)}")
    lines += [f"check failed: {p}" for p in s["problems"][:20]]
    return {
        "lines": lines,
        "correct": not s["problems"],
        "attempted": len(times),
        "failed": s["failed_ops"],
        "metrics": metrics,
    }


# -- traced run: per-layer metrics ------------------------------------

def _subprocess_ms(cmd: list[str], env: dict, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, capture_output=True, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def cli_probes(root: Path) -> tuple[dict, list[str]]:
    """Interpreter and import start-up, and the stderr contract count."""
    env = child_env(root)
    out = {
        "cli.interpreter_ms": _subprocess_ms([sys.executable, "-c", "pass"], env, PROBE_REPS),
        "cli.import_ms": _subprocess_ms([sys.executable, "-c", "import latecast"], env,
                                        PROBE_REPS),
    }
    bad, problems = 0, []
    for name, argv in {**README_COMMANDS, **CONTRACT_COMMANDS}.items():
        proc = subprocess.run([sys.executable, "-m", "latecast", *argv], cwd=root,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            problems.append(f"stderr probe {name}: exit code {proc.returncode}")
        bad += checks.nonjson_lines(proc.stderr)
    out["cli.stderr_nonjson_lines"] = bad
    return out, problems


def probe(tracer: Tracer, root: Path, ref: dict) -> list[str]:
    """Traced in-process pass over every layer on the bundled fixtures.

    Supplies the time metrics of layers the workload never calls: the
    four README commands through ``cli.main`` and ``parse_long`` on the
    long-layout fixture.
    """
    from latecast import align, cli

    problems, codes = [], {}
    tracer.op = PROBE_OP
    with tracer, warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        tracer.warning_log = log
        for name, argv in README_COMMANDS.items():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                codes[name] = (cli.main(argv), out.getvalue())
        align.parse_long((root / LONG_FIXTURE).read_text(encoding="utf-8"))
    tracer.drain()
    for name, (code, stdout) in codes.items():
        if code != 0 or checks.digest(stdout.encode()) != ref["cli"][name]:
            problems.append(f"in-process {name}: exit {code} or stdout differs")
    return problems


def layer_metrics(spans: list, work: Counter, probed: Counter, work_kkt: float,
                  rounds: int, n_ops: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from spans and counters.

    Times and ratios come from the workload's own spans and counters;
    for a function the workload never calls they come from the probe,
    and the metric is named in the returned list.  Counts are per round
    and always the workload's own.
    """
    selfs = self_times(spans)
    calls: dict = {False: defaultdict(list), True: defaultdict(list)}
    module_self: dict = {False: Counter(), True: Counter()}
    errors = Counter()
    for (name, t0, t1, parent, op, err), st in zip(spans, selfs):
        is_probe = op == PROBE_OP
        calls[is_probe][name].append(t1 - t0)
        module_self[is_probe][name.split(".")[0]] += st
        if err and not is_probe:
            errors[(name, err)] += 1

    m: dict = {}
    from_probe: list[str] = []

    def source(metric, fn):
        """Spans and counters of ``fn`` for ``metric``: the workload's, else the probe's."""
        if calls[False][fn]:
            return calls[False][fn], work
        from_probe.append(metric)
        return calls[True][fn], probed

    def med_ms(metric, fn):
        d, _ = source(metric, fn)
        m[metric] = (statistics.median(d) * 1000, "ms")

    def rate(metric, fn, key, unit):
        d, counters = source(metric, fn)
        m[metric] = (counters[key] / sum(d), unit)

    def ratio(metric, fn, num, den, unit="ratio"):
        _, counters = source(metric, fn)
        m[metric] = (counters[num] / counters[den], unit)

    def per_round(metric, value, unit="count"):
        m[metric] = (value / rounds, unit)

    med_ms("cli.main_ms", "cli.main")
    med_ms("align.parse_jhu_wide_ms", "align.parse_jhu_wide")
    med_ms("align.parse_long_ms", "align.parse_long")
    rate("align.parse_jhu_wide_rows_per_s", "align.parse_jhu_wide",
         "align.parse_jhu_wide.rows", "rows/s")
    rate("align.parse_long_rows_per_s", "align.parse_long", "align.parse_long.rows", "rows/s")
    med_ms("align.build_panel_ms", "align.build_panel")
    per_round("align.build_panel_calls", len(calls[False]["align.build_panel"]))
    per_round("align.to_tau_calls", len(calls[False]["align.to_tau"]))
    ratio("align.peer_keep_ratio", "align.build_panel", "align.peers_kept", "align.peers_seen")
    med_ms("lasso.select_by_bic_ms", "lasso.select_by_bic")
    per_round("lasso.select_by_bic_calls", len(calls[False]["lasso.select_by_bic"]))
    per_round("lasso.grid_points", work["lasso.grid_points"])
    per_round("lasso.distinct_supports", work["lasso.distinct_supports"])
    ratio("lasso.support_ratio", "lasso.select_by_bic",
          "lasso.distinct_supports", "lasso.grid_points")
    ratio("lasso.design_cols_mean", "lasso.select_by_bic", "lasso.design_cols", "lasso.fits",
          "count")
    per_round("lasso.convergence_errors", errors[("lasso.select_by_bic", "ConvergenceError")])
    m["lasso.kkt_gap_max"] = (work_kkt, "abs")
    med_ms("ecm.simulate_bands_ms", "ecm.simulate_bands")
    per_round("ecm.simulate_bands_calls", len(calls[False]["ecm.simulate_bands"]))
    rate("ecm.sim_cells_per_s", "ecm.simulate_bands", "ecm.sim_cells", "cells/s")
    per_round("ecm.bands_bytes_computed", work["ecm.bands_bytes_computed"], "B")
    med_ms("ecm.fit_ecm_ms", "ecm.fit_ecm")
    med_ms("ecm.forecast_log_ms", "ecm.forecast_log")
    per_round("ecm.runtime_warnings", work["ecm.runtime_warnings"])
    med_ms("backtest.run_backtest_ms", "backtest.run_backtest")
    rate("backtest.origins_per_s", "backtest.run_backtest", "backtest.origins_seen", "1/s")
    ratio("backtest.mape_pct", "backtest.run_backtest", "backtest.mape_sum",
          "backtest.reports", "%")
    for cls in ("fitted", "refused", "failed"):
        per_round(f"backtest.origins_{cls}", work[f"backtest.origins_{cls}"])
    attempted = work["backtest.origins_fitted"] + work["backtest.origins_failed"]
    m["backtest.fail_ratio"] = (
        work["backtest.origins_failed"] / attempted if attempted else 0.0, "ratio")
    for mod in MODULES:
        if module_self[False][mod] > 0:
            m[f"{mod}.self_ms"] = (module_self[False][mod] / n_ops * 1000, "ms")
        else:
            from_probe.append(f"{mod}.self_ms")
            m[f"{mod}.self_ms"] = (module_self[True][mod] * 1000, "ms")
    return m, from_probe


def traced_run(wl, seconds: float, env: dict) -> dict:
    """Whole rounds for ``seconds`` in which every op runs untraced and
    traced side by side, then the probes.

    Pairing the two runs of an op keeps the host's drift out of
    ``trace.overhead_pct``; which of the two goes first alternates.
    """
    tracer = Tracer()
    ops, base_times, times, outcomes, rounds = [], [], [], [], 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in wl.round_ops():
            tracer.op = len(ops)
            traced_first = len(ops) % 2
            if traced_first:
                dt, outcome = traced_op(wl, op, tracer)
            base, result, error = run_op(wl, op)
            outcomes.append(judge(wl, op, result, error))
            if not traced_first:
                dt, outcome = traced_op(wl, op, tracer)
            ops.append(op)
            base_times.append(base)
            times.append(dt)
            outcomes.append(outcome)
        rounds += 1
    work = Counter(tracer.counters)
    work_kkt = tracer.kkt_max
    probe_problems = probe(tracer, wl.root, wl.ref)
    probed = tracer.counters - work
    cli, cli_problems = cli_probes(wl.root)

    metrics, from_probe = layer_metrics(tracer.spans, work, probed, work_kkt, rounds, len(ops))
    metrics["cli.interpreter_ms"] = (cli["cli.interpreter_ms"], "ms")
    metrics["cli.import_ms"] = (cli["cli.import_ms"], "ms")
    metrics["cli.stderr_nonjson_lines"] = (cli["cli.stderr_nonjson_lines"], "count")
    metrics["trace.overhead_pct"] = ((sum(times) / sum(base_times) - 1) * 100, "%")

    s = summarize(outcomes)
    problems = s["problems"] + probe_problems + cli_problems
    if work_kkt > checks.KKT_TOL:
        problems.append(f"KKT gap {work_kkt:.3g} at a chosen lambda exceeds {checks.KKT_TOL:g}")

    out_path = Path(wl.root) / OUT_DIR / f"trace-{wl.name}-seed{wl.seed}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": wl.name, "seed": wl.seed, "ops": ops,
                   "span_fields": ["name", "start", "end", "parent", "op", "error"],
                   "spans": tracer.spans, "counters": dict(tracer.counters)}, fh)

    lines = [
        f"workload {wl.name} seed {wl.seed} traced: {len(ops)} ops in {rounds} rounds, "
        f"{len(tracer.spans)} spans written to {out_path.relative_to(wl.root)}",
        f"env {json.dumps(env, sort_keys=True)}",
    ]
    for name in sorted(metrics):
        value, unit = metrics[name]
        note = ("  (from the fixture probe: the workload never calls it)"
                if name in from_probe else "")
        lines.append(f"{name:34s} {value:.6g} {unit}{note}")
    lines += [f"check failed: {p}" for p in problems[:20]]
    return {
        "lines": lines,
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": s["failed_ops"],
        "metrics": metrics,
    }


def emit(result: dict) -> None:
    bad = [k for k, (v, _) in result["metrics"].items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite metric values: {bad}")
    for line in result["lines"]:
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
