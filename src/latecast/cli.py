"""Command-line interface.

Four subcommands: ``ingest-check`` validates a data file and summarizes
per-country readiness, ``forecast`` fits the two-step model once and
emits the forecast table, ``backtest`` replays daily refits and scores
them, ``report`` produces the combined cases-and-deaths table with a
closing confidence-interval row.

Conventions: result tables go to stdout or ``--output``; everything
else (peer drop log, selected peers, warnings, errors) goes to stderr
as JSON lines.  Exit codes: 0 success, 2 data problem, 3 estimation
problem, 4 bad arguments.  Outputs are deterministic: the same inputs,
flags, and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import sys
import warnings
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

from .align import (
    CountrySeries,
    build_panel,
    default_threshold,
    ingestion_warnings,
    parse_jhu_wide,
    parse_long,
    threshold_crossing,
)
from .backtest import (
    BacktestConfig,
    dumps_report,
    report_to_csv,
    run_backtest,
)
from .ecm import ForecastPath, fit_ecm, simulate_bands
from .errors import DataFormatError, EstimationError, LatecastError
from .lasso import select_by_bic

JHU_FILENAMES = {
    "cases": "time_series_covid19_confirmed_global.csv",
    "deaths": "time_series_covid19_deaths_global.csv",
}

EXIT_OK = 0
EXIT_DATA = 2
EXIT_ESTIMATION = 3
EXIT_USAGE = 4


@dataclass
class RunConfig:
    """Validated arguments for one CLI invocation."""

    command: str
    data_path: str
    data_format: str = "jhu-wide"
    target: str | None = None
    peers: list[str] = field(default_factory=lambda: ["auto"])
    metric: str = "cases"
    threshold: int | None = None
    k: int = 21
    h: int = 14
    n_sims: int = 10000
    seed: int | None = None
    confidence: float = 0.95
    output: str | None = None
    format: str = "csv"
    origin_start: date | None = None
    origin_end: date | None = None
    calendar_check: bool = True
    deaths_path: str | None = None
    deaths_threshold: int = 10
    history: int = 10

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("--h must be >= 1")
        if self.k < 2:
            raise ValueError("--k must be >= 2")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("--confidence must be strictly between 0 and 1")
        if self.n_sims < 1:
            raise ValueError("--n-sims must be >= 1")
        if self.threshold is not None and self.threshold < 1:
            raise ValueError("--threshold must be >= 1")

    def threshold_for(self, metric: str) -> int:
        if self.threshold is not None:
            return self.threshold
        return default_threshold(metric)


def _info(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _fail(exc: Exception) -> None:
    if isinstance(exc, LatecastError):
        _info(exc.details())
    else:
        _info({"error": type(exc).__name__, "message": str(exc)})


def _show_warning(message, category, filename, lineno, file=None, line=None):
    _info({"warning": category.__name__, "message": str(message)})


class _WarningLogHandler(logging.Handler):
    def emit(self, record):
        _info({"warning": record.name, "message": record.getMessage()})


@contextlib.contextmanager
def _warnings_as_json_lines():
    """Route ``warnings.warn`` and package log warnings through ``_info``.

    ``warnings`` messages carry their category name, log records the
    logger name; the previous warning hooks are restored on exit.
    """
    handler = _WarningLogHandler(logging.WARNING)
    logger = logging.getLogger("latecast")
    logger.addHandler(handler)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            yield
    finally:
        logger.removeHandler(handler)


def _resolve_data_path(path_str: str, metric: str) -> Path:
    path = Path(path_str)
    if path.is_dir():
        candidate = path / JHU_FILENAMES[metric]
        if not candidate.exists():
            raise DataFormatError(
                f"directory {path} has no {JHU_FILENAMES[metric]}"
            )
        return candidate
    return path


def _load_series(path: Path, data_format: str) -> list[CountrySeries]:
    text = path.read_text(encoding="utf-8")
    if data_format == "jhu-wide":
        return parse_jhu_wide(text)
    return parse_long(text)


def _split_target_peers(
    series: list[CountrySeries], target_name: str, peers_spec: list[str]
) -> tuple[CountrySeries, list[CountrySeries]]:
    by_name = {s.name: s for s in series}
    if target_name not in by_name:
        raise DataFormatError(
            f"target {target_name!r} not found among {len(by_name)} countries"
        )
    target = by_name[target_name]
    if peers_spec == ["auto"]:
        peers = [s for s in series if s.name != target_name]
    else:
        missing = [p for p in peers_spec if p not in by_name]
        if missing:
            raise DataFormatError(f"peer(s) not found: {', '.join(missing)}")
        peers = [by_name[p] for p in peers_spec if p != target_name]
    if not peers:
        raise DataFormatError("no peers to select from")
    return target, peers


def _fit_once(config: RunConfig, target: CountrySeries,
              peers: list[CountrySeries]):
    """Panel, two estimation steps, and simulated bands for one origin."""
    panel = build_panel(
        target, peers,
        threshold=config.threshold_for(config.metric),
        max_horizon=config.h,
        window=config.k,
    )
    for entry in panel.drop_log:
        _info({"info": "peer_dropped", **entry})
    lasso_fit = select_by_bic(
        panel.window_y, panel.window_X, panel.window_weights
    )
    fit = fit_ecm(panel, lasso_fit)
    _info({
        "info": "selected_peers",
        "peers": list(fit.peer_names),
        "fallback": fit.fallback,
        "lambda": lasso_fit.lambda_,
    })
    path = simulate_bands(
        fit, panel, config.h,
        n_sims=config.n_sims, seed=config.seed or 0,
        confidence=config.confidence,
    )
    return panel, lasso_fit, fit, path


def _forecast_rows(path: ForecastPath, last_observed: date) -> list[dict]:
    rows = []
    for i, h in enumerate(path.horizons):
        rows.append({
            "date": (last_observed + timedelta(days=int(h))).isoformat(),
            "total": path.level_hat[i],
            "new": path.new_hat[i],
            "growth_rate_pct": path.rate_hat[i] * 100.0,
            "lower": path.lower[i],
            "upper": path.upper[i],
        })
    return rows


def _write_output(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_ingest_check(config: RunConfig) -> int:
    path = _resolve_data_path(config.data_path, config.metric)
    series = _load_series(path, config.data_format)
    threshold = config.threshold_for(config.metric)
    countries = []
    for s in series:
        cross = threshold_crossing(s.counts, threshold)
        countries.append({
            "name": s.name,
            "observations": len(s.counts),
            "first_date": s.start.isoformat(),
            "last_date": s.end.isoformat(),
            "max_count": max(s.counts),
            "crossed_on": s.dates[cross].isoformat() if cross is not None else None,
        })
    summary = {
        "file": path.name,
        "format": config.data_format,
        "metric": config.metric,
        "threshold": threshold,
        "n_countries": len(series),
        "countries": countries,
        "warnings": ingestion_warnings(series),
    }
    if config.target is not None:
        if config.target not in {s.name for s in series}:
            raise DataFormatError(
                f"target {config.target!r} not found among {len(series)} countries"
            )
        summary["target"] = config.target
    _write_output(json.dumps(summary, sort_keys=True, indent=2) + "\n",
                  config.output)
    return EXIT_OK


def cmd_forecast(config: RunConfig) -> int:
    path = _resolve_data_path(config.data_path, config.metric)
    series = _load_series(path, config.data_format)
    target, peers = _split_target_peers(series, config.target, config.peers)
    panel, lasso_fit, fit, fpath = _fit_once(config, target, peers)
    rows = _forecast_rows(fpath, panel.end_date)

    if config.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["Date", "Total", "New", "GrowthRatePct",
                         "Lower", "Upper"])
        for r in rows:
            writer.writerow([
                r["date"],
                round(r["total"]),
                round(r["new"]),
                f"{r['growth_rate_pct']:.2f}",
                round(r["lower"]),
                round(r["upper"]),
            ])
        _write_output(buf.getvalue(), config.output)
    else:
        payload = {
            "target": target.name,
            "metric": config.metric,
            "last_observed": panel.end_date.isoformat(),
            "dates": [r["date"] for r in rows],
            "selected_peers": list(fit.peer_names),
            "fallback": fit.fallback,
            **fpath.to_json(),
        }
        _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                      config.output)

    if config.output:
        diagnostics = {
            "target": target.name,
            "metric": config.metric,
            "tau_len": panel.tau_len,
            "window": panel.window,
            "first_step": lasso_fit.to_json(panel.peer_names),
            "second_step": fit.to_json(),
            "dropped_peers": panel.drop_log,
        }
        Path(config.output + ".diagnostics.json").write_text(
            json.dumps(diagnostics, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    return EXIT_OK


def cmd_backtest(config: RunConfig) -> int:
    path = _resolve_data_path(config.data_path, config.metric)
    series = _load_series(path, config.data_format)
    target, peers = _split_target_peers(series, config.target, config.peers)
    bt_config = BacktestConfig(
        threshold=config.threshold_for(config.metric),
        window=config.k,
        horizon=config.h,
        origin_start=config.origin_start,
        origin_end=config.origin_end,
        calendar_check=config.calendar_check,
    )
    report = run_backtest(target, peers, bt_config)
    for entry in report.skipped:
        _info({"info": "origin_skipped", **entry})
    _info({
        "info": "backtest_summary",
        "origins": len(report.origins),
        "mape_total_pct": report.mape_total,
        "mape_worst_pct": report.mape_worst,
    })
    if config.format == "csv":
        _write_output(report_to_csv(report), config.output)
    else:
        _write_output(dumps_report(report), config.output)
    return EXIT_OK


def _report_section(config: RunConfig, metric: str, path: Path,
                    threshold: int) -> dict:
    series = _load_series(path, config.data_format)
    target, peers = _split_target_peers(series, config.target, config.peers)
    section_config = RunConfig(
        command="forecast",
        data_path=str(path),
        data_format=config.data_format,
        target=config.target,
        peers=config.peers,
        metric=metric,
        threshold=threshold,
        k=config.k,
        h=config.h,
        n_sims=config.n_sims,
        seed=config.seed,
        confidence=config.confidence,
    )
    panel, _, fit, fpath = _fit_once(section_config, target, peers)
    rows = _forecast_rows(fpath, panel.end_date)
    history = []
    n_hist = min(config.history, len(target.counts))
    for i in range(len(target.counts) - n_hist, len(target.counts)):
        prev = target.counts[i - 1] if i >= 1 else None
        history.append({
            "date": target.dates[i].isoformat(),
            "observed": target.counts[i],
            "new": target.counts[i] - prev if prev is not None else None,
            "growth_rate_pct": (
                (target.counts[i] / prev - 1.0) * 100.0
                if prev else None
            ),
        })
    i_last = len(rows) - 1
    return {
        "metric": metric,
        "target": target.name,
        "selected_peers": list(fit.peer_names),
        "fallback": fit.fallback,
        "history": history,
        "forecast": rows,
        "ci_on": rows[i_last]["date"],
        "ci_below": fpath.lower[i_last] - fpath.level_hat[i_last],
        "ci_above": fpath.upper[i_last] - fpath.level_hat[i_last],
        "confidence": config.confidence,
    }


def cmd_report(config: RunConfig) -> int:
    cases_path = _resolve_data_path(config.data_path, "cases")
    if config.deaths_path is not None:
        deaths_path = _resolve_data_path(config.deaths_path, "deaths")
    elif Path(config.data_path).is_dir():
        deaths_path = _resolve_data_path(config.data_path, "deaths")
    else:
        raise DataFormatError(
            "the report command needs both metrics: pass --deaths-path or "
            "point --data-path at a directory with both files"
        )
    cases = _report_section(config, "cases", cases_path,
                            config.threshold_for("cases"))
    deaths = _report_section(config, "deaths", deaths_path,
                             config.deaths_threshold)

    if config.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["Section", "Date", "Observed", "Total", "New",
                         "GrowthRatePct"])
        for section in (cases, deaths):
            name = section["metric"]
            for h in section["history"]:
                writer.writerow([
                    name, h["date"], h["observed"], "",
                    "" if h["new"] is None else h["new"],
                    "" if h["growth_rate_pct"] is None
                    else f"{h['growth_rate_pct']:.2f}",
                ])
            for r in section["forecast"]:
                writer.writerow([
                    name, r["date"], "", round(r["total"]), round(r["new"]),
                    f"{r['growth_rate_pct']:.2f}",
                ])
            pct = round(section["confidence"] * 100)
            writer.writerow([
                name,
                f"CI({pct}%) on {section['ci_on']}",
                "",
                f"{round(section['ci_below']):+d} / "
                f"{round(section['ci_above']):+d}",
                "", "",
            ])
        _write_output(buf.getvalue(), config.output)
    else:
        payload = {"cases": cases, "deaths": deaths}
        _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                      config.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latecast",
        description="Two-step peer-based forecasting for late-arriving "
                    "epidemic series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    data = _Parser(add_help=False)
    data.add_argument("--data-path", required=True,
                      help="CSV file, or a directory with the standard "
                           "per-metric filenames")
    data.add_argument("--data-format", choices=("jhu-wide", "long"),
                      default="jhu-wide")
    data.add_argument("--metric", choices=("cases", "deaths"),
                      default="cases")
    data.add_argument("--threshold", type=int, default=None,
                      help="alignment threshold (default 100 cases, 10 deaths)")

    model = _Parser(add_help=False)
    model.add_argument("--target", required=True)
    model.add_argument("--peers", nargs="+", default=["auto"],
                       help="peer country names, or 'auto' for every "
                            "other country (default)")
    model.add_argument("--k", type=int, default=21,
                       help="rolling estimation window length (default 21)")
    model.add_argument("--h", type=int, default=14,
                       help="forecast horizon in days (default 14)")
    model.add_argument("--n-sims", type=int, default=10000)
    model.add_argument("--seed", type=int, required=True)
    model.add_argument("--confidence", type=float, default=0.95)

    out = _Parser(add_help=False)
    out.add_argument("--output", default=None,
                     help="write the table here instead of stdout")
    out.add_argument("--format", choices=("csv", "json"), default="csv")

    p_ingest = sub.add_parser("ingest-check", parents=[data],
                              help="validate a data file and summarize "
                                   "per-country readiness")
    p_ingest.add_argument("--target", default=None)
    p_ingest.add_argument("--output", default=None)

    sub.add_parser("forecast", parents=[data, model, out],
                   help="fit once and forecast H days ahead")

    p_back = sub.add_parser("backtest", parents=[data, model, out],
                            help="replay daily refits and score them")
    p_back.add_argument("--origin-start", type=date.fromisoformat,
                        default=None)
    p_back.add_argument("--origin-end", type=date.fromisoformat,
                        default=None)
    p_back.add_argument("--no-calendar-check", action="store_false",
                        dest="calendar_check",
                        help="skip flagging peer values that were "
                             "calendar-future at the origin")

    p_report = sub.add_parser("report", parents=[data, model, out],
                              help="combined cases and deaths table")
    p_report.add_argument("--deaths-path", default=None,
                          help="deaths CSV when --data-path is a single "
                               "cases file")
    p_report.add_argument("--deaths-threshold", type=int, default=10)
    p_report.add_argument("--history", type=int, default=10,
                          help="observed rows to include before the "
                               "forecast block")

    return parser


COMMANDS = {
    "ingest-check": cmd_ingest_check,
    "forecast": cmd_forecast,
    "backtest": cmd_backtest,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    try:
        config = RunConfig(**kwargs)
    except ValueError as exc:
        _fail(exc)
        return EXIT_USAGE
    try:
        with _warnings_as_json_lines():
            return COMMANDS[config.command](config)
    except DataFormatError as exc:
        _fail(exc)
        return EXIT_DATA
    except EstimationError as exc:
        _fail(exc)
        return EXIT_ESTIMATION
    except OSError as exc:
        _fail(exc)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
