"""Command-line interface.

Four subcommands: ``ingest-check`` validates a data file and summarizes
per-country readiness, ``forecast`` fits the two-step model once and
emits the forecast table, ``backtest`` replays daily refits and scores
them, ``report`` produces the combined table, cases then deaths, each
with a closing confidence-interval row.

Conventions: result tables go to stdout or ``--output``; everything
else (peer drop log, selected peers, warnings, errors) goes to stderr
as JSON lines; every non-fatal note of the package is a Python warning,
written as ``{"warning": <category>, "message": ...}``.  Exit codes: 0
success, 2 data problem, 3 estimation problem, 4 bad arguments; a usage
error, too, is one line ``{"error": "UsageError", "message": ...}``.
Outputs are deterministic: the same inputs, flags, and seed produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from datetime import date, timedelta
from pathlib import Path

from .align import (
    DEFAULT_CASE_THRESHOLD,
    DEFAULT_DEATH_THRESHOLD,
    DEFAULT_HORIZON,
    DEFAULT_WINDOW,
    build_panel,
    threshold_crossing,
)
from .backtest import BacktestConfig, dumps_report, report_to_csv, run_backtest
from .ecm import (
    DEFAULT_CONFIDENCE,
    DEFAULT_N_SIMS,
    ForecastPath,
    fit_origin,
    simulate_bands,
)
from .errors import DataFormatError, EstimationError, LatecastError
from .ingest import CountrySeries, ingestion_warnings, parse_jhu_wide, parse_long

JHU_FILENAMES = {
    "cases": "time_series_covid19_confirmed_global.csv",
    "deaths": "time_series_covid19_deaths_global.csv",
}
DEFAULT_THRESHOLDS = {
    "cases": DEFAULT_CASE_THRESHOLD,
    "deaths": DEFAULT_DEATH_THRESHOLD,
}

EXIT_OK = 0
EXIT_DATA = 2
EXIT_ESTIMATION = 3
EXIT_USAGE = 4


def _threshold(args: argparse.Namespace, metric: str) -> int:
    if args.threshold is not None:
        return args.threshold
    return DEFAULT_THRESHOLDS[metric]


def _info(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _fail(exc: Exception) -> None:
    if isinstance(exc, LatecastError):
        _info(exc.details())
    else:
        _info({"error": type(exc).__name__, "message": str(exc)})


def _show_warning(message, category, filename, lineno, file=None, line=None):
    _info({"warning": category.__name__, "message": str(message)})


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
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from None
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
        peers = [by_name[p] for p in dict.fromkeys(peers_spec)
                 if p != target_name]
    if not peers:
        raise DataFormatError("no peers to select from")
    return target, peers


def _fit_once(args: argparse.Namespace, target: CountrySeries,
              peers: list[CountrySeries], threshold: int):
    """Panel, two estimation steps, and simulated bands for one origin."""
    panel = build_panel(
        target, peers,
        threshold=threshold,
        max_horizon=args.h,
        window=args.k,
    )
    for entry in panel.drop_log:
        _info({"info": "peer_dropped", **entry})
    lasso_fit, fit, _ = fit_origin(panel)
    _info({
        "info": "selected_peers",
        "peers": list(fit.peer_names),
        "fallback": fit.fallback,
        "lambda": lasso_fit.lambda_,
    })
    path = simulate_bands(
        fit, panel, args.h,
        n_sims=args.n_sims, seed=args.seed,
        confidence=args.confidence,
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


def cmd_ingest_check(args: argparse.Namespace) -> int:
    path = _resolve_data_path(args.data_path, args.metric)
    series = _load_series(path, args.data_format)
    threshold = _threshold(args, args.metric)
    countries = []
    for s in series:
        cross = threshold_crossing(s.counts, threshold)
        countries.append({
            "name": s.name,
            "observations": len(s.counts),
            "first_date": s.start.isoformat(),
            "last_date": s.end.isoformat(),
            "max_count": int(s.counts.max()),
            "crossed_on": s.date_at(cross).isoformat() if cross is not None else None,
        })
    summary = {
        "file": path.name,
        "format": args.data_format,
        "metric": args.metric,
        "threshold": threshold,
        "n_countries": len(series),
        "countries": countries,
        "warnings": ingestion_warnings(series),
    }
    if args.target is not None:
        if args.target not in {s.name for s in series}:
            raise DataFormatError(
                f"target {args.target!r} not found among {len(series)} countries"
            )
        summary["target"] = args.target
    _write_output(json.dumps(summary, sort_keys=True, indent=2) + "\n",
                  args.output)
    return EXIT_OK


def cmd_forecast(args: argparse.Namespace) -> int:
    path = _resolve_data_path(args.data_path, args.metric)
    series = _load_series(path, args.data_format)
    target, peers = _split_target_peers(series, args.target, args.peers)
    panel, lasso_fit, fit, fpath = _fit_once(
        args, target, peers, _threshold(args, args.metric)
    )
    rows = _forecast_rows(fpath, panel.end_date)

    if args.format == "csv":
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
        _write_output(buf.getvalue(), args.output)
    else:
        payload = {
            "target": target.name,
            "metric": args.metric,
            "last_observed": panel.end_date.isoformat(),
            "dates": [r["date"] for r in rows],
            "selected_peers": list(fit.peer_names),
            "fallback": fit.fallback,
            **fpath.to_json(),
        }
        _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                      args.output)

    if args.output:
        diagnostics = {
            "target": target.name,
            "metric": args.metric,
            "tau_len": panel.tau_len,
            "window": panel.window,
            "first_step": lasso_fit.to_json(panel.peer_names),
            "second_step": fit.to_json(),
            "dropped_peers": panel.drop_log,
        }
        Path(args.output + ".diagnostics.json").write_text(
            json.dumps(diagnostics, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    return EXIT_OK


def cmd_backtest(args: argparse.Namespace) -> int:
    path = _resolve_data_path(args.data_path, args.metric)
    series = _load_series(path, args.data_format)
    target, peers = _split_target_peers(series, args.target, args.peers)
    bt_config = BacktestConfig(
        threshold=_threshold(args, args.metric),
        window=args.k,
        horizon=args.h,
        origin_start=args.origin_start,
        origin_end=args.origin_end,
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
    if args.format == "csv":
        _write_output(report_to_csv(report), args.output)
    else:
        _write_output(dumps_report(report), args.output)
    return EXIT_OK


def _report_section(args: argparse.Namespace, metric: str, path: Path,
                    threshold: int) -> dict:
    series = _load_series(path, args.data_format)
    target, peers = _split_target_peers(series, args.target, args.peers)
    panel, _, fit, fpath = _fit_once(args, target, peers, threshold)
    rows = _forecast_rows(fpath, panel.end_date)
    history = []
    counts = target.counts.tolist()
    n_hist = min(args.history, len(counts))
    for i in range(len(counts) - n_hist, len(counts)):
        prev = counts[i - 1] if i >= 1 else None
        history.append({
            "date": target.date_at(i).isoformat(),
            "observed": counts[i],
            "new": counts[i] - prev if prev is not None else None,
            "growth_rate_pct": (
                (counts[i] / prev - 1.0) * 100.0
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
        "confidence": args.confidence,
    }


def cmd_report(args: argparse.Namespace) -> int:
    cases_path = _resolve_data_path(args.data_path, "cases")
    if args.deaths_path is not None:
        deaths_path = _resolve_data_path(args.deaths_path, "deaths")
    elif Path(args.data_path).is_dir():
        deaths_path = _resolve_data_path(args.data_path, "deaths")
    else:
        raise DataFormatError(
            "the report command needs both metrics: pass --deaths-path or "
            "point --data-path at a directory with both files"
        )
    cases = _report_section(args, "cases", cases_path,
                            _threshold(args, "cases"))
    deaths = _report_section(args, "deaths", deaths_path,
                             args.deaths_threshold)

    if args.format == "csv":
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
            pct = section["confidence"] * 100
            writer.writerow([
                name,
                f"CI({pct:.12g}%) on {section['ci_on']}",
                "",
                f"{round(section['ci_below']):+d} / "
                f"{round(section['ci_above']):+d}",
                "", "",
            ])
        _write_output(buf.getvalue(), args.output)
    else:
        payload = {"cases": cases, "deaths": deaths}
        _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                      args.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors as one JSON line and exit code 4."""

    def error(self, message):
        _info({"error": "UsageError", "message": f"{self.prog}: {message}"})
        self.exit(EXIT_USAGE)


def _checked(kind, ok, rule: str):
    """argparse type: ``kind(text)``, a usage error unless ``ok`` holds."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f">= {low}")


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
    data.add_argument("--threshold", type=_at_least(1), default=None,
                      help=f"alignment threshold (default "
                           f"{DEFAULT_CASE_THRESHOLD} cases, "
                           f"{DEFAULT_DEATH_THRESHOLD} deaths)")

    metric = _Parser(add_help=False)
    metric.add_argument("--metric", choices=("cases", "deaths"),
                        default="cases")

    model = _Parser(add_help=False)
    model.add_argument("--target", required=True)
    model.add_argument("--peers", nargs="+", default=["auto"],
                       help="peer country names, or 'auto' for every "
                            "other country (default)")
    model.add_argument("--k", type=_at_least(2), default=DEFAULT_WINDOW,
                       help="rolling estimation window length "
                            "(default %(default)s)")
    model.add_argument("--h", type=_at_least(1), default=DEFAULT_HORIZON,
                       help="forecast horizon in days (default %(default)s)")

    sims = _Parser(add_help=False)
    sims.add_argument("--seed", type=_at_least(0), required=True)
    sims.add_argument("--n-sims", type=_at_least(1), default=DEFAULT_N_SIMS)
    sims.add_argument("--confidence", default=DEFAULT_CONFIDENCE,
                      type=_checked(float, lambda v: 0.0 < v < 1.0,
                                    "strictly between 0 and 1"))

    out = _Parser(add_help=False)
    out.add_argument("--output", default=None,
                     help="write the table here instead of stdout")
    out.add_argument("--format", choices=("csv", "json"), default="csv")

    p_ingest = sub.add_parser("ingest-check", parents=[data, metric],
                              help="validate a data file and summarize "
                                   "per-country readiness")
    p_ingest.add_argument("--target", default=None)
    p_ingest.add_argument("--output", default=None)

    sub.add_parser("forecast", parents=[data, metric, model, sims, out],
                   help="fit once and forecast H days ahead")

    p_back = sub.add_parser("backtest", parents=[data, metric, model, out],
                            help="replay daily refits and score them")
    p_back.add_argument("--origin-start", type=date.fromisoformat,
                        default=None)
    p_back.add_argument("--origin-end", type=date.fromisoformat,
                        default=None)
    p_back.add_argument("--seed", type=_at_least(0), default=None,
                        help="accepted and ignored: the backtest scores "
                             "point forecasts only")

    p_report = sub.add_parser("report", parents=[data, model, sims, out],
                              help="combined cases and deaths table")
    p_report.add_argument("--deaths-path", default=None,
                          help="deaths CSV when --data-path is a single "
                               "cases file")
    p_report.add_argument("--deaths-threshold", type=_at_least(1),
                          default=DEFAULT_DEATH_THRESHOLD)
    p_report.add_argument("--history", type=_at_least(0), default=10,
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
    """Run one subcommand; its warnings become stderr JSON lines under
    the default filters, and the previous ``showwarning`` is restored."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return COMMANDS[args.command](args)
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
