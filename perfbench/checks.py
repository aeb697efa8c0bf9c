"""Correctness references and oracle checks.

References are values recorded by ``record_reference.py`` at the commit
that defined the benchmark.  Where a value does not depend on the
workload seed (CLI stdout, backtest matrices, point forecasts) it is
compared on every seed; seed-dependent values (bands, the generated
large panel) are compared on ``DEFAULT_SEED`` only.  Oracles that need
no reference apply on every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1
REL_TOL = 1e-9
KKT_TOL = 1e-6

BAND_FIELDS = ("lower", "upper", "level_median", "new_lower", "new_upper",
               "rate_lower", "rate_upper")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def close(actual, expected, rel: float = REL_TOL) -> bool:
    """Element-wise ``|a - e| <= rel * |e|`` with matching shapes."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape:
        return False
    return bool(np.all(np.abs(a - e) <= rel * np.abs(e)))


def all_finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a, dtype=float)))) for a in arrays)


def band_oracle(path) -> list[str]:
    """Problems with a ForecastPath that any correct implementation avoids."""
    problems = []
    fields = [path.y_hat, path.level_hat, path.new_hat, path.rate_hat]
    fields += [getattr(path, f) for f in BAND_FIELDS]
    if not all_finite(*fields):
        problems.append("non-finite forecast or band value")
    if not (np.all(path.lower <= path.level_median)
            and np.all(path.level_median <= path.upper)):
        problems.append("bands out of order: lower <= level_median <= upper fails")
    return problems


def kkt_problem(gap: float) -> list[str]:
    if not (math.isfinite(gap) and gap <= KKT_TOL):
        return [f"KKT gap {gap:.3g} at the chosen lambda exceeds {KKT_TOL:g}"]
    return []


def classify_error(exc: Exception) -> str:
    """``refused`` for the paper's data refusals, ``failed`` for estimation errors."""
    from latecast.errors import DataFormatError

    return "refused" if isinstance(exc, DataFormatError) else "failed"


def rerun_origin(target, peers, config, origin) -> str:
    """Replay one backtest origin with the public steps and classify its outcome.

    ``BacktestReport.skipped`` keeps only the message of the error that
    skipped an origin, so the benchmark replays the origin to learn the
    error's class.  Returns ``refused``, ``failed`` or ``fitted``.
    """
    from latecast import align, ecm, lasso
    from latecast.errors import LatecastError

    try:
        panel = align.build_panel(
            align.truncate_series(target, origin), peers,
            threshold=config.threshold, max_horizon=config.horizon,
            window=config.window,
        )
        fit = lasso.select_by_bic(panel.window_y, panel.window_X, panel.window_weights)
        e = ecm.fit_ecm(panel, fit)
        ecm.forecast_levels(e, ecm.forecast_log(e, panel, config.horizon))
    except LatecastError as exc:
        return classify_error(exc)
    return "fitted"


def check_backtest(report, ref: dict, classify) -> dict:
    """Compare one backtest report with its reference, origin by origin.

    ``classify(origin_iso)`` returns the class of a skipped origin.  An
    origin the reference lost to an estimation error but this report
    fits is judged by the oracle only (finite, positive levels), so a
    fix of that defect is not a mismatch.  Returns the counts of fitted,
    failed and refused origins and the list of mismatches.
    """
    out = {"fitted": 0, "failed": 0, "refused": 0, "mismatches": []}
    seen = set()
    for origin, column in report.matrix.items():
        iso = origin.isoformat()
        seen.add(iso)
        values = [column[d] for d in sorted(column)]
        out["fitted"] += 1
        if iso in ref["fitted"]:
            if not close(values, ref["fitted"][iso]):
                out["mismatches"].append(f"{iso}: forecasts differ from the reference")
        elif iso in ref["failed"]:
            if not (all_finite(values) and min(values) > 0):
                out["mismatches"].append(f"{iso}: newly fitted origin fails the oracle")
        else:
            out["mismatches"].append(f"{iso}: fitted, reference has {_ref_class(ref, iso)}")
    for skip in report.skipped:
        iso = skip["origin"]
        seen.add(iso)
        cls = classify(iso)
        out[cls if cls in ("failed", "refused") else "failed"] += 1
        if cls == "refused" and iso not in ref["refused"]:
            out["mismatches"].append(f"{iso}: refused, reference has {_ref_class(ref, iso)}")
        if cls != "refused" and iso not in ref["failed"]:
            out["mismatches"].append(f"{iso}: failed, reference has {_ref_class(ref, iso)}")
    missing = (set(ref["fitted"]) | set(ref["failed"]) | set(ref["refused"])) - seen
    if missing:
        out["mismatches"].append(f"origins missing from the report: {sorted(missing)}")
    return out


def _ref_class(ref: dict, iso: str) -> str:
    for cls in ("fitted", "failed", "refused"):
        if iso in ref[cls]:
            return cls
    return "no such origin"


def nonjson_lines(stderr: str) -> int:
    """Stderr lines that are not one JSON object each."""
    bad = 0
    for line in stderr.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            bad += 1
            continue
        if not isinstance(obj, dict):
            bad += 1
    return bad
