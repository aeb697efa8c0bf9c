"""Seeded large-panel generator built only from the bundled fixtures.

Every synthetic country borrows the daily log-growth profile of one
fixture series (cases or deaths), rescaled and jittered, starts at a
seeded onset day, and keeps growing after the profile ends with a
geometrically decaying rate.  Most countries start early; a late group
starts near the end of the calendar, so each late country is a
latecomer with about 190 early peers far enough ahead of it.

The generator parses the fixtures itself rather than through latecast,
so the program under test only ever sees the generated CSV text.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

FIXTURE_FILES = (
    "jhu_confirmed_snapshot_20200415.csv",
    "jhu_deaths_snapshot_20200415.csv",
)
START = date(2020, 1, 22)
LATE_SHARE = 0.24
EARLY_END = 0.6  # early onsets fall in the first 60% of the calendar
LATE_BEFORE_END = (95, 85)  # late onsets fall 95 to 85 days before its end
TAIL_DECAY = 0.97
MAX_LOG = math.log(5e8)


@dataclass
class GeneratedPanel:
    """Generated countries plus both CSV layouts of the same counts."""

    names: list[str]
    dates: list[date]
    counts: dict[str, np.ndarray]
    late: list[str]
    wide_text: str
    long_text: str

    def stats(self) -> dict:
        return {
            "countries": len(self.names),
            "days": len(self.dates),
            "wide_bytes": len(self.wide_text.encode()),
            "long_bytes": len(self.long_text.encode()),
            "long_rows": len(self.names) * len(self.dates),
            "wide_rows": self.wide_text.count("\n") - 1,
            "late_countries": len(self.late),
        }


def fixture_profiles(fixtures_dir: Path) -> list[tuple[str, np.ndarray]]:
    """Daily log-growth increments of every fixture series from its first case."""
    profiles = []
    for fname in FIXTURE_FILES:
        with open(fixtures_dir / fname, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        totals: dict[str, np.ndarray] = {}
        for row in rows[1:]:
            values = np.array([float(c) for c in row[4:]])
            totals[row[1]] = totals.get(row[1], 0) + values
        for name, counts in totals.items():
            positive = counts[counts >= 1]
            if len(positive) < 10:
                continue
            inc = np.diff(np.log(np.maximum.accumulate(positive)))
            profiles.append((name, inc))
    return profiles


def _log_path(rng, profile: np.ndarray, n_steps: int) -> np.ndarray:
    scale = rng.uniform(0.7, 1.3)
    steps = np.empty(n_steps)
    k = min(len(profile), n_steps)
    steps[:k] = scale * profile[:k]
    tail_rate = scale * float(np.mean(profile[-7:]))
    tail_len = n_steps - k
    steps[k:] = tail_rate * TAIL_DECAY ** np.arange(1, tail_len + 1)
    steps *= np.exp(rng.normal(0.0, 0.15, n_steps))
    log_c = math.log(rng.integers(1, 30)) + np.concatenate([[0.0], np.cumsum(steps[1:])])
    return np.minimum(log_c, MAX_LOG)


def generate_panel(fixtures_dir: Path, seed: int, n_countries: int = 250,
                   n_days: int = 1000) -> GeneratedPanel:
    """Deterministic panel for ``seed``: same seed, same text."""
    rng = np.random.default_rng(seed)
    profiles = fixture_profiles(Path(fixtures_dir))
    dates = [START + timedelta(days=i) for i in range(n_days)]
    n_late = int(round(LATE_SHARE * n_countries))
    is_late = np.zeros(n_countries, dtype=bool)
    is_late[rng.choice(n_countries, n_late, replace=False)] = True

    names, late = [], []
    counts: dict[str, np.ndarray] = {}
    for i in range(n_countries):
        base_name, profile = profiles[rng.integers(len(profiles))]
        name = f"{base_name} {i:03d}"
        if is_late[i]:
            lo, hi = n_days - LATE_BEFORE_END[0], n_days - LATE_BEFORE_END[1]
        else:
            lo, hi = 0, int(EARLY_END * n_days)
        onset = int(rng.integers(lo, hi + 1))
        c = np.zeros(n_days, dtype=np.int64)
        c[onset:] = np.floor(np.exp(_log_path(rng, profile, n_days - onset)))
        counts[name] = np.maximum.accumulate(c)
        names.append(name)
        if is_late[i]:
            late.append(name)

    # a seeded tenth of the countries is split into two province rows,
    # which the wide parser must sum back
    split = set(rng.choice(n_countries, n_countries // 10, replace=False).tolist())
    return GeneratedPanel(
        names=names, dates=dates, counts=counts, late=late,
        wide_text=_wide_text(names, dates, counts, split),
        long_text=_long_text(names, dates, counts),
    )


def _wide_text(names, dates, counts, split) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["Province/State", "Country/Region", "Lat", "Long"]
               + [f"{d.month}/{d.day}/{d.year % 100:02d}" for d in dates])
    for i, name in enumerate(names):
        c = counts[name]
        if i in split:
            part = c // 3
            w.writerow(["North", name, "0.0", "0.0"] + part.tolist())
            w.writerow(["South", name, "0.0", "0.0"] + (c - part).tolist())
        else:
            w.writerow(["", name, "0.0", "0.0"] + c.tolist())
    return buf.getvalue()


def _long_text(names, dates, counts) -> str:
    iso = [d.isoformat() for d in dates]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["country", "date", "cumulative"])
    for name in names:
        w.writerows(zip([name] * len(iso), iso, counts[name].tolist()))
    return buf.getvalue()
