"""The pair rule of ``scripts/bench_pairs.py``, on fixed numbers.

Only the pure summary is tested here; the script's runs start the
benchmark, which the test suite never does.
"""

import importlib.util

import pytest

from helpers import ROOT

_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]


def test_quartiles_follow_numpy_linear_rule():
    # sorted 10.0 .. 14.5 in steps of 0.5: index 2.25, 4.5 and 6.75
    assert bench_pairs.quartiles(PARENT) == {"q1": 11.125, "median": 12.25, "q3": 13.375}


def test_nine_wins_and_a_gap_past_the_iqr_is_a_gain():
    change = [p + 3.0 for p in PARENT]
    change[4] = PARENT[4] - 0.1  # one loss
    s = summarize(PARENT, change, "higher", bound=0.25)
    assert s["change_wins"] == "9 of 10"
    assert s["parent_iqr"] == 2.25
    assert s["change"]["median"] - s["parent"]["median"] > s["parent_iqr"]
    assert s["gain"] is True
    assert s["regression"] == "none"


def test_eight_wins_is_no_gain_however_large_the_gap():
    change = [p + 5.0 for p in PARENT]
    change[0] = change[1] = 1.0
    s = summarize(PARENT, change, "higher")
    assert s["change_wins"] == "8 of 10"
    assert s["gain"] is False
    assert "regression" not in s


def test_every_pair_won_by_less_than_the_iqr_is_no_gain():
    change = [p + 1.0 for p in PARENT]
    s = summarize(PARENT, change, "higher")
    assert s["change_wins"] == "10 of 10"
    assert s["gain"] is False


def test_ties_count_for_neither_side():
    s = summarize([1.0, 2.0], [1.0, 1.5], "lower")
    assert s["change_wins"] == "1 of 2"


def test_lower_is_better_reads_the_gap_the_other_way():
    change = [p - 3.0 for p in PARENT]
    assert summarize(PARENT, change, "lower")["gain"] is True
    assert summarize(PARENT, change, "higher")["gain"] is False


@pytest.mark.parametrize("change,regression", [
    # medians 12.25 against 16.25: 33% worse, past a 25% bound
    ([p + 4.0 for p in PARENT], "beyond bound"),
    # 2% worse, within the bound, and the parent's spread is tight
    ([p + 0.245 for p in PARENT], "none"),
])
def test_regression_against_the_bound(change, regression):
    assert summarize(PARENT, change, "lower", bound=0.25)["regression"] == regression


def test_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    parent = [1.0, 1.0, 2.0, 3.0, 3.0]  # IQR 2 against a median of 2
    assert summarize(parent, [1.0, 1.5, 2.0, 2.5, 3.0], "lower",
                     bound=0.25)["regression"] == "unresolved"
    assert summarize(parent, [0.5, 0.5, 0.5, 0.5, 0.5], "lower",
                     bound=0.25)["regression"] == "none"


def test_mismatched_runs_are_refused():
    with pytest.raises(ValueError, match="same positive number"):
        summarize([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError, match="better must be"):
        summarize([1.0], [1.0], "faster")
