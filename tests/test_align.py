"""Ingestion, epidemic-age alignment, and panel construction."""

import logging
import math
from datetime import date

import numpy as np
import pytest

from helpers import make_series
from latecast.align import (
    build_panel,
    default_threshold,
    inflation_weights,
    ingestion_warnings,
    parse_jhu_wide,
    parse_long,
    threshold_crossing,
    to_tau,
    truncate_series,
)
from latecast.errors import DataFormatError, NotLatecomerError

JHU_HEADER = "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20,1/24/20"


@pytest.mark.parametrize("dates", ["1/22/20,1/24/20", "1/22/20,1/22/20"],
                         ids=["gap", "repeat"])
def test_parse_jhu_requires_consecutive_date_columns(dates):
    text = f"Province/State,Country/Region,Lat,Long,{dates}\n,Uruguay,-32.5,-55.8,1,2"
    with pytest.raises(DataFormatError, match="consecutive"):
        parse_jhu_wide(text)


def test_series_rejects_negative_counts():
    with pytest.raises(DataFormatError, match="negative"):
        make_series("X", date(2020, 3, 1), [1, -2, 3])


def test_parse_jhu_sums_province_rows():
    text = "\n".join([
        JHU_HEADER,
        "New South Wales,Australia,-33.9,151.2,1,2,2",
        "Victoria,Australia,-37.8,145.0,3,4,5",
    ])
    series = parse_jhu_wide(text)
    assert len(series) == 1
    assert series[0].name == "Australia"
    np.testing.assert_array_equal(series[0].counts, [4, 6, 7])
    assert series[0].start == date(2020, 1, 22)


def test_parse_jhu_single_row_passthrough():
    text = "\n".join([JHU_HEADER, ",Uruguay,-32.5,-55.8,0,0,5"])
    series = parse_jhu_wide(text)
    np.testing.assert_array_equal(series[0].counts, [0, 0, 5])


def test_parse_jhu_missing_country_column():
    text = "Province/State,Region,Lat,Long,1/22/20\n,Uruguay,-32.5,-55.8,1"
    with pytest.raises(DataFormatError, match="Country/Region"):
        parse_jhu_wide(text)


def test_parse_jhu_bad_cell_reports_location():
    text = "\n".join([JHU_HEADER, ",Uruguay,-32.5,-55.8,1,x,3"])
    with pytest.raises(DataFormatError) as exc:
        parse_jhu_wide(text)
    msg = str(exc.value)
    assert "1/23/20" in msg and "row" in msg


def test_parse_long_groups_and_sorts():
    rows = ["country,date,cumulative"]
    for d, c in [("2020-03-03", 30), ("2020-03-01", 10), ("2020-03-02", 20)]:
        rows.append(f"A,{d},{c}")
    series = parse_long("\n".join(rows))
    assert len(series) == 1
    np.testing.assert_array_equal(series[0].counts, [10, 20, 30])


def test_parse_long_duplicate_key_errors():
    text = "country,date,cumulative\nA,2020-03-01,1\nA,2020-03-01,2"
    with pytest.raises(DataFormatError, match="duplicate"):
        parse_long(text)


def test_parse_long_date_gap_errors():
    text = "country,date,cumulative\nA,2020-03-01,1\nA,2020-03-03,2"
    with pytest.raises(DataFormatError):
        parse_long(text)


def test_to_tau_starts_at_first_crossing():
    s = make_series("A", date(2020, 3, 1), [50, 90, 100, 130])
    logs, start = to_tau(s, 100)
    assert start == date(2020, 3, 3)
    np.testing.assert_allclose(logs, np.log([100.0, 130.0]))


def test_to_tau_already_above_threshold():
    s = make_series("A", date(2020, 3, 1), [150])
    logs, start = to_tau(s, 100)
    assert start == date(2020, 3, 1)
    np.testing.assert_allclose(logs, [math.log(150.0)])


def test_to_tau_never_reached_carries_max():
    s = make_series("A", date(2020, 3, 1), [12, 40, 99])
    with pytest.raises(NotLatecomerError) as exc:
        to_tau(s, 100)
    assert exc.value.max_count == 99
    assert "99" in str(exc.value)


def test_to_tau_shift_equivariant():
    # prepending sub-threshold history must not change the tau series
    rng = np.random.default_rng(7001)
    for _ in range(25):
        n = int(rng.integers(3, 15))
        counts = np.cumsum(rng.integers(5, 60, n)) + 100
        pad = list(rng.integers(0, 100, int(rng.integers(1, 10))))
        pad.sort()
        base = make_series("A", date(2020, 3, 10), counts)
        padded = make_series(
            "A", date(2020, 3, 10), pad + list(counts)
        )
        logs_a, start_a = to_tau(base, 100)
        logs_b, start_b = to_tau(padded, 100)
        np.testing.assert_array_equal(logs_a, logs_b)
        assert start_b == date(2020, 3, 10 + len(pad))
        assert start_a == date(2020, 3, 10)


def test_zero_count_after_threshold_is_an_error():
    s = make_series("A", date(2020, 3, 1), [120, 0, 140])
    with pytest.raises(DataFormatError, match="zero"):
        to_tau(s, 100)


def test_threshold_crossing_helper():
    assert threshold_crossing([1, 5, 100, 200], 100) == 2
    assert threshold_crossing([1, 5], 100) is None


def test_inflation_weights_shapes():
    np.testing.assert_array_equal(inflation_weights(6), [1, 1, 1, 2, 3, 4])
    np.testing.assert_array_equal(inflation_weights(4), [1, 2, 3, 4])
    np.testing.assert_array_equal(inflation_weights(3), [2, 3, 4])
    np.testing.assert_array_equal(inflation_weights(2), [3, 4])
    np.testing.assert_array_equal(inflation_weights(1), [4])


def test_inflation_weights_are_nondecreasing_and_at_least_one():
    for k in range(1, 40):
        w = inflation_weights(k)
        assert len(w) == k
        assert np.all(np.diff(w) >= 0)
        assert w.min() >= 1


def test_weights_equal_row_duplication():
    # weighted normal equations versus literally repeating the rows
    rng = np.random.default_rng(7002)
    for _ in range(20):
        k = int(rng.integers(4, 12))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(k, p))
        y = rng.normal(size=k)
        w = inflation_weights(k)
        bw = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
        reps = np.repeat(np.arange(k), w.astype(int))
        bd, *_ = np.linalg.lstsq(X[reps], y[reps], rcond=None)
        np.testing.assert_allclose(bw, bd, atol=1e-10)


def _peer(name, start, n, first=120, step=1.35):
    counts = [int(first * step**i) for i in range(n)]
    return make_series(name, start, counts)


def test_build_panel_drops_short_peers_with_log():
    target = _peer("T", date(2020, 3, 20), 21)
    peer_a = _peer("A", date(2020, 2, 1), 40)
    peer_b = _peer("B", date(2020, 2, 1), 22)
    panel = build_panel(target, [peer_a, peer_b], threshold=100,
                        max_horizon=14, window=21)
    assert panel.peer_names == ["A"]
    reasons = {d["peer"]: d for d in panel.drop_log}
    assert reasons["B"]["reason"] == "too_short"
    assert reasons["B"]["required"] == 21 + 14
    assert reasons["B"]["len"] == 22


def test_build_panel_shrinks_window_with_warning(caplog):
    target = _peer("T", date(2020, 3, 20), 10)
    peer = _peer("A", date(2020, 2, 1), 40)
    with caplog.at_level(logging.WARNING, logger="latecast.align"):
        panel = build_panel(target, [peer], threshold=100,
                            max_horizon=14, window=21)
    assert panel.window == 10
    assert any("window" in r.message for r in caplog.records)


def test_build_panel_all_peers_short_errors():
    target = _peer("T", date(2020, 3, 20), 21)
    peer = _peer("A", date(2020, 3, 1), 25)
    with pytest.raises(DataFormatError, match="no peer"):
        build_panel(target, [peer], threshold=100, max_horizon=14, window=21)


def test_panel_roundtrip_and_floor():
    rng = np.random.default_rng(7003)
    for _ in range(10):
        n = int(rng.integers(8, 16))
        h = int(rng.integers(1, 5))
        t_counts = np.cumsum(rng.integers(20, 200, n)) + 100
        p_counts = np.cumsum(rng.integers(20, 200, n + h)) + 100
        target = make_series("T", date(2020, 3, 20), t_counts)
        peer = make_series("A", date(2020, 3, 1), p_counts)
        panel = build_panel(target, [peer], threshold=100,
                            max_horizon=h, window=max(2, n - 2))
        assert math.exp(panel.y[0]) >= 100 - 1e-9
        np.testing.assert_allclose(panel.y, np.log(t_counts))
        np.testing.assert_allclose(panel.X[:, 0], np.log(p_counts))
        assert panel.X.shape == (n + h, 1)


def test_panel_invariant_to_peer_order():
    rng = np.random.default_rng(7004)
    target = _peer("T", date(2020, 3, 20), 21)
    peers = [_peer(f"P{j}", date(2020, 2, 1), 40 + j) for j in range(4)]
    base = build_panel(target, peers, threshold=100, max_horizon=14, window=21)
    for _ in range(5):
        perm = rng.permutation(len(peers))
        shuffled = [peers[i] for i in perm]
        other = build_panel(target, shuffled, threshold=100,
                            max_horizon=14, window=21)
        assert other.peer_names == base.peer_names
        np.testing.assert_array_equal(other.X, base.X)


def test_truncate_series():
    s = make_series("A", date(2020, 3, 1), [1, 2, 3, 4])
    cut = truncate_series(s, date(2020, 3, 2))
    np.testing.assert_array_equal(cut.counts, [1, 2])
    assert cut.end == date(2020, 3, 2)


def test_ingestion_warnings_flag_downward_revisions():
    ok = make_series("A", date(2020, 3, 1), [1, 2, 3])
    rev = make_series("B", date(2020, 3, 1), [5, 9, 7])
    warns = ingestion_warnings([ok, rev])
    assert len(warns) == 1
    assert warns[0]["country"] == "B"
    assert warns[0]["date"] == "2020-03-03"


def test_default_threshold_per_metric():
    assert default_threshold("cases") == 100
    assert default_threshold("deaths") == 10
