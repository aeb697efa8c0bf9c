"""Command-line surface: exit codes, formats, and byte-level determinism."""

import json
import shutil
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

from helpers import FIXTURES, src_env
from latecast import backtest, ecm, ingest
from latecast.ingest import parse_long
from latecast.backtest import BacktestConfig, run_backtest
from latecast.cli import JHU_FILENAMES, main

LONG = str(FIXTURES / "synthetic_ecm_long.csv")
JHU_CASES = str(FIXTURES / "jhu_confirmed_snapshot_20200415.csv")
JHU_DEATHS = str(FIXTURES / "jhu_deaths_snapshot_20200415.csv")

FORECAST_ARGS = [
    "forecast", "--data-path", LONG, "--data-format", "long",
    "--target", "Target", "--seed", "7", "--k", "21", "--h", "5",
    "--n-sims", "2000",
]


def stderr_payloads(capsys):
    err = capsys.readouterr().err
    out = []
    for line in err.splitlines():
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return out


def test_ingest_check_summarizes_countries(tmp_path):
    out = tmp_path / "check.json"
    rc = main(["ingest-check", "--data-path", JHU_CASES,
               "--output", str(out)])
    assert rc == 0
    summary = json.loads(out.read_text())
    assert summary["n_countries"] == 24
    assert summary["threshold"] == 100
    brazil = next(c for c in summary["countries"] if c["name"] == "Brazil")
    assert brazil["crossed_on"] == "2020-03-14"
    assert brazil["last_date"] == "2020-04-15"


@pytest.mark.parametrize("extra,threshold", [
    ([], 100),
    (["--metric", "deaths"], 10),
    (["--threshold", "5"], 5),
], ids=["cases", "deaths", "explicit"])
def test_ingest_check_threshold_per_metric(tmp_path, extra, threshold):
    data = JHU_DEATHS if "deaths" in extra else JHU_CASES
    out = tmp_path / "check.json"
    rc = main(["ingest-check", "--data-path", data, *extra,
               "--output", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["threshold"] == threshold


def test_ingest_check_validates_target():
    rc = main(["ingest-check", "--data-path", JHU_CASES,
               "--target", "Atlantis"])
    assert rc == 2


def test_forecast_csv_shape(capsys):
    rc = main(FORECAST_ARGS)
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "Date,Total,New,GrowthRatePct,Lower,Upper"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "2020-04-19"  # day after the fixture ends
    assert int(first[1]) > 0
    info = [json.loads(l) for l in captured.err.splitlines()
            if l.startswith("{")]
    assert any(p.get("info") == "selected_peers" for p in info)


def test_forecast_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(FORECAST_ARGS + ["--output", str(a)]) == 0
    assert main(FORECAST_ARGS + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    da = (tmp_path / "a.csv.diagnostics.json").read_bytes()
    db = (tmp_path / "b.csv.diagnostics.json").read_bytes()
    assert da == db
    diag = json.loads(da)
    assert "first_step" in diag and "second_step" in diag
    assert diag["window"] == 21
    # first_step.beta is named by every panel peer, selected or not
    dropped = {d["peer"] for d in diag["dropped_peers"]}
    peers = sorted({s.name for s in parse_long(Path(LONG).read_text())}
                   - dropped - {"Target"})
    first = diag["first_step"]
    assert list(first["beta"]) == peers
    # the lasso's support is the nonzero entries of first_step.beta
    support = {name for name, b in first["beta"].items() if b}
    assert support and set(diag["selected_peers"]) == support


def test_forecast_json_payload(tmp_path):
    out = tmp_path / "f.json"
    rc = main(FORECAST_ARGS + ["--format", "json", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["target"] == "Target"
    assert payload["last_observed"] == "2020-04-18"
    assert len(payload["dates"]) == 5
    assert payload["selected_peers"]
    assert all(p.startswith("Peer") for p in payload["selected_peers"])
    for lo, hi in zip(payload["lower"], payload["upper"]):
        assert lo <= hi
    assert payload["confidence"] == 0.95
    assert payload["seed"] == 7


def test_forecast_seed_changes_bands(tmp_path):
    def run(seed, path):
        args = ["forecast", "--data-path", LONG, "--data-format", "long",
                "--target", "Target", "--seed", str(seed), "--k", "21",
                "--h", "5", "--n-sims", "2000", "--format", "json",
                "--output", str(path)]
        assert main(args) == 0
        return json.loads(path.read_text())

    pa = run(7, tmp_path / "a.json")
    pb = run(8, tmp_path / "b.json")
    assert pa["y_hat"] == pb["y_hat"]  # the point path has no shocks
    assert pa["lower"] != pb["lower"]


def test_missing_seed_is_usage_error(capsys):
    rc = main(["forecast", "--data-path", LONG, "--data-format", "long",
               "--target", "Target"])
    assert rc == 4
    assert "--seed" in capsys.readouterr().err


def test_backtest_needs_no_seed(capsys):
    # the backtest scores point forecasts only; --seed is accepted and ignored
    argv = ["backtest", "--data-path", JHU_CASES, "--target", "Brazil",
            "--h", "7", "--origin-start", "2020-04-06",
            "--origin-end", "2020-04-08"]
    outs = []
    for seed in ([], ["--seed", "11"]):
        assert main([*argv, *seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] and outs[0] == outs[1]


def test_bad_confidence_is_usage_error(capsys):
    rc = main(FORECAST_ARGS + ["--confidence", "1.5"])
    assert rc == 4
    payloads = stderr_payloads(capsys)
    assert payloads and payloads[-1]["error"] == "UsageError"


def test_unknown_subcommand_is_usage_error():
    assert main(["meltdown"]) == 4


@pytest.mark.parametrize("argv", [
    ["forecast", "--data-path", JHU_CASES, "--target", "Brazil"],
    ["meltdown"],
    ["forecast", "--data-path", JHU_CASES, "--target", "Brazil",
     "--seed", "1", "--confidence", "1.5"],
    ["forecast", "--data-path", JHU_CASES, "--target", "Brazil",
     "--seed", "1", "--h", "0"],
    ["forecast", "--data-path", JHU_CASES, "--target", "Brazil",
     "--seed", "1", "--k", "1"],
    ["forecast", "--data-path", JHU_CASES, "--target", "Brazil",
     "--seed", "1", "--n-sims", "0"],
    ["forecast", "--data-path", JHU_CASES, "--target", "Brazil",
     "--seed", "-1"],
    ["report", "--data-path", JHU_CASES, "--deaths-path", JHU_DEATHS,
     "--target", "Brazil", "--seed", "1", "--deaths-threshold", "0"],
    ["backtest", "--data-path", JHU_CASES, "--target", "Brazil",
     "--seed", "1", "--origin-start", "2020-13-01"],
    ["backtest", "--data-path", JHU_CASES, "--target", "Brazil",
     "--seed", "1", "--no-calendar-check"],
    ["report", "--data-path", JHU_CASES, "--deaths-path", JHU_DEATHS,
     "--target", "Brazil", "--seed", "1", "--metric", "deaths"],
    ["backtest", "--data-path", JHU_CASES, "--target", "Brazil",
     "--seed", "1", "--n-sims", "13"],
], ids=["missing_seed", "unknown_subcommand", "confidence_1.5", "h_0", "k_1",
        "n_sims_0", "negative_seed", "deaths_threshold_0", "bad_origin_date",
        "removed_calendar_flag", "report_metric", "backtest_n_sims"])
def test_usage_errors_are_one_json_line(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "latecast", *argv],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines
    for line in lines:
        payload = json.loads(line)
        assert isinstance(payload, dict)
        assert payload["error"] == "UsageError"


def test_unknown_target_is_data_error(capsys):
    rc = main(["forecast", "--data-path", LONG, "--data-format", "long",
               "--target", "Nowhere", "--seed", "1"])
    assert rc == 2
    payloads = stderr_payloads(capsys)
    assert payloads[-1]["error"] == "DataFormatError"
    assert "Nowhere" in payloads[-1]["message"]


def test_missing_file_is_data_error(tmp_path):
    rc = main(["forecast", "--data-path", str(tmp_path / "nope.csv"),
               "--target", "X", "--seed", "1"])
    assert rc == 2


def test_non_utf8_file_is_data_error(tmp_path, capsys):
    f = tmp_path / "latin1.csv"
    f.write_bytes(b"\xff\xfecountry,date,cumulative\nS\xe3o Tom\xe9,2020-03-01,5\n")
    rc = main(["forecast", "--data-path", str(f), "--data-format", "long",
               "--target", "X", "--seed", "1"])
    assert rc == 2
    payloads = stderr_payloads(capsys)
    assert payloads[-1]["error"] == "DataFormatError"
    assert "UTF-8" in payloads[-1]["message"]


@pytest.mark.parametrize("path,layout", [
    (JHU_CASES, "jhu-wide"), (LONG, "long"),
], ids=["wide", "long"])
def test_byte_order_mark_is_ignored(tmp_path, capsys, path, layout):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark;
    # the copy keeps the file name, which the summary reports
    bom = tmp_path / Path(path).name
    bom.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    outs = []
    for f in (path, str(bom)):
        rc = main(["ingest-check", "--data-path", f, "--data-format", layout])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] and outs[1] == outs[0]


def test_crlf_long_file_is_read_as_bytes(tmp_path, capsys, monkeypatch):
    # the CLI reads files in text mode, which turns every CRLF into LF,
    # so a CRLF file never reaches the row-by-row reader of CR text
    crlf = tmp_path / Path(LONG).name
    crlf.write_bytes(Path(LONG).read_bytes().replace(b"\n", b"\r\n"))
    assert main(["ingest-check", "--data-path", LONG,
                 "--data-format", "long"]) == 0
    expected = capsys.readouterr().out

    def row_loop(csv_text):
        raise AssertionError("a CRLF file was read row by row")

    monkeypatch.setattr(ingest, "_read_long_rows", row_loop)
    assert main(["ingest-check", "--data-path", str(crlf),
                 "--data-format", "long"]) == 0
    assert capsys.readouterr().out == expected


def test_downward_revision_is_one_warning_line(tmp_path):
    f = tmp_path / "revised.csv"
    f.write_text("country,date,cumulative\n"
                 "A,2020-03-01,1\nA,2020-03-02,2\nA,2020-03-03,3\n"
                 "B,2020-03-01,5\nB,2020-03-02,9\nB,2020-03-03,7\n")
    proc = subprocess.run(
        [sys.executable, "-m", "latecast", "ingest-check",
         "--data-path", str(f), "--data-format", "long"],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert [json.loads(line) for line in proc.stderr.splitlines()] == [{
        "warning": "RuntimeWarning",
        "message": "B: cumulative count fell 9 -> 7 on 2020-03-03",
    }]


@pytest.mark.parametrize("layout,text", [
    ("jhu-wide", "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20\n"
                 "A,X,0,0,1,1e20\nB,X,0,0,1,2\n"),
    ("long", "country,date,cumulative\nX,2020-01-22,1e20\n"),
], ids=["wide", "long"])
def test_oversized_count_is_one_json_line(tmp_path, layout, text):
    f = tmp_path / "big.csv"
    f.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "latecast", "ingest-check",
         "--data-path", str(f), "--data-format", layout],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "DataFormatError"
    assert "out of range" in payload["message"]


@pytest.mark.parametrize("layout,text", [
    ("jhu-wide", "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20\n"
                 f"{'x' * 140_000},X,0,0,1,2\n"),
    ("long", f"country,date,cumulative\n{'x' * 140_000},2020-01-22,1\n"),
], ids=["wide", "long"])
def test_cell_past_the_csv_field_limit_is_one_json_line(tmp_path, layout, text):
    f = tmp_path / "long_cell.csv"
    f.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "latecast", "ingest-check",
         "--data-path", str(f), "--data-format", layout],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert json.loads(line) == {
        "error": "DataFormatError",
        "message": "row 2: field larger than field limit (131072)",
    }


@pytest.mark.parametrize("layout", ["jhu-wide", "long"])
@pytest.mark.parametrize("content", [b"", b"\xef\xbb\xbf", b"\n\n"],
                         ids=["empty", "bom", "blank_lines"])
def test_empty_file_is_one_json_line(tmp_path, capsys, layout, content):
    f = tmp_path / "empty.csv"
    f.write_bytes(content)
    rc = main(["ingest-check", "--data-path", str(f), "--data-format", layout])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": "DataFormatError", "message": "empty file"}]


def test_empty_country_is_one_json_line(tmp_path):
    f = tmp_path / "blank.csv"
    f.write_text("Province/State,Country/Region,Lat,Long,1/22/20,1/23/20\n"
                 "A,,0,0,1,2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "latecast", "ingest-check",
         "--data-path", str(f)],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert json.loads(line) == {
        "error": "DataFormatError", "message": "row 2: empty country",
    }


def test_below_threshold_target_is_data_error(tmp_path, capsys):
    rows = ["country,date,cumulative"]
    for i in range(30):
        rows.append(f"Tiny,2020-03-{i + 1:02d},{40 + i}")
        rows.append(f"Big,2020-03-{i + 1:02d},{500 * (i + 1)}")
    f = tmp_path / "tiny.csv"
    f.write_text("\n".join(rows) + "\n")
    rc = main(["forecast", "--data-path", str(f), "--data-format", "long",
               "--target", "Tiny", "--seed", "1"])
    assert rc == 2
    payloads = stderr_payloads(capsys)
    assert payloads[-1]["error"] == "NotLatecomerError"
    assert payloads[-1]["max_count"] == 69


def test_estimation_failure_is_exit_3(tmp_path, capsys):
    # two aligned observations leave a single differenced row, which is
    # not enough for the second step
    rows = ["country,date,cumulative"]
    target_counts = [50, 120, 150]
    peer_counts = [200, 320, 500, 800, 1300, 2100, 3400, 5500]
    for i, c in enumerate(target_counts):
        rows.append(f"Late,2020-03-{10 + i:02d},{c}")
    for i, c in enumerate(peer_counts):
        rows.append(f"Early,2020-03-{5 + i:02d},{c}")
    f = tmp_path / "thin.csv"
    f.write_text("\n".join(rows) + "\n")
    rc = main(["forecast", "--data-path", str(f), "--data-format", "long",
               "--target", "Late", "--k", "2", "--h", "1", "--seed", "1"])
    assert rc == 3
    payloads = stderr_payloads(capsys)
    assert payloads[-1]["error"] == "EstimationError"


# numpy refuses an (H, 2**62) float64 shape before it allocates anything
@pytest.mark.parametrize("argv", [
    ["forecast", "--data-path", JHU_CASES],
    ["report", "--data-path", JHU_CASES, "--deaths-path", JHU_DEATHS],
], ids=["forecast", "report"])
def test_n_sims_too_large_to_hold_is_exit_3(argv, capsys):
    rc = main([*argv, "--target", "Brazil", "--seed", "1", "--h", "7",
               "--n-sims", str(2**62)])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    payloads = [json.loads(line) for line in lines]
    assert payloads[-1] == {
        "error": "EstimationError",
        "message": f"n_sims={2**62} paths over H=7 horizons do not fit in "
                   f"memory as one 7 x {2**62} float64 array",
    }
    assert all("error" not in p for p in payloads[:-1])


def test_backtest_cli_summary_and_csv(capsys):
    rc = main(["backtest", "--data-path", LONG, "--data-format", "long",
               "--target", "Target", "--seed", "0", "--k", "21", "--h", "5"])
    assert rc == 0
    captured = capsys.readouterr()
    header = captured.out.splitlines()[0].split(",")
    assert header[:2] == ["Date", "Observed"]
    n_origins = len(header) - 2
    summary = [json.loads(l) for l in captured.err.splitlines()
               if l.startswith("{")]
    summary = next(p for p in summary if p.get("info") == "backtest_summary")
    assert summary["origins"] == n_origins
    assert summary["mape_total_pct"] < 5.0


def test_backtest_peer_with_zero_after_threshold_is_exit_2(tmp_path, capsys):
    lines = Path(LONG).read_text(encoding="utf-8").splitlines()
    last = max(i for i, l in enumerate(lines) if l.startswith("PeerB,"))
    lines[last] = lines[last].rsplit(",", 1)[0] + ",0"
    f = tmp_path / "zero.csv"
    f.write_text("\n".join(lines) + "\n")
    rc = main(["backtest", "--data-path", str(f), "--data-format", "long",
               "--target", "Target", "--seed", "0", "--k", "21", "--h", "5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payloads = [json.loads(l) for l in captured.err.splitlines()]
    [error] = [p for p in payloads if "error" in p]
    assert error["error"] == "DataFormatError"
    assert error["message"].startswith("'PeerB': zero count on ")


def test_backtest_cli_origin_bounds(capsys):
    rc = main(["backtest", "--data-path", LONG, "--data-format", "long",
               "--target", "Target", "--seed", "0", "--k", "21", "--h", "5",
               "--origin-start", "2020-04-02", "--origin-end", "2020-04-04"])
    assert rc == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert header[2:] == ["2020-04-02", "2020-04-03", "2020-04-04"]


def test_backtest_skipped_origins_are_json_lines(tmp_path, capsys):
    # peers cut to 40 days lack the lead that the last origins need
    seen: dict[str, int] = {}
    kept = []
    for line in Path(LONG).read_text(encoding="utf-8").splitlines():
        country = line.split(",")[0]
        seen[country] = seen.get(country, 0) + 1
        if country == "Target" or seen[country] <= 40:
            kept.append(line)
    f = tmp_path / "short_peers.csv"
    f.write_text("\n".join(kept) + "\n")
    rc = main(["backtest", "--data-path", str(f), "--data-format", "long",
               "--target", "Target", "--seed", "0", "--k", "21", "--h", "5"])
    assert rc == 0
    skips = [p for p in stderr_payloads(capsys)
             if p.get("info") == "origin_skipped"]
    series = {s.name: s for s in parse_long(f.read_text())}
    target = series.pop("Target")
    report = run_backtest(target, list(series.values()),
                          BacktestConfig(window=21, horizon=5))
    assert report.skipped
    assert skips == [{"info": "origin_skipped", **s} for s in report.skipped]


def test_named_peers_bound_the_selection(tmp_path):
    out = tmp_path / "f.json"
    rc = main(["forecast", "--data-path", JHU_CASES, "--target", "Brazil",
               "--peers", "Italy", "Spain", "--seed", "1",
               "--format", "json", "--output", str(out)])
    assert rc == 0
    selected = json.loads(out.read_text())["selected_peers"]
    assert selected and set(selected) <= {"Italy", "Spain"}


def test_a_peer_named_twice_counts_once(tmp_path, capsys):
    # twin columns let the second twin's zero overwrite the first's
    # coefficient in the sidecar's first step
    outputs = []
    for peers in (["Italy", "Spain", "Italy"], ["Italy", "Spain"]):
        out = tmp_path / f"{len(peers)}.csv"
        rc = main(["forecast", "--data-path", JHU_CASES, "--target", "Brazil",
                   "--peers", *peers, "--seed", "1", "--output", str(out)])
        assert rc == 0
        sidecar = Path(f"{out}.diagnostics.json").read_text()
        outputs.append((out.read_text(), capsys.readouterr().err, sidecar))
    assert outputs[0] == outputs[1]


def test_a_repeated_peers_flag_adds_to_the_list(tmp_path, capsys):
    outputs = []
    for flags in (["--peers", "Italy", "--peers", "Spain"], ["--peers", "Italy", "Spain"]):
        out = tmp_path / f"{len(flags)}.csv"
        rc = main(["forecast", "--data-path", JHU_CASES, "--target", "Brazil",
                   *flags, "--seed", "11", "--output", str(out)])
        assert rc == 0
        sidecar = Path(f"{out}.diagnostics.json").read_text()
        outputs.append((out.read_text(), capsys.readouterr().err, sidecar))
    assert outputs[0] == outputs[1]


def test_auto_named_twice_counts_once(tmp_path, capsys):
    outputs = []
    for flags in ([], ["--peers", "auto", "--peers", "auto"]):
        out = tmp_path / f"{len(flags)}.csv"
        rc = main(["forecast", "--data-path", JHU_CASES, "--target", "Brazil",
                   *flags, "--seed", "11", "--h", "7", "--output", str(out)])
        assert rc == 0
        sidecar = Path(f"{out}.diagnostics.json").read_text()
        outputs.append((out.read_text(), capsys.readouterr().err, sidecar))
    assert outputs[0] == outputs[1]


def test_sidecar_is_the_backtest_record_of_its_origin(tmp_path):
    # forecast fits the snapshot's last date, the backtest's last origin
    out, report = tmp_path / "f.csv", tmp_path / "bt.json"
    common = ["--data-path", JHU_CASES, "--target", "Brazil", "--h", "14"]
    assert main(["forecast", *common, "--seed", "11", "--output", str(out)]) == 0
    assert main(["backtest", *common, "--format", "json",
                 "--output", str(report)]) == 0
    sidecar = json.loads(Path(f"{out}.diagnostics.json").read_text())
    assert (sidecar.pop("target"), sidecar.pop("metric")) == ("Brazil", "cases")
    assert sidecar == json.loads(report.read_text())["origin_details"][-1]


def test_sidecar_lists_a_peer_read_past_the_target_s_last_date(tmp_path):
    # the two-day-lead peer of test_backtest's test_calendar_flags_and_switch
    # in a long-layout file whose peer runs on past the target's last date
    growth = [int(110 * 1.25**i) for i in range(40)]
    rows = ["country,date,cumulative"]
    rows += [f"T,{date(2020, 3, 10) + timedelta(days=i)},{c}"
             for i, c in enumerate(growth[:10])]
    rows += [f"A,{date(2020, 3, 8) + timedelta(days=i)},{c}"
             for i, c in enumerate(growth)]
    data, out = tmp_path / "ragged.csv", tmp_path / "f.csv"
    data.write_text("\n".join(rows) + "\n")
    assert main(["forecast", "--data-path", str(data), "--data-format", "long",
                 "--target", "T", "--threshold", "100", "--k", "4", "--h", "5",
                 "--seed", "1", "--n-sims", "200", "--output", str(out)]) == 0
    sidecar = json.loads(Path(f"{out}.diagnostics.json").read_text())
    # the last origin is 2020-03-19 at tau 10; the recursion reads A at
    # tau 15, which A reached on 2020-03-22
    assert sidecar["origin"] == "2020-03-19"
    assert sidecar["calendar_future_peers"] == [
        {"peer": "A", "tau": 15, "date": "2020-03-22", "days_ahead": 3}]


@pytest.mark.parametrize("peers,msg", [
    (["Italy", "Atlantis"], "peer(s) not found: Atlantis"),
    (["Brazil"], "no peers to select from"),
], ids=["unknown_peer", "only_the_target"])
def test_bad_peer_list_is_data_error(capsys, peers, msg):
    rc = main(["forecast", "--data-path", JHU_CASES, "--target", "Brazil",
               "--peers", *peers, "--seed", "1"])
    assert rc == 2
    assert stderr_payloads(capsys)[-1] == {"error": "DataFormatError",
                                           "message": msg}


@pytest.mark.parametrize("flags", [
    ["--peers", "auto", "Italy"],
    ["--peers", "auto", "--peers", "Italy"],
], ids=["one_flag", "two_flags"])
def test_auto_with_other_names_is_a_usage_error(tmp_path, capsys, flags):
    # the data path does not exist: the check comes before any read
    rc = main(["forecast", "--data-path", str(tmp_path / "missing.csv"),
               "--target", "Brazil", *flags, "--seed", "1"])
    assert rc == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [{
        "error": "UsageError",
        "message": "latecast: argument --peers: 'auto' stands alone, got "
                   + " ".join(f for f in flags if f != "--peers"),
    }]


def test_peers_help_says_auto_stands_alone(capsys):
    assert main(["forecast", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("'auto' for every other country (default), which takes no "
            "other name;") in help_text


def test_directory_without_the_metric_file_is_data_error(tmp_path, capsys):
    rc = main(["forecast", "--data-path", str(tmp_path), "--target", "Brazil",
               "--seed", "1"])
    assert rc == 2
    assert stderr_payloads(capsys)[-1]["message"] == (
        f"directory {tmp_path} has no {JHU_FILENAMES['cases']}")


def _jhu_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    shutil.copy(JHU_CASES, d / JHU_FILENAMES["cases"])
    shutil.copy(JHU_DEATHS, d / JHU_FILENAMES["deaths"])
    return d


def test_report_threshold_leaves_the_deaths_section_alone(tmp_path, capsys):
    common = ["report", "--data-path", JHU_CASES, "--deaths-path", JHU_DEATHS,
              "--target", "Brazil", "--seed", "3", "--h", "5", "--format", "json"]
    sections = []
    for flags in ([], ["--threshold", "50"]):
        out = tmp_path / f"{len(flags)}.json"
        assert main([*common, *flags, "--output", str(out)]) == 0
        sections.append(json.loads(out.read_text()))
    assert sections[0]["deaths"] == sections[1]["deaths"]
    assert sections[0]["cases"] != sections[1]["cases"]
    assert main(["report", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--threshold THRESHOLD alignment threshold of the cases section (default 100)" in help_text
    assert ("--deaths-threshold DEATHS_THRESHOLD alignment threshold of the "
            "deaths section (default 10)") in help_text


def test_report_combines_cases_and_deaths(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["report", "--data-path", str(_jhu_dir(tmp_path)),
               "--target", "Brazil", "--seed", "3", "--h", "5",
               "--history", "4", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "Section,Date,Observed,Total,New,GrowthRatePct"
    sections = [l.split(",")[0] for l in lines[1:]]
    assert sections.count("cases") == 4 + 5 + 1
    assert sections.count("deaths") == 4 + 5 + 1
    assert any("CI(95%) on 2020-04-20" in l for l in lines)


@pytest.mark.parametrize("confidence,label", [("0.999", "CI(99.9%)"),
                                              ("0.975", "CI(97.5%)")])
def test_report_ci_label_is_the_exact_level(tmp_path, confidence, label):
    out = tmp_path / "report.csv"
    rc = main(["report", "--data-path", str(_jhu_dir(tmp_path)),
               "--target", "Brazil", "--seed", "3", "--h", "5",
               "--confidence", confidence, "--output", str(out)])
    assert rc == 0
    ci_rows = [l for l in out.read_text().splitlines() if ",CI(" in l]
    assert [l.split(",")[1] for l in ci_rows] == [
        f"{label} on 2020-04-20"] * 2


def test_report_json_sections(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["report", "--data-path", str(_jhu_dir(tmp_path)),
               "--target", "Brazil", "--seed", "3", "--h", "5",
               "--format", "json", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"cases", "deaths"}
    for section in payload.values():
        assert len(section["forecast"]) == 5
        assert section["ci_below"] <= 0 <= section["ci_above"]
        assert section["selected_peers"]


def test_report_single_file_needs_deaths_path(capsys):
    rc = main(["report", "--data-path", JHU_CASES,
               "--target", "Brazil", "--seed", "3"])
    assert rc == 4
    payloads = stderr_payloads(capsys)
    assert payloads[-1]["error"] == "UsageError"
    assert "deaths" in payloads[-1]["message"]


def test_dropped_peers_are_written_in_name_order(capsys):
    rc = main(["forecast", "--data-path", JHU_CASES, "--target", "Brazil",
               "--seed", "1", "--peers", "Spain", "Peru", "Chile", "Italy"])
    assert rc == 0
    dropped = [p["peer"] for p in stderr_payloads(capsys) if p.get("info") == "peer_dropped"]
    assert dropped == ["Chile", "Peru", "Spain"]


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "latecast", "ingest-check",
         "--data-path", JHU_CASES],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_countries"] == 24


@pytest.mark.parametrize("extra, source, kinds", [
    # the panel's drop log, then the fit's gamma warning, then its peers
    (["--target", "Japan"], "RuntimeWarning",
     ["peer_dropped", "RuntimeWarning", "selected_peers"]),
    # the panel shrinks its window before its drop log is written
    (["--target", "Brazil", "--k", "60"], "RuntimeWarning",
     ["RuntimeWarning", "peer_dropped", "selected_peers"]),
], ids=["unstable_gamma", "shrunk_window"])
def test_warnings_keep_stderr_json_lines(extra, source, kinds):
    proc = subprocess.run(
        [sys.executable, "-m", "latecast", "forecast",
         "--data-path", JHU_CASES, "--seed", "11", *extra],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    payloads = [json.loads(line) for line in proc.stderr.splitlines()]
    assert [p["warning"] for p in payloads if "warning" in p] == [source]
    # each run of equal kinds collapsed to one entry
    seq = [p.get("info") or p["warning"] for p in payloads]
    assert [k for i, k in enumerate(seq) if i == 0 or k != seq[i - 1]] == kinds


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency, and warnings the only channel
    # for non-fatal notes, so logging stays unloaded too
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, latecast.cli; "
         "print('scipy' in sys.modules, 'logging' in sys.modules)"],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["False", "False"]


README_BRAZIL = ["--data-path", JHU_CASES, "--target", "Brazil", "--seed", "11"]


@pytest.mark.parametrize("argv, calls", [
    (["forecast", *README_BRAZIL, "--h", "7"], 1),
    (["report", *README_BRAZIL, "--deaths-path", JHU_DEATHS, "--h", "7"], 2),
    (["backtest", *README_BRAZIL, "--h", "14", "--origin-start", "2020-04-04",
      "--origin-end", "2020-04-14"], 11),
], ids=["forecast", "report", "backtest"])
def test_each_forecast_runs_the_recursion_once(argv, calls, monkeypatch, capsys):
    # forecast and each report section run it inside simulate_bands, a
    # backtest once per fitted origin
    original = ecm.forecast_log
    seen = []

    def counted(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    for module in (ecm, backtest):
        if hasattr(module, "forecast_log"):
            monkeypatch.setattr(module, "forecast_log", counted)
    assert main(argv) == 0
    assert len(seen) == calls
    if argv[0] == "backtest":
        summary = [p for p in stderr_payloads(capsys)
                   if p.get("info") == "backtest_summary"]
        assert summary[0]["origins"] == calls
