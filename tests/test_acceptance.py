"""Top-level acceptance checks, one verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict
lines; each test prints exactly one ``ACCEPTANCE nn PASS/FAIL`` line
carrying the measured quantities that justify the verdict.
"""

import itertools
import time
from contextlib import contextmanager
from datetime import date

import numpy as np

from helpers import FIXTURES, gen_ecm_panel, lasso_with_beta, make_panel, solve_at
from latecast.ingest import CountrySeries, parse_jhu_wide, parse_long
from latecast.backtest import BacktestConfig, run_backtest
from latecast.cli import main
from latecast.ecm import EcmFit, fit_ecm, forecast_log, simulate_bands
from latecast.lasso import kkt_violation, select_by_bic


@contextmanager
def verdict(n):
    note = {"msg": "(no measurement recorded)"}
    try:
        yield note
    except BaseException:
        print(f"ACCEPTANCE {n:02d} FAIL: {note['msg']}")
        raise
    print(f"ACCEPTANCE {n:02d} PASS: {note['msg']}")


def test_01_lasso_matches_closed_forms():
    with verdict(1) as note:
        t0 = time.monotonic()
        rng = np.random.default_rng(11)
        worst_soft = 0.0
        worst_ols = 0.0
        for _ in range(25):
            K = int(rng.integers(8, 33))
            p = int(rng.integers(1, 9))
            w = rng.uniform(0.5, 3.0, size=K)
            Q, _ = np.linalg.qr(rng.normal(size=(K, p)))
            # columns orthonormal in the weighted inner product: X'WX = K I
            X = Q * np.sqrt(K) / np.sqrt(w)[:, None]
            beta_true = rng.normal(scale=2.0, size=p)
            y = X @ beta_true + rng.normal(scale=0.3, size=K)
            c = X.T @ (w * y) / K
            for lam in (0.05, 0.4):
                beta, _ = solve_at(y, X, w, lam)
                oracle = np.sign(c) * np.maximum(np.abs(c) - lam / 2.0, 0.0)
                worst_soft = max(worst_soft,
                                 float(np.max(np.abs(beta - oracle))))
            beta0, _ = solve_at(y, X, w, 0.0)
            sw = np.sqrt(w)[:, None]
            ols, *_ = np.linalg.lstsq(X * sw, y * np.sqrt(w), rcond=None)
            worst_ols = max(worst_ols, float(np.max(np.abs(beta0 - ols))))
        dt = time.monotonic() - t0
        note["msg"] = (
            f"soft-threshold oracle err {worst_soft:.2e} (tol 1e-8); "
            f"lambda=0 vs normal equations err {worst_ols:.2e} (tol 1e-6); "
            f"runtime {dt:.2f}s < 1s"
        )
        assert worst_soft <= 1e-8
        assert worst_ols <= 1e-6
        assert dt < 1.0


def test_02_kkt_on_random_problems():
    with verdict(2) as note:
        t0 = time.monotonic()
        rng = np.random.default_rng(7)
        worst = 0.0
        for i in range(200):
            K = int(rng.integers(6, 41))
            p = int(rng.integers(2, 21))
            X = rng.normal(size=(K, p))
            if i % 3 == 0:
                X[:, -1] = X[:, 0] + rng.normal(scale=1e-6, size=K)
            beta_true = np.zeros(p)
            nz = rng.choice(p, size=min(3, p), replace=False)
            beta_true[nz] = rng.normal(scale=1.5, size=len(nz))
            y = X @ beta_true + rng.normal(scale=0.2, size=K)
            w = rng.uniform(0.5, 4.0, size=K)
            lam_max = 2.0 * float(np.max(np.abs(X.T @ (w * y)))) / K
            lam = lam_max * 10.0 ** rng.uniform(-3.0, -0.3)
            beta, _ = solve_at(y, X, w, lam)
            worst = max(worst, kkt_violation(y, X, w, beta, lam))
        dt = time.monotonic() - t0
        note["msg"] = (
            f"200 problems (p<=20, K<=40), worst KKT violation "
            f"{worst:.2e} (tol 1e-6); runtime {dt:.2f}s < 10s"
        )
        assert worst <= 1e-6
        assert dt < 10.0


def _best_subset_by_bic(y, X, w):
    K, p = X.shape
    best = (np.inf, ())
    for r in range(p + 1):
        for S in itertools.combinations(range(p), r):
            if S:
                coef, *_ = np.linalg.lstsq(X[:, S], y, rcond=None)
                resid = y - X[:, S] @ coef
            else:
                resid = y
            rss = float(w @ resid ** 2)
            if rss <= 0.0:
                bic = -np.inf
            else:
                bic = K * np.log(rss / K) + len(S) * np.log(K)
            if bic < best[0]:
                best = (bic, S)
    return tuple(best[1])


def test_03_bic_agrees_with_exhaustive_search():
    # Large K keeps the chance small that a noise column pays for its
    # ln(K) penalty; the residual disagreements are path artifacts, so
    # the bar is 90%, not 100%.
    with verdict(3) as note:
        agree = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            K, p = 5000, 5
            X = rng.normal(size=(K, p))
            beta = np.zeros(p)
            j = int(rng.choice(p))
            beta[j] = float(rng.choice([-1.0, 1.0])) * rng.uniform(1.5, 2.5)
            sigma = np.sqrt(float(np.var(X @ beta)) / 5.0)
            y = X @ beta + rng.normal(scale=sigma, size=K)
            w = np.ones(K)
            fit = select_by_bic(y, X, w)
            agree += tuple(fit.support) == _best_subset_by_bic(y, X, w)
        note["msg"] = (
            f"support agreement with exhaustive best subset on "
            f"5-variable problems: {agree}/100 (need >= 90)"
        )
        assert agree >= 90


def test_04_ecm_recovery_on_exact_generator():
    with verdict(4) as note:
        rng = np.random.default_rng(20200315)
        truth_beta = np.array([0.7, 0.3, 0.0])
        panel, truth = gen_ecm_panel(rng, n=200, sigma=0.01,
                                     step_range=(-0.35, 0.75), z0_offset=1.5)
        first = lasso_with_beta(truth_beta)
        fit = fit_ecm(panel, first)
        rel_pi = float(np.max(np.abs(fit.pi - truth["pi"])
                              / np.abs(truth["pi"])))
        rel_gamma = abs(fit.gamma - truth["gamma"]) / abs(truth["gamma"])

        panel0, truth0 = gen_ecm_panel(rng, n=200, sigma=0.0,
                                       step_range=(-0.35, 0.75),
                                       z0_offset=1.5)
        first0 = lasso_with_beta(truth_beta)
        fit0 = fit_ecm(panel0, first0)
        err_pi0 = float(np.max(np.abs(fit0.pi - truth0["pi"])))
        err_gamma0 = abs(fit0.gamma - truth0["gamma"])
        note["msg"] = (
            f"sigma=0.01, n=200: relative error pi {rel_pi:.3%}, "
            f"gamma {rel_gamma:.3%} (tol 5%); sigma=0: pi err "
            f"{err_pi0:.1e}, gamma err {err_gamma0:.1e} (tol 1e-8)"
        )
        assert rel_pi <= 0.05
        assert rel_gamma <= 0.05
        assert err_pi0 <= 1e-8
        assert err_gamma0 <= 1e-8


def test_05_recursion_matches_hand_unrolled_example():
    with verdict(5) as note:
        y = np.array([4.0, 4.3, 4.5])
        X = np.array([[4.1], [4.5], [4.8], [5.0], [5.3],
                      [5.5], [5.6], [5.65]])
        fit = EcmFit(
            support=(0,), peer_names=("P0",),
            beta=np.array([0.9]), pi=np.array([0.3]), gamma=-0.4,
            sigma2=0.0, alpha=1.0,
            residuals_u=np.zeros(2),
        )
        panel = make_panel(y, X)
        got = forecast_log(fit, panel, 2)
        y1 = 0.3 * (5.0 - 4.8) - (-0.4) * (0.9 * 4.8) + (1.0 - 0.4) * 4.5
        y2 = 0.3 * (5.3 - 5.0) - (-0.4) * (0.9 * 5.0) + (1.0 - 0.4) * y1
        err = float(np.max(np.abs(got - np.array([y1, y2]))))

        flat = EcmFit(
            support=(0,), peer_names=("P0",),
            beta=np.array([0.9]), pi=np.array([0.0]), gamma=0.0,
            sigma2=0.0, alpha=1.0,
            residuals_u=np.zeros(2),
        )
        rw = forecast_log(flat, panel, 5)
        rw_err = float(np.max(np.abs(rw - y[-1])))
        note["msg"] = (
            f"hand-unrolled 2-step error {err:.1e} (tol 1e-12); "
            f"pi=gamma=0 stays at the seed, deviation {rw_err:.1e}"
        )
        assert err <= 1e-12
        assert rw_err <= 1e-12


def test_06_bias_correction_matches_lognormal_mean():
    with verdict(6) as note:
        s = 0.3
        rng = np.random.default_rng(42)
        panel, _ = gen_ecm_panel(rng, n=100_002, sigma=s, horizon=1)
        first = lasso_with_beta(np.array([0.7, 0.3, 0.0]))
        fit = fit_ecm(panel, first)
        draws = np.exp(fit.residuals_u)
        target = np.exp(s * s / 2.0)
        mc_se = float(np.std(draws, ddof=1) / np.sqrt(draws.size))
        err = abs(fit.alpha - target)
        note["msg"] = (
            f"alpha {fit.alpha:.6f} vs exp(s^2/2) {target:.6f} at "
            f"{draws.size} draws: |err| {err:.2e} <= 3*SE {3 * mc_se:.2e}"
        )
        assert err <= 3.0 * mc_se


def test_07_band_coverage_on_known_generator():
    with verdict(7) as note:
        t0 = time.monotonic()
        reps = 500
        hits = {1: 0, 7: 0, 14: 0}
        rng = np.random.default_rng(20200401)
        for rep in range(reps):
            panel, truth = gen_ecm_panel(rng, n=2000, sigma=0.05,
                                         gamma=-0.8, horizon=14)
            first = select_by_bic(panel.window_y, panel.window_X,
                                  panel.window_weights)
            fit = fit_ecm(panel, first)
            fpath = simulate_bands(fit, panel, 14, n_sims=1000, seed=rep)
            levels = np.exp(truth["y_future"])
            for h in hits:
                if fpath.lower[h - 1] <= levels[h - 1] <= fpath.upper[h - 1]:
                    hits[h] += 1
        cov = {h: 100.0 * c / reps for h, c in hits.items()}
        dt = time.monotonic() - t0
        note["msg"] = (
            f"95% band coverage over {reps} replications: "
            + ", ".join(f"h={h}: {cov[h]:.1f}%" for h in (1, 7, 14))
            + f" (need within [92, 98]); runtime {dt:.0f}s < 120s"
        )
        for h in (1, 7, 14):
            assert 92.0 <= cov[h] <= 98.0
        assert dt < 120.0


def test_08_backtest_ignores_post_origin_data():
    with verdict(8) as note:
        series = parse_long((FIXTURES / "synthetic_ecm_long.csv").read_text())
        target = next(s for s in series if s.name == "Target")
        peers = [s for s in series if s.name != "Target"]
        cfg = BacktestConfig(window=21, horizon=5)
        base = run_backtest(target, peers, cfg)
        pivot = base.origins[len(base.origins) // 2]

        cut = (pivot - target.start).days + 1
        counts = list(target.counts)
        for i in range(cut, len(counts)):
            counts[i] = int(counts[i] * 1.9) + 1234
        tampered = CountrySeries(target.name, target.start, counts)
        other = run_backtest(tampered, peers, cfg)

        checked = 0
        for origin in base.origins:
            if origin <= pivot:
                assert other.matrix[origin] == base.matrix[origin]
                checked += 1
        note["msg"] = (
            f"perturbed the target's data after {pivot.isoformat()} (peers "
            f"enter whole, see calendar_future_peers); forecasts at "
            f"{checked} origins at or before it are bit-identical"
        )
        assert checked >= 1


def test_09_snapshot_backtest_is_in_sane_range():
    with verdict(9) as note:
        text = (FIXTURES / "jhu_confirmed_snapshot_20200415.csv").read_text()
        series = parse_jhu_wide(text)
        target = next(s for s in series if s.name == "Brazil")
        peers = [s for s in series if s.name != "Brazil"]
        cfg = BacktestConfig(
            window=21, horizon=14,
            origin_start=date(2020, 4, 4), origin_end=date(2020, 4, 14),
        )
        report = run_backtest(target, peers, cfg)
        by_h = np.asarray(report.mape_by_horizon)
        early = float(np.nanmean(by_h[:3]))
        late = float(np.nanmean(by_h[9:]))
        note["msg"] = (
            f"cases backtest, K=21, H=14, {len(report.origins)} origins: "
            f"total MAPE {report.mape_total:.2f}% < 15%; by-horizon mean "
            f"{late:.2f}% at h>=10 vs {early:.2f}% at h<=3"
        )
        assert len(report.origins) == 11
        assert report.mape_total < 15.0
        assert late > early


def test_10_forecast_command_is_deterministic(tmp_path):
    with verdict(10) as note:
        args = ["forecast", "--data-path",
                str(FIXTURES / "jhu_confirmed_snapshot_20200415.csv"),
                "--target", "Brazil", "--seed", "11", "--k", "21",
                "--h", "14", "--n-sims", "4000"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        same_table = a.read_bytes() == b.read_bytes()
        da = (tmp_path / "a.csv.diagnostics.json").read_bytes()
        db = (tmp_path / "b.csv.diagnostics.json").read_bytes()
        note["msg"] = (
            f"two forecast runs, same config and seed: table bytes equal "
            f"{same_table}, diagnostics bytes equal {da == db}"
        )
        assert same_table
        assert da == db
