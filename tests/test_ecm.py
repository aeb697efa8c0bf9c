"""Second step: error-correction fit, recursion, bias correction, bands."""

import math
import re
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import gen_ecm_panel, lasso_with_beta, make_panel, traced_peak
from latecast.ecm import (
    DRAW_BLOCK,
    EcmFit,
    _sorted_edge,
    _sorted_quantiles,
    fit_ecm,
    forecast_levels,
    forecast_log,
    simulate_bands,
    weighted_least_squares,
)
from latecast.errors import EstimationError, ForecastError


def hand_fit(beta=(1.0,), pi=(0.5,), gamma=-0.1, sigma2=0.0, alpha=1.0):
    beta = np.asarray(beta, float)
    return EcmFit(
        support=tuple(range(len(beta))),
        peer_names=tuple(f"P{j}" for j in range(len(beta))),
        beta=beta,
        pi=np.asarray(pi, float),
        gamma=gamma,
        sigma2=sigma2,
        alpha=alpha,
        window=5,
        residuals_u=np.zeros(4),
    )


def test_wls_matches_normal_equations():
    rng = np.random.default_rng(41001)
    X = rng.normal(size=(9, 3))
    y = rng.normal(size=9)
    w = rng.uniform(0.5, 4.0, 9)
    coef, dropped = weighted_least_squares(y, X, w)
    assert dropped == []
    direct = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
    np.testing.assert_allclose(coef, direct, atol=1e-10)


def test_wls_zeroes_collinear_columns():
    rng = np.random.default_rng(41002)
    X = rng.normal(size=(8, 3))
    X[:, 2] = 2.0 * X[:, 0]
    y = rng.normal(size=8)
    coef, dropped = weighted_least_squares(y, X, np.ones(8))
    # of two twin columns the later one goes
    assert dropped == [2]
    assert coef[2] == 0.0
    # the kept columns still reproduce the least-squares fit
    fitted = X @ coef
    resid = y - fitted
    assert abs(resid @ X[:, 0]) < 1e-8
    assert abs(resid @ X[:, 1]) < 1e-8

    # fewer rows than columns: the columns past the row count go, and
    # the rest fit exactly
    X = rng.normal(size=(3, 5))
    y = rng.normal(size=3)
    w = rng.uniform(0.5, 4.0, 3)
    coef, dropped = weighted_least_squares(y, X, w)
    assert dropped == [3, 4]
    assert np.all(coef[3:] == 0.0)
    np.testing.assert_allclose(X @ coef, y, atol=1e-10)

    # an all-zero design keeps nothing
    coef, dropped = weighted_least_squares(y, np.zeros((3, 2)), w)
    assert dropped == [0, 1]
    assert np.all(coef == 0.0)


def test_two_regressor_hand_system():
    # K=5 window, one selected peer: design is [dx, z_lag], solved by a
    # hand-written 2x2 normal-equation oracle
    y = np.array([4.61, 4.70, 4.83, 4.91, 5.02, 5.11])
    x = np.array([4.80, 4.93, 5.01, 5.15, 5.24, 5.30])
    beta = np.array([0.96])
    panel = make_panel(y, x[:, None], weights=np.array([1.0, 1.0, 2.0, 3.0, 4.0]))
    fit = fit_ecm(panel, lasso_with_beta(beta))

    rows = np.arange(1, 6)
    dy = y[rows] - y[rows - 1]
    dx = x[rows] - x[rows - 1]
    z_lag = (y - 0.96 * x)[rows - 1]
    w = np.array([1.0, 1.0, 2.0, 3.0, 4.0])
    A = np.empty((2, 2))
    A[0, 0] = np.sum(w * dx * dx)
    A[0, 1] = A[1, 0] = np.sum(w * dx * z_lag)
    A[1, 1] = np.sum(w * z_lag * z_lag)
    b = np.array([np.sum(w * dx * dy), np.sum(w * z_lag * dy)])
    expect = np.linalg.solve(A, b)

    assert fit.pi[0] == pytest.approx(expect[0], abs=1e-10)
    assert fit.gamma == pytest.approx(expect[1], abs=1e-10)


def test_recovery_on_exact_generator():
    # the equilibrium gap needs a decaying transient to be identified
    # this precisely; its stationary variance is proportional to sigma
    rng = np.random.default_rng(41003)
    panel, truth = gen_ecm_panel(rng, n=200, p=3, sigma=0.01,
                                 step_range=(-0.35, 0.75), z0_offset=1.5)
    fit = fit_ecm(panel, lasso_with_beta([0.7, 0.3, 0.0]))
    np.testing.assert_allclose(fit.pi, truth["pi"], rtol=0.05)
    assert fit.gamma == pytest.approx(truth["gamma"], rel=0.05)


def test_noiseless_fit_is_exact():
    rng = np.random.default_rng(41004)
    panel, truth = gen_ecm_panel(rng, n=200, p=3, sigma=0.0)
    fit = fit_ecm(panel, lasso_with_beta([0.7, 0.3, 0.0]))
    np.testing.assert_allclose(fit.pi, truth["pi"], atol=1e-8)
    assert fit.gamma == pytest.approx(truth["gamma"], abs=1e-8)
    assert fit.sigma2 == pytest.approx(0.0, abs=1e-16)
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(fit.residuals_u, 0.0, atol=1e-10)


def test_alpha_and_sigma2_recomputable():
    rng = np.random.default_rng(41005)
    panel, _ = gen_ecm_panel(rng, n=40, p=3, sigma=0.05,
                             weights=np.r_[np.ones(37), [2.0, 3.0, 4.0]])
    fit = fit_ecm(panel, lasso_with_beta([0.7, 0.3, 0.0]))
    assert fit.alpha == pytest.approx(
        float(np.mean(np.exp(fit.residuals_u))), abs=1e-12
    )
    w = panel.window_weights[1:]
    q = len(fit.support) + 1
    expect = float(w @ fit.residuals_u**2) / (len(fit.residuals_u) - q)
    assert fit.sigma2 == pytest.approx(expect, abs=1e-12)


def test_collinear_support_column_warns():
    rng = np.random.default_rng(41006)
    panel, _ = gen_ecm_panel(rng, n=30, p=3, sigma=0.01)
    panel.X[:, 1] = panel.X[:, 0]
    with pytest.warns(RuntimeWarning, match="collinear"):
        fit = fit_ecm(panel, lasso_with_beta([0.5, 0.5, 0.0]))
    assert np.count_nonzero(fit.pi) <= 1


def test_zero_gap_column_is_dropped_by_name():
    # a target at exactly twice its peer's log level has a zero gap
    x = np.linspace(4.5, 6.0, 14)
    panel = make_panel(2.0 * x[:8], x[:, None])
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        fit = fit_ecm(panel, lasso_with_beta([2.0]))
    assert [str(w.message) for w in rec] == [
        "collinear columns dropped from the error-correction design: equilibrium gap"]
    assert fit.gamma == 0.0
    assert fit.pi.tolist() == [2.0]


def test_empty_support_falls_back():
    rng = np.random.default_rng(41007)
    panel, _ = gen_ecm_panel(rng, n=30, p=3, sigma=0.01)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        fit = fit_ecm(panel, lasso_with_beta([0.0, 0.0, 0.0]))
    assert any("selected no peer" in str(w.message) for w in rec)
    assert fit.fallback
    assert len(fit.support) == 1
    np.testing.assert_array_equal(fit.pi, [0.0])
    # the degraded fit still produces a usable forecast path
    y_hat = forecast_log(fit, panel, 5)
    assert np.all(np.isfinite(y_hat))


# a panel whose one peer is flat, so that no peer varies over the window
_FLAT_PANEL = make_panel(np.linspace(4.0, 5.0, 6), np.ones((9, 1)))


@pytest.mark.parametrize("call,error,msg", [
    (lambda: fit_ecm(_FLAT_PANEL, lasso_with_beta([0.0])), EstimationError,
     "empty support and no peer column varies over the window"),
    (lambda: forecast_log(hand_fit(), _FLAT_PANEL, 0), ValueError,
     "H must be >= 1"),
    (lambda: simulate_bands(hand_fit(), _FLAT_PANEL, 3, confidence=1.0),
     ValueError, "confidence must be in (0, 1)"),
    (lambda: simulate_bands(hand_fit(), _FLAT_PANEL, 3, n_sims=0), ValueError,
     "n_sims must be >= 1"),
], ids=["fallback_with_no_varying_peer", "no_horizon", "confidence_1",
        "no_sims"])
def test_bad_arguments_raise(call, error, msg):
    with pytest.raises(error, match=f"^{re.escape(msg)}$"):
        call()


def test_unstable_gamma_warns():
    rng = np.random.default_rng(41008)
    panel, _ = gen_ecm_panel(rng, n=12, p=2, beta=(1.0,), pi=(0.0,),
                             gamma=0.5, sigma=0.001)
    with pytest.warns(RuntimeWarning, match="outside"):
        fit = fit_ecm(panel, lasso_with_beta([1.0, 0.0]))
    assert fit.gamma > 0.0

    # a tiny positive loading must not print as gamma=0
    panel, _ = gen_ecm_panel(rng, n=12, p=2, beta=(1.0,), pi=(0.0,),
                             gamma=1e-5, sigma=0.0, z0_offset=1.0)
    with pytest.warns(RuntimeWarning, match="outside") as rec:
        fit_ecm(panel, lasso_with_beta([1.0, 0.0]))
    msg = next(str(r.message) for r in rec if "outside" in str(r.message))
    printed = re.search(r"gamma=(\S+)", msg).group(1)
    assert float(printed) > 0.0


def test_zero_dof_sets_sigma2_zero():
    y = np.array([5.0, 5.1, 5.25])
    x = np.array([5.2, 5.3, 5.5])
    panel = make_panel(y, x[:, None], window=3)
    with pytest.warns(RuntimeWarning, match="degrees of freedom"):
        fit = fit_ecm(panel, lasso_with_beta([1.0]))
    assert fit.sigma2 == 0.0


def test_too_few_rows_raises():
    y = np.array([5.0, 5.1])
    x = np.array([5.2, 5.3])
    panel = make_panel(y, x[:, None], window=1)
    with pytest.raises(EstimationError, match="at least 2 rows"):
        fit_ecm(panel, lasso_with_beta([1.0]))


def test_forecast_matches_hand_unrolled_recursion():
    y = np.array([4.0, 4.2, 4.45, 4.6])
    x = np.array([4.5, 4.7, 4.9, 5.05, 5.20, 5.30])
    panel = make_panel(y, x[:, None])
    fit = hand_fit(beta=(1.0,), pi=(0.5,), gamma=-0.1)

    got = forecast_log(fit, panel, 2)
    h1 = 0.5 * (x[4] - x[3]) - (-0.1) * (1.0 * x[3]) + 0.9 * y[3]
    h2 = 0.5 * (x[5] - x[4]) - (-0.1) * (1.0 * x[4]) + 0.9 * h1
    np.testing.assert_allclose(got, [h1, h2], atol=1e-12)


def test_forecast_random_walk_degeneracy():
    y = np.array([4.0, 4.2, 4.45, 4.6])
    x = np.linspace(4.5, 5.5, 9)
    panel = make_panel(y, x[:, None])
    fit = hand_fit(beta=(0.7,), pi=(0.0,), gamma=0.0)
    got = forecast_log(fit, panel, 5)
    np.testing.assert_allclose(got, np.full(5, y[-1]), atol=1e-14)


def test_forecast_full_correction_forgets_seed():
    # gamma = -1 makes the recursion coefficient (1 + gamma) zero
    y = np.array([4.0, 4.2, 4.45, 4.6])
    x = np.linspace(4.5, 5.5, 9)
    panel = make_panel(y, x[:, None])
    fit = hand_fit(beta=(0.7,), pi=(0.3,), gamma=-1.0)
    got = forecast_log(fit, panel, 3)
    panel2 = make_panel(np.r_[y[:-1], 9.9], x[:, None])
    other = forecast_log(fit, panel2, 3)
    np.testing.assert_allclose(got, other, atol=1e-14)


def test_one_step_identity():
    rng = np.random.default_rng(41009)
    panel, _ = gen_ecm_panel(rng, n=30, p=3, sigma=0.02)
    fit = fit_ecm(panel, lasso_with_beta([0.7, 0.3, 0.0]))
    T = panel.tau_len
    Xs = panel.X[:, list(fit.support)]
    dx = Xs[T] - Xs[T - 1]
    manual = (float(dx @ fit.pi) - fit.gamma * float(Xs[T - 1] @ fit.beta)
              + (1.0 + fit.gamma) * panel.y[T - 1])
    assert forecast_log(fit, panel, 1)[0] == pytest.approx(manual, abs=1e-12)


def test_forecast_linear_in_seed():
    rng = np.random.default_rng(41010)
    x = np.linspace(4.5, 6.0, 16)
    y = np.linspace(4.0, 5.0, 10)
    for _ in range(3):
        gamma = float(rng.uniform(-1.5, -0.1))
        fit = hand_fit(beta=(rng.uniform(0.5, 1.5),),
                       pi=(rng.uniform(-0.5, 0.8),), gamma=gamma)
        delta = 0.37
        base = forecast_log(fit, make_panel(y, x[:, None]), 6)
        bumped = forecast_log(
            fit, make_panel(np.r_[y[:-1], y[-1] + delta], x[:, None]), 6
        )
        slopes = (bumped - base) / delta
        np.testing.assert_allclose(
            slopes, (1.0 + gamma) ** np.arange(1, 7), atol=1e-10
        )


def test_forecast_needs_peer_rows():
    y = np.linspace(4.0, 5.0, 8)
    x = np.linspace(4.5, 5.5, 9)  # only one day of overhang
    panel = make_panel(y, x[:, None])
    fit = hand_fit()
    with pytest.raises(ForecastError, match="P0"):
        forecast_log(fit, panel, 3)


def test_forecast_rejects_nan_peer_value():
    y = np.linspace(4.0, 5.0, 8)
    x = np.linspace(4.5, 5.5, 12).copy()
    x[9] = np.nan
    panel = make_panel(y, x[:, None])
    fit = hand_fit()
    with pytest.raises(ForecastError, match="tau=10"):
        forecast_log(fit, panel, 4)


def test_levels_identity_and_scaling():
    fit = hand_fit(alpha=1.0)
    np.testing.assert_allclose(forecast_levels(fit, [0.0]), [1.0])
    fit2 = hand_fit(alpha=2.0)
    np.testing.assert_allclose(forecast_levels(fit2, [math.log(100.0)]),
                               [200.0])


def test_levels_monotone_in_log_forecast():
    fit = hand_fit(alpha=1.3)
    y_hat = np.linspace(2.0, 6.0, 20)
    levels = forecast_levels(fit, y_hat)
    assert np.all(np.diff(levels) > 0)


def test_levels_overflow_reports_log_value():
    fit = hand_fit(alpha=1.0)
    with pytest.raises(ForecastError, match="1000"):
        forecast_levels(fit, [5.0, 1000.0])


def test_simulation_is_deterministic():
    rng = np.random.default_rng(41013)
    panel, _ = gen_ecm_panel(rng, n=30, p=3, sigma=0.03)
    fit = fit_ecm(panel, lasso_with_beta([0.7, 0.3, 0.0]))
    a = simulate_bands(fit, panel, 7, n_sims=1500, seed=99)
    b = simulate_bands(fit, panel, 7, n_sims=1500, seed=99)
    for name in ("y_hat", "level_hat", "lower", "upper", "level_median",
                 "new_hat", "new_lower", "new_upper",
                 "rate_hat", "rate_lower", "rate_upper"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = simulate_bands(fit, panel, 7, n_sims=1500, seed=100)
    assert not np.array_equal(a.lower, c.lower)


def test_zero_variance_bands_collapse():
    # an exactly-zero shock variance only arises from degenerate fits
    # (noiseless regressions leave rounding-level residuals), so build
    # the fit by hand to exercise the degenerate contract
    y = np.linspace(4.0, 5.0, 8)
    x = np.linspace(4.5, 6.0, 14)
    panel = make_panel(y, x[:, None])
    fit = hand_fit(beta=(0.8,), pi=(0.4,), gamma=-0.3, sigma2=0.0, alpha=1.0)
    with pytest.warns(RuntimeWarning, match="collapse"):
        path = simulate_bands(fit, panel, 5, n_sims=1000, seed=1)
    np.testing.assert_allclose(path.lower, path.level_hat, rtol=1e-12)
    np.testing.assert_allclose(path.upper, path.level_hat, rtol=1e-12)
    np.testing.assert_allclose(path.level_median, path.level_hat, rtol=1e-12)


def reference_bands(fit, panel, H, n_sims, seed, confidence) -> dict:
    """The band fields by the plain algorithm: paths held (n_sims, H),
    daily-new and growth-rate against a concatenated previous day, and
    every edge from ``np.quantile`` over axis 0."""
    y_hat = forecast_log(fit, panel, H)
    level_hat = forecast_levels(fit, y_hat)
    rng = np.random.default_rng(seed)
    log_paths = rng.normal(0.0, math.sqrt(max(fit.sigma2, 0.0)), size=(n_sims, H))
    for h in range(1, H):
        log_paths[:, h] += (1.0 + fit.gamma) * log_paths[:, h - 1]
    log_paths += y_hat
    level_paths = forecast_levels(fit, log_paths)
    anchor = float(np.exp(panel.y[panel.tau_len - 1]))
    prev_paths = np.concatenate(
        [np.full((n_sims, 1), anchor), level_paths[:, :-1]], axis=1
    )
    new_paths = level_paths - prev_paths
    rate_paths = level_paths / prev_paths - 1.0
    prev_point = np.concatenate([[anchor], level_hat[:-1]])
    lo_q = (1.0 - confidence) / 2.0
    hi_q = 1.0 - lo_q
    lower, level_median, upper = np.quantile(level_paths, [lo_q, 0.5, hi_q], axis=0)
    new_lower, new_upper = np.quantile(new_paths, [lo_q, hi_q], axis=0)
    rate_lower, rate_upper = np.quantile(rate_paths, [lo_q, hi_q], axis=0)
    return {
        "horizons": np.arange(1, H + 1), "y_hat": y_hat, "level_hat": level_hat,
        "lower": lower, "upper": upper, "level_median": level_median,
        "new_hat": level_hat - prev_point, "new_lower": new_lower,
        "new_upper": new_upper, "rate_hat": level_hat / prev_point - 1.0,
        "rate_lower": rate_lower, "rate_upper": rate_upper,
    }


def assert_bands_equal_reference(path, ref):
    for name, expected in ref.items():
        got = getattr(path, name)
        assert got.dtype == expected.dtype, name
        # bit for bit, so -0.0 against 0.0 would show too
        assert got.tobytes() == expected.tobytes(), name


# paths are drawn DRAW_BLOCK at a time: around one block the last block
# is short, full, or a single path
N_SIMS_CASES = [1, 2, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 999, 10_000]


@pytest.mark.parametrize("n_sims", N_SIMS_CASES)
@pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.999])
def test_bands_equal_the_reference_algorithm(n_sims, confidence):
    rng = np.random.default_rng(41018)
    panel, _ = gen_ecm_panel(rng, n=30, p=3, sigma=0.03, horizon=9)
    fit = fit_ecm(panel, lasso_with_beta([0.7, 0.3, 0.0]))
    for H in (9, 1):
        for seed in (0, 7, 19):
            path = simulate_bands(fit, panel, H, n_sims=n_sims, seed=seed,
                                  confidence=confidence)
            assert (path.n_sims, path.seed, path.confidence) == (n_sims, seed, confidence)
            assert_bands_equal_reference(
                path, reference_bands(fit, panel, H, n_sims, seed, confidence))


@pytest.mark.parametrize("n_sims", N_SIMS_CASES)
def test_zero_variance_bands_equal_the_reference_algorithm(n_sims):
    # the hand fit of test_zero_variance_bands_collapse
    y = np.linspace(4.0, 5.0, 8)
    x = np.linspace(4.5, 6.0, 14)
    panel = make_panel(y, x[:, None])
    fit = hand_fit(beta=(0.8,), pi=(0.4,), gamma=-0.3, sigma2=0.0, alpha=1.0)
    for H in (5, 1):
        with pytest.warns(RuntimeWarning, match="collapse"):
            path = simulate_bands(fit, panel, H, n_sims=n_sims, seed=1)
        assert_bands_equal_reference(path, reference_bands(fit, panel, H, n_sims, 1, 0.95))


@pytest.mark.parametrize("alpha", [1.0, -1.0])
def test_overflowing_paths_raise_the_reference_message(alpha):
    # the point path stays near e^5, but shocks of sd 300 carry some
    # simulated log levels past the largest finite exp; no fit gives a
    # negative alpha, but one turns the overflow into -inf levels
    y = np.linspace(4.0, 5.0, 8)
    x = np.linspace(4.5, 6.0, 14)
    panel = make_panel(y, x[:, None])
    fit = hand_fit(beta=(0.8,), pi=(0.4,), gamma=-0.3, sigma2=9e4, alpha=alpha)
    with pytest.raises(ForecastError) as expected:
        reference_bands(fit, panel, 5, 1000, 3, 0.95)
    with pytest.raises(ForecastError) as got:
        simulate_bands(fit, panel, 5, n_sims=1000, seed=3)
    assert str(got.value) == str(expected.value)
    assert re.fullmatch(r"level forecast overflows: log value \d+\.\d\d exceeds "
                        r"the representable range", str(got.value))


DIV_ZERO = "divide by zero encountered in divide"
DIV_INVALID = "invalid value encountered in divide"
DIV_OVERFLOW = "overflow encountered in divide"
SUB_INVALID = "invalid value encountered in subtract"


@pytest.mark.parametrize("y_last,peer,expected", [
    # levels of about e^-745 with shocks of sd 1 underflow to exactly 0
    # on many paths; from day two on the growth rows divide by them, so
    # they hold x / 0 = inf and 0 / 0 = NaN
    (-744.0, -745.0, [DIV_ZERO, DIV_INVALID] * 4),
    # the anchor underflows too: day one divides by zero, its rate edges
    # meet inf - inf, and so does the point growth rate
    (-800.0, -745.0, [DIV_ZERO, DIV_INVALID, SUB_INVALID]
     + [DIV_ZERO, DIV_INVALID] * 4 + [DIV_ZERO]),
    # levels near e^10 over an anchor of e^-700: day one's ratios overflow
    (-700.0, 10.0, [DIV_OVERFLOW, SUB_INVALID, DIV_OVERFLOW]),
    # the anchor overflows: day one's daily-new values are all -inf
    (710.0, 10.0, ["overflow encountered in exp", SUB_INVALID, SUB_INVALID]),
])
def test_degenerate_levels_equal_the_reference_algorithm(y_last, peer, expected):
    # gamma = -1 makes the point path the peer's log values, whatever the
    # target's last value, which sets the day-one anchor alone
    H = 5
    panel = make_panel(np.linspace(y_last - 1.0, y_last, 8), np.full((8 + H, 1), peer))
    fit = hand_fit(beta=(1.0,), pi=(0.0,), gamma=-1.0, sigma2=1.0, alpha=1.0)
    for n_sims, seed in ((1000, 1), (DRAW_BLOCK + 1, 2), (2, 3)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            path = simulate_bands(fit, panel, H, n_sims=n_sims, seed=seed)
        if n_sims == 1000:
            assert [str(w.message) for w in caught] == expected
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = reference_bands(fit, panel, H, n_sims, seed, 0.95)
        # NaN edges by position: a sort writes the NaNs it moves to the end
        # as numpy's NaN, while np.quantile keeps the sign 0 / 0 gave them
        for name, want in ref.items():
            got, nan = getattr(path, name), np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), name
            assert got[~nan].tobytes() == want[~nan].tobytes(), name


def test_bands_hold_one_path_buffer():
    # the (H, n_sims) paths are the only array of their size, so the
    # peak stays within a quarter of one buffer above it
    rng = np.random.default_rng(41019)
    panel, _ = gen_ecm_panel(rng, n=30, p=3, sigma=0.03, horizon=14)
    fit = fit_ecm(panel, lasso_with_beta([0.7, 0.3, 0.0]))
    peak = traced_peak(lambda: simulate_bands(fit, panel, 14, n_sims=10_000, seed=1))
    assert peak <= 1.25 * 14 * 10_000 * 8


# integer values give ties, and -0.0 against 0.0 ties that compare equal
QUANTILE_CELLS = np.array([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0,
                           math.inf, -math.inf])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.integers(1, 60), H=st.integers(1, 5),
       confidence=st.floats(0.001, 0.999), seed=st.integers(0, 2**32 - 1))
def test_sorted_quantiles_equal_np_quantile(n, H, confidence, seed):
    # simulate_bands raises on a level that is not finite before it reads
    # the level rows, so they hold no NaN
    rng = np.random.default_rng(seed)
    x = rng.choice(QUANTILE_CELLS, size=(n, H))
    lo_q = (1.0 - confidence) / 2.0
    qs = (lo_q, 0.5, 1.0 - lo_q)
    # inf - inf in the interpolation is NaN, in both
    with np.errstate(invalid="ignore"):
        expected = np.quantile(x, qs, axis=0)
        got = _sorted_quantiles(np.sort(x.T, axis=1), qs)
    assert np.array_equal(np.array(got), expected, equal_nan=True)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.integers(1, 60), confidence=st.floats(0.001, 0.999),
       seed=st.integers(0, 2**32 - 1), nan=st.booleans(),
       c=st.sampled_from([1.0, 0.5, 3.0, 1e-300, 1e300]))
def test_sorted_edge_equals_np_quantile(n, confidence, seed, nan, c):
    # the row itself and the row less an offset, as simulate_bands reads
    # its growth rows, on the cells of test_sorted_quantiles_equal_np_quantile
    rng = np.random.default_rng(seed)
    x = rng.choice(QUANTILE_CELLS, size=n)
    if nan:
        x[rng.integers(n)] = math.nan
    lo_q = (1.0 - confidence) / 2.0
    row = np.sort(x)
    with np.errstate(invalid="ignore", over="ignore"):
        for offset, shifted in ((None, x), (c, x - c)):
            for q in (lo_q, 0.5, 1.0 - lo_q):
                expected = np.quantile(shifted, q)
                got = _sorted_edge(row, q) if offset is None else _sorted_edge(row, q, offset=offset)
                assert type(got) is float
                assert np.array_equal(got, expected, equal_nan=True)


def test_sorted_edge_warns_as_numpy_does():
    # inf - inf between the neighbours is numpy's arithmetic and warning
    row = np.array([1.0, 2.0, math.inf])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert math.isnan(_sorted_edge(row, 0.9))
        assert _sorted_edge(row, 0.25) == 1.5
    assert [str(w.message) for w in caught] == ["invalid value encountered in subtract"]


def test_sorted_quantiles_keep_the_sign_of_a_single_zero():
    # with one value numpy weighs the last value by 1 and returns -0.0
    rows = np.array([[-0.0], [0.0]])
    for q, expected in zip(_sorted_quantiles(rows, (0.025, 0.5, 0.975)),
                           np.quantile(rows.T, (0.025, 0.5, 0.975), axis=0)):
        assert np.signbit(q).tolist() == np.signbit(expected).tolist() == [True, False]


def test_band_width_grows_with_horizon():
    rng = np.random.default_rng(41015)
    for _ in range(50):
        gamma = float(rng.uniform(-0.9, -0.1))
        sigma = float(rng.uniform(0.01, 0.05))
        panel, _ = gen_ecm_panel(rng, n=40, p=2, beta=(1.0,), pi=(0.4,),
                                 gamma=gamma, sigma=sigma, horizon=8)
        fit = fit_ecm(panel, lasso_with_beta([1.0, 0.0]))
        if fit.sigma2 <= 0.0:
            continue
        path = simulate_bands(fit, panel, 8, n_sims=20_000, seed=7)
        width = path.upper - path.lower
        # allow a whisker of quantile noise on top of monotone growth
        assert np.all(np.diff(width) >= -1e-2 * width[:-1])
        assert np.all(path.lower <= path.level_median)
        assert np.all(path.level_median <= path.upper)
        assert np.all(path.level_hat > 0)


def test_bands_match_closed_form_gaussian_quantiles():
    # The shock recursion is linear and Gaussian, so the log path at
    # horizon h is N(y_hat_h, v_h) with v_h = sigma2 * sum_{i<h}
    # (1+gamma)^(2i), and the log growth rate from h-1 to h is
    # N(mu_h, gamma^2 v_{h-1} + sigma2), where the first step starts from
    # the observed level (no alpha).  Level and growth-rate band edges
    # are therefore closed-form Gaussian quantiles; each simulated edge
    # must sit within 5 standard errors of an empirical quantile,
    # sqrt(q(1-q)/n) / phi(z_q) in sd units.  Daily-new bands are a
    # difference of correlated lognormals and have no such oracle.
    rng = np.random.default_rng(41016)
    n_sims, H, conf = 10_000, 8, 0.9
    lo_q, hi_q = (1.0 - conf) / 2.0, (1.0 + conf) / 2.0
    std = NormalDist()
    worst = 0.0
    for i in range(30):
        panel, _ = gen_ecm_panel(rng, n=40, p=2, beta=(1.0,), pi=(0.4,),
                                 gamma=float(rng.uniform(-0.9, -0.05)),
                                 sigma=float(rng.uniform(0.01, 0.05)),
                                 horizon=H)
        fit = fit_ecm(panel, lasso_with_beta([1.0, 0.0]))
        path = simulate_bands(fit, panel, H, n_sims=n_sims, seed=i,
                              confidence=conf)
        g, s2 = fit.gamma, fit.sigma2
        v = s2 * np.cumsum((1.0 + g) ** (2 * np.arange(H)))
        v_prev = np.r_[0.0, v[:-1]]
        mu = np.diff(np.r_[panel.y[-1] - math.log(fit.alpha), path.y_hat])
        levels = np.array([path.lower, path.level_median, path.upper])
        z_level = (np.log(levels / fit.alpha) - path.y_hat) / np.sqrt(v)
        rates = np.array([path.rate_lower, path.rate_upper])
        z_rate = (np.log1p(rates) - mu) / np.sqrt(g * g * v_prev + s2)
        for z, q in zip([*z_level, *z_rate], [lo_q, 0.5, hi_q, lo_q, hi_q]):
            z_q = std.inv_cdf(q)
            se = math.sqrt(q * (1.0 - q) / n_sims) / std.pdf(z_q)
            worst = max(worst, float(np.max(np.abs(z - z_q))) / se)
    assert worst <= 5.0, f"worst band deviation {worst:.2f} standard errors"


def test_serialization_uses_peer_names():
    rng = np.random.default_rng(41017)
    panel, _ = gen_ecm_panel(rng, n=30, p=3, sigma=0.02)
    fit = fit_ecm(panel, lasso_with_beta([0.7, 0.3, 0.0]))
    blob = fit.to_json()
    assert blob["support"] == ["P0", "P1"]
    assert set(blob["beta"]) == {"P0", "P1"}
    path = simulate_bands(fit, panel, 4, n_sims=1000, seed=5)
    out = path.to_json()
    assert out["horizons"] == [1, 2, 3, 4]
    assert all(isinstance(v, float) for v in out["level_hat"])
