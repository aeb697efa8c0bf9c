"""Penalized first step: solver, penalty path, and BIC selection.

The solver tests leans on three oracles: the closed-form coordinate
solution on weighted-orthogonal designs, a direct normal-equation solve
at zero penalty, and the KKT conditions of the weighted objective for
everything else.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latecast.errors import EstimationError
from latecast.lasso import (
    bic,
    fit_lasso,
    kkt_violation,
    lambda_path,
    select_by_bic,
    _argmin_bic,
)


def orthonormal_design(rng, n, p, w):
    """X such that X'WX = n * I, so coordinates decouple."""
    M = rng.normal(size=(n, p))
    Q, _ = np.linalg.qr(M)
    return math.sqrt(n) * Q / np.sqrt(w)[:, None]


def random_problem(rng, n, p, collinear=False):
    X = rng.normal(size=(n, p)) + rng.normal(size=(1, p))
    if collinear and p >= 2:
        j = int(rng.integers(1, p))
        X[:, j] = X[:, 0] + 1e-3 * rng.normal(size=n)
    beta = np.zeros(p)
    nsig = min(p, int(rng.integers(1, 4)))
    beta[rng.choice(p, nsig, replace=False)] = rng.uniform(0.5, 2.0, nsig)
    y = X @ beta + 0.05 * rng.normal(size=n)
    w = np.ones(n)
    if n >= 4:
        w[-3:] = [2.0, 3.0, 4.0]
    return y, X, w


def test_orthonormal_oracle():
    # on X'WX = K*I the minimizer is S(c_j/K, lam/2) coordinatewise
    rng = np.random.default_rng(31001)
    for _ in range(30):
        n = int(rng.integers(8, 33))
        p = int(rng.integers(1, min(9, n)))
        w = rng.uniform(0.5, 4.0, n)
        X = orthonormal_design(rng, n, p, w)
        y = rng.normal(size=n) * 2.0
        c = X.T @ (w * y)
        for lam in (0.0, 0.05, 0.4):
            beta, _ = fit_lasso(y, X, w, lam)
            oracle = np.sign(c) * np.maximum(np.abs(c) / n - lam / 2.0, 0.0)
            np.testing.assert_allclose(beta, oracle, atol=1e-8)


def test_zero_penalty_matches_normal_equations():
    rng = np.random.default_rng(31002)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    w = rng.uniform(0.5, 3.0, 12)
    beta, _ = fit_lasso(y, X, w, 0.0)
    direct = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
    np.testing.assert_allclose(beta, direct, atol=1e-6)


def test_negative_penalty_rejected():
    with pytest.raises(ValueError):
        fit_lasso(np.ones(4), np.eye(4), np.ones(4), -0.1)


def test_kkt_conditions_hold():
    rng = np.random.default_rng(31003)
    for trial in range(50):
        n = int(rng.integers(6, 41))
        p = int(rng.integers(1, 21))
        y, X, w = random_problem(rng, n, p, collinear=trial % 3 == 0)
        lams = lambda_path(y, X, w)
        lam = float(rng.choice(lams))
        beta, _ = fit_lasso(y, X, w, lam)
        assert kkt_violation(y, X, w, lam=lam, beta=beta) <= 1e-6


def test_path_head_is_all_zero():
    rng = np.random.default_rng(31005)
    y, X, w = random_problem(rng, 18, 6)
    lams = lambda_path(y, X, w)
    assert len(lams) == 100
    beta, _ = fit_lasso(y, X, w, float(lams[0]))
    assert np.count_nonzero(beta) == 0
    beta, _ = fit_lasso(y, X, w, float(lams[-1]))
    assert np.count_nonzero(beta) > 0


def test_path_anchor_formula():
    rng = np.random.default_rng(31006)
    y, X, w = random_problem(rng, 15, 4)
    n = len(y)
    scaled = X / np.sqrt(np.einsum("t,tj,tj->j", w, X, X) / n)
    lam_max = float(np.max(2.0 * np.abs(scaled.T @ (w * y)) / n))
    lams = lambda_path(y, X, w)
    assert lams[0] == pytest.approx(lam_max, rel=1e-12)
    assert lams[-1] == pytest.approx(lam_max * 1e-4, rel=1e-9)


def test_path_rejects_all_degenerate_design():
    y = np.ones(6)
    X = np.zeros((6, 2))
    with pytest.raises(EstimationError, match="no usable column"):
        lambda_path(y, X, np.ones(6))


def test_column_scaling_invariance():
    rng = np.random.default_rng(31008)
    y, X, w = random_problem(rng, 20, 5)
    fit = select_by_bic(y, X, w)
    for c in (0.01, 3.0, 250.0):
        Xs = X.copy()
        Xs[:, 2] *= c
        other = select_by_bic(y, Xs, w)
        expect = fit.beta.copy()
        expect[2] /= c
        np.testing.assert_allclose(other.beta, expect, atol=1e-8)
        np.testing.assert_allclose(Xs @ other.beta, X @ fit.beta, atol=1e-8)
        assert other.bic == pytest.approx(fit.bic, abs=1e-8)


def test_bic_recomputable_from_fit():
    rng = np.random.default_rng(31009)
    y, X, w = random_problem(rng, 21, 5)
    fit = select_by_bic(y, X, w)
    K = len(y)
    rss = float(w @ (fit.residuals**2))
    df = len(fit.support)
    assert fit.bic == pytest.approx(K * math.log(rss / K) + df * math.log(K),
                                    abs=1e-10)


def test_bic_perfect_fit_warns_minus_inf():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    X = y[:, None]
    with pytest.warns(RuntimeWarning, match="perfect fit"):
        value = bic(y, X, np.ones(4), np.array([1.0]))
    assert value == -math.inf


def test_bic_ties_prefer_larger_penalty():
    assert _argmin_bic([5.0, 5.0, 4.0, 4.0]) == 2
    assert _argmin_bic([1.0, 1.0, 1.0]) == 0


def test_select_reports_support_and_path():
    rng = np.random.default_rng(31010)
    y, X, w = random_problem(rng, 21, 6)
    fit = select_by_bic(y, X, w)
    assert fit.support == tuple(np.flatnonzero(fit.beta))
    assert len(fit.path) == 100
    lams = [lam for lam, _, _ in fit.path]
    assert fit.lambda_ in lams
    bics = [b for _, _, b in fit.path]
    assert fit.bic == min(bics)
    np.testing.assert_allclose(fit.residuals, y - X @ fit.beta, atol=1e-12)


def test_near_collinear_panels_still_solve():
    # log-level curves of aligned epidemics are nearly parallel; the
    # solver has to survive pairwise cosines beyond 0.999
    rng = np.random.default_rng(31013)
    for _ in range(10):
        n = 21
        base = 8.0 + np.cumsum(rng.uniform(0.02, 0.12, n))
        X = np.column_stack([
            base + rng.normal(0.0, 0.03, n) + rng.normal(0.0, 0.4)
            for _ in range(6)
        ])
        y = base + rng.normal(0.0, 0.02, n)
        w = np.ones(n)
        w[-3:] = [2.0, 3.0, 4.0]
        fit = select_by_bic(y, X, w)
        assert kkt_violation(y, X, w, lam=fit.lambda_, beta=fit.beta) <= 1e-6


@settings(max_examples=300, deadline=None, derandomize=True)
@given(K=st.integers(6, 30), p=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-50.0, 50.0).filter(lambda s: abs(s) > 1e-2))
def test_every_path_entry_satisfies_kkt(K, p, seed, scale):
    # weighted designs with p > K allowed, an exact twin of column 0 and
    # a scaled twin of column 1: ties the path must cross without failing
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(K, p)) + rng.normal(size=(1, p))
    X[:, -1] = X[:, 0]
    if p >= 3:
        X[:, -2] = scale * X[:, 1]
    beta = np.zeros(p)
    nz = rng.choice(p, size=min(3, p), replace=False)
    beta[nz] = rng.normal(scale=1.5, size=nz.size)
    y = X @ beta + rng.normal(scale=0.2, size=K)
    w = rng.uniform(0.5, 4.0, size=K)
    fit = select_by_bic(y, X, w)
    for lam, b, _ in fit.path:
        assert kkt_violation(y, X, w, b, lam) <= 1e-6
