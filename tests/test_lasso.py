"""Penalized first step: solver, penalty path, and BIC selection.

The solver tests lean on three oracles: the closed-form coordinate
solution on weighted-orthogonal designs, a direct normal-equation solve
at zero penalty, and the KKT conditions of the weighted objective for
everything else.  Solves at a single penalty go through the private
homotopy (``helpers.solve_at``); the penalty grid is read from
``select_by_bic(...).path``.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import FIXTURES, reference_homotopy, solve_at
from latecast import lasso
from latecast.align import build_panel
from latecast.errors import EstimationError, LatecastError
from latecast.ingest import parse_jhu_wide
from latecast.lasso import (
    _LAMBDA_MIN_RATIO, _N_LAMBDAS, _grid, _homotopy, _lstsq, _Prepared, _qr_q, _qr_raw,
    bic, kkt_violation, select_by_bic,
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
            beta, _ = solve_at(y, X, w, lam)
            oracle = np.sign(c) * np.maximum(np.abs(c) / n - lam / 2.0, 0.0)
            np.testing.assert_allclose(beta, oracle, atol=1e-8)


def test_zero_penalty_matches_normal_equations():
    rng = np.random.default_rng(31002)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    w = rng.uniform(0.5, 3.0, 12)
    beta, _ = solve_at(y, X, w, 0.0)
    direct = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
    np.testing.assert_allclose(beta, direct, atol=1e-6)


def test_kkt_conditions_hold():
    rng = np.random.default_rng(31003)
    for trial in range(50):
        n = int(rng.integers(6, 41))
        p = int(rng.integers(1, 21))
        y, X, w = random_problem(rng, n, p, collinear=trial % 3 == 0)
        lams = [lam for lam, _, _ in select_by_bic(y, X, w).path]
        lam = float(rng.choice(lams))
        beta, _ = solve_at(y, X, w, lam)
        assert kkt_violation(y, X, w, lam=lam, beta=beta) <= 1e-6


def test_path_head_is_all_zero():
    rng = np.random.default_rng(31005)
    y, X, w = random_problem(rng, 18, 6)
    path = select_by_bic(y, X, w).path
    assert len(path) == 100
    beta, _ = solve_at(y, X, w, path[0][0])
    assert np.count_nonzero(beta) == 0
    beta, _ = solve_at(y, X, w, path[-1][0])
    assert np.count_nonzero(beta) > 0


def test_path_anchor_formula():
    rng = np.random.default_rng(31006)
    y, X, w = random_problem(rng, 15, 4)
    n = len(y)
    scaled = X / np.sqrt(np.einsum("t,tj,tj->j", w, X, X) / n)
    lam_max = float(np.max(2.0 * np.abs(scaled.T @ (w * y)) / n))
    path = select_by_bic(y, X, w).path
    assert path[0][0] == pytest.approx(lam_max, rel=1e-12)
    assert path[-1][0] == pytest.approx(lam_max * 1e-4, rel=1e-9)


def one_cell_problem(lam_max: float) -> _Prepared:
    # K = 1 and a unit column: c = y, so the grid anchor 2|c|/K is lam_max
    # (to within the rounding of halving it below twice the smallest normal)
    return _Prepared(np.array([lam_max / 2.0]), np.ones((1, 1)), np.ones(1))


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(lam_max=st.floats(min_value=np.finfo(float).tiny, max_value=np.finfo(float).max))
def test_grid_equals_geomspace_bit_for_bit(lam_max):
    prep = one_cell_problem(lam_max)
    lam_max = float(2.0 * abs(prep.c[0]) / prep.K)
    expected = np.geomspace(lam_max, lam_max * _LAMBDA_MIN_RATIO, _N_LAMBDAS)
    assert _grid(prep).tobytes() == expected.tobytes()


def test_grid_fallback_anchor_equals_geomspace_bit_for_bit():
    # a response orthogonal to the only column leaves c = 0: anchor 1.0
    prep = _Prepared(np.array([1.0, -1.0]), np.ones((2, 1)), np.ones(2))
    assert prep.c[0] == 0.0
    expected = np.geomspace(1.0, _LAMBDA_MIN_RATIO, _N_LAMBDAS)
    assert _grid(prep).tobytes() == expected.tobytes()


def test_grid_whose_smallest_penalty_underflows_raises_like_geomspace():
    lam_max = 2e-321
    assert lam_max * _LAMBDA_MIN_RATIO == 0.0
    with pytest.raises(ValueError, match="Geometric sequence cannot include zero"):
        np.geomspace(lam_max, lam_max * _LAMBDA_MIN_RATIO, _N_LAMBDAS)
    with pytest.raises(ValueError, match="Geometric sequence cannot include zero"):
        _grid(one_cell_problem(lam_max))


def test_path_rejects_all_degenerate_design():
    y = np.ones(6)
    X = np.zeros((6, 2))
    with pytest.raises(EstimationError, match="no usable column"):
        select_by_bic(y, X, np.ones(6))


@pytest.mark.parametrize("y,X,w,msg", [
    (np.ones(5), np.ones(5), np.ones(5), "X must be a 2-d matrix"),
    (np.ones(4), np.ones((5, 2)), np.ones(5), "y has shape (4,), X has 5 rows"),
    (np.ones(5), np.ones((5, 2)), np.ones(4),
     "weights has shape (4,), X has 5 rows"),
    (np.ones(5), np.ones((5, 2)), np.zeros(5), "weights must be strictly positive"),
], ids=["1d_X", "short_y", "short_weights", "zero_weights"])
def test_select_by_bic_rejects_bad_arguments(y, X, w, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        select_by_bic(y, X, w)


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
    rss = float(w @ (y - X @ fit.beta) ** 2)
    df = len(fit.support)
    assert fit.bic == pytest.approx(K * math.log(rss / K) + df * math.log(K),
                                    abs=1e-10)


def test_bic_perfect_fit_warns_minus_inf():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    X = y[:, None]
    with pytest.warns(RuntimeWarning, match="perfect fit"):
        values = bic(y, X, np.ones(4), np.array([[1.0]]))
    assert values[0] == -math.inf


def test_bic_of_a_stack_equals_per_row_calls():
    rng = np.random.default_rng(31011)
    y, X, w = random_problem(rng, 21, 6)
    stack = np.array([b for _, b, _ in select_by_bic(y, X, w).path])
    stacked = bic(y, X, w, stack)
    assert stacked.shape == (len(stack),)
    per_row = np.array([bic(y, X, w, b[None])[0] for b in stack])
    np.testing.assert_allclose(stacked, per_row, rtol=1e-12)


def test_bic_of_a_stack_warns_perfect_fit_once():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    X = y[:, None]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = bic(y, X, np.ones(4), np.array([[1.0], [0.5], [1.0]]))
    assert [str(c.message) for c in caught] == [
        "perfect fit: weighted RSS is zero, BIC is -inf"]
    assert values[0] == values[2] == -math.inf
    assert math.isfinite(values[1])


def count_calls(monkeypatch, *names) -> list:
    """Wrap each named helper of ``latecast.lasso`` so that every call to
    it appends to the returned list."""
    calls = []
    for name in names:
        helper = getattr(lasso, name)

        def counting(*args, helper=helper):
            calls.append(1)
            return helper(*args)

        monkeypatch.setattr(lasso, name, counting)
    return calls


@pytest.mark.parametrize("K,p", [(21, 6), (21, 30), (12, 3)])
def test_lstsq_calls_bounded_by_knots(K, p, monkeypatch):
    # one solve for the direction and at most one for the grid points of
    # each segment: a per-grid-point solve would need about 100
    rng = np.random.default_rng(31014 + p)
    y, X, w = random_problem(rng, K, p)
    calls = count_calls(monkeypatch, "_lstsq")
    fit = select_by_bic(y, X, w)
    assert fit.knots >= 1
    assert 1 <= len(calls) <= 2 * (fit.knots + 1)
    assert fit.knots == solve_at(y, X, w, fit.path[-1][0])[1]


def test_full_rank_path_never_takes_a_twin():
    # p > K: the active set reaches rank K, after which no column can
    # join, and the first column to enter has an exact and a scaled twin,
    # which lie in the span of the active set once it is in
    for seed in (0, 1, 3):
        rng = np.random.default_rng(seed)
        K, p = 8, 20
        X = rng.normal(size=(K, p))
        X[:, p - 1] = X[:, 0]
        X[:, p - 2] = -2.5 * X[:, 0]
        y = 3.0 * X[:, 0] + X[:, 1:6] @ rng.normal(size=5) + 0.1 * rng.normal(size=K)
        w = rng.uniform(0.5, 4.0, K)
        fit = select_by_bic(y, X, w)
        twins = {0, p - 2, p - 1}
        supports = [set(np.flatnonzero(b).tolist()) for b in fit.betas]
        assert next(s for s in supports if s) <= twins
        assert max(len(s) for s in supports) == K
        for (lam, b, _), s in zip(fit.path, supports):
            assert len(s & twins) <= 1
            assert kkt_violation(y, X, w, b, lam) <= 1e-6


def test_path_that_only_adds_columns_runs_no_qr(monkeypatch):
    # on X'WX = K*I no coefficient returns to zero, so the span basis
    # only grows and is never refactored
    rng = np.random.default_rng(31015)
    n, p = 21, 6
    w = rng.uniform(0.5, 4.0, n)
    X = orthonormal_design(rng, n, p, w)
    y = X @ rng.uniform(0.5, 2.0, p) + 0.1 * rng.normal(size=n)
    calls = count_calls(monkeypatch, "_qr_raw", "_qr_q")
    fit = select_by_bic(y, X, w)
    assert fit.knots == p
    assert calls == []
    # the counter does see the rebuild on a path where a column leaves
    y, X, w = random_problem(np.random.default_rng(31016), 21, 30)
    select_by_bic(y, X, w)
    assert calls


def twin_gram(rng, K, p):
    """A = X'X / K with every other column an exact twin of the one
    before it: symmetric positive semidefinite, of rank about p / 2."""
    X = rng.normal(size=(K, p))
    X[:, 1::2] = X[:, 0:p - 1:2]
    return X.T @ X / K


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_lstsq_helper_equals_numpy_bit_for_bit():
    # the shapes the refit solves: the homotopy's square systems on
    # twin columns, the error-correction step's tall weighted designs,
    # and wide ones with more columns than rows, each against 1-d and
    # 1 to 100 stacked right-hand sides
    rng = np.random.default_rng(31040)
    systems = [twin_gram(rng, 21, p) for p in range(1, 22)]
    systems += [rng.normal(size=(21, q)) * rng.uniform(0.5, 2.0, (21, 1)) for q in range(1, 9)]
    systems += [rng.normal(size=(K, p)) for K, p in ((8, 20), (12, 30), (1, 5), (3, 4))]
    # a singular value of 1e-15 relative lies between eps * min(K, p) and
    # the cut-off eps * max(K, p), so only numpy's rcond drops it
    for K, p in ((21, 3), (3, 21)):
        U = np.linalg.qr(rng.normal(size=(K, 3)))[0]
        V = np.linalg.qr(rng.normal(size=(p, 3)))[0]
        systems.append(U @ np.diag([1.0, 0.5, 1e-15]) @ V.T)
    for A in systems:
        m = A.shape[0]
        rhs = [rng.normal(size=m), np.sign(rng.normal(size=m))]
        rhs += [rng.normal(size=(m, k)) for k in (1, 2, 7, 33, 100)]
        for b in rhs:
            assert_same_bits(_lstsq(A, b), np.linalg.lstsq(A, b, rcond=None)[0])


def test_qr_helpers_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(31041)
    designs = [rng.normal(size=(21, q)) for q in range(1, 22)]
    designs += [rng.normal(size=(K, p)) for K, p in ((8, 20), (12, 30), (1, 5))]
    designs += [np.repeat(rng.normal(size=(21, 3)), 2, axis=1)]
    for A in designs:
        before = A.copy()
        h, tau = np.linalg.qr(A, mode="raw")
        a, tau_got = _qr_raw(A)
        assert_same_bits(a.T, h)
        assert_same_bits(tau_got, tau)
        assert_same_bits(_qr_q(A), np.linalg.qr(A)[0])
        assert_same_bits(A, before)


def test_lstsq_helper_raises_numpy_error_on_nan():
    A = np.full((3, 3), np.nan)
    b = np.ones(3)
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.lstsq(A, b, rcond=None)
    with pytest.raises(np.linalg.LinAlgError) as got:
        _lstsq(A, b)
    assert str(got.value) == str(want.value) == "SVD did not converge in Linear Least Squares"


def test_bic_ties_prefer_larger_penalty():
    # y is weighted-orthogonal to the only column: every path entry is
    # the zero vector with the same BIC, and the first (largest) penalty wins
    X = np.array([[1.0], [-1.0], [0.0]])
    y = np.array([1.0, 1.0, 0.0])
    fit = select_by_bic(y, X, np.ones(3))
    assert len({b for _, _, b in fit.path}) == 1
    assert fit.lambda_ == fit.path[0][0]


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


def test_kkt_violation_detects_non_solutions():
    # K = 16 makes 2/K a power of two, so the zero vector's gradient
    # (2/K)|c_j| and the grid anchor 2|c_j|/K round alike
    rng = np.random.default_rng(31012)
    y, X, w = random_problem(rng, 16, 6)
    fit = select_by_bic(y, X, w)
    half = fit.path[0][0] / 2.0
    assert kkt_violation(y, X, w, np.zeros(6), half) == half
    assert kkt_violation(y, X, w, fit.beta, fit.lambda_) <= 1e-6
    off = fit.beta.copy()
    off[fit.support[0]] *= 1.01
    assert kkt_violation(y, X, w, off, fit.lambda_) > 1e-3


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(K=st.integers(6, 30), p=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-50.0, 50.0).filter(lambda s: abs(s) > 1e-2))
def test_path_entries_equal_single_point_solves(K, p, seed, scale):
    # the draws and designs of test_every_path_entry_satisfies_kkt, whose
    # source stays as it is because hypothesis derives its derandomized
    # examples from it.  select_by_bic solves each homotopy segment's grid
    # points in one multi-right-hand-side call; the reference runs the
    # homotopy down to one grid point and solves it with one right-hand
    # side, so the two differ by rounding only
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
    prep = _Prepared(y, X, w)
    for lam, b, _ in fit.path:
        ref = prep.to_original(_homotopy(prep, [lam])[0][0])
        assert np.max(np.abs(b - ref)) <= 1e-12 * np.max(np.abs(ref), initial=0.0)


def assert_path_equals_reference(y, X, w):
    # the whole grid, and one grid point alone as solve_at runs it
    prep = _Prepared(y, X, w)
    lams = _grid(prep)
    for grid in (lams, lams[-1:]):
        betas, knots = _homotopy(prep, grid)
        ref_betas, ref_knots = reference_homotopy(prep, grid)
        assert betas.tobytes() == ref_betas.tobytes()
        assert knots == ref_knots


def test_homotopy_equals_the_reference_on_the_kkt_family():
    # the KKT test's designs: p > K allowed, an exact twin of column 0, a
    # scaled twin of column 1, and in every other design a zero column
    rng = np.random.default_rng(31017)
    for i in range(100):
        K, p = int(rng.integers(6, 31)), int(rng.integers(2, 41))
        X = rng.normal(size=(K, p)) + rng.normal(size=(1, p))
        X[:, -1] = X[:, 0]
        if p >= 3:
            X[:, -2] = rng.choice([-1.0, 1.0]) * rng.uniform(1e-2, 50.0) * X[:, 1]
        if p >= 4 and i % 2:
            X[:, 2] = 0.0
        beta = np.zeros(p)
        nz = rng.choice(p, size=min(3, p), replace=False)
        beta[nz] = rng.normal(scale=1.5, size=nz.size)
        y = X @ beta + rng.normal(scale=0.2, size=K)
        assert_path_equals_reference(y, X, rng.uniform(0.5, 4.0, size=K))


def test_homotopy_equals_the_reference_on_full_rank_twin_designs():
    # the designs of test_full_rank_path_never_takes_a_twin
    for seed in (0, 1, 3):
        rng = np.random.default_rng(seed)
        K, p = 8, 20
        X = rng.normal(size=(K, p))
        X[:, p - 1] = X[:, 0]
        X[:, p - 2] = -2.5 * X[:, 0]
        y = 3.0 * X[:, 0] + X[:, 1:6] @ rng.normal(size=5) + 0.1 * rng.normal(size=K)
        assert_path_equals_reference(y, X, rng.uniform(0.5, 4.0, K))


@pytest.mark.parametrize("snapshot,threshold", [
    ("jhu_confirmed_snapshot_20200415.csv", 100),
    ("jhu_deaths_snapshot_20200415.csv", 10),
])
def test_homotopy_equals_the_reference_on_snapshot_forecasts(snapshot, threshold):
    # every target of the snapshot that a 14-day forecast on a 21-day
    # window can be fitted for
    series = parse_jhu_wide((FIXTURES / snapshot).read_text())
    fitted = 0
    for target in series:
        peers = [s for s in series if s is not target]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                panel = build_panel(target, peers, threshold=threshold,
                                    max_horizon=14, window=21)
        except LatecastError:
            continue
        assert_path_equals_reference(panel.window_y, panel.window_X, panel.window_weights)
        fitted += 1
    assert fitted >= 20
