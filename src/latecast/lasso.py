"""Penalized long-run regression with a BIC-selected penalty.

Estimates the log-level relation between the target and its peers by
minimizing

    (1/K) * sum_t w_t * (y_t - x_t' beta)^2  +  lam * sum_j |beta_j|

where K is the number of window rows (not the total weight mass).  The
solution is piecewise linear in lam (Osborne, Presnell & Turlach 2000;
Efron, Hastie, Johnstone & Tibshirani 2004), so the solver follows the
LARS-lasso homotopy: starting from the all-zero solution at the top of
a geometric penalty grid, it steps from knot to knot, where one column
joins or leaves the active set, and reads the exact solution at every
grid point on the way.  On an active set S with signs s the optimality
conditions are the linear system

    (G_SS / K) beta_S = c_S / K - (lam/2) * s_S

with G = X'WX and c = X'Wy.  The reported fit is the grid entry with
minimal BIC.  The problem is solved in scaled coordinates where
G_jj/K = 1 and mapped back, so the penalty treats peers symmetrically
regardless of units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import EstimationError

# A column whose weighted residual after projection on the active
# columns keeps less than this share of its squared norm lies in their
# span (an exact or scaled twin of an active peer); entering it would
# make the active system singular.
_SPAN_TOL = 1e-14

# The penalty grid: this many points, geometric from the all-zero point
# down to this share of it.
_N_LAMBDAS = 100
_LAMBDA_MIN_RATIO = 1e-4
_STEPS = np.arange(float(_N_LAMBDAS))

_EPS = float(np.finfo(float).eps)


# The refit's least-squares and QR calls go straight to the LAPACK
# gufuncs that np.linalg.lstsq and np.linalg.qr call, with what those
# wrappers pass them: the same arrays, rcond and errstate, so every bit
# of the result is theirs.  A parity test in tests/test_lasso.py pins
# each helper against its wrapper.
_LAPACK_ERRSTATE = {"invalid": "call", "over": "ignore", "divide": "ignore", "under": "ignore"}


def _raise_lstsq(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _raise_qr(err, flag):
    raise LinAlgError("Incorrect argument found while performing QR factorization")


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(A, b, rcond=None)[0]`` for a float64 ``A`` with at
    least one row and a 1-d or 2-d ``b`` with at least one column."""
    m, n = A.shape
    B = b if b.ndim == 2 else b[:, None]
    with np.errstate(call=_raise_lstsq, **_LAPACK_ERRSTATE):
        x = _umath_linalg.lstsq(A, B, _EPS * max(n, m), signature="ddd->ddid")[0]
    return x if b.ndim == 2 else x[:, 0]


def _qr_raw(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.qr(A, mode="raw")`` with its first array transposed
    back: a factored copy of ``A`` whose upper triangle is R, and tau."""
    a = A.astype(float)
    with np.errstate(call=_raise_qr, **_LAPACK_ERRSTATE):
        tau = _umath_linalg.qr_r_raw(a, signature="d->d")
    return a, tau


def _qr_q(A: np.ndarray) -> np.ndarray:
    """``np.linalg.qr(A)[0]``, the reduced Q, without building R."""
    a, tau = _qr_raw(A)
    with np.errstate(call=_raise_qr, **_LAPACK_ERRSTATE):
        return _umath_linalg.qr_reduced(a, tau, signature="dd->d")


@dataclass
class LassoFit:
    """Selected long-run fit: coefficients, support, and the search path.

    ``knots`` counts the homotopy's active-set changes along the grid.
    The path is held as three arrays over the penalty grid: ``lambdas``,
    the coefficient rows ``betas`` and their ``bics``.
    """

    beta: np.ndarray
    support: tuple[int, ...]
    lambda_: float
    bic: float
    knots: int = 0
    lambdas: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0))
    betas: np.ndarray = field(repr=False, default_factory=lambda: np.zeros((0, 0)))
    bics: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0))

    @property
    def path(self) -> list[tuple[float, np.ndarray, float]]:
        """The grid as ``(lambda, beta, bic)`` tuples, largest penalty first."""
        return [(float(lam), beta, float(b))
                for lam, beta, b in zip(self.lambdas, self.betas, self.bics)]


class _Prepared:
    """Validated problem in solving coordinates, with Gram caches."""

    __slots__ = ("Xs", "w", "scales", "active", "G", "c", "K", "p")

    def __init__(self, y, X, weights):
        y = np.asarray(y, dtype=float)
        X = np.asarray(X, dtype=float)
        w = np.asarray(weights, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        K, p = X.shape
        if y.shape != (K,):
            raise ValueError(f"y has shape {y.shape}, X has {K} rows")
        if w.shape != (K,):
            raise ValueError(f"weights has shape {w.shape}, X has {K} rows")
        if (w <= 0).any():
            raise ValueError("weights must be strictly positive")

        col_mass = np.einsum("t,tj,tj->j", w, X, X)
        self.active = col_mass > 0.0
        self.scales = np.where(self.active, np.sqrt(col_mass / K), 1.0)
        self.Xs = X / self.scales
        self.w = w
        self.G = self.Xs.T @ (w[:, None] * self.Xs)
        self.c = self.Xs.T @ (w * y)
        self.K = K
        self.p = p

    def to_original(self, beta_s: np.ndarray) -> np.ndarray:
        return beta_s / self.scales


def _homotopy(prep: _Prepared, lams) -> tuple[np.ndarray, int]:
    """Exact solutions at the decreasing penalties ``lams``, and the knot count.

    Works in half-penalty units mu = lam/2 on the scaled system
    A = G/K, b = c/K, where the correlation rho = b - A beta satisfies
    rho_S = mu * s_S on the active set and |rho_j| <= mu off it.  Along
    a segment beta_S grows by delta * v with A_SS v = s_S as mu falls by
    delta, so every correlation moves linearly and the next knot is the
    smallest step at which an inactive |rho_j| reaches mu or an active
    coefficient reaches zero.  The grid points passed before that knot
    share the current support, so one multi-right-hand-side solve of
    A_SS gives them all, in ascending column order.

    Two rules keep the path finite on degenerate designs.  First, a
    column in the span of the active set never enters (its correlation
    is tied to theirs), so A_SS stays nonsingular.  Only the column that
    would join next is checked: a Gram-Schmidt step against an
    orthonormal basis of the weighted active columns, done twice for
    accuracy, leaves its residual, and if that keeps less than
    ``_SPAN_TOL`` of the column's squared norm the column is passed over
    and the next earliest one is checked.  The basis is kept in step
    with the active set: a joining column appends its normalized
    residual, and when a column leaves, one QR of the remaining columns
    rebuilds it.  With K active columns the basis spans every column, so
    none can join.  Second, a column that just left may not re-enter
    with its old sign on the very next step, where that event would
    have zero length.

    The ``_lstsq`` solves and the matrix products (``A_S @ beta_S``,
    ``A_S @ v`` and the Gram-Schmidt steps) fix the path's bits;
    ``_lstsq`` and ``_qr_q`` give what ``np.linalg.lstsq`` and
    ``np.linalg.qr`` give, bit for bit.  The direction and the grid
    points stay two solves, since one solve on the stacked right-hand
    sides rounds its columns differently.  The rest is bookkeeping on
    Python floats, which round as float64 does: the exit times and
    their first minimum (a NaN first, as ``np.argmin`` takes it) and
    the grid scan.  The join times fill arrays made once per call.
    """
    A = prep.G / prep.K
    b = prep.c / prep.K
    Xw = prep.Xs * np.sqrt(prep.w)[:, None]
    norm2 = np.einsum("tj,tj->j", Xw, Xw)
    mus = np.asarray(lams, dtype=float) / 2.0
    mu_list = mus.tolist()
    K, p = prep.K, prep.p
    betas = np.zeros((len(mus), p))
    beta = np.zeros(p)
    sign = np.zeros(p)  # +-1 on the active set, 0 elsewhere
    free = prep.active.copy()  # columns that may join
    basis = np.empty((K, K))  # rows [:S.size]: orthonormal, spanning Xw[:, S]
    # row j of the join times holds the steps at which rho_j reaches +mu,
    # (mu - rho_j) / (1 - a_j), and -mu, (mu + rho_j) / (1 + a_j): flat
    # index 2j joins column j with sign +1 and 2j + 1 with sign -1
    flip = np.array([-1.0, 1.0])
    times, gap, rate = np.empty((3, p, 2))
    flat = times.reshape(-1)
    joinable = np.empty((p, 2), dtype=bool)
    mu = float(np.abs(b[prep.active]).max(initial=0.0))
    i = knots = 0
    blocked = -1  # flat join-time index of the zero-length re-entry
    S = sign.nonzero()[0]
    while True:
        A_S = A[:, S]
        A_SS = A_S[S]
        beta_S = beta[S]
        sign_S = sign[S]
        t_out = t_in = math.inf
        if S.size:
            v = _lstsq(A_SS, sign_S)
            # the first positive -beta_k / v_k, as np.argmin takes it: a
            # NaN wins, else the first of equal minima
            k_out = 0
            for k, (beta_k, v_k) in enumerate(zip(beta_S.tolist(), v.tolist())):
                t = -beta_k / v_k if v_k != 0.0 else math.inf
                if t <= 0.0:
                    t = math.inf
                if t < t_out or (math.isnan(t) and not math.isnan(t_out)):
                    k_out, t_out = k, t
        else:
            v = np.zeros(0)
        if S.size < K:
            rho = b - A_S @ beta_S
            a = A_S @ v
            np.multiply(a[:, None], flip, out=rate)
            rate += 1.0
            np.multiply(rho[:, None], flip, out=gap)
            gap += mu
            np.maximum(gap, 0.0, out=gap)
            np.greater(rate, 0.0, out=joinable)
            joinable &= free[:, None]
            times.fill(np.inf)
            np.divide(gap, rate, out=times, where=joinable)
            if blocked >= 0:
                flat[blocked] = np.inf
            Q = basis[:S.size]
            while True:
                f = int(flat.argmin())
                t_in = flat.item(f)
                if not t_in < t_out:
                    break
                x = Xw[:, f >> 1]
                resid = x - (Q @ x) @ Q
                resid -= (Q @ resid) @ Q
                rr = resid @ resid
                if rr > _SPAN_TOL * norm2[f >> 1]:
                    break
                times[f >> 1] = np.inf
        joins = t_in < t_out
        step = t_in if joins else t_out

        n = i
        while n < len(mu_list) and mu - mu_list[n] <= step:
            n += 1
        if S.size and n > i:
            # column k is the right-hand side at mus[i + k]
            rhs = b[S][:, None] - sign_S[:, None] * mus[i:n]
            betas[i:n, S] = _lstsq(A_SS, rhs).T
        i = n
        if i == len(mus):
            return betas, knots

        beta[S] += step * v
        mu -= step
        knots += 1
        if joins:
            blocked = -1
            j = f >> 1
            sign[j] = -1.0 if f & 1 else 1.0
            free[j] = False
            basis[S.size] = resid / math.sqrt(rr)
            S = sign.nonzero()[0]
        else:
            j = int(S[k_out])
            blocked = 2 * j + int(sign[j] < 0.0)
            beta[j] = sign[j] = 0.0
            free[j] = True
            S = sign.nonzero()[0]
            if S.size:
                basis[:S.size] = _qr_q(Xw[:, S]).T


# The grid runs exactly the operations of np.geomspace(lam_max, lam_min,
# _N_LAMBDAS), in its order, without its Python-level set-up, so the
# penalties keep their bits; a property test in tests/test_lasso.py pins
# this against np.geomspace.
def _grid(prep: _Prepared) -> np.ndarray:
    if not prep.active.any():
        raise EstimationError(
            "design matrix has no usable column (all columns are "
            "constant or zero under the given weights)"
        )
    lam_max = float((2.0 * np.abs(prep.c[prep.active]) / prep.K).max())
    if lam_max <= 0.0:
        # response orthogonal to every column: any penalty gives the
        # zero solution, so the grid anchor is arbitrary
        lam_max = 1.0
    lam_min = lam_max * _LAMBDA_MIN_RATIO
    if lam_min == 0.0:
        raise ValueError("Geometric sequence cannot include zero")
    lo = np.log10(lam_max)
    hi = np.log10(lam_min)
    exps = _STEPS * ((hi - lo) / (_N_LAMBDAS - 1))
    exps += lo
    exps[-1] = hi
    lams = np.power(10.0, exps)
    lams[0] = lam_max
    lams[-1] = lam_min
    return lams


def bic(y, X, weights, betas) -> np.ndarray:
    """K * ln(RSS_w / K) + df * ln(K) for each row of ``betas``.

    ``RSS_w`` is the weighted residual sum of squares, ``df`` the number
    of nonzero coefficients, and ``K`` the row count.  The weights enter
    only through RSS_w: the emphasis scheme duplicates information
    rather than adding it, so the sample size stays K.

    ``betas`` is a stack of coefficient vectors of shape ``(n, p)``,
    giving an array of ``n`` values.  A zero RSS scores -inf, with one
    warning per call.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    w = np.asarray(weights, dtype=float)
    B = np.asarray(betas, dtype=float)
    K = len(y)
    resid = y - B @ X.T
    rss = (resid * resid) @ w
    df = (B != 0).sum(axis=1)
    perfect = rss <= 0.0
    if not perfect.any():
        return K * np.log(rss / K) + df * math.log(K)
    warnings.warn("perfect fit: weighted RSS is zero, BIC is -inf",
                  RuntimeWarning, stacklevel=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(perfect, -math.inf, K * np.log(rss / K) + df * math.log(K))


def select_by_bic(y, X, weights) -> LassoFit:
    """Fit the full penalty path and keep the BIC-minimal entry."""
    prep = _Prepared(y, X, weights)
    lams = _grid(prep)
    betas_s, knots = _homotopy(prep, lams)
    betas = prep.to_original(betas_s)
    bics = bic(y, X, weights, betas)

    # argmin returns the first of tied entries: the path runs from large
    # penalties to small, so that is the sparser model
    k = int(bics.argmin())
    beta = betas[k]
    return LassoFit(
        beta=beta,
        support=tuple(int(j) for j in beta.nonzero()[0]),
        lambda_=float(lams[k]),
        bic=float(bics[k]),
        knots=knots,
        lambdas=lams,
        betas=betas,
        bics=bics,
    )


def kkt_violation(y, X, weights, beta, lam: float) -> float:
    """Largest optimality violation of ``beta``, in solving coordinates.

    Zero (up to tolerance) iff ``beta`` solves the problem at ``lam``:
    on-support gradients must equal -lam * sign(beta_j), off-support
    gradients must not exceed lam in magnitude.
    """
    prep = _Prepared(y, X, weights)
    b = np.asarray(beta, dtype=float) * prep.scales
    b[~prep.active] = 0.0
    grad = (2.0 / prep.K) * (prep.G @ b - prep.c)
    gap = np.where(b != 0.0, np.abs(grad + lam * np.sign(b)),
                   np.maximum(np.abs(grad) - lam, 0.0))
    return float(np.max(gap[prep.active], initial=0.0))
