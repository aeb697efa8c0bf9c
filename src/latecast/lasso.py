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


@dataclass
class LassoFit:
    """Selected long-run fit: coefficients, support, and the search path."""

    beta: np.ndarray
    support: tuple[int, ...]
    lambda_: float
    bic: float
    residuals: np.ndarray
    path: list[tuple[float, np.ndarray, float]] = field(repr=False, default_factory=list)

    def to_json(self, peer_names: list[str] | None = None) -> dict:
        names = (
            [peer_names[j] for j in self.support]
            if peer_names is not None
            else list(self.support)
        )
        return {
            "beta": [float(b) for b in self.beta],
            "support": names,
            "lambda": float(self.lambda_),
            "bic": float(self.bic),
        }


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
            raise ValueError(f"y has length {y.shape}, X has {K} rows")
        if w.shape != (K,):
            raise ValueError(f"weights has length {w.shape}, X has {K} rows")
        if np.any(w <= 0):
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

    def to_solving(self, beta: np.ndarray) -> np.ndarray:
        b = np.asarray(beta, dtype=float) * self.scales
        b[~self.active] = 0.0
        return b

    def to_original(self, beta_s: np.ndarray) -> np.ndarray:
        return beta_s / self.scales

    def gradient(self, beta_s: np.ndarray) -> np.ndarray:
        return (2.0 / self.K) * (self.G @ beta_s - self.c)


def _homotopy(prep: _Prepared, lams) -> tuple[np.ndarray, int]:
    """Exact solutions at the decreasing penalties ``lams``, and the knot count.

    Works in half-penalty units mu = lam/2 on the scaled system
    A = G/K, b = c/K, where the correlation rho = b - A beta satisfies
    rho_S = mu * s_S on the active set and |rho_j| <= mu off it.  Along
    a segment beta_S grows by delta * v with A_SS v = s_S as mu falls by
    delta, so every correlation moves linearly and the next knot is the
    smallest step at which an inactive |rho_j| reaches mu or an active
    coefficient reaches zero.  Grid points passed before that knot are
    solved exactly on the current support, in ascending column order.

    Two rules keep the path finite on degenerate designs: a column in
    the span of the active set never enters (its correlation is tied to
    theirs), and a column that just left may not re-enter with its old
    sign on the very next step, where that event would have zero length.
    """
    A = prep.G / prep.K
    b = prep.c / prep.K
    Xw = prep.Xs * np.sqrt(prep.w)[:, None]
    norm2 = np.einsum("tj,tj->j", Xw, Xw)
    mus = np.asarray(lams, dtype=float) / 2.0
    betas = np.zeros((len(mus), prep.p))
    beta = np.zeros(prep.p)
    sign = np.zeros(prep.p)  # +-1 on the active set, 0 elsewhere
    mu = float(np.max(np.abs(b[prep.active]), initial=0.0))
    i = knots = 0
    blocked, blocked_sign = -1, 0.0
    while True:
        S = np.flatnonzero(sign)
        free = prep.active & (sign == 0.0)
        A_SS = A[np.ix_(S, S)]
        if S.size:
            v = np.linalg.lstsq(A_SS, sign[S], rcond=None)[0]
            Q, _ = np.linalg.qr(Xw[:, S])
            R = Xw - Q @ (Q.T @ Xw)
            free &= np.einsum("tj,tj->j", R, R) > _SPAN_TOL * norm2
        else:
            v = np.zeros(0)
        rho = b - A[:, S] @ beta[S]
        a = A[:, S] @ v
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(1.0 - a > 0.0, np.maximum(mu - rho, 0.0) / (1.0 - a), np.inf)
            down = np.where(1.0 + a > 0.0, np.maximum(mu + rho, 0.0) / (1.0 + a), np.inf)
            to_zero = -beta[S] / v
        if blocked >= 0:
            (up if blocked_sign > 0 else down)[blocked] = np.inf
        join = np.where(free, np.minimum(up, down), np.inf)
        drop = np.full(prep.p, np.inf)
        drop[S] = np.where(to_zero > 0.0, to_zero, np.inf)
        j_in, j_out = int(np.argmin(join)), int(np.argmin(drop))
        step = min(join[j_in], drop[j_out])

        while i < len(mus) and mu - mus[i] <= step:
            if S.size:
                rhs = b[S] - mus[i] * sign[S]
                betas[i, S] = np.linalg.lstsq(A_SS, rhs, rcond=None)[0]
            i += 1
        if i == len(mus):
            return betas, knots

        beta[S] += step * v
        mu -= step
        knots += 1
        if drop[j_out] <= join[j_in]:
            blocked, blocked_sign = j_out, sign[j_out]
            beta[j_out] = 0.0
            sign[j_out] = 0.0
        else:
            blocked = -1
            sign[j_in] = 1.0 if up[j_in] <= down[j_in] else -1.0


def _kkt_gap(prep: _Prepared, beta_s: np.ndarray, lam: float) -> float:
    grad = prep.gradient(beta_s)
    worst = 0.0
    for j in np.flatnonzero(prep.active):
        if beta_s[j] != 0.0:
            v = abs(grad[j] + lam * math.copysign(1.0, beta_s[j]))
        else:
            v = max(0.0, abs(grad[j]) - lam)
        if v > worst:
            worst = v
    return worst


def fit_lasso(y, X, weights, lam: float) -> tuple[np.ndarray, int]:
    """Solve the weighted problem at one penalty value.

    Parameters
    ----------
    lam : float
        Penalty. Must be non-negative; 0 gives weighted least squares.

    Returns
    -------
    (beta, knots)
        Coefficients in original coordinates and the number of knots
        the homotopy passed on its way down to ``lam``.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    prep = _Prepared(y, X, weights)
    betas, knots = _homotopy(prep, [lam])
    return prep.to_original(betas[0]), knots


def _grid(prep: _Prepared) -> np.ndarray:
    if not prep.active.any():
        raise EstimationError(
            "design matrix has no usable column (all columns are "
            "constant or zero under the given weights)"
        )
    lam_max = float(np.max(2.0 * np.abs(prep.c[prep.active]) / prep.K))
    if lam_max <= 0.0:
        # response orthogonal to every column: any penalty gives the
        # zero solution, so the grid anchor is arbitrary
        lam_max = 1.0
    return np.geomspace(lam_max, lam_max * _LAMBDA_MIN_RATIO, _N_LAMBDAS)


def lambda_path(y, X, weights) -> np.ndarray:
    """Geometric penalty grid from the all-zero point downward.

    The first entry is the smallest penalty whose solution is the zero
    vector, ``max_j (2/K) |[X'Wy]_j|`` in solving coordinates; the grid
    has 100 points and decays geometrically to 1e-4 times that.
    """
    return _grid(_Prepared(y, X, weights))


def bic(y, X, weights, beta) -> float:
    """K * ln(RSS_w / K) + df * ln(K).

    ``RSS_w`` is the weighted residual sum of squares, ``df`` the number
    of nonzero coefficients, and ``K`` the row count.  The weights enter
    only through RSS_w: the emphasis scheme duplicates information
    rather than adding it, so the sample size stays K.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    w = np.asarray(weights, dtype=float)
    beta = np.asarray(beta, dtype=float)
    K = len(y)
    resid = y - X @ beta
    rss = float(w @ (resid * resid))
    df = int(np.count_nonzero(beta))
    if rss <= 0.0:
        warnings.warn("perfect fit: weighted RSS is zero, BIC is -inf",
                      RuntimeWarning, stacklevel=2)
        return -math.inf
    return K * math.log(rss / K) + df * math.log(K)


def _argmin_bic(bics) -> int:
    """Index of the smallest BIC; ties go to the earliest entry.

    Paths run from large penalties to small, so the earliest tied entry
    is the sparser model.
    """
    best = 0
    for i in range(1, len(bics)):
        if bics[i] < bics[best]:
            best = i
    return best


def select_by_bic(y, X, weights) -> LassoFit:
    """Fit the full penalty path and keep the BIC-minimal entry."""
    prep = _Prepared(y, X, weights)
    lams = _grid(prep)
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)

    betas, _ = _homotopy(prep, lams)
    path: list[tuple[float, np.ndarray, float]] = []
    for lam, beta_s in zip(lams, betas):
        beta = prep.to_original(beta_s)
        path.append((float(lam), beta, bic(y, X, weights, beta)))

    k = _argmin_bic([b for _, _, b in path])
    lam, beta, best_bic = path[k]
    return LassoFit(
        beta=beta,
        support=tuple(int(j) for j in np.flatnonzero(beta)),
        lambda_=lam,
        bic=best_bic,
        residuals=y - X @ beta,
        path=path,
    )


def kkt_violation(y, X, weights, beta, lam: float) -> float:
    """Largest optimality violation of ``beta``, in solving coordinates.

    Zero (up to tolerance) iff ``beta`` solves the problem at ``lam``:
    on-support gradients must equal -lam * sign(beta_j), off-support
    gradients must not exceed lam in magnitude.
    """
    prep = _Prepared(y, X, weights)
    return _kkt_gap(prep, prep.to_solving(np.asarray(beta, float)), lam)
