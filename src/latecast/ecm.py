"""Error-correction step, recursive forecasts, and simulated bands.

Given the long-run coefficients beta from the penalized first step, the
second step regresses the target's daily log change on the selected
peers' log changes and the lagged equilibrium gap:

    dy_t = dx_t' pi + gamma * (y_{t-1} - x_{t-1}' beta) + u_t

by weighted least squares on the rolling window.  Log forecasts then
follow the recursion

    yhat_{T+h} = dx_{T+h}' pi - gamma * x_{T+h-1}' beta
                 + (1 + gamma) * yhat_{T+h-1}

where the peer values are observed (peers are ahead on the epidemic-age
scale), and level forecasts multiply exp(yhat) by a smearing factor
alpha, the window mean of exp(u), to undo the log-transform bias.
Confidence bands come from re-running the recursion with normal shocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .align import AlignedPanel
from .errors import EstimationError, ForecastError
from .lasso import LassoFit, select_by_bic

DEFAULT_N_SIMS = 10000
DEFAULT_CONFIDENCE = 0.95
# paths drawn per standard_normal call by simulate_bands
DRAW_BLOCK = 512


@dataclass
class EcmFit:
    """Second-step estimates on the selected peers.

    ``support`` indexes columns of the panel's peer matrix; ``beta`` and
    ``pi`` are restricted to those columns.  ``residuals_u`` holds the
    in-sample one-step residuals of the log change over the regression
    rows, so the bias correction ``alpha`` (their plain mean of exp) and
    the shock variance ``sigma2`` can be recomputed from them.
    """

    support: tuple[int, ...]
    peer_names: tuple[str, ...]
    beta: np.ndarray
    pi: np.ndarray
    gamma: float
    sigma2: float
    alpha: float
    window: int
    residuals_u: np.ndarray
    fallback: bool = False

    def to_json(self) -> dict:
        return {
            "support": list(self.peer_names),
            "beta": {n: float(b) for n, b in zip(self.peer_names, self.beta)},
            "pi": {n: float(v) for n, v in zip(self.peer_names, self.pi)},
            "gamma": float(self.gamma),
            "sigma2": float(self.sigma2),
            "alpha": float(self.alpha),
            "window": int(self.window),
            "fallback": bool(self.fallback),
        }


@dataclass
class ForecastPath:
    """Point forecasts and simulated band endpoints, horizons 1..H."""

    horizons: np.ndarray
    y_hat: np.ndarray
    level_hat: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level_median: np.ndarray
    new_hat: np.ndarray
    new_lower: np.ndarray
    new_upper: np.ndarray
    rate_hat: np.ndarray
    rate_lower: np.ndarray
    rate_upper: np.ndarray
    n_sims: int
    seed: int
    confidence: float

    def to_json(self) -> dict:
        out = {
            "horizons": [int(h) for h in self.horizons],
            "n_sims": int(self.n_sims),
            "seed": int(self.seed),
            "confidence": float(self.confidence),
        }
        for name in ("y_hat", "level_hat", "lower", "upper", "level_median",
                     "new_hat", "new_lower", "new_upper",
                     "rate_hat", "rate_lower", "rate_upper"):
            out[name] = [float(v) for v in getattr(self, name)]
        return out


def weighted_least_squares(y, X, weights) -> tuple[np.ndarray, list[int]]:
    """WLS coefficients with collinear columns dropped.

    Solves min_b sum_t w_t (y_t - x_t' b)^2 on the sqrt(w)-scaled
    system.  An unpivoted QR of the scaled design flags column j as
    collinear when |R_jj|, its norm orthogonal to the columns before
    it, is at most max(n, q) * eps times its own norm; so of two twin
    columns the later one goes, and with fewer rows than columns every
    column from index n on goes.  Least squares on the kept columns
    gives their coefficients; dropped columns get zero, and their
    indices are returned so callers can warn.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    sw = np.sqrt(np.asarray(weights, dtype=float))
    Xs = X * sw[:, None]
    n, q = Xs.shape
    R = np.linalg.qr(Xs, mode="r")
    resid_norm = np.zeros(q)
    resid_norm[: min(n, q)] = np.abs(np.diag(R))
    keep = resid_norm > max(n, q) * np.finfo(float).eps * np.linalg.norm(Xs, axis=0)
    coef = np.zeros(q)
    if keep.any():
        coef[keep] = np.linalg.lstsq(Xs[:, keep], y * sw, rcond=None)[0]
    return coef, [int(j) for j in np.flatnonzero(~keep)]


def _weighted_corr(y, x, w) -> float:
    wsum = w.sum()
    ym = (w @ y) / wsum
    xm = (w @ x) / wsum
    cov = w @ ((y - ym) * (x - xm))
    vy = w @ ((y - ym) ** 2)
    vx = w @ ((x - xm) ** 2)
    if vy <= 0.0 or vx <= 0.0:
        return -math.inf
    return float(cov / math.sqrt(vy * vx))


def _fallback_peer(panel: AlignedPanel) -> tuple[int, float]:
    """Best weighted-correlation peer and its no-constant OLS slope."""
    y = panel.window_y
    w = panel.window_weights
    rows = panel.window_slice
    best_j, best_abs = -1, -math.inf
    for j in range(panel.X.shape[1]):
        r = _weighted_corr(y, panel.X[rows, j], w)
        if math.isfinite(r) and abs(r) > best_abs:
            best_j, best_abs = j, abs(r)
    if best_j < 0:
        raise EstimationError(
            "empty support and no peer column varies over the window"
        )
    x = panel.X[rows, best_j]
    denom = float(w @ (x * x))
    if denom <= 0.0:
        raise EstimationError("fallback peer has zero weighted norm")
    return best_j, float(w @ (x * y)) / denom


def fit_ecm(panel: AlignedPanel, lasso: LassoFit) -> EcmFit:
    """Estimate the error-correction equation on the selected peers.

    The regression rows are the window observations whose one-day lag
    exists; with the default setup that is all of them.  If the first
    step selected nothing, the model degrades to the equilibrium gap
    against the single best-correlated peer (slope by ordinary least
    squares, short-run terms fixed at zero) and the fit is marked as a
    fallback.

    The shock variance divides the weighted residual sum of squares by
    rows minus fitted parameters rather than by the row count, to stay
    unbiased on the short windows this method targets.

    Raises
    ------
    EstimationError
        If fewer than two usable rows remain, or no fallback peer
        varies over the window.
    """
    fallback = lasso.support == ()
    if fallback:
        j, slope = _fallback_peer(panel)
        support = (j,)
        beta_sub = np.array([slope])
        n_short = 0
        warnings.warn(
            f"first step selected no peer; falling back to equilibrium gap "
            f"against {panel.peer_names[j]!r}", RuntimeWarning, stacklevel=2,
        )
    else:
        support = tuple(lasso.support)
        beta_sub = np.asarray(lasso.beta, dtype=float)[list(support)]
        n_short = len(support)

    y = panel.y
    Xsub = panel.X[: panel.tau_len, list(support)]
    z = y - Xsub @ beta_sub

    lo = panel.tau_len - panel.window
    rows = np.arange(max(lo, 1), panel.tau_len)
    if len(rows) < 2:
        raise EstimationError(
            f"need at least 2 rows with a lag to fit the error-correction "
            f"step, have {len(rows)}"
        )
    dy = y[rows] - y[rows - 1]
    dx = Xsub[rows] - Xsub[rows - 1]
    z_lag = z[rows - 1]
    w = panel.window_weights[rows - lo]

    # the fallback fixes its short-run term at zero: no dx column
    design = np.column_stack([dx[:, :n_short], z_lag])
    coef, dropped = weighted_least_squares(dy, design, w)
    if dropped:
        labels = [
            f"short-run {panel.peer_names[support[d]]!r}" if d < n_short
            else "equilibrium gap"
            for d in dropped
        ]
        warnings.warn(
            "collinear columns dropped from the error-correction design: "
            + ", ".join(labels), RuntimeWarning, stacklevel=2,
        )
    pi = np.zeros(len(support))
    pi[:n_short] = coef[:n_short]
    gamma = float(coef[n_short])

    resid = dy - design @ coef
    q_eff = design.shape[1] - len(dropped)
    dof = len(rows) - q_eff
    if dof <= 0:
        warnings.warn(
            "no residual degrees of freedom; setting the shock variance "
            "to zero", RuntimeWarning, stacklevel=2,
        )
        sigma2 = 0.0
    else:
        sigma2 = float(w @ (resid * resid)) / dof

    # 1+gamma within sqrt(eps) of +-1 is rounding noise, not instability
    if abs(1.0 + gamma) > 1.0 + math.sqrt(np.finfo(float).eps):
        warnings.warn(
            f"error-correction loading gamma={gamma:.3g} puts the recursion "
            f"coefficient 1+gamma outside [-1, 1]; forecasts may diverge",
            RuntimeWarning, stacklevel=2,
        )

    return EcmFit(
        support=support,
        peer_names=tuple(panel.peer_names[j] for j in support),
        beta=beta_sub,
        pi=pi,
        gamma=gamma,
        sigma2=sigma2,
        # smearing factor: plain mean of exp(residual) over the window
        alpha=float(np.mean(np.exp(resid))),
        window=panel.window,
        residuals_u=resid,
        fallback=fallback,
    )


def _peer_rows_through(fit: EcmFit, panel: AlignedPanel, last_row: int) -> np.ndarray:
    X = panel.X[:, list(fit.support)]
    if X.shape[0] <= last_row:
        raise ForecastError(
            f"peer matrix ends at tau={X.shape[0]}, need tau={last_row + 1} "
            f"(peers: {', '.join(fit.peer_names)})"
        )
    bad = np.argwhere(~np.isfinite(X[: last_row + 1]))
    if bad.size:
        i, j = bad[0]
        raise ForecastError(
            f"peer {fit.peer_names[j]!r} has no usable value at tau={i + 1}"
        )
    return X


def forecast_log(fit: EcmFit, panel: AlignedPanel, H: int) -> np.ndarray:
    """Recursive log-scale forecasts for horizons 1..H.

    The recursion starts from the last observed log level and plugs in
    the peers' observed future values.
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    T = panel.tau_len
    X = _peer_rows_through(fit, panel, T + H - 1)

    out = np.empty(H)
    prev = float(panel.y[T - 1])
    for h in range(1, H + 1):
        dx = X[T + h - 1] - X[T + h - 2]
        long_run = X[T + h - 2] @ fit.beta
        prev = float(dx @ fit.pi) - fit.gamma * float(long_run) + (1.0 + fit.gamma) * prev
        out[h - 1] = prev
    return out


def fit_origin(panel: AlignedPanel) -> tuple[LassoFit, EcmFit, np.ndarray]:
    """Both estimation steps and the log forecasts over ``panel.horizon``:
    the one step that ``forecast``, ``report`` and each backtest origin run."""
    lasso = select_by_bic(panel.window_y, panel.window_X, panel.window_weights)
    fit = fit_ecm(panel, lasso)
    return lasso, fit, forecast_log(fit, panel, panel.horizon)


def _level_overflow(worst: float) -> ForecastError:
    return ForecastError(
        f"level forecast overflows: log value {worst:.2f} exceeds "
        f"the representable range"
    )


def forecast_levels(fit: EcmFit, y_hat) -> np.ndarray:
    """Bias-corrected level forecasts alpha * exp(y_hat)."""
    y_hat = np.asarray(y_hat, dtype=float)
    with np.errstate(over="ignore"):
        levels = fit.alpha * np.exp(y_hat)
    if not np.all(np.isfinite(levels)):
        raise _level_overflow(float(np.max(y_hat)))
    return levels


def _neighbours(n: int, q: float) -> tuple[int, int, float]:
    """The two indices numpy's ``linear`` rule reads at quantile ``q`` of
    ``n`` sorted values, and the weight of the second."""
    v = (n - 1) * q
    # at or past the last index numpy takes the last value twice and
    # weighs it by v - (-1), which keeps the sign of -0.0 at n == 1
    lo, hi = (math.floor(v), math.floor(v) + 1) if v < n - 1 else (-1, -1)
    return lo, hi, v - lo


def _lerp(a, b, t):
    """numpy's ``linear`` interpolation between neighbours, rounded as
    ``np.quantile`` rounds it; on floats or on arrays."""
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)


def _sorted_quantiles(rows: np.ndarray, qs) -> list[np.ndarray]:
    """``np.quantile(rows, qs, axis=1)`` of NaN-free ``rows`` already
    sorted along axis 1, by numpy's linear rule: the same neighbours,
    weights and arithmetic, so the result is bit-identical."""
    out = []
    for q in qs:
        lo, hi, t = _neighbours(rows.shape[1], q)
        out.append(_lerp(rows[:, lo], rows[:, hi], t))
    return out


def _sorted_edge(row: np.ndarray, q: float, offset: float = 0.0) -> float:
    """``np.quantile(row - offset, q)`` of the sorted 1-d ``row``.

    Subtracting a constant keeps the sorted order, so the ``offset`` is
    taken from the two neighbours and the last value only.  The
    interpolation runs on Python floats; a result that is not finite is
    taken again through numpy's arithmetic, so its overflow and
    invalid-value warnings fire as they would on the whole row."""
    lo, hi, t = _neighbours(row.size, q)
    a, b, last = row.item(lo) - offset, row.item(hi) - offset, row.item(-1) - offset
    edge = _lerp(a, b, t)
    if not math.isfinite(edge):
        edge = _lerp(np.array([a]), np.array([b]), t).item()
    # NaN sorts last; numpy then returns that last value
    return last if math.isnan(last) else edge


def simulate_bands(fit: EcmFit, panel: AlignedPanel, H: int,
                   n_sims: int = DEFAULT_N_SIMS, seed: int = 0,
                   confidence: float = DEFAULT_CONFIDENCE) -> ForecastPath:
    """Point forecasts with simulated level bands and derived columns.

    Each of the ``n_sims`` paths is one draw of the point recursion with
    iid N(0, sigma2) shocks added: the shock deviations share its
    (1 + gamma) propagation.  The bias correction is applied inside
    every path so point and band share the same treatment.  Daily-new
    and growth-rate columns are computed per path against the previous
    day's level (anchored at the last observed level).

    Bands are per-horizon empirical quantiles at (1-c)/2 and 1-(1-c)/2,
    plus the level median.  The paths live in one ``(H, n_sims)``
    float64 buffer, one row per horizon: drawn into it a block of paths
    at a time, turned into levels in place and sorted in place.  The
    daily-new values and the level ratios of one horizon at a time fill
    one reused row.  Every edge is read from two neighbours in a sorted
    row by numpy's ``linear`` rule, so the bands equal ``np.quantile``
    of the full path arrays bit for bit.  Each of the 3H rows is sorted
    once.  A growth rate is a level ratio minus 1, which keeps the
    ratios' order, so the ratio row is sorted and 1 is subtracted from
    the neighbours only, before they are interpolated, as numpy would.

    An ``n_sims`` whose buffer cannot be allocated raises
    ``EstimationError``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    y_hat = forecast_log(fit, panel, H)
    level_hat = forecast_levels(fit, y_hat)
    if fit.sigma2 <= 0.0:
        warnings.warn(
            "shock variance is zero; bands collapse to the point path",
            RuntimeWarning, stacklevel=2,
        )
    try:
        paths = np.empty((H, n_sims))
    except (MemoryError, ValueError):
        raise EstimationError(
            f"n_sims={n_sims} paths over H={H} horizons do not fit in "
            f"memory as one {H} x {n_sims} float64 array"
        ) from None
    row = np.empty(n_sims)
    block = np.empty((min(DRAW_BLOCK, n_sims), H))
    rng = np.random.default_rng(seed)
    # drawn as (n_sims, H), which fixes the paths each seed gives: a
    # Generator keeps no state between calls, so consecutive blocks of
    # paths are the one draw's consecutive rows.  The paths are
    # rng.normal(0, sd)'s, which is 0.0 + sd * z over the same stream:
    # the 0.0 only turns a -0.0 (sd == 0) into +0.0, which += y_hat
    # makes alike
    sd = math.sqrt(max(fit.sigma2, 0.0))
    for start in range(0, n_sims, DRAW_BLOCK):
        z = rng.standard_normal(out=block[:n_sims - start])
        z *= sd
        paths[:, start:start + len(z)] = z.T
    for h in range(1, H):
        paths[h] += np.multiply(paths[h - 1], 1.0 + fit.gamma, out=row)
    paths += y_hat[:, None]
    # the largest log value names an overflow, as forecast_levels does;
    # min and max are finite exactly when every level is (NaN propagates)
    worst = float(np.max(paths))
    with np.errstate(over="ignore"):
        np.exp(paths, out=paths)
        paths *= fit.alpha
    if not (math.isfinite(paths.min()) and math.isfinite(paths.max())):
        raise _level_overflow(worst)

    lo_q = (1.0 - confidence) / 2.0
    hi_q = 1.0 - lo_q
    new_lower, new_upper, rate_lower, rate_upper = (np.empty(H) for _ in range(4))
    anchor = float(np.exp(panel.y[panel.tau_len - 1]))
    prev = anchor
    for h in range(H):
        np.subtract(paths[h], prev, out=row)
        row.sort()
        new_lower[h], new_upper[h] = (_sorted_edge(row, q) for q in (lo_q, hi_q))
        # the ratios sort as the growth rates do, since x - 1 keeps order
        # and yields no -0.0; the edges subtract 1 before interpolating
        np.divide(paths[h], prev, out=row)
        row.sort()
        rate_lower[h], rate_upper[h] = (_sorted_edge(row, q, 1.0) for q in (lo_q, hi_q))
        prev = paths[h]
    paths.sort(axis=1)
    lower, level_median, upper = _sorted_quantiles(paths, (lo_q, 0.5, hi_q))

    prev_point = np.concatenate([[anchor], level_hat[:-1]])
    new_hat = level_hat - prev_point
    rate_hat = level_hat / prev_point - 1.0

    return ForecastPath(
        horizons=np.arange(1, H + 1),
        y_hat=y_hat,
        level_hat=level_hat,
        lower=lower,
        upper=upper,
        level_median=level_median,
        new_hat=new_hat,
        new_lower=new_lower,
        new_upper=new_upper,
        rate_hat=rate_hat,
        rate_lower=rate_lower,
        rate_upper=rate_upper,
        n_sims=n_sims,
        seed=seed,
        confidence=confidence,
    )
