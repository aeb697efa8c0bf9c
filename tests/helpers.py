"""Builders shared across the test modules.

Panels are built directly from float arrays here, bypassing ingestion,
so estimator tests are not polluted by integer rounding of counts.
"""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import numpy as np

from latecast.align import AlignedPanel, CountrySeries, inflation_weights
from latecast.lasso import LassoFit

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_series(name: str, start: date, counts) -> CountrySeries:
    return CountrySeries(name=name, start=start, counts=[int(c) for c in counts])


def make_panel(y, X, weights=None, window=None, horizon=None,
               start=date(2020, 3, 1), peer_lead_days=120,
               threshold=100) -> AlignedPanel:
    """AlignedPanel straight from arrays.

    ``X`` may extend beyond ``len(y)``; the overhang is the forecast
    horizon.  Peers are dated far ahead of the target by default so the
    calendar-leakage check stays quiet unless a test wants otherwise.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    T = len(y)
    p = X.shape[1]
    if horizon is None:
        horizon = X.shape[0] - T
    if window is None:
        window = T
    if weights is None:
        weights = np.ones(T)
    names = [f"P{j}" for j in range(p)]
    return AlignedPanel(
        target_name="T",
        peer_names=names,
        tau_len=T,
        y=y,
        X=X,
        weights=np.asarray(weights, dtype=float),
        threshold=threshold,
        window=window,
        horizon=horizon,
        start_date=start,
        end_date=start + timedelta(days=T - 1),
        peer_start_dates={n: start - timedelta(days=peer_lead_days) for n in names},
    )


def lasso_with_beta(beta, y=None, X=None) -> LassoFit:
    """A first-step fit carrying externally chosen coefficients."""
    beta = np.asarray(beta, dtype=float)
    if y is not None and X is not None:
        resid = np.asarray(y, float) - np.asarray(X, float)[:, : len(beta)] @ beta
    else:
        resid = np.zeros(0)
    return LassoFit(
        beta=beta,
        support=tuple(int(j) for j in np.flatnonzero(beta)),
        lambda_=0.0,
        bic=0.0,
        residuals=resid,
    )


def gen_ecm_panel(rng, n=60, p=3, beta=(0.7, 0.3), pi=(0.4, 0.2),
                  gamma=-0.35, sigma=0.01, horizon=14, weights=None,
                  step_range=(0.005, 0.10), z0_offset=0.0):
    """Panel generated exactly from the error-correction relation.

    The first ``len(beta)`` peers carry the long-run signal; any extra
    peers are decoys.  Peer increments are drawn iid so the short-run
    design is well conditioned.  ``z0_offset`` starts the target that
    far from equilibrium; the decaying transient gives the gap regressor
    variation beyond its small stationary wiggle, which recovery tests
    need because the stationary gap variance scales with ``sigma``
    itself.  Returns the panel and a dict with the true parameters, the
    drawn shocks, and the target's true future levels over the horizon
    (generated with the same relation and fresh shocks from the same
    generator).
    """
    beta = np.asarray(beta, dtype=float)
    pi = np.asarray(pi, dtype=float)
    k = len(beta)
    total = n + horizon
    X = np.empty((total, p))
    for j in range(p):
        level = 7.0 + 0.3 * rng.standard_normal()
        X[:, j] = level + np.cumsum(rng.uniform(*step_range, total))

    shocks = sigma * rng.standard_normal(total) if sigma > 0 else np.zeros(total)
    y_full = np.empty(total)
    y_full[0] = X[0, :k] @ beta + z0_offset
    for t in range(1, total):
        dx = X[t, :k] - X[t - 1, :k]
        z_lag = y_full[t - 1] - X[t - 1, :k] @ beta
        y_full[t] = y_full[t - 1] + dx @ pi + gamma * z_lag + shocks[t]

    panel = make_panel(y_full[:n], X, weights=weights, horizon=horizon)
    truth = {
        "beta": beta,
        "pi": pi,
        "gamma": gamma,
        "sigma": sigma,
        "shocks": shocks,
        "y_future": y_full[n:],
        "support": tuple(range(k)),
    }
    return panel, truth
