"""Builders shared across the test modules.

Panels are built directly from float arrays here, bypassing ingestion,
so estimator tests are not polluted by integer rounding of counts.
"""

from __future__ import annotations

import os
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from latecast.align import AlignedPanel, CountrySeries
from latecast.lasso import LassoFit, _homotopy, _Prepared

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def src_env() -> dict:
    """This process's environment with ``src/`` first on ``PYTHONPATH``,
    so a subprocess imports the checkout's ``latecast``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def make_series(name: str, start: date, counts) -> CountrySeries:
    return CountrySeries(name=name, start=start, counts=[int(c) for c in counts])


def make_panel(y, X, weights=None, window=None,
               start=date(2020, 3, 1), peer_lead_days=120) -> AlignedPanel:
    """AlignedPanel straight from arrays.

    ``X`` may extend beyond ``len(y)``; the overhang is the forecast
    horizon.  ``weights`` are the window's weights, so the window is
    their length; without them it is ``window`` rows of weight one, the
    whole of ``y`` by default.  Peers are dated far ahead of the target
    by default so the calendar-leakage check stays quiet unless a test
    wants otherwise.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    if weights is None:
        weights = np.ones(len(y) if window is None else window)
    weights = np.asarray(weights, dtype=float)
    if window is not None and window != len(weights):
        raise ValueError(
            f"window {window} disagrees with {len(weights)} window weights"
        )
    names = [f"P{j}" for j in range(p)]
    return AlignedPanel(
        target_name="T",
        peer_names=names,
        y=y,
        X=X,
        window_weights=weights,
        start_date=start,
        peer_start_dates={n: start - timedelta(days=peer_lead_days) for n in names},
    )


def lasso_with_beta(beta) -> LassoFit:
    """A first-step fit carrying externally chosen coefficients."""
    beta = np.asarray(beta, dtype=float)
    return LassoFit(
        beta=beta,
        support=tuple(int(j) for j in np.flatnonzero(beta)),
        lambda_=0.0,
        bic=0.0,
    )


def solve_at(y, X, w, lam):
    """Lasso solution at one penalty, through the private homotopy."""
    prep = _Prepared(y, X, w)
    betas, knots = _homotopy(prep, [lam])
    return prep.to_original(betas[0]), knots


def _row_dots(A: np.ndarray, v: np.ndarray) -> list[float]:
    """``[row @ v for row in A]``, rounded as that rounds each product.

    ``np.vecdot`` (numpy 2) runs the same per-row dot product as
    ``row @ v``; ``A @ v`` is a matrix product whose sums may round
    differently."""
    if hasattr(np, "vecdot"):
        return np.vecdot(A, v).tolist()
    return [row @ v for row in A]


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
    # y[t] = y[t-1] + dx[t] @ pi + gamma * (y[t-1] - x[t-1] @ beta) + e[t],
    # with each row's dot product taken as ``row @ beta`` takes it, so
    # that the recursion alone runs step by step
    x_beta = _row_dots(X[:, :k], beta)
    dx_pi = _row_dots(np.diff(X[:, :k], axis=0), pi)
    y = [x_beta[0] + z0_offset]
    for xb, dxp, e in zip(x_beta, dx_pi, shocks[1:].tolist()):
        y.append(y[-1] + dxp + gamma * (y[-1] - xb) + e)
    y_full = np.array(y)

    panel = make_panel(y_full[:n], X, weights=weights)
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
