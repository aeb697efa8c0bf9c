"""Builders shared across the test modules.

Panels are built directly from float arrays here, bypassing ingestion,
so estimator tests are not polluted by integer rounding of counts.
"""

from __future__ import annotations

import math
import os
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from latecast.align import AlignedPanel, CountrySeries
from latecast.lasso import _SPAN_TOL, LassoFit, _homotopy, _Prepared

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


def traced_peak(fn, *args) -> int:
    """The most bytes that ``tracemalloc`` saw allocated at once during
    ``fn(*args)``, counted from the call on."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def reference_homotopy(prep: _Prepared, lams) -> tuple[np.ndarray, int]:
    """``lasso._homotopy`` in its plain numpy form, frozen as the oracle
    of the solver's path: exit and join times as arrays with a fresh
    ``np.full`` per knot, ``np.argmin`` over them, and the grid scan on
    numpy scalars.  Its ``lstsq`` calls and matrix products are the
    solver's, on the same inputs, so the two paths agree bit for bit."""
    A = prep.G / prep.K
    b = prep.c / prep.K
    Xw = prep.Xs * np.sqrt(prep.w)[:, None]
    norm2 = np.einsum("tj,tj->j", Xw, Xw)
    mus = np.asarray(lams, dtype=float) / 2.0
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
    mu = float(np.max(np.abs(b[prep.active]), initial=0.0))
    i = knots = 0
    blocked = -1  # flat join-time index of the zero-length re-entry
    S = np.flatnonzero(sign)
    while True:
        A_S = A[:, S]
        A_SS = A_S[S]
        beta_S = beta[S]
        sign_S = sign[S]
        t_out = t_in = math.inf
        if S.size:
            v = np.linalg.lstsq(A_SS, sign_S, rcond=None)[0]
            to_zero = np.divide(-beta_S, v, out=np.full(S.size, np.inf), where=v != 0.0)
            to_zero[to_zero <= 0.0] = np.inf
            k_out = int(np.argmin(to_zero))
            t_out = to_zero[k_out]
        else:
            v = np.zeros(0)
        if S.size < K:
            rho = (b - A_S @ beta_S)[:, None]
            a = (A_S @ v)[:, None]
            rate = 1.0 + a * flip
            times = np.divide(np.maximum(mu + rho * flip, 0.0), rate,
                              out=np.full((p, 2), np.inf),
                              where=(rate > 0.0) & free[:, None])
            flat = times.reshape(-1)
            if blocked >= 0:
                flat[blocked] = np.inf
            Q = basis[:S.size]
            while True:
                f = int(np.argmin(flat))
                t_in = flat[f]
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
        while n < len(mus) and mu - mus[n] <= step:
            n += 1
        if S.size and n > i:
            # column k is the right-hand side at mus[i + k]
            rhs = b[S][:, None] - sign_S[:, None] * mus[i:n]
            betas[i:n, S] = np.linalg.lstsq(A_SS, rhs, rcond=None)[0].T
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
            S = np.flatnonzero(sign)
        else:
            j = int(S[k_out])
            blocked = 2 * j + int(sign[j] < 0.0)
            beta[j] = sign[j] = 0.0
            free[j] = True
            S = np.flatnonzero(sign)
            if S.size:
                basis[:S.size] = np.linalg.qr(Xw[:, S])[0].T


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
