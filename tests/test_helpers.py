"""The test builders themselves."""

import numpy as np
import pytest

from helpers import gen_ecm_panel


def _loop_ecm_panel(rng, n=60, p=3, beta=(0.7, 0.3), pi=(0.4, 0.2),
                    gamma=-0.35, sigma=0.01, horizon=14,
                    step_range=(0.005, 0.10), z0_offset=0.0):
    """``gen_ecm_panel`` as a loop over time steps: X, y and the shocks."""
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
    return X, y_full, shocks


def _gen_ecm_panel(rng, **kw):
    """``gen_ecm_panel`` giving what ``_loop_ecm_panel`` gives."""
    panel, truth = gen_ecm_panel(rng, **kw)
    return (panel.X, np.concatenate([panel.y, truth["y_future"]]),
            truth["shocks"])


def _band_width(gen, rng):
    for _ in range(50):
        gamma = float(rng.uniform(-0.9, -0.1))
        sigma = float(rng.uniform(0.01, 0.05))
        yield gen(rng, n=40, p=2, beta=(1.0,), pi=(0.4,), gamma=gamma,
                  sigma=sigma, horizon=8)


def _band_coverage(gen, rng):
    # the first 25 of test_07's 500 panels
    for _ in range(25):
        yield gen(rng, n=2000, sigma=0.05, gamma=-0.8, horizon=14)


# the seeds and calls of the suite's gen_ecm_panel panels, in order
SUITE_PANELS = {
    41003: lambda gen, rng: [gen(rng, n=200, p=3, sigma=0.01,
                                 step_range=(-0.35, 0.75), z0_offset=1.5)],
    41004: lambda gen, rng: [gen(rng, n=200, p=3, sigma=0.0)],
    41005: lambda gen, rng: [gen(rng, n=40, p=3, sigma=0.05)],
    41006: lambda gen, rng: [gen(rng, n=30, p=3, sigma=0.01)],
    41008: lambda gen, rng: [
        gen(rng, n=12, p=2, beta=(1.0,), pi=(0.0,), gamma=0.5, sigma=0.001),
        gen(rng, n=12, p=2, beta=(1.0,), pi=(0.0,), gamma=1e-5, sigma=0.0,
            z0_offset=1.0)],
    41009: lambda gen, rng: [gen(rng, n=30, p=3, sigma=0.02)],
    41013: lambda gen, rng: [gen(rng, n=30, p=3, sigma=0.03)],
    41015: _band_width,
    41018: lambda gen, rng: [gen(rng, n=30, p=3, sigma=0.03, horizon=9)],
    20200315: lambda gen, rng: [
        gen(rng, n=200, sigma=0.01, step_range=(-0.35, 0.75), z0_offset=1.5),
        gen(rng, n=200, sigma=0.0, step_range=(-0.35, 0.75), z0_offset=1.5)],
    42: lambda gen, rng: [gen(rng, n=100_002, sigma=0.3, horizon=1)],
    20200401: _band_coverage,
}


@pytest.mark.parametrize("seed", SUITE_PANELS)
def test_gen_ecm_panel_equals_the_step_by_step_loop(seed):
    # bit for bit: the same X, levels and shocks as one step at a time
    calls = SUITE_PANELS[seed]
    expected = list(calls(_loop_ecm_panel, np.random.default_rng(seed)))
    got = list(calls(_gen_ecm_panel, np.random.default_rng(seed)))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert [a.tobytes() for a in g] == [a.tobytes() for a in e]
