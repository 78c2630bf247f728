from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from letcc import streams
from letcc.points import chebyshev_grid
from letcc.sim import NoiseModel, StragglerModel, TrialSetup, WorkerFunction, make_worker

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def on_empty_memo(call, *args):
    """``call(*args)`` with no chunk draws memoised, so it draws its own."""
    streams._last_draws = None
    return call(*args)


@pytest.fixture(autouse=True)
def empty_draw_memo():
    """Start every test with no chunk draws memoised, whatever ran before it."""
    on_empty_memo(lambda: None)


def trial_setup(scheme="letcc", k=8, n=24, s=4, sigma0=0.0, lambda_e=0.0,
                lambda_d=0.0, func=None, data=None, data_rule="uniform", f_degree=None,
                **kw):
    return TrialSetup(
        scheme=scheme,
        func=func or make_worker("sin_pi"),
        grid=chebyshev_grid(k, n),
        stragglers=StragglerModel(n, s, **kw),
        noise=NoiseModel(sigma0),
        lambda_e=lambda_e,
        lambda_d=lambda_d,
        f_degree=f_degree,
        data=data,
        data_rule=data_rule,
    )


def zero_worker(m):
    return WorkerFunction(f"zero_{m}", lambda x: np.zeros((len(x), m)), 1, m,
                          elementwise=True)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def understated_l_enc(monkeypatch):
    """Zero the encoder term of every prepared chunk's risk bound, a numerical fault.

    The bound risk <= l_dec + l_enc holds for any estimates, so a fault in
    the decode alone cannot break it; a wrong l_enc can.
    """
    from letcc import sim

    prepare = sim._prepare
    monkeypatch.setattr(sim, "_prepare", lambda *args: (
        replace(chunk, l_enc=0.0 * chunk.l_enc) for chunk in prepare(*args)))


def ols_affine(t, y):
    """Closed-form least-squares affine fit, evaluated at t."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones(t.size), t])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return design @ coef


def quadrature_roughness(evaluate, knots) -> float:
    """Integral of the squared second derivative over [-1, 1], evaluated
    only through the black-box ``evaluate`` callable.

    Within each knot interval the function is cubic there, so a central
    second difference with a step that stays inside the interval is exact,
    and the squared second derivative is a quadratic polynomial integrated
    exactly by 4-point Gauss.
    """
    knots = np.asarray(knots, dtype=float)
    nodes, weights = leggauss(4)
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        xs = (a + b) / 2 + (b - a) / 2 * nodes
        h = 0.01 * (b - a)
        second = (evaluate(xs + h) - 2 * evaluate(xs) + evaluate(xs - h)) / h**2
        second = np.atleast_2d(np.asarray(second).T).T
        total += (b - a) / 2 * float(np.sum(weights[:, None] * second**2))
    return total
