from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def empty_draw_memo():
    """Start every test with no chunk draws memoised, whatever ran before it."""
    from letcc import sim

    sim._last_draws = None


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
