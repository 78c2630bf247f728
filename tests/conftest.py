from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from letcc import streams
from letcc.points import chebyshev_grid
from letcc.spline import fit
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


def penalty_matrix(knots) -> np.ndarray:
    """Dense Gram matrix Phi of the cardinal natural-spline basis, int b_i'' b_j''.

    Phi = Q R^{-1} Q^T from the textbook matrices of Green & Silverman
    (1994, sec. 2.1.2), filled entry by entry from the knot spacings h:
    column j of the n x (n-2) Q holds 1/h_j, -1/h_j - 1/h_{j+1} and
    1/h_{j+1} in rows j to j+2, and the (n-2) x (n-2) R has (h_j +
    h_{j+1})/3 on its diagonal and h_{j+1}/6 beside it.  A dense solve,
    sharing no code with the banded fit; symmetrized, as Phi is.
    """
    h = np.diff(np.asarray(knots, dtype=float))
    n = h.size + 1
    q = np.zeros((n, n - 2))
    r = np.zeros((n - 2, n - 2))
    for j in range(n - 2):
        q[j, j], q[j + 1, j], q[j + 2, j] = 1.0 / h[j], -1.0 / h[j] - 1.0 / h[j + 1], 1.0 / h[j + 1]
        r[j, j] = (h[j] + h[j + 1]) / 3.0
        if j:
            r[j - 1, j] = r[j, j - 1] = h[j] / 6.0
    phi = q @ np.linalg.solve(r, q.T)
    return (phi + phi.T) / 2.0


def basis_matrix(knots, x) -> np.ndarray:
    """The n cardinal natural-spline basis functions of ``knots`` at ``x``, (len(x), n).

    Column i is the interpolant of the i-th unit vector at the knots.
    """
    n = np.size(knots)
    return fit(knots, np.eye(n), 0.0).evaluate(x)
