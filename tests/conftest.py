import numpy as np
import pytest

from qcurve.grid import RadialGrid
from qcurve.nonlinear import build_machinery


@pytest.fixture(scope="session")
def grid512():
    return RadialGrid(12.0, 512)


@pytest.fixture(scope="session")
def grid1024():
    return RadialGrid(12.0, 1024)


@pytest.fixture(scope="session")
def grid2048():
    return RadialGrid(12.0, 2048)


@pytest.fixture(scope="session")
def grid4096():
    return RadialGrid(12.0, 4096)


@pytest.fixture(scope="session")
def machinery4(grid2048):
    return build_machinery(4, grid2048)


@pytest.fixture(scope="session")
def machinery5(grid2048):
    return build_machinery(5, grid2048)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)


def _lstsq_coefficients(r, values, window, mu, beta=None):
    """Leading boundary coefficients by np.linalg.lstsq on the design with
    the six nuisance powers, columns normalized: the route the memoized
    boundary covector replaces, written out apart from it."""
    mask = (r >= window[0]) & (r <= window[1])
    rr = r[mask].astype(float)
    env = np.exp(-mu * rr)
    lead = ([env] if beta is None
            else [env * np.cos(beta * rr), -env * np.sin(beta * rr)])
    design = np.column_stack(lead + [env * np.exp(-0.5 * j * rr)
                                     for j in range(1, 7)])
    norms = np.linalg.norm(design, axis=0)
    sol = np.linalg.lstsq(design / norms, values[mask], rcond=None)[0]
    return sol[:len(lead)] / norms[:len(lead)]


@pytest.fixture(scope="session")
def lstsq_coefficients():
    return _lstsq_coefficients
