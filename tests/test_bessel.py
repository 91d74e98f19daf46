import math

import mpmath
import numpy as np
import pytest

from qcurve.bessel import (bessel_I_derivatives, bessel_K_derivatives,
                           model_operator, model_residual, model_solutions)

ORDERS = [2.5, 1j * math.sqrt(15) / 2.0, math.sqrt(83.0 / 12.0),
          0.5, 3.0 + 0.0j]
POINTS = [0.3, 1.0, 2.7, 6.5, 15.0]


def mp_I(a, t):
    return complex(mpmath.besseli(mpmath.mpc(a), mpmath.mpf(t)))


def mp_K(a, t):
    return complex(mpmath.besselk(mpmath.mpc(a), mpmath.mpf(t)))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("t", POINTS)
def test_bessel_I_against_mpmath(order, t):
    got = bessel_I_derivatives(order, t)[0]
    assert not got.scaled
    want = mp_I(order, t)
    assert abs(complex(got) - want) < 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("t", POINTS)
def test_bessel_K_against_mpmath(order, t):
    got = bessel_K_derivatives(order, t)[0]
    want = mp_K(order, t)
    assert abs(complex(got) - want) < 1e-11 * max(1.0, abs(want))


def test_near_integer_order_handled():
    """Orders near an integer stress the reflection formula; values must
    still match the oracle."""
    for order in (2.0000004, 2.9999999, 1.0):
        for t in (0.8, 3.0):
            got = complex(bessel_K_derivatives(order, t)[0])
            want = mp_K(order, t)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want)), (order, t)


def test_scaling_beyond_threshold():
    t = 40.0
    vi = bessel_I_derivatives(2.5, t)[0]
    vk = bessel_K_derivatives(2.5, t)[0]
    assert vi.scaled and vk.scaled
    assert vi.log_scale == -t and vk.log_scale == t
    # descale against the oracle through logs
    want = mpmath.besseli(mpmath.mpf(2.5), mpmath.mpf(t))
    got_log = math.log(abs(complex(vi))) - vi.log_scale
    assert got_log == pytest.approx(float(mpmath.log(want)), abs=1e-10)


@pytest.mark.parametrize("order", [2.5, 1j * math.sqrt(15) / 2.0])
def test_derivatives_against_mpmath(order):
    for t in (0.7, 4.2):
        i0, i1, i2 = bessel_I_derivatives(order, t)
        d1 = complex(mpmath.diff(lambda z: mpmath.besseli(
            mpmath.mpc(order), z), mpmath.mpf(t)))
        d2 = complex(mpmath.diff(lambda z: mpmath.besseli(
            mpmath.mpc(order), z), mpmath.mpf(t), 2))
        assert abs(complex(i1) - d1) < 1e-9 * max(1.0, abs(d1))
        assert abs(complex(i2) - d2) < 1e-8 * max(1.0, abs(d2))


def test_wronskian_identity():
    """I_a K_a' - I_a' K_a = -1/t over the production window."""
    for order in ORDERS[:3]:
        for t in np.linspace(0.2, 8.0, 25):
            t = float(t)
            i0, i1, _ = bessel_I_derivatives(order, t)
            k0, k1, _ = bessel_K_derivatives(order, t)
            wr = complex(i0) * complex(k1) - complex(i1) * complex(k0)
            assert abs(wr + 1.0 / t) < 1e-8, (order, t)


@pytest.mark.parametrize("factor,kw", [
    ("L1", {"n": 4}), ("L2", {"n": 4}), ("L3", {"alpha": -7.0 / 16.0})])
def test_model_ode_residuals(factor, kw):
    for sol in model_solutions(factor, **kw):
        assert model_residual(sol, (0.2, 8.0)) < 1e-8


def test_model_solution_orders():
    l1 = model_solutions("L1", n=4)[0]
    assert l1.order == pytest.approx(2.5)
    l2 = model_solutions("L2", n=4)[0]
    assert l2.order.imag == pytest.approx(math.sqrt(15) / 2.0)
    l3 = model_solutions("L3", alpha=-7.0 / 16.0)[0]
    assert l3.order.real == pytest.approx(math.sqrt(83.0 / 12.0))


def test_exponential_dichotomy():
    """On [5, 20] the I-branch grows and the K-branch decays at unit
    exponential rate, for real and oscillatory orders."""
    ts = np.linspace(5.0, 20.0, 31)
    for order in ORDERS[:3]:
        li, lk = [], []
        for t in ts:
            vi = bessel_I_derivatives(order, float(t))[0]
            vk = bessel_K_derivatives(order, float(t))[0]
            li.append(math.log(abs(complex(vi))) + vi.log_scale)
            lk.append(math.log(abs(complex(vk))) - vk.log_scale)
        si = np.diff(li) / np.diff(ts)
        sk = np.diff(lk) / np.diff(ts)
        assert si.min() > 0.5
        assert sk.max() < -0.5


def test_model_operator_annihilates_oracle():
    """The model factor applied to the mpmath Bessel basis vanishes."""
    op = model_operator("L2", n=5)
    order = 1j * math.sqrt(5 * 5 + 10 - 9) / 2.0
    p = 2.0  # (n-1)/2
    for t in (0.9, 3.3):
        f = lambda z: z ** p * mpmath.besseli(mpmath.mpc(order), z)
        u = complex(f(mpmath.mpf(t)))
        du = complex(mpmath.diff(f, mpmath.mpf(t)))
        d2u = complex(mpmath.diff(f, mpmath.mpf(t), 2))
        val = op(t, u, du, d2u)
        size = abs(u) + t * abs(du) + t * t * abs(d2u)
        assert abs(val) < 1e-9 * size
