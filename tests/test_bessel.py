import math

import mpmath
import numpy as np
import pytest

from qcurve import bessel
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
    z, _, _, log_scale = bessel_I_derivatives(order, np.array([t]))
    assert log_scale[0] == 0.0
    want = mp_I(order, t)
    assert abs(z[0] - want) < 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("t", POINTS)
def test_bessel_K_against_mpmath(order, t):
    got = bessel_K_derivatives(order, np.array([t]))[0][0]
    want = mp_K(order, t)
    assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def test_near_integer_order_handled():
    """Orders near an integer stress the reflection formula; values must
    still match the oracle."""
    ts = np.array([0.8, 3.0])
    for order in (2.0000004, 2.9999999, 1.0):
        for t, got in zip(ts, bessel_K_derivatives(order, ts)[0]):
            want = mp_K(order, t)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want)), (order, t)


def test_scaling_beyond_threshold():
    t = 40.0
    vi, _, _, ls_i = bessel_I_derivatives(2.5, np.array([t]))
    _, _, _, ls_k = bessel_K_derivatives(2.5, np.array([t]))
    assert ls_i[0] == -t and ls_k[0] == t
    # descale against the oracle through logs
    want = mpmath.besseli(mpmath.mpf(2.5), mpmath.mpf(t))
    got_log = math.log(abs(vi[0])) - ls_i[0]
    assert got_log == pytest.approx(float(mpmath.log(want)), abs=1e-10)


@pytest.mark.parametrize("order", [2.5, 1j * math.sqrt(15) / 2.0])
def test_derivatives_against_mpmath(order):
    ts = np.array([0.7, 4.2])
    for t, i1, i2 in zip(ts, *bessel_I_derivatives(order, ts)[1:3]):
        d1 = complex(mpmath.diff(lambda z: mpmath.besseli(
            mpmath.mpc(order), z), mpmath.mpf(t)))
        d2 = complex(mpmath.diff(lambda z: mpmath.besseli(
            mpmath.mpc(order), z), mpmath.mpf(t), 2))
        assert abs(i1 - d1) < 1e-9 * max(1.0, abs(d1))
        assert abs(i2 - d2) < 1e-8 * max(1.0, abs(d2))


def test_wronskian_identity():
    """I_a K_a' - I_a' K_a = -1/t over the production window."""
    ts = np.linspace(0.2, 8.0, 25)
    for order in ORDERS[:3]:
        i0, i1, _, _ = bessel_I_derivatives(order, ts)
        k0, k1, _, _ = bessel_K_derivatives(order, ts)
        defect = np.abs(i0 * k1 - i1 * k0 + 1.0 / ts)
        assert defect.max() < 1e-8, (order, ts[defect.argmax()])


# one array over every branch: the ascending series (t < 12), the crossover
# band (12 < t <= 30) and the scaled expansion (t > 30)
LANE_T = np.concatenate([np.linspace(0.2, 11.9, 24),
                         np.linspace(12.0, 30.0, 19), [30.5, 36.0, 45.0, 60.0]])
LANE_ORDERS = [2.5, 1j * math.sqrt(15) / 2.0, 3.0, 2.0000004, 2.9999999,
               math.sqrt(83.0 / 12.0), 0.5]


@pytest.mark.parametrize("order", LANE_ORDERS)
@pytest.mark.parametrize("evaluate", [bessel_I_derivatives,
                                      bessel_K_derivatives])
def test_lanes_are_independent(evaluate, order):
    """Each point stops at its own term: the whole array, forward or
    reversed, gives every t bit for bit what t evaluated alone gives, in
    all four outputs."""
    alone = np.array([[out[0] for out in evaluate(order, np.array([t]))]
                      for t in LANE_T]).T
    for ts, want in ((LANE_T, alone), (LANE_T[::-1], alone[:, ::-1])):
        for got, ref in zip(evaluate(order, ts), want):
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("order", [2.5, 1j * math.sqrt(15) / 2.0, 3.0])
def test_K_reuses_the_I_series_summed_on_its_t(order):
    """K on the t array I was just evaluated on sums I_a once: one more
    series for I_{-a} beside it (none at the integer order 3, whose
    log-series needs I_3 alone), and the same bits as a K evaluated with
    no sum kept; also on t reaching past the large-t crossover (t > 12),
    where K reads the ascending points' columns of the sum over all of
    t."""
    sums = bessel._kahan_triple_sums
    for ts in (np.linspace(0.2, 8.0, 40), np.linspace(5.0, 20.0, 31)):
        sums.cache_clear()
        fresh = bessel_K_derivatives(order, ts)
        sums.cache_clear()
        bessel_I_derivatives(order, ts)
        misses = sums.cache_info().misses
        shared = bessel_K_derivatives(order, ts)
        assert sums.cache_info().misses - misses == (
            0 if order == 3.0 else 1)
        for got, ref in zip(shared, fresh):
            np.testing.assert_array_equal(got, ref)


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
        vi, _, _, ls_i = bessel_I_derivatives(order, ts)
        vk, _, _, ls_k = bessel_K_derivatives(order, ts)
        si = np.diff(np.log(np.abs(vi)) + ls_i) / np.diff(ts)
        sk = np.diff(np.log(np.abs(vk)) - ls_k) / np.diff(ts)
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
