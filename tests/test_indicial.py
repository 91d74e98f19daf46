import math
import time

import numpy as np
import pytest

from qcurve.indicial import (DegenerateOperatorError, RootCheckError,
                             _companion_check, oscillation_parameter,
                             q_indicial_polynomial, q_indicial_spectrum,
                             u_indicial_polynomial, u_indicial_spectrum)


def roots_set(spec):
    return sorted(spec.roots, key=lambda z: (z.real, z.imag))


@pytest.mark.parametrize("n", range(4, 11))
def test_q_spectrum_closed_form(n):
    spec = q_indicial_spectrum(n)
    beta = math.sqrt(n * n + 2.0 * n - 9.0) / 2.0
    expect = sorted([complex(n), complex(-1.0),
                     complex((n - 1) / 2.0, beta),
                     complex((n - 1) / 2.0, -beta)],
                    key=lambda z: (z.real, z.imag))
    for a, b in zip(roots_set(spec), expect):
        assert abs(a - b) < 1e-10


@pytest.mark.parametrize("n", range(4, 11))
def test_q_spectrum_against_companion_oracle(n):
    """The quartic's numpy companion-matrix roots agree with the closed
    forms to 1e-10."""
    poly = q_indicial_polynomial(n)
    oracle = sorted((complex(z) for z in np.roots(poly.coefficients())),
                    key=lambda z: (z.real, z.imag))
    for a, b in zip(oracle, roots_set(q_indicial_spectrum(n))):
        assert abs(a - b) < 1e-10


def test_q_polynomial_evaluates_to_zero_at_roots():
    for n in (4, 5, 9):
        poly = q_indicial_polynomial(n)
        for z in q_indicial_spectrum(n).roots:
            assert abs(poly(z)) < 1e-9


def test_oscillation_parameter_n4():
    assert oscillation_parameter(4) == pytest.approx(1.9364916731, abs=1e-10)
    assert oscillation_parameter(4) == pytest.approx(math.sqrt(15) / 2.0,
                                                     abs=1e-14)


def test_q_spectrum_metadata():
    spec = q_indicial_spectrum(5)
    assert spec.delta_bar == 2.5
    assert spec.delta_under == 2.5
    assert not spec.log_terms_possible
    assert spec.extras["beta"] == pytest.approx(math.sqrt(26) / 2.0)
    d = spec.to_dict()
    assert "roots" in d and len(d["roots"]) == 4


def test_u_spectrum_alpha_half():
    spec = u_indicial_spectrum(0.5)
    got = roots_set(spec)
    expect = [complex(-1), complex(1), complex(2), complex(4)]
    for a, b in zip(got, expect):
        assert abs(a - b) < 1e-10
    assert spec.extras["alpha_tilde_sq"] == pytest.approx(0.25, abs=1e-12)
    # roots 1 and 2 differ by an integer on the decaying side
    assert spec.log_terms_possible


def test_u_spectrum_alpha_11_7():
    spec = u_indicial_spectrum(11.0 / 7.0)
    beta = math.sqrt(51.0) / 6.0
    expect = sorted([complex(-1), complex(4), complex(1.5, beta),
                     complex(1.5, -beta)], key=lambda z: (z.real, z.imag))
    for a, b in zip(roots_set(spec), expect):
        assert abs(a - b) < 1e-10
    assert spec.extras["alpha_tilde_sq"] == pytest.approx(-17.0 / 12.0,
                                                          abs=1e-12)


def test_u_spectrum_alpha_minus_7_16():
    spec = u_indicial_spectrum(-7.0 / 16.0)
    at = math.sqrt(249.0) / 6.0
    expect = sorted([complex(-1), complex(4), complex(1.5 + at),
                     complex(1.5 - at)], key=lambda z: (z.real, z.imag))
    for a, b in zip(roots_set(spec), expect):
        assert abs(a - b) < 1e-10
    assert spec.extras["alpha_tilde_sq"] == pytest.approx(83.0 / 12.0,
                                                          abs=1e-12)


def test_u_spectrum_against_companion_oracle():
    for alpha in (0.5, 11.0 / 7.0, -7.0 / 16.0, 2.25):
        poly = u_indicial_polynomial(alpha)
        oracle = sorted((complex(z) for z in np.roots(poly.coefficients())),
                        key=lambda z: (z.real, z.imag))
        for a, b in zip(oracle, roots_set(u_indicial_spectrum(alpha))):
            assert abs(a - b) < 1e-10


def test_u_spectrum_double_root_alpha_3_5():
    """At alpha = 3/5 the T3 roots meet at 3/2: both routes split the
    double root by about sqrt(eps), and the check accepts the cluster."""
    spec = u_indicial_spectrum(0.6)
    roots = roots_set(spec)
    assert [z.real for z in roots[::3]] == [-1.0, 4.0]
    for z in roots[1:3]:
        assert abs(z - 1.5) < 1e-7
    assert abs(spec.extras["alpha_tilde_sq"]) < 1e-15
    oracle = np.roots(spec.polynomial.coefficients())
    assert sum(abs(z - 1.5) < 1e-6 for z in oracle) == 2


def test_root_check_raises_a_typed_error():
    """A wrong closed-form root is a numerical failure (an ArithmeticError
    the CLI maps to exit 1), never an AssertionError, whether it misses
    an isolated root or a cluster by more than its guard."""
    poly = u_indicial_polynomial(0.6)
    good = [complex(-1), complex(4), 1.5 + 2e-8, 1.5 - 2e-8]
    _companion_check(poly, good)
    for bad in ([complex(-1), complex(4 + 1e-9), 1.5, 1.5],
                [complex(-1), complex(4), 1.5 + 3e-6, 1.5 - 3e-6]):
        with pytest.raises(RootCheckError):
            _companion_check(poly, bad)
    assert issubclass(RootCheckError, ArithmeticError)
    assert not issubclass(RootCheckError, AssertionError)


def test_degenerate_alpha_rejected():
    with pytest.raises(DegenerateOperatorError):
        u_indicial_spectrum(-1)
    with pytest.raises(DegenerateOperatorError):
        u_indicial_polynomial(-1)


def test_spectra_runtime_budget():
    t0 = time.perf_counter()
    for n in range(4, 11):
        q_indicial_spectrum(n)
    for alpha in (0.5, 11.0 / 7.0, -7.0 / 16.0):
        u_indicial_spectrum(alpha)
    assert time.perf_counter() - t0 < 1.0
