import math

import numpy as np
import pytest

from qcurve import bessel
from qcurve.verify import (_COVARIANCE_COEFFS, verify_asymptotics,
                           verify_bessel, verify_covariance)


def test_verify_asymptotics_within_one_percent():
    rep = verify_asymptotics(12.0, 1024)
    assert sorted(rep["cases"]) == ["n4", "n5", "n6"]
    for case in rep["cases"].values():
        assert case["converged"]
        assert math.isclose(case["measured"], case["analytic"], rel_tol=0.01)
    assert rep["passed"]


def test_verify_covariance_reports_its_worst_ratio():
    rep = verify_covariance(6, 12.0)
    assert rep["n"] == 6
    assert rep["min_ratio"] == min(p["ratio"] for p in rep["pairs"])
    assert rep["passed"] == (rep["min_ratio"] >= 3.5)


def test_covariance_coefficients_are_the_seeded_draw():
    """The stored coefficients are numpy's seeded draw, bit for bit."""
    draw = np.random.default_rng(20260823).uniform(-1.0, 1.0, (10, 2, 3))
    assert np.array_equal(np.reshape(_COVARIANCE_COEFFS, (10, 2, 3)), draw)


@pytest.mark.parametrize("n, sums", [(4, 18), (5, 15), (6, 18)])
def test_verify_bessel_sums_each_I_once(n, sums):
    """`verify_bessel(n)` runs 18 / 15 / 18 ascending I sums for n = 4 /
    5 / 6: each K reads the I_a that `bessel_I_derivatives` summed on the
    same t, the dichotomy check's [5, 20] included, whose t > 12 points K
    evaluates by its asymptotic series (21 / 18 / 21 when K summed I_a
    afresh on its t <= 12 points)."""
    bessel._kahan_triple_sums.cache_clear()
    assert verify_bessel(n)["passed"]
    assert bessel._kahan_triple_sums.cache_info().misses == sums
