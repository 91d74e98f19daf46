import math

import numpy as np
import pytest

from qcurve.expansion import (ExpansionFit, SignalToNoiseError,
                              _leading_terms, fit_leading,
                              scalar_asymptotic_coefficient,
                              scalar_linearization_coefficient, weighted_norm)
from qcurve.grid import RadialFunction, RadialGrid
from qcurve.indicial import oscillation_parameter, q_indicial_spectrum
from qcurve.linear import WindowError, _boundary_rows, fit_window
from qcurve.nonlinear import (IterationConfig, TargetCurvature,
                              fixed_point_solve)
from qcurve.geometry import hyperbolic_curvature_report


def synthetic_oscillation(grid, n, a, b, extra=0.0):
    """a cos(beta ln x) + b sin(beta ln x) at envelope x^{(n-1)/2}, plus an
    optional faster-decaying contaminant."""
    r = grid.r.astype(float)
    beta = oscillation_parameter(n)
    env = np.exp(-(n - 1.0) / 2.0 * r)
    vals = env * (a * np.cos(beta * r) - b * np.sin(beta * r))
    vals += extra * np.exp(-(n + 1.0) / 2.0 * r)
    return RadialFunction(grid, vals)


def test_fit_leading_recovers_synthetic(grid2048):
    u = synthetic_oscillation(grid2048, 5, 3e-4, -2e-4)
    fit = fit_leading(u, 5)
    assert fit.leading_exponent == pytest.approx(2.0)
    assert fit.frequency == pytest.approx(math.sqrt(26) / 2.0, abs=1e-12)
    assert fit.a == pytest.approx(3e-4, rel=1e-8)
    assert fit.b == pytest.approx(-2e-4, rel=1e-8)
    assert fit.amplitude == pytest.approx(math.hypot(3e-4, 2e-4), rel=1e-8)
    u00 = fit.u00
    assert u00.real == pytest.approx(1.5e-4, rel=1e-8)
    assert u00.imag == pytest.approx(1e-4, rel=1e-8)


def test_fit_leading_ignores_fast_contaminant(grid2048):
    clean = fit_leading(synthetic_oscillation(grid2048, 5, 1e-3, 5e-4), 5)
    dirty = fit_leading(
        synthetic_oscillation(grid2048, 5, 1e-3, 5e-4, extra=5e-3), 5)
    assert dirty.a == pytest.approx(clean.a, rel=1e-6)
    assert dirty.b == pytest.approx(clean.b, rel=1e-6)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_fit_leading_covector_matches_lstsq(n, grid2048,
                                           lstsq_coefficients):
    """fit_leading's (a, b), the memoized covector applied to u, equal a
    least-squares fit by np.linalg.lstsq on the same window and dictionary
    to 1e-12 relative."""
    g = grid2048
    u = synthetic_oscillation(g, n, 7e-4, -3e-4, extra=2e-3)
    r = g.r.astype(float)
    u = RadialFunction(g, u.values + 1e-3 * np.exp(-(n + 2.0) / 2.0 * r)
                       * np.cos(0.7 * r))
    fit = fit_leading(u, n)
    beta = oscillation_parameter(n)
    window, _ = fit_window(g.r_max, beta)
    want = lstsq_coefficients(g.r, np.asarray(u.values, float), window,
                              (n - 1) / 2.0, beta)
    scale = math.hypot(*want)
    assert abs(fit.a - want[0]) <= 1e-12 * scale
    assert abs(fit.b - want[1]) <= 1e-12 * scale


@pytest.mark.parametrize("n", [4, 5, 6])
def test_fit_leading_memo_matches_fresh_terms(n, grid2048):
    """fit_leading on its memoized exp/cos/sin window terms equals, field
    for field, the fit recomputed here with fresh ones; the memo is
    read-only."""
    g = grid2048
    r = g.r.astype(float)
    u = synthetic_oscillation(g, n, 7e-4, -3e-4, extra=2e-3)
    u = RadialFunction(g, u.values + 1e-3 * np.exp(-(n + 2.0) / 2.0 * r)
                       * np.cos(0.7 * r))
    fit = fit_leading(u, n)
    lam, beta = (n - 1) / 2.0, oscillation_parameter(n)
    (lo, hi), _ = fit_window(g.r_max, beta)
    mask, rows = _boundary_rows(g, (lo, hi), lam, beta)
    values = np.asarray(u.values, float)[mask]
    a, b = map(float, rows @ values)
    rw = g.r[mask].astype(float)
    fitted = np.exp(-lam * rw) * (a * np.cos(beta * rw)
                                  - b * np.sin(beta * rw))
    want = ExpansionFit(
        leading_exponent=lam, frequency=beta, a=a, b=b,
        window_x=(float(math.exp(-hi)), float(math.exp(-lo))),
        residual=float(np.abs(values - fitted).max()),
        log_terms_flag=q_indicial_spectrum(n).log_terms_possible)
    assert fit == want
    assert fit.residual > 0.0
    terms = _leading_terms(g, n)
    assert terms is _leading_terms(g, n)
    for arr in terms[3:-1]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_fit_leading_window_guard():
    g = RadialGrid(3.0, 256)
    u = synthetic_oscillation(g, 4, 1.0, 0.0)
    with pytest.raises(WindowError):
        fit_leading(u, 4)


def test_fit_evaluate_round_trip(grid1024):
    u = synthetic_oscillation(grid1024, 4, 2e-3, 1e-3)
    fit = fit_leading(u, 4)
    vals = fit.evaluate(grid1024)
    mask = grid1024.window_mask(*(-math.log(x) for x in fit.window_x[::-1]))
    assert np.abs(vals - u.values)[mask].max() < 1e-9


def test_to_dict_schema(grid1024):
    fit = fit_leading(synthetic_oscillation(grid1024, 4, 1e-3, 0.0), 4)
    d = fit.to_dict()
    for key in ("leading_exponent", "frequency", "a", "b", "u00",
                "window_x", "residual", "log_terms_flag"):
        assert key in d


def test_weighted_norm_finiteness_flip(grid2048):
    """The x^nu-weighted sup flips from finite to divergent across the
    envelope rate (n-1)/2."""
    n = 5
    u = synthetic_oscillation(grid2048, n, 1e-3, 4e-4)
    nu_half = (n - 1.0) / 2.0
    finite = weighted_norm(u, 0.9 * nu_half)
    divergent = weighted_norm(u, 1.1 * nu_half)
    assert math.isfinite(finite) and finite > 0
    assert math.isinf(divergent)


def test_scalar_linearization_coefficient_values():
    assert scalar_linearization_coefficient(4) == pytest.approx(60.0)
    assert scalar_linearization_coefficient(5) == pytest.approx(248.0)
    assert scalar_linearization_coefficient(6) == pytest.approx(220.0)
    n = 7
    assert scalar_linearization_coefficient(n) == pytest.approx(
        2.0 * (n - 1) * (n * n + 2 * n - 4) / (n - 4))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_scalar_linearization_coefficient_exact_derivation(n):
    """Linearize the warped-product scalar curvature of g~ = e^{2w} g
    symbolically on the kernel branch u = x^s and compare the exact limit of
    (R~ - R)/u as x -> 0 with the library coefficient.  This route uses
    neither the conformal-Laplacian law nor any library curvature code."""
    sp = pytest.importorskip("sympy")
    x, eps = sp.symbols("x epsilon", positive=True)
    lam = sp.Symbol("lambda")
    # on the branch the Laplacian acts as the negative root lam of the
    # linearized constant-Q equation lam^2 - c_n lam - 4 Q = 0, with
    # c_n = a_n R + b_n (n-1) on the hyperbolic base
    a_n = sp.Rational((n - 2) ** 2 + 4, 2 * (n - 1) * (n - 2))
    b_n = sp.Rational(4, n - 2)
    c_n = -a_n * n * (n - 1) + b_n * (n - 1)
    q = sp.Rational(n * (n * n - 4), 8)
    lam_branch = min(sp.solve(lam ** 2 - c_n * lam - 4 * q))
    # s^2 - (n-1) s = lam with Re s = (n-1)/2
    beta = sp.sqrt(-lam_branch - sp.Rational((n - 1) ** 2, 4))
    assert float(beta) == pytest.approx(oscillation_parameter(n), rel=1e-15)
    u = x ** (sp.Rational(n - 1, 2) + sp.I * beta)

    def d_r(f):  # r = -ln x
        return -x * sp.diff(f, x)

    # e^{2w} = e^{2u} (n = 4) or (1+u)^{4/(n-4)} (n >= 5)
    w = eps * u if n == 4 else 2 / sp.Integer(n - 4) * sp.log(1 + eps * u)
    A = sp.exp(w)
    B = A * (1 / x - x) / 2  # e^w sinh r
    B_s = d_r(B) / A
    B_ss = d_r(B_s) / A
    ric_ss = -(n - 1) * B_ss / B
    ric_ang = -B_ss / B - (n - 2) * (B_s ** 2 - 1) / B ** 2
    R = ric_ss + (n - 1) * ric_ang
    assert sp.cancel(R.subs(eps, 0)) == -n * (n - 1)

    ratio = sp.powsimp(sp.expand(sp.diff(R, eps).subs(eps, 0) / u))
    exact = sp.limit(ratio, x, 0)
    assert exact.is_Integer
    assert sp.Rational(scalar_linearization_coefficient(n)) == exact


@pytest.mark.parametrize("n,fixture", [(4, "machinery4"), (5, "machinery5")])
def test_scalar_asymptotic_coefficient_matches_analytic(n, fixture, request):
    """The measured boundary ratio (R~ - R)/u extrapolates to the analytic
    linearization coefficient within 0.1%, by the conformal law and by the
    warped-product curvature alike."""
    machinery = request.getfixturevalue(fixture)
    target = TargetCurvature(hyperbolic_curvature_report(n).Q_hyp, n,
                             grid=machinery.grid)
    _, u = fixed_point_solve(1e-3, target, IterationConfig(), machinery)
    want = scalar_linearization_coefficient(n)
    for route in ("conformal", "warped"):
        got = scalar_asymptotic_coefficient(u, n, route=route)
        assert abs(got - want) < 1e-3 * want, route


def test_scalar_coefficient_signal_guard(grid1024):
    tiny = RadialFunction(grid1024,
                          1e-280 * np.exp(-2.0 * grid1024.r.astype(float)))
    with pytest.raises(SignalToNoiseError):
        scalar_asymptotic_coefficient(tiny, 5)


def test_scalar_coefficient_route_guard(grid1024):
    u = RadialFunction(grid1024, 1e-3 * np.exp(-2.0 * grid1024.r.astype(float)))
    with pytest.raises(ValueError, match="route"):
        scalar_asymptotic_coefficient(u, 5, route="ricci")
