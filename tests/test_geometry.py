import numpy as np
import pytest

from qcurve.geometry import (DimensionError, PositivityError,
                             check_dimension, hyperbolic_curvature_report,
                             laplacian_values, paneitz_values,
                             q_of_conformal, scalar_of_conformal)
from qcurve import geometry
from qcurve import grid as grid_module
from qcurve import nonlinear, ucurve
from qcurve.grid import RadialFunction, RadialGrid, differentiate
from qcurve.nonlinear import (IterationConfig, TargetCurvature,
                              build_machinery, fixed_point_solve,
                              nonlinear_rhs)


def zero_on(grid):
    return RadialFunction(grid, np.zeros(grid.n_points))


def interior(grid, margin=0.5):
    return grid.window_mask(0.0, grid.r_max - margin)


def test_check_dimension():
    assert check_dimension(4) == 4
    assert check_dimension(7.0) == 7
    with pytest.raises(DimensionError):
        check_dimension(3)
    with pytest.raises(DimensionError):
        check_dimension(4.5)


@pytest.mark.parametrize("n,q,r", [(4, 3.0, -12.0), (5, 13.125, -20.0),
                                   (6, 24.0, -30.0), (8, 60.0, -56.0)])
def test_hyperbolic_constants(n, q, r):
    cc = hyperbolic_curvature_report(n)
    assert cc.Q_hyp == pytest.approx(q, abs=1e-12)
    assert cc.R_hyp == pytest.approx(r, abs=1e-12)
    if n >= 5:
        assert cc.Q_hyp == pytest.approx(n * (n * n - 4.0) / 8.0, abs=1e-12)
    assert cc.R_hyp == -n * (n - 1.0)


def test_laplacian_of_known_profile(grid1024):
    """Lap f = f'' + (n-1) coth(r) f' on an even profile, against the
    analytic value for f = exp(-r^2/2)."""
    g = grid1024
    n = 5
    r = g.r.astype(float)
    f = np.exp(-r ** 2 / 2.0)
    lap = laplacian_values(f, g, n)
    fp = -r * f
    fpp = (r ** 2 - 1.0) * f
    coth = np.empty_like(r)
    coth[1:] = np.cosh(r[1:]) / np.sinh(r[1:])
    exact = np.empty_like(r)
    exact[1:] = fpp[1:] + (n - 1.0) * coth[1:] * fp[1:]
    exact[0] = n * fpp[0]
    m = interior(g)
    assert np.abs(lap - exact)[m].max() < 1e-6


def test_laplacian_origin_closure(grid1024):
    """At r = 0 the radial Laplacian reduces to n f''(0)."""
    g = grid1024
    r = g.r.astype(float)
    f = np.cos(r) * np.exp(-r ** 2 / 4.0)
    for n in (4, 6):
        lap = laplacian_values(f, g, n)
        d2 = differentiate(f, float(g.h), 2)
        assert abs(float(lap[0]) - n * float(d2[0])) < 1e-6


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("grid", [RadialGrid(12.0, 1024),
                                  RadialGrid(9.0, 700)], ids=repr)
def test_laplacian_cached_coth_is_bit_identical(grid, dtype):
    """The per-grid coth table changes no bit of the Laplacian: every row
    off the origin equals f'' + (n-1) cosh(r)/sinh(r) f' evaluated afresh
    in the input's dtype, on the first call and on a cached one."""
    n = 5
    r = grid.r.astype(dtype)
    f = (1.0 + r * r) / np.cosh(r) ** 3
    d1 = differentiate(f, grid.h, 1)
    d2 = differentiate(f, grid.h, 2)
    want = d2[1:] + (n - 1) * (np.cosh(r[1:]) / np.sinh(r[1:])) * d1[1:]
    for _ in range(2):
        got = laplacian_values(f, grid, n)
        assert got.dtype == dtype
        assert np.array_equal(got[1:], want)
    coth = geometry._coth(grid, np.dtype(dtype))
    assert coth.dtype == dtype
    assert not coth.flags.writeable


@pytest.mark.parametrize("n", [4, 5, 6])
def test_q_of_trivial_factor_is_hyperbolic(n, grid2048):
    """q_of_conformal at u = 0 reproduces n(n^2-4)/8 pointwise."""
    g = grid2048
    q = q_of_conformal(zero_on(g), n)
    cc = hyperbolic_curvature_report(n)
    m = interior(g)
    assert np.abs(np.asarray(q.values, float) - cc.Q_hyp)[m].max() < 1e-8


@pytest.mark.parametrize("n", [4, 5, 6])
def test_scalar_of_trivial_factor_is_hyperbolic(n, grid2048):
    g = grid2048
    s = scalar_of_conformal(zero_on(g), n)
    m = interior(g)
    assert np.abs(np.asarray(s.values, float) + n * (n - 1.0))[m].max() < 1e-8


def test_positivity_guard(grid1024):
    """The Q and scalar laws and the constant-Q right-hand side refuse a
    power-regime factor with 1 + u <= 0 through the one `check_positive`,
    with one message; the exponential regime has no positivity
    constraint."""
    g = grid1024
    u = RadialFunction(g, np.full(g.n_points, -1.5))
    f = TargetCurvature(hyperbolic_curvature_report(5).Q_hyp, 5, grid=g)
    for law in (q_of_conformal, scalar_of_conformal,
                lambda u, n: nonlinear_rhs(u.values, f, n)):
        with pytest.raises(PositivityError, match=r"^conformal factor needs "
                           r"1 \+ u > 0; violated first at r=0$"):
            law(u, 5)
    for law in (q_of_conformal, scalar_of_conformal):
        law(u, 4)


def test_paneitz_on_constant(grid2048):
    """P c = c (n-4)/2 Q for constants (pure zeroth-order term)."""
    g = grid2048
    ones = np.ones(g.n_points)
    m = interior(g)
    for n in (4, 5, 6):
        cc = hyperbolic_curvature_report(n)
        pv = paneitz_values(ones, g, n)
        expect = 0.5 * (n - 4.0) * cc.Q_hyp
        assert np.abs(np.asarray(pv, float) - expect)[m].max() < 1e-7, n


def test_paneitz_factored_form(grid1024):
    """P = (Lap - n)(Lap + (n^2-4)/2) + (n+4)/2 Q on decaying profiles
    (n >= 5), checked pointwise on the interior."""
    g = grid1024
    n = 5
    r = g.r.astype(float)
    u = np.cosh(r) * np.exp(-r ** 2 / 4.0)  # smooth and even
    cc = hyperbolic_curvature_report(n)
    pv = paneitz_values(u, g, n)
    lap_u = laplacian_values(u, g, n)
    inner = lap_u + 0.5 * (n * n - 4.0) * u
    outer = laplacian_values(inner, g, n) - n * inner
    expect = outer + 0.5 * (n + 4.0) * cc.Q_hyp * u
    m = g.window_mask(0.0, g.r_max - 1.0)
    scale = np.abs(np.asarray(pv, float))[m].max()
    assert np.abs(np.asarray(pv - expect, float))[m].max() < 1e-5 * scale


def test_q_of_conformal_round_trip_n4(grid2048):
    """For the exponential regime, Q~ e^{4u} recovers (P u + 2 Q)/2."""
    g = grid2048
    n = 4
    r = g.r.astype(float)
    u = 1e-2 * np.exp(-r ** 2 / 8.0)
    uf = RadialFunction(g, u)
    q = q_of_conformal(uf, n)
    pu = paneitz_values(u, g, n)
    m = interior(g)
    lhs = np.asarray(q.values, float) * np.exp(4.0 * u)
    rhs = (np.asarray(pu, float) + 6.0) / 2.0
    assert np.abs(lhs - rhs)[m].max() < 1e-9


# ---------------------------------------------------------------------------
# the small-field Paneitz kernel (paneitz_values(..., extended=False))

EPS = np.finfo(float).eps


def _small_field_error(v, grid, n):
    """(error, size): the largest gap, over every row, between
    paneitz_values(..., extended=False) and the longdouble oracle, and
    the oracle's max|P v|."""
    fast = paneitz_values(v, grid, n, extended=False)
    assert fast.dtype == np.float64 and fast.shape == v.shape
    want = paneitz_values(np.asarray(v, np.longdouble), grid, n)
    return (float(np.abs(fast - want).max()), float(np.abs(want).max()))


@pytest.fixture(scope="module")
def solve_u2():
    """{(n, points): the double u2 arrays whose P the residuals of three
    constant-Q solves applied}, captured at the one small-field call."""
    captured = {}
    original = nonlinear.paneitz_values

    def record(values, grid, n, extended=True):
        if not extended:
            captured.setdefault((n, grid.n_points), []).append(
                np.array(values))
        return original(values, grid, n, extended)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonlinear, "paneitz_values", record)
        for points in (1024, 4096):
            g = RadialGrid(12.0, points)
            for n in (4, 5, 6):
                m = build_machinery(n, g)
                f = TargetCurvature(hyperbolic_curvature_report(n).Q_hyp, n,
                                    grid=g)
                for amplitude in (9e-4, 4e-4, -9e-4):
                    report, _ = fixed_point_solve(amplitude, f,
                                                  IterationConfig(), m)
                    assert report.converged
    return captured


@pytest.mark.parametrize("points", [64, 1024, 4096])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_small_field_paneitz_on_random_fields(n, points):
    """On grid-scale random fields, where P v is as large as the stencils
    make it, the fused double kernel meets the longdouble chain on every
    row, the origin and the two outer rows included, to 16 eps max|P v|.
    Measured: at most 2.4 eps max|P v| over these cases."""
    g = RadialGrid(12.0, points)
    rng = np.random.default_rng(points + n)
    for scale in (1e-3, 1e-6, 1e-9):
        err, size = _small_field_error(scale * rng.standard_normal(points),
                                       g, n)
        assert err <= 16 * EPS * size


@pytest.mark.parametrize("points", [1024, 4096])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_small_field_paneitz_on_solve_u2(n, points, solve_u2):
    """On a solve's u2, smooth, P u2 is far below the rounding scale
    eps max|u2| / h^4 of any double stencil chain (the composed weights
    sum to about 40 / h^4 at the origin row); the fused kernel stays
    within 128 eps max|u2| / h^4 of the longdouble chain on every row.
    Measured: at most 49 there; the per-derivative double chain it
    replaced reached 107."""
    g = RadialGrid(12.0, points)
    arrays = solve_u2[(n, points)]
    assert len(arrays) == 3
    for u2 in arrays:
        err, _ = _small_field_error(u2, g, n)
        unit = EPS * float(np.abs(u2).max() / g.h ** 4)
        assert err <= 128 * unit


def test_warm_solve_differentiates_nothing(monkeypatch):
    """A warm solve applies P to u2 by the fused kernel alone: no
    `differentiate` call (P k-hat is memoized by build_machinery)."""
    calls = []
    original = grid_module.differentiate

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    for owner in (grid_module, geometry, ucurve):
        monkeypatch.setattr(owner, "differentiate", counted)
    g = RadialGrid(12.0, 1100)
    m = build_machinery(5, g)
    f = TargetCurvature(hyperbolic_curvature_report(5).Q_hyp, 5, grid=g)
    # the hooks are live: build_machinery's P k-hat passes them
    assert calls
    report, _ = fixed_point_solve(6e-4, f, IterationConfig(), m)
    assert report.converged
    calls.clear()
    report, _ = fixed_point_solve(-8e-4, f, IterationConfig(), m)
    assert report.converged
    assert calls == []



def per_call_paneitz_conformal(phi, w, grid, n):
    """paneitz_conformal_values with each conformal Laplacian formed afresh,
    e^{-2w} (Lap f + (n-2) w' f') with its own w' and e^{-2w}."""
    cc = hyperbolic_curvature_report(n)
    h = grid.h
    A, B, B_s, ric_ss, ric_ang, R_scal = geometry.warped_product_curvature(
        w, grid, n)

    def lap_conf(vals):
        return np.exp(-2.0 * w) * (laplacian_values(vals, grid, n)
                                   + (n - 2.0) * differentiate(w, h, 1)
                                   * differentiate(vals, h, 1))

    G = (cc.a_n * R_scal - cc.b_n * ric_ss) * (differentiate(phi, h, 1) / A)
    with np.errstate(divide="ignore", invalid="ignore"):
        div = (differentiate(G, h, 1, parity=-1) / A
               + (n - 1) * (B_s / B) * G)
    div[~np.isfinite(div)] = 0.0
    out = lap_conf(lap_conf(phi)) - div
    if n > 4:
        q_conf = (-2.0 / (n - 2) ** 2 * (ric_ss ** 2 + (n - 1) * ric_ang ** 2)
                  + (n ** 3 - 4 * n ** 2 + 16 * n - 16)
                  / (8.0 * (n - 1) ** 2 * (n - 2) ** 2) * R_scal ** 2
                  - lap_conf(R_scal) / (2.0 * (n - 1)))
        out = out + 0.5 * (n - 4) * q_conf * phi
    return out


@pytest.mark.parametrize("n", [4, 5, 6])
def test_conformal_paneitz_matches_per_call_laplacians(n):
    """paneitz_conformal_values takes w' and e^{-2w} once for its two or
    three conformal Laplacians, and equals the evaluation that forms them
    per call bit for bit, in longdouble and in double."""
    from qcurve.verify import covariance_pair
    g = RadialGrid(12.0, 1024)
    w, phi = covariance_pair(g, (0.3, -0.5, 0.2), (1.0, 0.4, -0.7))
    for dtype in (np.longdouble, float):
        wd, pd = np.asarray(w, dtype), np.asarray(phi, dtype)
        got = geometry.paneitz_conformal_values(pd, wd, g, n)
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, per_call_paneitz_conformal(pd, wd, g, n))
