import math

import numpy as np
import pytest

from qcurve.geometry import laplacian_values
from qcurve.grid import RadialFunction, RadialGrid
from qcurve.indicial import oscillation_parameter
from qcurve.linear import (BAND, BandedFactor, WindowError, _equation_band,
                           apply_L, assemble, generalized_inverse,
                           kernel_element, make_projection, project_P1,
                           solve_T1)
from qcurve.ucurve import _segment_diff


def even_profile(grid, power=3):
    r = grid.r.astype(float)
    return 1.0 / np.cosh(r) ** power


def test_banded_factor_matches_laplacian(grid1024):
    g = grid1024
    n = 5
    f = BandedFactor(g, n, 1.0, (n * n - 4.0) / 2.0)
    r = g.r.astype(float)
    v = np.cos(2.0 * r) * np.exp(-r ** 2 / 8.0)
    got = f.apply(v)
    want = laplacian_values(v, g, n) + 0.5 * (n * n - 4.0) * v
    m = g.window_mask(0.0, g.r_max - 0.5)
    scale = np.abs(np.asarray(want, float))[m].max()
    assert np.abs(np.asarray(got - want, float))[m].max() < 1e-9 * scale


def band_matvec(ab, v):
    """Product of the solve_banded-layout matrix ab with v."""
    lower, upper = BAND
    m = len(v)
    out = np.zeros(m)
    for k in range(lower + upper + 1):
        d = upper - k           # column offset j - i held in band row k
        if d >= 0:
            out[:m - d] += ab[k, d:] * v[d:]
        else:
            out[-d:] += ab[k, :m + d] * v[:m + d]
    return out


@pytest.mark.parametrize("n, scale, constant", [
    (4, 1.0, 6.0), (5, 1.0, 10.5), (6, 1.0, 16.0),
    (4, 1.5, 3.0), (4, 1.0 + 11.0 / 7.0, 66.0 / 7.0),
    (4, 1.0 - 7.0 / 16.0, -42.0 / 16.0),
], ids=["T2 n=4", "T2 n=5", "T2 n=6", "T3 A", "T3 D2", "T3 P"])
def test_band_matches_stencils(n, scale, constant, grid2048):
    """The assembled band times a profile equals the stencil application
    on the rows the two discretizations share: BandedFactor.apply on the
    full ball (rows 0..N-3, origin row included), and the excised
    segment's operator built from _segment_diff (rows i0+2..N-3), whose
    inner row 0 is the Dirichlet identity.  Entries are O(scale/h^2), so
    agreement is to a rounding-level multiple of that."""
    g = grid2048
    r = g.r.astype(float)
    v = np.cos(3.0 * r) / np.cosh(r)
    h = float(g.h)
    tol = 2e-14 * abs(scale) / h ** 2
    full = band_matvec(_equation_band(g, n, scale, constant), v)
    want = np.asarray(BandedFactor(g, n, scale, constant).apply(v), float)
    assert np.abs(full - want)[:-2].max() < tol
    i0 = g.index_of(1.0)
    seg, vs = band_matvec(_equation_band(g, n, scale, constant, i0),
                          v[i0:]), v[i0:]
    want = scale * (_segment_diff(vs, h, 2) + (n - 1) / np.tanh(r[i0:])
                    * _segment_diff(vs, h, 1)) + constant * vs
    assert seg[0] == vs[0]
    assert np.abs(seg - want)[2:-2].max() < tol


def test_banded_factor_scale_and_constant(grid1024):
    g = grid1024
    alpha = 0.5
    f = BandedFactor(g, 4, 1.0 + alpha, 6.0 * alpha)
    v = even_profile(g)
    got = f.apply(v)
    want = (1.0 + alpha) * laplacian_values(v, g, 4) + 6.0 * alpha * v
    m = g.window_mask(0.0, g.r_max - 0.5)
    assert np.abs(np.asarray(got - want, float))[m].max() < 1e-8


def test_assemble_validation(grid512):
    with pytest.raises(ValueError):
        assemble(grid512)
    with pytest.raises(ValueError):
        assemble(grid512, n=5, alpha=0.5)
    op = assemble(grid512, n=6)
    assert op.family == "q" and op.robin == 6.0
    opu = assemble(grid512, alpha=0.5)
    assert opu.family == "u" and opu.robin == 4.0


@pytest.mark.parametrize("n", [4, 5])
def test_kernel_envelope_and_frequency(n, grid2048):
    """Fitted envelope exponent (n-1)/2 within 0.5%, frequency
    sqrt(n^2+2n-9)/2 within 0.1%."""
    k = kernel_element(n, grid2048)
    d = k.diagnostics
    env_exact = (n - 1.0) / 2.0
    beta = oscillation_parameter(n)
    assert abs(d["envelope_exponent_measured"] - env_exact) < 0.005 * env_exact
    assert abs(d["frequency_measured"] - beta) < 0.001 * beta


def test_kernel_satisfies_equation(grid1024, grid2048):
    """T2 k = 0 pointwise; the residual drops under refinement."""
    n = 4
    sups = []
    for g in (grid1024, grid2048):
        k = kernel_element(n, g, dtype=np.longdouble)
        t2 = BandedFactor(g, n, 1.0, (n * n - 4.0) / 2.0)
        res = t2.apply(k.base.values)
        m = g.window_mask(0.25, g.r_max - 0.5)
        sups.append(float(np.abs(np.asarray(res, float))[m].max()))
    assert sups[0] < 1e-5
    assert sups[0] / sups[1] > 4.0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kernel_matches_spherical_function(n, grid2048):
    """shoot_regular against an independent oracle at 6 radii up to r_max,
    relative to the envelope (1 + r) x^{(n-1)/2}: the regular solution of
    (Lap + c) k = 0 on H^n with k(0) = 1 is the spherical function
    2F1((rho + i beta)/2, (rho - i beta)/2; n/2; -sinh^2 r), rho = (n-1)/2
    (Helgason, Groups and Geometric Analysis, ch. IV)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    g = grid2048
    vals, _ = BandedFactor(g, n, 1.0, (n * n - 4.0) / 2.0).shoot_regular(
        dtype=np.longdouble)
    rho = mp.mpf(n - 1) / 2
    beta = mp.sqrt(mp.mpf(n * n + 2 * n - 9)) / 2
    for r_target in (0.5, 1.5, 3.0, 6.0, 9.0, g.r_max - 0.01):
        i = g.index_of(r_target)
        r = mp.mpf(str(g.r[i]))
        want = mp.re(mp.hyp2f1((rho + 1j * beta) / 2, (rho - 1j * beta) / 2,
                               mp.mpf(n) / 2, -mp.sinh(r) ** 2))
        err = abs(mp.mpf(str(vals[i])) - want) / ((1 + r) * mp.exp(-rho * r))
        assert err < 1e-12, (r_target, float(err))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kernel_outer_coefficient_is_c_function(n, grid2048):
    """The matched coefficient of Phi_s, s = -rho + i beta, is Harish-
    Chandra's c(beta) = 2^{n-2} Gamma(n/2) Gamma(i beta)
    / (sqrt(pi) Gamma(rho + i beta)), and the fitted leading amplitude
    |(a, b)| of the kernel element is 2 |c(beta)| up to the fit bias of
    the nuisance regression (3e-4 at n = 4 to 5e-3 at n = 6 on 2048
    points)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    t2 = BandedFactor(grid2048, n, 1.0, (n * n - 4.0) / 2.0)
    c1, c2 = t2._matched_outer()
    beta = mp.sqrt(mp.mpf(n * n + 2 * n - 9)) / 2
    rho = mp.mpf(n - 1) / 2
    want = (2 ** (n - 2) * mp.gamma(mp.mpf(n) / 2) * mp.gamma(1j * beta)
            / (mp.sqrt(mp.pi) * mp.gamma(rho + 1j * beta)))
    # k = c1 Re Phi_s + c2 Im Phi_s / beta = 2 Re(c(beta) Phi_s)
    got = (mp.mpf(str(c1)) - 1j * mp.mpf(str(c2)) / beta) / 2
    assert abs(got - want) < 1e-12 * abs(want)
    k = kernel_element(n, grid2048)
    fitted = 1.0 / float(np.asarray(k.base.values, float)[0])
    assert fitted == pytest.approx(2.0 * float(abs(want)), rel=1e-2)


def test_kernel_window_guard():
    g = RadialGrid(3.0, 256)
    with pytest.raises(WindowError):
        kernel_element(4, g)


def test_with_amplitude_scales_fit(grid2048):
    k = kernel_element(5, grid2048)
    k2 = k.with_amplitude(0.25)
    assert k2.amplitude == 0.25
    a, b = k.leading_fit
    a2, b2 = k2.leading_fit
    assert a2 == pytest.approx(0.25 * a)
    assert b2 == pytest.approx(0.25 * b)
    assert np.allclose(np.asarray(k2.profile.values, float),
                       0.25 * np.asarray(k.base.values, float))


def test_projection_recovers_kernel_amplitude(machinery5):
    """P1 (c k^) = c k^ for several amplitudes (idempotency on the span)."""
    proj = machinery5.projection
    for c in (1.0, -0.3, 2.5e-3):
        u = machinery5.kernel.with_amplitude(c).profile
        got = project_P1(proj, u)
        assert abs(got.amplitude - c) < 1e-8 * max(1.0, abs(c))


def test_projection_idempotent(machinery4):
    proj = machinery4.projection
    u = machinery4.kernel.with_amplitude(0.7).profile
    once = project_P1(proj, u)
    twice = project_P1(proj, once.profile)
    assert abs(twice.amplitude - once.amplitude) < 1e-8


def test_projection_annihilates_fast_decay(machinery5):
    """A pure x^n tail carries no x^{(n-1)/2} oscillation."""
    g = machinery5.grid
    u = RadialFunction(g, np.exp(-5.0 * g.r.astype(float)))
    got = project_P1(machinery5.projection, u)
    assert abs(got.amplitude) < 1e-10


def test_projection_superposition(machinery4):
    """P1 extracts the kernel part of kernel + fast remainder."""
    g = machinery4.grid
    rem = RadialFunction(g, 4.0 * np.exp(-2.0 * g.r.astype(float)))
    u = machinery4.kernel.with_amplitude(0.3).profile + rem
    got = project_P1(machinery4.projection, u)
    assert abs(got.amplitude - 0.3) < 1e-4


@pytest.mark.parametrize("power", [3, 4])
def test_generalized_inverse_left_identity(machinery5, power):
    """G L u = u - P1 u on manufactured decaying profiles."""
    m = machinery5
    u = RadialFunction(m.grid, even_profile(m.grid, power))
    f = apply_L(m.operator, u)
    got = generalized_inverse(m.operator, f, m.projection)
    want = u - project_P1(m.projection, u).profile
    scale = np.abs(want.values).max()
    assert np.abs(got.values - want.values).max() < 1e-5 * scale


def test_generalized_inverse_of_zero(machinery4):
    z = RadialFunction(machinery4.grid,
                       np.zeros(machinery4.grid.n_points))
    out = generalized_inverse(machinery4.operator, z, machinery4.projection)
    assert np.all(out.values == 0.0)


def test_generalized_inverse_kernel_free(machinery4):
    """P1 G f = 0: the generalized inverse lands in the complement."""
    m = machinery4
    f = RadialFunction(m.grid, even_profile(m.grid, 4))
    u2 = generalized_inverse(m.operator, f, m.projection)
    p = project_P1(m.projection, u2)
    assert abs(p.amplitude) < 1e-8 * max(1.0, np.abs(u2.values).max())


def test_solve_T1_inverts_factor(machinery5):
    m = machinery5
    f = RadialFunction(m.grid, even_profile(m.grid, 4))
    v = solve_T1(m.operator, f)
    back = m.operator.t1.apply(v.values)
    mask = m.grid.window_mask(0.0, m.grid.r_max - 0.5)
    scale = np.abs(f.values).max()
    assert np.abs(np.asarray(back, float) - f.values)[mask].max() \
        < 1e-7 * scale
    # the decaying branch was selected: the solution dies at the boundary
    assert np.abs(v.values[-10:]).max() < 1e-6 * np.abs(v.values).max()


def test_grid_mismatch_rejected(machinery4, grid1024):
    f = RadialFunction(grid1024, np.zeros(grid1024.n_points))
    with pytest.raises(ValueError):
        apply_L(machinery4.operator, f)
    with pytest.raises(ValueError):
        solve_T1(machinery4.operator, f)
    with pytest.raises(ValueError):
        generalized_inverse(machinery4.operator, f, machinery4.projection)
    with pytest.raises(ValueError):
        project_P1(machinery4.projection, f)
