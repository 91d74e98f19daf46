import math

import numpy as np
import pytest

from qcurve.grid import RadialFunction, RadialGrid, differentiate
from qcurve.indicial import DegenerateOperatorError
from qcurve.linear import BandedFactor, WindowError, _hc_sums
from qcurve.nonlinear import AdmissibilityError, IterationConfig
from qcurve.ucurve import (DetParams, _el_rhs_values, sigma2_identity_check,
                           u_curvature_conformal, u_curvature_hyperbolic,
                           u_e_residual, u_fixed_point_solve,
                           u_kernel_element, u_linearized_apply,
                           u_nonlinear_rhs)

PRESETS = {
    "conformal_laplacian": (1.0, -4.0, -2.0 / 3.0, 0.5, -12.0),
    "spin_laplacian": (7.0, -88.0, -14.0 / 3.0, 11.0 / 7.0, -264.0),
    "paneitz": (-0.25, -14.0, 8.0 / 3.0, -7.0 / 16.0, -42.0),
}


def test_preset_parameters():
    for tag, (g1, g2, g3, alpha, u_hyp) in PRESETS.items():
        p = DetParams.preset(tag)
        assert (p.gamma1, p.gamma2, p.gamma3) == (g1, g2, g3)
        assert p.alpha == pytest.approx(alpha, abs=1e-14)
        assert u_curvature_hyperbolic(p) == pytest.approx(u_hyp, abs=1e-12)
        assert p.tag == tag


def test_det_params_validation():
    with pytest.raises(ValueError):
        DetParams(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        DetParams.preset("nonsense")
    d = DetParams(0.0, 6.0, 1.0).to_dict()
    assert d["alpha"] == pytest.approx(0.5)


def test_sigma2_identity():
    left, right = sigma2_identity_check(DetParams(0.0, -12.0, 1.0))
    assert left == pytest.approx(-3.0, abs=1e-10)
    assert right == pytest.approx(-3.0, abs=1e-10)
    # scale invariance of the identity
    left2, right2 = sigma2_identity_check(DetParams(0.0, -36.0, 3.0))
    assert left2 == pytest.approx(-3.0, abs=1e-10)
    assert right2 == pytest.approx(right, abs=1e-12)


def test_sigma2_preconditions():
    with pytest.raises(ValueError):
        sigma2_identity_check(DetParams(1.0, -12.0, 1.0))
    with pytest.raises(ValueError):
        sigma2_identity_check(DetParams(0.0, -4.0, 1.0))


def test_rhs_vanishes_at_zero(grid1024):
    p = DetParams.preset("conformal_laplacian")
    z = RadialFunction(grid1024, np.zeros(grid1024.n_points))
    t = u_nonlinear_rhs(z, p)
    assert np.abs(t.values).max() == 0.0


def test_rhs_quadratic_scaling(grid1024):
    g = grid1024
    p = DetParams.preset("spin_laplacian")
    r = g.r.astype(float)
    base = (1.0 + r ** 2) / np.cosh(r) ** 3
    sups = []
    for c in (2e-3, 1e-3):
        t = u_nonlinear_rhs(RadialFunction(g, c * base), p)
        sups.append(np.abs(t.values).max())
    assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.05)


def test_rhs_degenerate_alpha(grid1024):
    z = RadialFunction(grid1024, np.zeros(grid1024.n_points))
    with pytest.raises(DegenerateOperatorError):
        u_nonlinear_rhs(z, DetParams(0.0, -12.0, 1.0))


@pytest.mark.parametrize("tag", sorted(PRESETS))
def test_linearization_matches_frechet_derivative(tag, grid2048):
    """The factored operator L equals the finite-difference Frechet
    derivative at 0 of the full Euler-Lagrange map (independent
    assembly through the raw radial contractions)."""
    g = grid2048
    p = DetParams.preset(tag)
    r = g.r.astype(float)
    base = (1.0 + r ** 2) / np.cosh(r) ** 3
    u_over = u_curvature_hyperbolic(p) / (6.0 * p.gamma3)

    def full_map(wv):
        d1 = differentiate(wv, g.h, 1)
        d2 = differentiate(wv, g.h, 2)
        from qcurve.geometry import laplacian_values
        rhs = _el_rhs_values(wv, lambda v: laplacian_values(v, g, 4),
                             d1, d2, r, p)
        return rhs - u_over * np.exp(4.0 * wv)

    eps = 1e-6
    fd = (full_map(eps * base) - full_map(-eps * base)) / (2.0 * eps)
    lin = np.asarray(
        u_linearized_apply(RadialFunction(g, base), p).values, float)
    mask = g.window_mask(0.0, g.r_max - 0.5)
    scale = np.abs(lin[mask]).max()
    assert np.abs((fd - lin)[mask]).max() < 1e-4 * scale


def test_oscillatory_kernel_frequency(grid2048):
    p = DetParams.preset("spin_laplacian")  # alpha = 11/7
    k = u_kernel_element(p, grid2048)
    beta = math.sqrt(51.0) / 6.0
    d = k.diagnostics
    assert abs(d["frequency_measured"] - beta) < 1e-3 * beta
    assert abs(d["envelope_exponent_measured"] - 1.5) < 0.01 * 1.5


def test_integer_root_kernel_decay(grid2048):
    p = DetParams.preset("conformal_laplacian")  # alpha = 1/2, roots {1,2}
    k = u_kernel_element(p, grid2048)
    d = k.diagnostics
    assert abs(d["decay_measured"] - 1.0) < 0.01
    assert d["log_terms_possible"] is True


def _alpha_for(alpha_tilde):
    """alpha with alpha~^2 = 9/4 - 6 alpha/(1+alpha) = alpha_tilde^2."""
    c = 2.25 - alpha_tilde ** 2
    return c / (6.0 - c)


@pytest.mark.parametrize("alpha", [
    PRESETS["conformal_laplacian"][3], PRESETS["spin_laplacian"][3],
    5.0 / 19.0, 3.0 / 5.0, _alpha_for(1.0 + 1e-6), _alpha_for(1.0 - 1e-6),
], ids=["A", "D2", "5/19", "3/5", "at=1+1e-6", "at=1-1e-6"])
def test_t3_kernel_matches_spherical_function(alpha, grid2048):
    """The regular T3 solution against the independent 2F1 oracle, also at
    and next to the confluent points alpha~ = 1 (alpha = 5/19: integer
    root gap, logarithmic Harish-Chandra solution) and alpha~ = 0
    (alpha = 3/5: double root)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    g = grid2048
    t3 = BandedFactor(g, 4, 1.0 + alpha, 6.0 * alpha)
    vals, _ = t3.shoot_regular(dtype=np.longdouble)
    c = mp.mpf(str(np.longdouble(6.0 * alpha) / np.longdouble(1.0 + alpha)))
    lam = mp.sqrt(c - mp.mpf(9) / 4)
    lead = -1.5 + mp.sqrt(max(mp.mpf(9) / 4 - c, 0))
    for r_target in (0.5, 1.5, 3.0, 6.0, 9.0, g.r_max - 0.01):
        i = g.index_of(r_target)
        r = mp.mpf(str(g.r[i]))
        want = mp.re(mp.hyp2f1((1.5 + 1j * lam) / 2, (1.5 - 1j * lam) / 2, 2,
                               -mp.sinh(r) ** 2))
        err = abs(mp.mpf(str(vals[i])) - want) / ((1 + r) * mp.exp(lead * r))
        assert err < 1e-12, (r_target, float(err))


def test_x4_branch_matches_hypergeometric(grid2048):
    """The x^4 branch Phi_{-4} of Lap - 4 (excised split-regime solve)
    against (2 cosh r)^s 2F1(-s/2, (1-s)/2; 1-s-rho; sech^2 r), s = -4,
    rho = 3/2: values and slopes on r >= 1."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    g = grid2048
    r_seg = g.r[g.index_of(1.0):].astype(np.longdouble)
    vals, slopes = (np.exp(-4 * r_seg)
                    * _hc_sums(r_seg, -4, (1, -4), 4)).real

    def phi(r):
        return (2 * mp.cosh(r)) ** -4 * mp.hyp2f1(2, 2.5, 3.5, mp.sech(r) ** 2)

    for r_target in (1.0, 2.0, 4.0, 8.0, g.r_max - 0.01):
        j = g.index_of(r_target) - g.index_of(1.0)
        r = mp.mpf(str(r_seg[j]))
        env = mp.exp(-4 * r)
        assert abs(mp.mpf(str(vals[j])) - phi(r)) < 1e-15 * env
        assert abs(mp.mpf(str(slopes[j])) - mp.diff(phi, r)) < 1e-14 * env


def test_split_regime_kernel_needs_excision(grid2048):
    p = DetParams.preset("paneitz")  # alpha = -7/16
    with pytest.raises(WindowError):
        u_kernel_element(p, grid2048)


@pytest.mark.parametrize("tag", sorted(PRESETS))
def test_constant_u_solve(tag, grid2048):
    """All three presets: the solve converges, keeps its kernel datum, and
    the independent U-curvature recomputation returns the constant."""
    p = DetParams.preset(tag)
    report, w = u_fixed_point_solve(1e-3, p, IterationConfig(),
                                    grid=grid2048)
    assert report.converged
    assert report.iterations <= 15
    assert report.residual < 1e-6
    assert report.fitted_amplitude == pytest.approx(1e-3, abs=1e-9)
    u_vals = u_curvature_conformal(w, p)
    r0 = getattr(report, "excised_r0", None)
    lo = 0.0 if r0 is None else r0 + 0.5
    mask = grid2048.window_mask(lo, grid2048.r_max - 0.5)
    dev = np.abs(np.asarray(u_vals.values, float)
                 - u_curvature_hyperbolic(p))[mask].max()
    assert dev < 1e-6


@pytest.mark.parametrize("tag", ["spin_laplacian", "paneitz"])
def test_u_solve_reports_exhausted_iterations(tag, grid2048):
    """Full-ball (D2) and excised (P) solves that run out of iterations
    report it instead of claiming convergence."""
    report, _ = u_fixed_point_solve(1e-3, DetParams.preset(tag),
                                    IterationConfig(max_iter=1),
                                    grid=grid2048)
    assert report.converged is False
    assert report.iterations == 1
    assert report.message == "no convergence in 1 iterations"


def test_split_solution_envelope(grid2048):
    """alpha = -7/16: the solution's boundary decay is the x^4 branch."""
    p = DetParams.preset("paneitz")
    report, w = u_fixed_point_solve(1e-3, p, IterationConfig(),
                                    grid=grid2048)
    assert report.converged
    g = grid2048
    mask = g.window_mask(g.r_max - 4.0, g.r_max - 0.5)
    slope = np.polyfit(g.r.astype(float)[mask],
                       np.log(np.abs(np.asarray(w.values, float)[mask])),
                       1)[0]
    assert abs(-slope - 4.0) < 0.04


def test_solve_zero_amplitude(grid1024):
    p = DetParams.preset("conformal_laplacian")
    report, w = u_fixed_point_solve(0.0, p, IterationConfig(), grid=grid1024)
    assert report.converged
    assert np.abs(w.values).max() == 0.0


def test_solve_guards(grid1024):
    p = DetParams.preset("conformal_laplacian")
    with pytest.raises(AdmissibilityError):
        u_fixed_point_solve(0.5, p, IterationConfig(), grid=grid1024)
    with pytest.raises(ValueError):
        u_fixed_point_solve(1e-3, p, IterationConfig())
    with pytest.raises(DegenerateOperatorError):
        u_fixed_point_solve(1e-3, DetParams(0.0, -12.0, 1.0),
                            IterationConfig(), grid=grid1024)


def test_e_residual_zero_profile(grid1024):
    p = DetParams.preset("spin_laplacian")
    z = RadialFunction(grid1024, np.zeros(grid1024.n_points))
    assert u_e_residual(z, p) < 1e-10
    # wrong target shows up as a constant defect
    assert u_e_residual(z, p, target_u=-260.0) == pytest.approx(4.0,
                                                                abs=1e-8)
