"""Critical metrics of regularized determinants: the U-curvature problem.

In dimension four the conformal index density U = gamma1 |W|^2 + gamma2 Q
- gamma3 Lap R is constant on the hyperbolic model (Weyl vanishes, R is
constant, Q = 3), with value 3 gamma2.  Its conformal Euler-Lagrange
equation, divided by 6 gamma3 and written with alpha = gamma2/(12 gamma3),
reads

    (U~ / 6 gamma3) e^{4w} = (1+alpha) Lap^2 w + 2 Ric(grad w, grad w)
        + 2(|Hess w|^2 - (Lap w)^2) - 4 Hess w(grad w, grad w)
        - 2 |grad w|^2 Lap w + 2 alpha Ric_ij w_ij
        + (1/3 - 2 alpha/3) R Lap w + (1/3 + alpha/3)(grad R, grad w)
        + U / (6 gamma3),

whose linearization at w = 0 factors as ((1+alpha) Lap + 6 alpha)(Lap - 4).
On radial profiles the tensor contractions reduce to

    |Hess w|^2 = (w'')^2 + 3 (coth r w')^2,
    Hess w(grad w, grad w) = w'' (w')^2,
    Ric(grad w, grad w) = -3 (w')^2,     Ric_ij w_ij = -3 Lap w,

verified in the tests against finite-difference evaluations of the full
coordinate expressions.  The fixed-point solver mirrors the constant-Q
scheme, with three qualitatively different kernel regimes depending on
alpha (oscillatory, integer-root, and real-split with no regular decaying
kernel; the last is solved on an origin-excised domain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .geometry import (ConformalFactor, check_dimension,
                       hyperbolic_curvature_report, laplacian_values,
                       q_of_conformal)
from .grid import RadialFunction, differentiate
from .indicial import DegenerateOperatorError, u_indicial_spectrum
from .linear import (BAND, BandedFactor, IllConditionedFitError,
                     KernelElement, WindowError, _close_band, _default_window,
                     _equation_band, _fit_boundary, _hc_sums,
                     _measure_oscillation, _measured_decay, apply_L, assemble,
                     generalized_inverse, make_projection, project_P1,
                     solve_T1)
from .nonlinear import (AdmissibilityError, IterationConfig, SolveReport,
                        iterate_fixed_point)

__all__ = [
    "DetParams",
    "u_curvature_hyperbolic",
    "u_nonlinear_rhs",
    "u_linearized_apply",
    "u_kernel_element",
    "u_fixed_point_solve",
    "u_curvature_conformal",
    "u_e_residual",
    "sigma2_identity_check",
]

_PRESETS = {
    "conformal_laplacian": (1.0, -4.0, -2.0 / 3.0),
    "spin_laplacian": (7.0, -88.0, -14.0 / 3.0),
    "paneitz": (-0.25, -14.0, 8.0 / 3.0),
}


@dataclass(frozen=True)
class DetParams:
    """Coefficients (gamma1, gamma2, gamma3) of the determinant functional.

    alpha = gamma2 / (12 gamma3) controls the linearized operator; the
    solver path requires alpha != -1 (that value degenerates the equation
    to second order, the sigma_2 regime).
    """

    gamma1: float
    gamma2: float
    gamma3: float
    tag: str = "custom"

    def __post_init__(self):
        if self.gamma3 == 0.0:
            raise ValueError("gamma3 must be nonzero")

    @property
    def alpha(self):
        return self.gamma2 / (12.0 * self.gamma3)

    @classmethod
    def preset(cls, tag):
        if tag not in _PRESETS:
            raise ValueError("unknown preset %r; choose from %s"
                             % (tag, sorted(_PRESETS)))
        g1, g2, g3 = _PRESETS[tag]
        return cls(g1, g2, g3, tag=tag)

    def to_dict(self):
        return {"gamma1": self.gamma1, "gamma2": self.gamma2,
                "gamma3": self.gamma3, "alpha": self.alpha, "tag": self.tag}


def u_curvature_hyperbolic(params):
    """U of the hyperbolic model: 3 gamma2 (W = 0, Lap R = 0, Q = 3)."""
    return 3.0 * params.gamma2


# ---------------------------------------------------------------------------
# radial right-hand sides


def _nonlin_terms(d1, d2, lap, coth_d1):
    """The gradient-square nonlinearity of the Euler-Lagrange equation on
    radial profiles (see module docstring for the contractions)."""
    return (-6.0 * d1 ** 2
            + 2.0 * (d2 ** 2 + 3.0 * coth_d1 ** 2 - lap ** 2)
            - 4.0 * d2 * d1 ** 2
            - 2.0 * d1 ** 2 * lap)


def _coth_weighted(d1, d2, r):
    """coth(r) w' with its regular limit w''(0) at the origin."""
    out = np.empty_like(d1)
    out[1:] = d1[1:] / np.tanh(r[1:])
    out[0] = d2[0]
    return out


def u_nonlinear_rhs(w, params, target_u=None):
    """T(w): every term of the U-curvature equation beyond L w.

    T(w) = (U~/(6 g3))(e^{4w} - 1 - 4w) + ((U~ - U)/(6 g3))(1 + 4w)
           - Nonlin(w),

    so the equation reads L w = T(w); T vanishes quadratically at w = 0
    for the constant-U problem (target U~ = U).
    """
    if params.alpha == -1:
        raise DegenerateOperatorError(
            "alpha = -1 degenerates the fourth-order family")
    grid = w.grid
    u_base = u_curvature_hyperbolic(params)
    target = u_base if target_u is None else float(target_u)
    g6 = 6.0 * params.gamma3
    wv = np.asarray(w.values, float)
    d1 = differentiate(wv, grid.h, 1, parity=w.parity)
    d2 = differentiate(wv, grid.h, 2, parity=w.parity)
    lap = laplacian_values(wv, grid, 4, parity=w.parity)
    cd1 = _coth_weighted(d1, d2, grid.r.astype(float))
    nonlin = _nonlin_terms(d1, d2, lap, cd1)
    vals = ((target / g6) * (np.expm1(4.0 * wv) - 4.0 * wv)
            + ((target - u_base) / g6) * (1.0 + 4.0 * wv)
            - nonlin)
    return RadialFunction(grid, vals)


def u_linearized_apply(w, params):
    """L w = ((1+alpha) Lap + 6 alpha)(Lap - 4) w, factored application."""
    op = assemble(w.grid, alpha=params.alpha)
    return apply_L(op, w)


def _el_rhs_values(wv, lap_fn, d1, d2, r, params):
    """Right-hand side of the Euler-Lagrange equation (curvature scale
    1/(6 gamma3)) on raw arrays; lap_fn must apply the radial Laplacian."""
    a = params.alpha
    lap = lap_fn(wv)
    lap2 = lap_fn(lap)
    cd1 = _coth_weighted(d1, d2, r)
    nonlin = _nonlin_terms(d1, d2, lap, cd1)
    linear_geo = (2.0 * a) * (-3.0 * lap) + (1.0 / 3.0 - 2.0 * a / 3.0) \
        * (-12.0) * lap
    u_over = u_curvature_hyperbolic(params) / (6.0 * params.gamma3)
    return (1.0 + a) * lap2 + linear_geo + nonlin + u_over


def u_e_residual(w, params, target_u=None, window=None):
    """Sup over the interior window of |U_implied(w) - target|, where
    U_implied = 6 gamma3 e^{-4w} (EL right-hand side): the deformed metric
    has constant U-curvature exactly when this vanishes."""
    grid = w.grid
    u_base = u_curvature_hyperbolic(params)
    target = u_base if target_u is None else float(target_u)
    wv = np.asarray(w.values, float)
    d1 = differentiate(wv, grid.h, 1, parity=w.parity)
    d2 = differentiate(wv, grid.h, 2, parity=w.parity)
    rhs = _el_rhs_values(
        wv, lambda v: laplacian_values(v, grid, 4, parity=w.parity),
        d1, d2, grid.r.astype(float), params)
    implied = 6.0 * params.gamma3 * np.exp(-4.0 * wv) * rhs
    if window is None:
        window = (0.0, grid.r_max - 0.5)
    mask = grid.window_mask(*window)
    return float(np.abs(implied[mask] - target).max())


def u_curvature_conformal(w, params):
    """U of e^{2w} g recomputed from the definition: gamma2 Q~ - gamma3
    Lap~ R~, with Q~ from the Paneitz law, R~ = e^{-2w}(-12 - 6 Lap w -
    6 (w')^2), and Lap~ f = e^{-2w}(Lap f + 2 w' f').  Independent of the
    Euler-Lagrange route (|W| = 0 on the conformally flat model)."""
    grid = w.grid
    wv = np.asarray(w.values, float)
    d1 = differentiate(wv, grid.h, 1, parity=w.parity)
    lap_w = laplacian_values(wv, grid, 4, parity=w.parity)
    q_t = np.asarray(q_of_conformal(ConformalFactor(w, 4), grid).values,
                     float)
    r_dev = np.exp(-2.0 * wv) * (-12.0 - 6.0 * lap_w - 6.0 * d1 ** 2) + 12.0
    # Lap~ of a constant vanishes: differentiate the deviation only, so the
    # O(1) background does not feed stencil noise into the result
    d1_r = differentiate(r_dev, grid.h, 1, parity=w.parity)
    lap_r = laplacian_values(r_dev, grid, 4, parity=w.parity)
    lap_conf = np.exp(-2.0 * wv) * (lap_r + 2.0 * d1 * d1_r)
    vals = params.gamma2 * q_t - params.gamma3 * lap_conf
    return RadialFunction(grid, vals)


def sigma2_identity_check(params):
    """(U/(12 gamma3), -2 sigma_2) on the hyperbolic model, which must
    agree in the degenerate regime alpha = -1, gamma1 = 0."""
    if params.gamma1 != 0.0:
        raise ValueError("the sigma_2 identity needs gamma1 = 0")
    if params.alpha != -1.0:
        raise ValueError("the sigma_2 identity holds at alpha = -1 "
                         "(got alpha = %g)" % params.alpha)
    n = 4
    cc = hyperbolic_curvature_report(n)
    left = u_curvature_hyperbolic(params) / (12.0 * params.gamma3)
    # Schouten A = (Ric - R/(2(n-1)) g)/(n-2) = -(1/2) g here
    a_coeff = (-(n - 1.0) - cc.R_hyp / (2.0 * (n - 1.0))) / (n - 2.0)
    tr_a = n * a_coeff
    a_sq = n * a_coeff ** 2
    sigma2 = 0.5 * (tr_a ** 2 - a_sq)
    return left, -2.0 * sigma2


# ---------------------------------------------------------------------------
# kernel elements per alpha regime


def _regime(alpha):
    spec = u_indicial_spectrum(alpha)
    at_sq = spec.extras["alpha_tilde_sq"]
    if at_sq < 0.0:
        return "oscillatory", math.sqrt(-at_sq)
    at = math.sqrt(at_sq)
    if 1.5 - at > 0.0:
        return "real_decaying", at
    return "real_split", at


def u_kernel_element(params, grid, amplitude=1.0, window=None,
                     dtype=np.float64):
    """Regular decaying kernel element of T3 = (1+alpha) Lap + 6 alpha.

    Oscillatory regime: leading order x^{3/2 +- i |alpha~|}, fitted like
    the constant-Q kernels.  Real regime with 3/2 - alpha~ > 0 (e.g.
    alpha = 1/2, roots {1, 2}): the regular solution decays like
    x^{3/2 - alpha~}, normalized by its fitted leading coefficient.  In the
    split regime 3/2 - alpha~ < 0 (e.g. alpha = -7/16) the regular T3
    branch grows and no regular decaying kernel exists; the x^4 branch of
    Lap - 4 is used instead, see u_fixed_point_solve.
    """
    a = float(params.alpha)
    regime, beta = _regime(a)
    if regime == "real_split":
        raise WindowError(
            "alpha = %g: the regular T3 branch grows like x^{%.3f}; the "
            "kernel datum lives on the x^4 branch of the excised-domain "
            "solve" % (a, 1.5 - beta))
    factor = BandedFactor(grid, 4, 1.0 + a, 6.0 * a)
    vals, _ = factor.shoot_regular(dtype=dtype)
    window = window or _default_window(grid)
    spec = u_indicial_spectrum(a)
    if regime == "oscillatory":
        periods = beta * (window[1] - window[0]) / (2.0 * math.pi)
        if periods < 1.25:
            raise WindowError(
                "fit window spans %.2f oscillation periods; need 1.25 "
                "(increase r_max)" % periods)
        ca, cb = _fit_boundary(grid.r, vals, window, 1.5, beta)
        scale = math.hypot(ca, cb)
        if scale == 0.0:
            raise IllConditionedFitError(
                "kernel has no leading oscillation")
        freq, envelope = _measure_oscillation(grid, vals, 4, window)
        diagnostics = {
            "beta_exact": beta,
            "frequency_measured": freq,
            "envelope_exponent_exact": 1.5,
            "envelope_exponent_measured": envelope,
            "fit_periods": periods,
            "alpha": a,
            "log_terms_possible": spec.log_terms_possible,
        }
        fit = (ca / scale * amplitude, cb / scale * amplitude)
    else:
        mu = 1.5 - beta
        c, = _fit_boundary(grid.r, vals, window, mu)
        if c == 0.0:
            raise IllConditionedFitError("kernel has no x^%g leading "
                                         "coefficient" % mu)
        scale = abs(c)
        diagnostics = {
            "decay_exact": mu,
            "decay_measured": _measured_decay(grid, vals),
            "alpha": a,
            "log_terms_possible": spec.log_terms_possible,
        }
        fit = (math.copysign(amplitude, c), 0.0)
    base = RadialFunction(grid, np.asarray(vals) / scale)
    return KernelElement(grid=grid, n=4, amplitude=float(amplitude),
                         base=base, leading_fit=fit, window_r=window,
                         diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# solves: oscillatory / integer-root regimes on the full ball


def _solve_full_ball(amplitude, params, cfg, grid, target, regime):
    op = assemble(grid, alpha=params.alpha)
    kernel = u_kernel_element(params, grid, dtype=np.longdouble)
    if regime == "oscillatory":
        proj = make_projection(kernel)

        def fit_amp(values):
            return project_P1(proj, RadialFunction(grid, values)).amplitude

        def g_apply(rhs):
            return generalized_inverse(op, rhs, proj).values
    else:
        # leading-coefficient projection: the x^mu coefficient of the data
        # over that of the kernel base on the same window, linear in the
        # data, so repeated application is idempotent to rounding
        mu, window = kernel.diagnostics["decay_exact"], kernel.window_r
        kv = kernel.base.values
        c0, = _fit_boundary(grid.r, kv, window, mu)
        anchor = (kv[-1], kernel.base.d(1)[-1])
        kv = np.asarray(kv, float)

        def fit_amp(values):
            return _fit_boundary(grid.r, values, window, mu)[0] / c0

        def g_apply(rhs):
            v = solve_T1(op, rhs)
            w_raw = op.t2.solve_anchored(v.values, *anchor)
            return w_raw - fit_amp(w_raw) * kv

    w1v = np.asarray(kernel.with_amplitude(amplitude).profile.values)

    def update(w2):
        return g_apply(u_nonlinear_rhs(RadialFunction(grid, w1v + w2),
                                       params, target))

    w2, converged, iterations, ratios = iterate_fixed_point(
        update, np.zeros(grid.n_points), cfg)
    message = ("" if converged
               else "no convergence in %d iterations" % cfg.max_iter)
    w = RadialFunction(grid, w1v + w2)
    return w, converged, iterations, ratios, fit_amp(w.values), message, \
        kernel


# ---------------------------------------------------------------------------
# split regime: origin-excised solve on the x^4 branch


def _segment_diff(values, h, m):
    """m-th derivative on a segment away from the origin: the shared
    stencils, with the first rows recomputed from the reversed array so no
    parity fold reaches across the inner edge."""
    d = differentiate(values, h, m, parity=1)
    rev = differentiate(np.asarray(values)[::-1], h, m, parity=1)
    nn = len(d)
    sign = (-1) ** m
    for i in range(3):
        d[i] = sign * rev[nn - 1 - i]
    return d


def _segment_rhs(w_seg, r_seg, h, params, target):
    """T(w) on the excised segment (same terms as u_nonlinear_rhs)."""
    u_base = u_curvature_hyperbolic(params)
    g6 = 6.0 * params.gamma3
    d1 = _segment_diff(w_seg, h, 1)
    d2 = _segment_diff(w_seg, h, 2)
    lap = d2 + 3.0 / np.tanh(r_seg) * d1
    cd1 = d1 / np.tanh(r_seg)
    nonlin = _nonlin_terms(d1, d2, lap, cd1)
    return ((target / g6) * (np.expm1(4.0 * w_seg) - 4.0 * w_seg)
            + ((target - u_base) / g6) * (1.0 + 4.0 * w_seg)
            - nonlin)


def _even_extension(grid, i0, seg_values, seg_h):
    """Cosmetic inner filler for the excised solution: an even polynomial
    in r matching value and four derivatives at the excision radius, so
    full-grid diagnostics stay smooth.  The filler region solves nothing
    and is excluded from every residual window."""
    r0 = float(grid.r[i0])
    derivs = [seg_values[0]] + [
        _segment_diff(seg_values[:12], seg_h, m)[0] for m in range(1, 5)]
    powers = [0, 2, 4, 6, 8]
    mat = np.zeros((5, 5))
    for i in range(5):           # i-th derivative at r0
        for j, p in enumerate(powers):
            if p >= i:
                c = 1.0
                for q in range(i):
                    c *= (p - q)
                mat[i, j] = c * r0 ** (p - i)
    coeffs = np.linalg.solve(mat, np.asarray(derivs, float))
    r_in = grid.r[:i0].astype(float)
    return sum(c * r_in ** p for c, p in zip(coeffs, powers))


def _solve_excised(amplitude, params, cfg, grid, target, at):
    a = params.alpha
    i0 = grid.index_of(1.0)
    r_seg = grid.r[i0:].astype(float)
    h = float(grid.h)
    # the decaying branch x^4 (1 + 12/7 x^2 + ...) of Lap - 4 (roots 1, -4):
    # its Harish-Chandra series has boundary coefficient exactly 1
    k4, k4s = (np.exp(-4 * grid.r[i0:]) * _hc_sums(
        grid.r[i0:], -4, (1, -4), 4)).real.astype(float)
    fit_window = (max(r_seg[0] + 1.0, grid.r_max - 10.0), grid.r_max - 0.25)
    mu3 = 1.5 + at                       # decaying T3 root
    # inner Dirichlet rows; outer Robin rows on the decaying roots
    band3 = _close_band(_equation_band(grid, 4, 1.0 + a, 6.0 * a, i0),
                        grid.h, mu3, 1.0)
    band1 = _close_band(_equation_band(grid, 4, 1.0, -4.0, i0),
                        grid.h, 4.0, 1.0)

    def update(w2):
        rhs = _segment_rhs(w1 + w2, r_seg, h, params, target)
        rhs[0] = rhs[-1] = 0.0
        y = solve_banded(BAND, band3, rhs)
        y[0], y[-1] = w1[0], robin_rhs
        return solve_banded(BAND, band1, y) - w1   # the solve gives w1 + w2

    a_eff = float(amplitude)
    ratios, iterations_total = [], 0
    converged, message = False, ""
    w2 = np.zeros(len(r_seg))
    fitted = math.nan
    for _ in range(5):
        w1 = a_eff * k4
        robin_rhs = a_eff * (k4s[-1] + 4.0 * k4[-1])
        w2, converged, iterations, trace = iterate_fixed_point(update, w2,
                                                               cfg)
        iterations_total += iterations
        ratios += trace
        if not converged:
            message = "no convergence in %d iterations" % cfg.max_iter
            break
        fitted, = _fit_boundary(r_seg, w1 + w2, fit_window, 4.0)
        miss = fitted - amplitude
        if abs(miss) <= 0.25 * (1e-6 * abs(amplitude) + 1e-10):
            break
        a_eff -= miss                     # renormalize the kernel datum
    w_seg = a_eff * k4 + w2
    filler = _even_extension(grid, i0, w_seg, h)
    w_full = RadialFunction(grid, np.concatenate([filler, w_seg]))
    return w_full, converged, iterations_total, ratios, fitted, message, \
        float(grid.r[i0])


def u_fixed_point_solve(amplitude, params, cfg=None, grid=None,
                        target_u=None):
    """Constant-U-curvature metric with kernel datum `amplitude`.

    Dispatch on the kernel regime of alpha: oscillatory (the constant-Q
    machinery verbatim), real integer-root (rank-one leading-coefficient
    projection; possible log terms are reported, not asserted), or real
    split (alpha = -7/16 class: the x^4 branch of Lap - 4 carries the
    datum and the problem is solved on an origin-excised domain, since the
    branch blows up like r^{-2} there).  Returns (SolveReport, w).
    """
    if params.alpha == -1:
        raise DegenerateOperatorError(
            "alpha = -1 degenerates the fourth-order family")
    if cfg is None:
        cfg = IterationConfig()
    if grid is None:
        raise ValueError("supply the grid to solve on")
    if abs(amplitude) > cfg.epsilon:
        raise AdmissibilityError(
            "kernel amplitude %g exceeds the configured bound %g"
            % (amplitude, cfg.epsilon))
    target = (u_curvature_hyperbolic(params) if target_u is None
              else float(target_u))
    regime, at = _regime(params.alpha)

    if amplitude == 0.0 and target == u_curvature_hyperbolic(params):
        w = RadialFunction(grid, np.zeros(grid.n_points))
        report = SolveReport(converged=True, iterations=1,
                             contraction_ratios=[], residual=0.0,
                             amplitude=0.0, fitted_amplitude=0.0,
                             message="zero kernel datum")
        return report, w

    excised_r0 = None
    if regime == "real_split":
        w, converged, iterations, ratios, fitted, message, excised_r0 = \
            _solve_excised(amplitude, params, cfg, grid, target, at)
        residual = u_e_residual(w, params, target,
                                window=(excised_r0 + 0.5, grid.r_max - 0.5))
    else:
        w, converged, iterations, ratios, fitted, message, kernel = \
            _solve_full_ball(amplitude, params, cfg, grid, target, regime)
        residual = u_e_residual(w, params, target)
        if kernel.diagnostics.get("log_terms_possible") and not message:
            message = ("integer-separated indicial roots: log(x) terms "
                       "possible in the boundary expansion")

    report = SolveReport(
        converged=converged,
        iterations=iterations,
        contraction_ratios=ratios,
        residual=residual,
        amplitude=float(amplitude),
        fitted_amplitude=float(fitted),
        message=message,
        excised_r0=excised_r0,
    )
    if converged and abs(fitted - amplitude) > 1e-6 * abs(amplitude) + 1e-10:
        report.converged = False
        report.message = ("kernel datum drifted: fitted %g vs prescribed %g"
                          % (fitted, amplitude))
    return report, w
