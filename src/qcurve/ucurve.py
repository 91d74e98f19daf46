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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .geometry import (ConformalFactor, check_dimension,
                       hyperbolic_curvature_report, laplacian_values,
                       q_of_conformal)
from .grid import RadialFunction, differentiate, fd_weights
from .indicial import DegenerateOperatorError, u_indicial_spectrum
from .linear import (BandedFactor, IllConditionedFitError, KernelElement,
                     WindowError, _default_window, _fit_oscillation,
                     _hc_sums, _measure_oscillation, _measured_decay,
                     apply_L, assemble, generalized_inverse, make_projection,
                     project_P1, solve_T1)
from .nonlinear import AdmissibilityError, IterationConfig, SolveReport

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


def _fit_decay_coefficient(r, values, mu, n_nuisance=6):
    """Coefficient of x^mu in `values` on the sample r, with a nuisance
    dictionary of half-step faster powers absorbing the remainder."""
    cols = [np.exp(-(mu + 0.5 * j) * r) for j in range(n_nuisance + 1)]
    design = np.column_stack(cols)
    norms = np.linalg.norm(design, axis=0)
    sol, _, rank, _ = np.linalg.lstsq(design / norms,
                                      np.asarray(values, float), rcond=None)
    if rank < design.shape[1]:
        raise IllConditionedFitError("decay-coefficient fit is degenerate")
    return float(sol[0] / norms[0])


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
        ca, cb = _fit_oscillation(grid, vals, 4, beta, window)
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
        mask = grid.window_mask(*window)
        c = _fit_decay_coefficient(grid.r[mask].astype(float),
                                   np.asarray(vals, float)[mask], mu)
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


def _real_projection_amplitude(kernel, values, window):
    """Leading-coefficient projection amplitude for the real regime: fit
    the x^mu coefficient of `values` and of the kernel base on the same
    window; the ratio is linear in the data, so repeated application is
    idempotent to rounding."""
    grid = kernel.grid
    mu = kernel.diagnostics["decay_exact"]
    mask = grid.window_mask(*window)
    r = grid.r[mask].astype(float)
    c = _fit_decay_coefficient(r, np.asarray(values, float)[mask], mu)
    c0 = _fit_decay_coefficient(
        r, np.asarray(kernel.base.values, float)[mask], mu)
    return c / c0


def _solve_full_ball(amplitude, params, cfg, grid, target, regime):
    a = params.alpha
    op = assemble(grid, alpha=a)
    kernel = u_kernel_element(params, grid, dtype=np.longdouble)
    if regime == "oscillatory":
        proj = make_projection(kernel)

        def fit_amp(fn):
            return project_P1(proj, fn).amplitude

        def g_apply(rhs):
            return generalized_inverse(op, rhs, proj)
    else:
        window = kernel.window_r

        def fit_amp(fn):
            return _real_projection_amplitude(kernel, fn.values, window)

        def g_apply(rhs):
            v = solve_T1(op, rhs)
            kv = kernel.base.values
            ks = kernel.base.d(1)
            w_raw = op.t2.solve_anchored(v.values, kv[-1], ks[-1])
            c = _real_projection_amplitude(kernel, w_raw, window)
            return RadialFunction(grid, w_raw - c
                                  * np.asarray(kv, float))

    w1v = np.asarray(kernel.with_amplitude(amplitude).profile.values)
    w2 = np.zeros(grid.n_points)
    ratios, prev_step = [], None
    converged, message = False, ""
    for iterations in range(1, cfg.max_iter + 1):
        w_tot = RadialFunction(grid, w1v + w2)
        rhs = u_nonlinear_rhs(w_tot, params, target)
        new = g_apply(rhs)
        step = float(np.abs(new.values - w2).max())
        if prev_step is not None and prev_step > 0:
            ratios.append(step / prev_step)
        prev_step = step
        w2 = np.asarray(new.values, float)
        if step < cfg.tol:
            converged = True
            break
    else:
        message = "no convergence in %d iterations" % cfg.max_iter
    w = RadialFunction(grid, w1v + w2)
    fitted = fit_amp(w)
    return w, converged, iterations, ratios, fitted, message, kernel


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


def _segment_solve(grid, i0, scale, constant, rhs_interior, inner_value,
                   robin_rate, robin_rhs):
    """(scale Lap + constant) u = rhs on nodes i0..N-1 with inner Dirichlet
    u(i0) = inner_value and outer Robin u' + robin_rate u = robin_rhs."""
    npts = grid.n_points
    m = npts - i0
    h = float(grid.h)
    lu = (4, 3)
    ab = np.zeros((lu[0] + lu[1] + 1, m))

    def put(j, jj, v):
        ab[lu[1] + j - jj, jj] += v

    r = grid.r.astype(float)
    coth = 1.0 / np.tanh(r[i0:])
    d2c = fd_weights(range(-2, 3), 2).astype(float) / h ** 2
    d1c = fd_weights(range(-2, 3), 1).astype(float) / h
    d2in = fd_weights(range(-1, 4), 2).astype(float) / h ** 2
    d1in = fd_weights(range(-1, 4), 1).astype(float) / h
    d2out = fd_weights(range(-3, 2), 2).astype(float) / h ** 2
    d1out = fd_weights(range(-3, 2), 1).astype(float) / h

    put(0, 0, 1.0)
    for j in range(1, m - 1):
        if j == 1:
            offs, w2, w1 = range(-1, 4), d2in, d1in
        elif j == m - 2:
            offs, w2, w1 = range(-3, 2), d2out, d1out
        else:
            offs, w2, w1 = range(-2, 3), d2c, d1c
        a1 = scale * 3.0 * coth[j]
        for off, ww2, ww1 in zip(offs, w2, w1):
            put(j, j + off, scale * ww2 + a1 * ww1)
        put(j, j, constant)
    d1b = fd_weights(range(-4, 1), 1).astype(float) / h
    j = m - 1
    for off, w in zip(range(-4, 1), d1b):
        put(j, j + off, w)
    put(j, j, float(robin_rate))

    rhs = np.asarray(rhs_interior, float).copy()
    rhs[0] = float(inner_value)
    rhs[-1] = float(robin_rhs)
    return solve_banded(lu, ab, rhs)


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
    r0_target = 1.0
    i0 = grid.index_of(r0_target)
    r_seg = grid.r[i0:].astype(float)
    h = float(grid.h)
    # the decaying branch x^4 (1 + 12/7 x^2 + ...) of Lap - 4 (roots 1, -4),
    # normalized so its fitted x^4 boundary coefficient is 1
    k4, k4s = (np.exp(-4 * grid.r[i0:]) * _hc_sums(
        grid.r[i0:], -4, (1, -4), 4)).real.astype(float)
    fit_window = (max(r_seg[0] + 1.0, grid.r_max - 10.0), grid.r_max - 0.25)
    wmask = (r_seg >= fit_window[0]) & (r_seg <= fit_window[1])
    c_base = _fit_decay_coefficient(r_seg[wmask], k4[wmask], 4.0)
    k4, k4s = k4 / c_base, k4s / c_base
    mu3 = 1.5 + at                       # decaying T3 root

    a_eff = float(amplitude)
    ratios, iterations_total = [], 0
    converged, message = False, ""
    w2 = np.zeros(len(r_seg))
    fitted = math.nan
    for outer in range(5):
        w1 = a_eff * k4
        robin_rhs = a_eff * (k4s[-1] + 4.0 * k4[-1])
        prev_step = None
        converged = False
        for iterations in range(1, cfg.max_iter + 1):
            iterations_total += 1
            rhs = _segment_rhs(w1 + w2, r_seg, h, params, target)
            y = _segment_solve(grid, i0, 1.0 + a, 6.0 * a, rhs,
                               0.0, mu3, 0.0)
            w2_new = _segment_solve(grid, i0, 1.0, -4.0, y,
                                    w1[0], 4.0, robin_rhs)
            w2_new = w2_new - w1         # total solve returned w1 + w2
            step = float(np.abs(w2_new - w2).max())
            if prev_step is not None and prev_step > 0:
                ratios.append(step / prev_step)
            prev_step = step
            w2 = w2_new
            if step < cfg.tol:
                converged = True
                break
        else:
            message = "no convergence in %d iterations" % cfg.max_iter
            break
        fitted = _fit_decay_coefficient(r_seg[wmask],
                                        (w1 + w2)[wmask], 4.0)
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
    )
    if excised_r0 is not None:
        report.excised_r0 = excised_r0
    if converged and abs(fitted - amplitude) > 1e-6 * abs(amplitude) + 1e-10:
        report.converged = False
        report.message = ("kernel datum drifted: fitted %g vs prescribed %g"
                          % (fitted, amplitude))
    return report, w
