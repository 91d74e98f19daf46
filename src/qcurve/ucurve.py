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
coordinate expressions.  The fixed-point solver is the constant-Q
scheme (`nonlinear.projected_contraction`), with three qualitatively
different kernel regimes depending on alpha (oscillatory, integer-root,
and real-split with no regular decaying kernel; the last is solved on an
origin-excised domain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (hyperbolic_curvature_report, laplacian_values,
                       q_of_conformal)
from .grid import RadialFunction, check_samples, differentiate
from .indicial import DegenerateOperatorError, u_indicial_spectrum
from .linear import (BandedFactor, WindowError, _close_band, _equation_band,
                     _fit_boundary, _hc_sums, _regular_kernel, apply_L,
                     assemble, factor_banded, make_projection, solve_banded)
from .nonlinear import (Machinery, check_amplitude, iterate_fixed_point,
                        projected_contraction, solve_report)

__all__ = [
    "DetParams",
    "u_curvature_hyperbolic",
    "u_nonlinear_rhs",
    "u_linearized_apply",
    "u_kernel_element",
    "u_kernel_regime",
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


def _nonlinear_values(wv, d1, d2, lap, cd1, params):
    """T(w) of `u_nonlinear_rhs` from w, its radial derivatives, Lap w and
    coth(r) w'."""
    g6 = 6.0 * params.gamma3
    return ((u_curvature_hyperbolic(params) / g6)
            * (np.expm1(4.0 * wv) - 4.0 * wv)
            - _nonlin_terms(d1, d2, lap, cd1))


def _coth_weighted(d1, d2, r):
    """coth(r) w' with its regular limit w''(0) at the origin."""
    out = np.empty_like(d1)
    out[1:] = d1[1:] / np.tanh(r[1:])
    out[0] = d2[0]
    return out


def u_nonlinear_rhs(w, grid, params):
    """T(w) of the samples w on `grid`: every term of the constant-U
    equation beyond L w,

    T(w) = (U/(6 g3))(e^{4w} - 1 - 4w) - Nonlin(w),

    so the equation reads L w = T(w); T vanishes quadratically at w = 0.
    """
    if params.alpha == -1:
        raise DegenerateOperatorError(
            "alpha = -1 degenerates the fourth-order family")
    wv = np.asarray(check_samples(w, grid), float)
    d1 = differentiate(wv, grid.h, 1)
    d2 = differentiate(wv, grid.h, 2)
    lap = laplacian_values(wv, grid, 4)
    cd1 = _coth_weighted(d1, d2, grid.r.astype(float))
    return _nonlinear_values(wv, d1, d2, lap, cd1, params)


def u_linearized_apply(w, params):
    """L w = ((1+alpha) Lap + 6 alpha)(Lap - 4) w, factored application."""
    op = assemble(w.grid, alpha=params.alpha)
    return RadialFunction(w.grid, apply_L(op, w.values))


def _el_rhs_values(wv, grid, d1, d2, params):
    """Right-hand side of the Euler-Lagrange equation (curvature scale
    1/(6 gamma3)) on raw arrays sampled on `grid`."""
    a = params.alpha
    lap = laplacian_values(wv, grid, 4)
    lap2 = laplacian_values(lap, grid, 4)
    cd1 = _coth_weighted(d1, d2, grid.r.astype(float))
    nonlin = _nonlin_terms(d1, d2, lap, cd1)
    linear_geo = (2.0 * a) * (-3.0 * lap) + (1.0 / 3.0 - 2.0 * a / 3.0) \
        * (-12.0) * lap
    u_over = u_curvature_hyperbolic(params) / (6.0 * params.gamma3)
    return (1.0 + a) * lap2 + linear_geo + nonlin + u_over


def u_e_residual(w, grid, params, window=None):
    """Sup over the interior window of |U_implied(w) - target|, w samples
    on `grid` and U_implied = 6 gamma3 e^{-4w} (EL right-hand side): the
    deformed metric has constant U-curvature exactly when it vanishes."""
    target = u_curvature_hyperbolic(params)
    wv = np.asarray(check_samples(w, grid), float)
    d1 = differentiate(wv, grid.h, 1)
    d2 = differentiate(wv, grid.h, 2)
    rhs = _el_rhs_values(wv, grid, d1, d2, params)
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
    d1 = differentiate(wv, grid.h, 1)
    lap_w = laplacian_values(wv, grid, 4)
    q_t = np.asarray(q_of_conformal(w, 4).values, float)
    r_dev = np.exp(-2.0 * wv) * (-12.0 - 6.0 * lap_w - 6.0 * d1 ** 2) + 12.0
    # Lap~ of a constant vanishes: differentiate the deviation only, so the
    # O(1) background does not feed stencil noise into the result
    d1_r = differentiate(r_dev, grid.h, 1)
    lap_r = laplacian_values(r_dev, grid, 4)
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


# an oscillatory U kernel is fitted over at least this many periods
OSCILLATORY_PERIODS = 1.25


def u_kernel_regime(alpha):
    """(regime, alpha~) of the T3 kernel: "oscillatory" with frequency
    |alpha~|, else "real_decaying" (3/2 - alpha~ > 0) or "real_split"."""
    spec = u_indicial_spectrum(alpha)
    at_sq = spec.extras["alpha_tilde_sq"]
    if at_sq < 0.0:
        return "oscillatory", math.sqrt(-at_sq)
    at = math.sqrt(at_sq)
    if 1.5 - at > 0.0:
        return "real_decaying", at
    return "real_split", at


def u_kernel_element(params, grid):
    """Regular decaying kernel element of T3 = (1+alpha) Lap + 6 alpha.

    Oscillatory regime: leading order x^{3/2 +- i |alpha~|}, fitted like
    the constant-Q kernels.  Real regime with 3/2 - alpha~ > 0 (e.g.
    alpha = 1/2, roots {1, 2}): the regular solution decays like
    x^{3/2 - alpha~}, normalized by its fitted leading coefficient.  In the
    split regime 3/2 - alpha~ < 0 (e.g. alpha = -7/16) the regular T3
    branch grows and no regular decaying kernel exists; the x^4 branch of
    Lap - 4, normalized the same way, carries the datum instead (see
    `_solve_excised`).
    """
    a = float(params.alpha)
    regime, beta = u_kernel_regime(a)
    if regime == "real_split":
        raise WindowError(
            "alpha = %g: the regular T3 branch grows like x^{%.3f}; the "
            "kernel datum lives on the x^4 branch of the excised-domain "
            "solve" % (a, 1.5 - beta))
    factor = BandedFactor(grid, 4, 1.0 + a, 6.0 * a)
    mu, beta = (1.5, beta) if regime == "oscillatory" else (1.5 - beta, None)
    return _regular_kernel(
        factor, mu, beta, OSCILLATORY_PERIODS, alpha=a,
        log_terms_possible=u_indicial_spectrum(a).log_terms_possible)


# ---------------------------------------------------------------------------
# split regime: origin-excised solve on the x^4 branch


def _segment_rhs(w_seg, r_seg, h, params):
    """T(w) of the constant-U problem on the excised segment, with
    one-sided derivatives at its inner edge."""
    d1 = differentiate(w_seg, h, 1, parity=None)
    d2 = differentiate(w_seg, h, 2, parity=None)
    lap = d2 + 3.0 / np.tanh(r_seg) * d1
    return _nonlinear_values(w_seg, d1, d2, lap, d1 / np.tanh(r_seg),
                             params)


def _even_extension(grid, i0, seg_values, seg_h):
    """Cosmetic inner filler for the excised solution: an even polynomial
    in r matching value and four derivatives at the excision radius, so
    full-grid diagnostics stay smooth.  The filler region solves nothing
    and is excluded from every residual window."""
    r0 = float(grid.r[i0])
    derivs = [seg_values[0]] + [
        differentiate(seg_values[:12], seg_h, m, parity=None)[0]
        for m in range(1, 5)]
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


def _solve_excised(amplitude, params, cfg, grid, at):
    """(report, w) of the split-regime solve on [1, r_max]: w = w1 + w2 with
    w1 = amplitude k^4, k^4 the x^4 branch scaled to unit fitted
    coefficient, and w2 <- G T(w1 + w2), where G inverts the two factors
    and subtracts the x^4 component of the result, as the full ball's G
    subtracts P1."""
    a = params.alpha
    i0 = grid.index_of(1.0)
    r_seg = grid.r[i0:].astype(float)
    h = float(grid.h)
    # the decaying branch x^4 (1 + 12/7 x^2 + ...) of Lap - 4 (roots 1, -4):
    # its Harish-Chandra series has boundary coefficient exactly 1
    k4, k4s = (np.exp(-4 * grid.r[i0:]) * _hc_sums(
        grid.r[i0:], -4, (1, -4), 4)).real.astype(float)
    fit_window = (max(r_seg[0] + 1.0, grid.r_max - 10.0), grid.r_max - 0.25)

    def fit_x4(values):
        return _fit_boundary(grid, values, fit_window, 4.0, i0=i0)[0]

    # scaled to unit fitted coefficient, as `_regular_kernel` scales a
    # kernel: the window fit reads about 1 + 8e-4, and the amplitude names
    # the fitted datum
    unit = fit_x4(k4)
    k4 = k4 / unit
    w1 = amplitude * k4
    robin_rhs = amplitude * (k4s[-1] / unit + 4.0 * k4[-1])
    mu3 = 1.5 + at                       # decaying T3 root
    # inner Dirichlet rows; outer Robin rows on the decaying roots; both
    # bands are factored once for every iteration of the solve
    band3 = factor_banded(_close_band(
        _equation_band(grid, 4, 1.0 + a, 6.0 * a, i0), grid.h, mu3, 1.0))
    band1 = factor_banded(_close_band(
        _equation_band(grid, 4, 1.0, -4.0, i0), grid.h, 4.0, 1.0))

    def update(w2):
        rhs = _segment_rhs(w1 + w2, r_seg, h, params)
        rhs[0] = rhs[-1] = 0.0
        y = solve_banded(band3, rhs)
        y[0], y[-1] = w1[0], robin_rhs
        w2 = solve_banded(band1, y) - w1     # the solve gives w1 + w2
        return w2 - fit_x4(w2) * k4

    w2, converged, iterations, ratios, step = iterate_fixed_point(
        update, np.zeros(len(r_seg)), cfg)
    w_seg = w1 + w2
    filler = _even_extension(grid, i0, w_seg, h)
    w = RadialFunction(grid, np.concatenate([filler, w_seg]))
    r0 = float(grid.r[i0])
    return solve_report(
        cfg, converged, amplitude, fit_x4(w_seg), ratios, step,
        iterations=iterations, excised_r0=r0,
        residual=u_e_residual(w.values, grid, params,
                              window=(r0 + 0.5, grid.r_max - 0.5))), w


def u_fixed_point_solve(amplitude, params, cfg, grid):
    """Constant-U-curvature metric on `grid` with kernel datum `amplitude`.

    Every regime runs one projected contraction w2 <- G T(w1 + w2), w1 the
    unit kernel times `amplitude` and G subtracting the kernel component.
    Dispatch on the kernel regime of alpha: oscillatory (the constant-Q
    scheme verbatim), real integer-root (rank-one leading-coefficient
    projection; possible log terms are reported, not asserted), or real
    split (alpha = -7/16 class: the x^4 branch of Lap - 4 carries the
    datum and the problem is solved on an origin-excised domain, since the
    branch blows up like r^{-2} there; see `_solve_excised`).  Returns
    (SolveReport, w).
    """
    if params.alpha == -1:
        raise DegenerateOperatorError(
            "alpha = -1 degenerates the fourth-order family")
    check_amplitude(amplitude, cfg)
    regime, at = u_kernel_regime(params.alpha)
    if regime == "real_split":
        return _solve_excised(amplitude, params, cfg, grid, at)

    kernel = u_kernel_element(params, grid)
    # the projection fits the kernel's oscillatory pair, or in the real
    # regime its x^mu coefficient
    machinery = Machinery(grid=grid, n=4,
                          operator=assemble(grid, alpha=params.alpha),
                          kernel=kernel, projection=make_projection(kernel))
    report, w = projected_contraction(
        amplitude, kernel.base.values * float(amplitude), cfg, machinery,
        lambda w1, w2: u_nonlinear_rhs(w1 + w2, grid, params),
        lambda w1, w2: u_e_residual(w1 + w2, grid, params))
    if kernel.diagnostics.get("log_terms_possible") and not report.message:
        report.message = ("integer-separated indicial roots: log(x) terms "
                          "possible in the boundary expansion")
    return report, w
