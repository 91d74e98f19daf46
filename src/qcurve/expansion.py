"""Boundary-expansion fitting and weighted-norm diagnostics.

Decaying solutions of the fourth-order problems carry a leading boundary
oscillation

    u ~ x^{(n-1)/2} (a cos(beta ln x) + b sin(beta ln x)),

equivalently u00 x^{(n-1)/2 + i beta} + conj with u00 = (a - i b)/2.  This
module extracts the pair (a, b) with a controlled remainder estimate, turns
sampled profiles into discrete weighted-norm numbers (with a divergence
sentinel), and extrapolates the linear response coefficient of the scalar
curvature along the kernel branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (ConformalFactor, check_dimension,
                       hyperbolic_curvature_report, scalar_of_conformal,
                       warped_product_curvature)
from .grid import RadialFunction
from .indicial import oscillation_parameter, q_indicial_spectrum
from .linear import WindowError, _default_window, _fit_boundary

__all__ = [
    "ExpansionFit",
    "fit_leading",
    "weighted_norm",
    "scalar_asymptotic_coefficient",
    "scalar_linearization_coefficient",
    "SignalToNoiseError",
]


class SignalToNoiseError(ValueError):
    """The requested ratio is dominated by discretization noise."""


@dataclass(frozen=True)
class ExpansionFit:
    """Leading oscillatory boundary term of a decaying radial profile.

    coefficients (a, b) refer to the basis
    x^{leading_exponent} (cos(frequency ln x), sin(frequency ln x)); for
    real input the complex pair is u00 = (a - i b)/2 with its conjugate.
    """

    leading_exponent: float
    frequency: float
    a: float
    b: float
    window_x: tuple[float, float]
    residual: float
    remainder_exponent: float
    log_terms_flag: bool

    @property
    def u00(self):
        return complex(self.a, -self.b) / 2.0

    @property
    def amplitude(self):
        return math.hypot(self.a, self.b)

    def evaluate(self, grid):
        """The fitted leading term sampled on `grid`."""
        r = grid.r.astype(float)
        env = np.exp(-self.leading_exponent * r)
        # ln x = -r
        return env * (self.a * np.cos(self.frequency * r)
                      - self.b * np.sin(self.frequency * r))

    def to_dict(self):
        return {
            "leading_exponent": self.leading_exponent,
            "frequency": self.frequency,
            "a": self.a,
            "b": self.b,
            "u00": [self.u00.real, self.u00.imag],
            "window_x": list(self.window_x),
            "residual": self.residual,
            "remainder_exponent": self.remainder_exponent,
            "log_terms_flag": self.log_terms_flag,
        }


def _remainder_slope(grid, residual, window):
    """Decay exponent (in x) of |residual| over the window, from the slope
    of ln|residual| against r = -ln x."""
    mask = grid.window_mask(*window)
    r = grid.r[mask].astype(float)
    res = np.abs(np.asarray(residual, float)[mask])
    floor = max(res.max() * 1e-10, 1e-300)
    keep = res > floor
    if keep.sum() < 8:
        return math.inf  # residual at rounding level: no measurable remainder
    slope = np.polyfit(r[keep], np.log(res[keep]), 1)[0]
    return -slope


def fit_leading(u, dim, window=None):
    """Least-squares leading-term fit of a decaying radial profile.

    The window is an (r_lo, r_hi) pair and must contain at least three
    periods of the boundary oscillation.  The regression carries the same
    nuisance dictionary of faster-decaying powers as the kernel fits, so
    smooth remainders do not leak into (a, b).
    """
    n = check_dimension(dim)
    grid = u.grid
    beta = oscillation_parameter(n)
    if window is None:
        window = _default_window(grid)
    lo, hi = window
    periods = beta * (hi - lo) / (2.0 * math.pi)
    if periods < 3.0:
        raise WindowError(
            "window [%g, %g] spans %.2f oscillation periods; need >= 3"
            % (lo, hi, periods))
    lam = (n - 1) / 2.0
    a, b = _fit_boundary(grid.r, u.values, window, lam, beta)
    r = grid.r.astype(float)
    fitted = np.exp(-lam * r) * (a * np.cos(beta * r) - b * np.sin(beta * r))
    resid = np.asarray(u.values, float) - fitted
    mask = grid.window_mask(lo, hi)
    return ExpansionFit(
        leading_exponent=lam,
        frequency=beta,
        a=a,
        b=b,
        window_x=(float(math.exp(-hi)), float(math.exp(-lo))),
        residual=float(np.abs(resid[mask]).max()),
        remainder_exponent=float(_remainder_slope(grid, resid, window)),
        log_terms_flag=q_indicial_spectrum(n).log_terms_possible,
    )


# Segment-to-segment growth beyond this factor marks the weighted sup as
# divergent rather than merely unsaturated.
_GROWTH_FACTOR = 1.05


def weighted_norm(u, nu, order=0):
    """Discrete sup-norm surrogate of the weighted space x^nu with `order`
    edge derivatives: max over j <= order of sup |x^{-nu} (x d/dx)^j u|.

    Since x = e^{-r}, the edge derivative (x d/dx)^j is (-d/dr)^j, supplied
    by the shared stencils.  If the running sup still grows monotonically
    through the outer segments of the grid (no saturation before the
    boundary), the norm is reported as the +inf sentinel.
    """
    if not 0 <= order <= 4:
        raise ValueError("order must be 0..4")
    grid = u.grid
    r = grid.r.astype(float)
    weight = np.exp(float(nu) * r)  # x^{-nu}
    best = 0.0
    diverges = False
    # outer half, split into four segments; each spans at least a third of
    # an oscillation period for every operator family in scope, so segment
    # maxima track the envelope
    seg_edges = np.linspace(grid.r_max / 2.0, grid.r_max, 5)
    for j in range(order + 1):
        prof = np.abs(np.asarray(u.d(j), float)) * weight
        best = max(best, float(prof.max()))
        seg_max = []
        for lo, hi in zip(seg_edges[:-1], seg_edges[1:]):
            m = (r >= lo) & (r <= hi)
            seg_max.append(prof[m].max())
        if all(nxt > _GROWTH_FACTOR * cur
               for cur, nxt in zip(seg_max[:-1], seg_max[1:])):
            diverges = True
    if diverges:
        return math.inf
    return best


def scalar_linearization_coefficient(n):
    """Linear response of the scalar curvature along the kernel branch.

    The conformal scalar-curvature law, linearized at the hyperbolic base
    and evaluated on the x^{(n-1)/2 + i beta} indicial branch (where the
    Laplacian acts as multiplication by -(n^2-4)/2), gives

        R_new - R = c_n u + o(x^{(n-1)/2}),
        c_n = 2 (n-1)(n^2 + 2n - 4) / (n - 4)   for n >= 5,
        c_4 = 60.

    c_n is the ratio against u itself, where u = u00 x^s + conj (see
    `ExpansionFit`).  Against Re(u00 x^s) = u/2 the coefficient is 2 c_n
    (120, 496, 440 for n = 4, 5, 6), which is not a coefficient against u
    in any normalization.

    The n = 4 value comes from the exponential law: the linearization is
    -6 Lap u - 2 R u = (36 + 24) u on the branch.  The same values follow
    from linearizing the warped-product scalar curvature of
    `geometry.warped_product_curvature`, which uses no conformal law.
    """
    n = check_dimension(n)
    if n == 4:
        return 60.0
    return 2.0 * (n - 1.0) * (n * n + 2.0 * n - 4.0) / (n - 4.0)


def _scalar_deviation(u, n, route):
    """R_new - R on the grid of u, by the conformal law or by the
    warped-product curvature of g~ = e^{2w} g."""
    grid = u.grid
    factor = ConformalFactor(u, n)
    if route == "conformal":
        R_hyp = hyperbolic_curvature_report(n).R_hyp
        return np.asarray(scalar_of_conformal(factor, grid, n).values,
                          float) - R_hyp
    if route != "warped":
        raise ValueError("route must be 'conformal' or 'warped', got %r"
                         % (route,))
    # extended precision: the nested stencils amplify the rounding of B by
    # 1/h^2 (in double the n = 5 ratio at 2048 points is off by a relative
    # 3e-6, in longdouble by 1e-7)
    uv = np.asarray(u.values, np.longdouble)
    # e^{2w} = e^{2u} (n = 4) or (1+u)^{4/(n-4)} (n >= 5)
    w = uv if factor.regime == "exp" else 2.0 / (n - 4.0) * np.log1p(uv)
    # the base curvature on the same stencils cancels their truncation error
    new = warped_product_curvature(w, grid, n).scalar
    base = warped_product_curvature(np.zeros_like(w), grid, n).scalar
    return np.asarray(new - base, float)


def scalar_asymptotic_coefficient(u, dim, base_window=None, route="conformal"):
    """Measured coefficient c with R_new - R = c u + o(x^{(n-1)/2}).

    c is the ratio against u itself (u = u00 x^s + conj), comparable with
    `scalar_linearization_coefficient`.  The deformed scalar curvature is
    recomputed by `route`: "conformal" uses the conformal-Laplacian law of
    `scalar_of_conformal`; "warped" uses the warped-product curvature of
    `warped_product_curvature`, less its own w = 0 value on the same grid,
    and shares no curvature code with the first.  The ratio against u is
    least-squares fitted on a boundary window, and the window midpoint is
    pushed toward the boundary twice (halving the midpoint in x each time)
    with Richardson/Aitken extrapolation of the three window values.
    """
    n = check_dimension(dim)
    grid = u.grid
    dev = _scalar_deviation(u, n, route)
    uv = np.asarray(u.values, float)

    if base_window is None:
        hi = grid.r_max - 2.0
        base_window = (hi - 2.0, hi)
    shift = math.log(2.0)  # halving the window midpoint in x
    cs = []
    for k in range(3):
        lo, hi = base_window[0] + k * shift, base_window[1] + k * shift
        if hi > grid.r_max - 0.25:
            raise WindowError("extrapolation window leaves the grid; "
                              "enlarge r_max or move base_window inward")
        mask = grid.window_mask(lo, hi)
        num = float(np.dot(dev[mask], uv[mask]))
        den = float(np.dot(uv[mask], uv[mask]))
        scale = float(np.abs(uv[mask]).max())
        if den == 0.0 or scale < 1e3 * np.finfo(float).eps:
            raise SignalToNoiseError(
                "kernel amplitude too small on window [%g, %g] for a "
                "meaningful curvature ratio" % (lo, hi))
        cs.append(num / den)
    c0, c1, c2 = cs
    denom = c0 - 2.0 * c1 + c2
    if abs(denom) < 1e-12 * max(1.0, abs(c2)):
        return c2  # already converged to rounding level
    return (c0 * c2 - c1 * c1) / denom
