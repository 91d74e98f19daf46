"""Boundary-expansion fitting and weighted-norm diagnostics.

Decaying solutions of the fourth-order problems carry a leading boundary
oscillation

    u ~ x^{(n-1)/2} (a cos(beta ln x) + b sin(beta ln x)),

equivalently u00 x^{(n-1)/2 + i beta} + conj with u00 = (a - i b)/2.  This
module extracts the pair (a, b) with the sup of the fit's residual on its
window, turns sampled profiles into discrete weighted-norm numbers (with a
divergence sentinel), and extrapolates the linear response coefficient of
the scalar curvature along the kernel branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (check_dimension, check_positive,
                       hyperbolic_curvature_report, scalar_of_conformal,
                       warped_product_curvature)
from .indicial import oscillation_parameter, q_indicial_spectrum
from .linear import WindowError, _boundary_rows, fit_window

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
            "log_terms_flag": self.log_terms_flag,
        }


@functools.lru_cache(maxsize=16)
def _leading_terms(grid, n):
    """(lam, beta, window, mask, rows, exp(-lam r), cos(beta r), sin(beta r),
    log-terms flag) of `fit_leading`; read-only, once per (grid, n)."""
    beta = oscillation_parameter(n)
    window, _ = fit_window(grid.r_max, beta)
    lam = (n - 1) / 2.0
    mask, rows = _boundary_rows(grid, window, lam, beta)
    r = grid.r[mask].astype(float)
    terms = (np.exp(-lam * r), np.cos(beta * r), np.sin(beta * r))
    for t in terms:
        t.flags.writeable = False
    # a flag, not the spectrum: BoundarySpectrum.extras is a mutable dict
    flag = q_indicial_spectrum(n).log_terms_possible
    return (lam, beta, window, mask, rows) + terms + (flag,)


def fit_leading(u, dim):
    """Least-squares leading-term fit of a decaying radial profile.

    The window is `fit_window`'s, which must contain at least three
    periods of the boundary oscillation.  The regression carries a
    nuisance dictionary of faster-decaying powers, so smooth remainders do
    not leak into (a, b).  Like every leading-coefficient fit, (a, b) is
    the memoized covector `_boundary_rows` applied to u; on the default
    window it shares one entry with the constant-Q kernel fit and its P1.
    """
    n = check_dimension(dim)
    lam, beta, (lo, hi), mask, rows, env, cos, sin, flag = _leading_terms(
        u.grid, n)
    values = u.values[mask].astype(float)
    a, b = map(float, rows @ values)
    fitted = env * (a * cos - b * sin)
    return ExpansionFit(
        leading_exponent=lam,
        frequency=beta,
        a=a,
        b=b,
        window_x=(float(math.exp(-hi)), float(math.exp(-lo))),
        residual=float(np.abs(values - fitted).max()),
        log_terms_flag=flag,
    )


# Segment-to-segment growth beyond this factor marks the weighted sup as
# divergent rather than merely unsaturated.
_GROWTH_FACTOR = 1.05


def weighted_norm(u, nu):
    """Discrete sup-norm surrogate of the weighted space x^nu:
    sup |x^{-nu} u|.

    If the running sup still grows monotonically through the outer segments
    of the grid (no saturation before the boundary), the norm is reported
    as the +inf sentinel.
    """
    grid = u.grid
    r = grid.r.astype(float)
    prof = np.abs(np.asarray(u.values, float)) * np.exp(float(nu) * r)
    # outer half, split into four segments; each spans at least a third of
    # an oscillation period for every operator family in scope, so segment
    # maxima track the envelope
    seg_edges = np.linspace(grid.r_max / 2.0, grid.r_max, 5)
    seg_max = [prof[(r >= lo) & (r <= hi)].max()
               for lo, hi in zip(seg_edges[:-1], seg_edges[1:])]
    if all(nxt > _GROWTH_FACTOR * cur
           for cur, nxt in zip(seg_max[:-1], seg_max[1:])):
        return math.inf
    return float(prof.max())


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
    if route == "conformal":
        R_hyp = hyperbolic_curvature_report(n).R_hyp
        return np.asarray(scalar_of_conformal(u, n).values, float) - R_hyp
    if route != "warped":
        raise ValueError("route must be 'conformal' or 'warped', got %r"
                         % (route,))
    check_positive(u.values, u.grid, n)
    # extended precision: the nested stencils amplify the rounding of B by
    # 1/h^2 (in double the n = 5 ratio at 2048 points is off by a relative
    # 3e-6, in longdouble by 1e-7)
    uv = np.asarray(u.values, np.longdouble)
    # e^{2w} = e^{2u} (n = 4) or (1+u)^{4/(n-4)} (n >= 5)
    w = uv if n == 4 else 2.0 / (n - 4.0) * np.log1p(uv)
    # the base curvature on the same stencils cancels their truncation error
    new = warped_product_curvature(w, u.grid, n).scalar
    base = warped_product_curvature(np.zeros_like(w), u.grid, n).scalar
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
