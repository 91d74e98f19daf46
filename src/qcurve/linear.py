"""Factored linearized operator L = T1 T2, its closed-form series kernel,
and the generalized inverse G with P1 G = 0.

The constant-Q linearization about the hyperbolic base factors into two
second-order operators,

    T1 = Lap - n,        T2 = Lap + (n^2 - 4)/2,

and the n = 4 determinant family replaces the second factor by
T3 = (1+alpha) Lap + 6 alpha while keeping T1 = Lap - 4.  Everything here
is radial: the factors are banded two-point operators on a RadialGrid, the
kernel of T2 is a spherical function of H^n summed in closed form (no ODE
integration), and the projection P1 onto that kernel is realized by
matching the leading oscillatory boundary coefficients (the kernel is not
square integrable in the hyperbolic volume, so no inner-product
projection exists; see the fit-window notes on ProjectionP1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .geometry import check_dimension, laplacian_values
from .grid import RadialFunction, RadialGrid, fd_weights
from .indicial import DegenerateOperatorError, oscillation_parameter

__all__ = [
    "BandedFactor",
    "FactoredOperator",
    "KernelElement",
    "ProjectionP1",
    "assemble",
    "kernel_element",
    "apply_L",
    "solve_T1",
    "generalized_inverse",
    "project_P1",
    "make_projection",
]

_MIN_POINTS = 64


class CoarseGridError(ValueError):
    """Fewer than 64 grid points cannot support the banded stencils."""


class WindowError(ValueError):
    """The oscillation fit window covers fewer than 3 periods."""


class IllConditionedFitError(ValueError):
    """The boundary-coefficient least-squares system is degenerate."""


# ---------------------------------------------------------------------------
# the regular solution of  Lap + c  on H^n in closed form

_HC_TERMS = 48      # y = e^{-2r} <= 0.17 wherever the outer series is used
_JOIN_R = 1.05      # hypergeometric series inside, Harish-Chandra outside
_NEAR = 0.02        # this close to a confluence the basis uses `_divided`


def _hc_sums(r, s, roots, n):
    """(P, Q) with Phi_s = e^{sr} P, Phi_s' = e^{sr} Q for the Harish-Chandra
    series Phi_s = e^{sr} sum_k G_k e^{-2kr}, summed by Horner in complex
    longdouble: G_0 = 1, G_j = -2(n-1) sum_{i<j} (s-2i) G_i / p(s-2j), with
    p(z) = (z - s+)(z - s-) the indicial polynomial of Lap + c, roots =
    (s+, s-).  At a root p(s-2j) = 4j(j-s-rho) and (Lap + c) Phi_s = 0;
    at any other s only the leading term is left: p(s) e^{sr}."""
    s = np.clongdouble(s)
    gam, acc = [np.clongdouble(1)], 0
    for j in range(1, _HC_TERMS):
        acc += (s - 2 * j + 2) * gam[-1]
        gam.append(-2 * (n - 1) * acc
                   / ((s - 2 * j - roots[0]) * (s - 2 * j - roots[1])))
    y = np.exp(-2 * r)
    p = q = 0
    for k in range(_HC_TERMS - 1, -1, -1):
        p, q = p * y + gam[k], q * y + (s - 2 * k) * gam[k]
    return np.array([p, q])


def _divided(r, a, b, roots, n, pole):
    """Real part of the divided difference over a short span [a, b] of
    e^{zr} g(z) (P, Q)(z), g = z - b if `pole` else 1, exact as a -> b:
    e^{ar} G[a, b] + e^{.r}[a, b] G(b), G = g P, with G[a, b] and G(b)
    trapezoidal contour integrals on |z - (a+b)/2| = 0.1 (32 nodes; the
    nearest other pole is about 2 away)."""
    center, gab, gb = (a + b) / 2, 0, 0
    for k in range(32):
        t = np.arctan(np.longdouble(1)) * k / 4
        z = center + (np.cos(t) + 1j * np.sin(t)) / 10
        f = _hc_sums(r, z, roots, n) * (z - center) / 32
        f = f if pole else f / (z - b)
        gab, gb = gab + f / (z - a), gb + f
    exp_dd = (r * np.exp(b * r) if a == b
              else np.exp(b * r) * np.expm1((a - b) * r) / (a - b))
    return (np.exp(a * r) * gab + exp_dd * gb).real


def _outer_solutions(n, c, r):
    """Two real solutions of (Lap + c) k = 0 and their slopes at r > 0:
    Re Phi_s- and (Phi_s+ - Phi_s-) / (s+ - s-), s+- = -rho +- at, which
    is the logarithmic s-derivative at the double root at = 0.  Near a
    positive integer at = m, Phi_s+ has a pole at sp = s- + 2m, and the
    second solution is that of (s - sp) Phi_s over [s+, sp]: Phi_s+ less
    its pole part, the logarithmic solution at at = m."""
    rho = np.longdouble(n - 1) / 2
    disc = rho * rho - c
    at = np.sqrt(abs(disc))
    sp, sm = roots = ((-rho + at, -rho - at) if disc >= 0
                      else (-rho + 1j * at, -rho - 1j * at))
    phi = np.exp(sm * r) * _hc_sums(r, sm, roots, n)
    m = round(at)
    near_pole = disc > 0 and m >= 1 and abs(at - m) < _NEAR
    if near_pole or at < _NEAR:
        dd = _divided(r, sp, sm + 2 * m if near_pole else sm, roots, n,
                      near_pole)
    else:
        dd = ((np.exp(sp * r) * _hc_sums(r, sp, roots, n) - phi)
              / (sp - sm)).real
    return phi.real, dd


def _inner_series(n, c, r):
    """The regular solution (k(0) = 1) and its slope as the hypergeometric
    series 2F1(rho + i lam, rho - i lam; n/2; -sinh^2(r/2)), lam^2 = c -
    rho^2, whose coefficient ratio (j^2 + (n-1) j + c) / ((j + n/2)(j + 1))
    is real; it converges for r < 2 asinh(1) = 1.76."""
    u = -np.sinh(r / 2) ** 2
    f = [np.longdouble(1)]
    terms = 64 + 3 * n      # f_j ~ j^{n/2-2}, and |u| <= 0.41 for r <= 1.2
    for j in range(terms - 1):
        f.append(f[-1] * (j * j + (n - 1) * j + c)
                 / ((j + np.longdouble(n) / 2) * (j + 1)))
    v = d = 0
    for j in range(terms - 1, 0, -1):
        v, d = v * u + f[j], d * u + j * f[j]
    return np.array([v * u + f[0], -d * np.sinh(r) / 2])


# band geometry: interior rows use the 5-point central stencils (offsets
# -2..2), the rows next to either end a biased 5-point one (-1..3 after an
# excised inner edge, -3..1 before the closure row) and the closure row a
# one-sided derivative (-4..0); the full-ball origin row's sixth-difference
# term reaches column 3, so the solve_banded layout is (l, u) = (4, 3)
_L_BAND = 4
_U_BAND = 3
BAND = (_L_BAND, _U_BAND)


def _add_entries(ab, rows, cols, vals):
    """Accumulate matrix entries (rows, cols) += vals into the solve_banded
    layout, in the order given, so that entries landing on one position sum
    as a row-by-row loop would."""
    np.add.at(ab, (_U_BAND + rows - cols, cols), vals)


def _equation_band(grid, n, scale, constant, i0=0):
    """Rows 0 .. m-2 of the banded matrix of  scale Lap + constant  on the m
    nodes i0 .. N-1; row m-1 is left to the closure (`_close_band`).

    i0 = 0, the full ball: row 0 is the regular limit Lap u(0) = n u''(0)
    with the even-parity fold, plus the same sixth-difference truncation
    compensation as laplacian_values -- solves and residual evaluations
    must share one discretization of this row or solutions carry an O(h^2)
    origin error under composed fourth-order diagnostics -- and row 1's
    stencil folds across the origin.  i0 > 0, an excised segment: row 0 is
    the inner Dirichlet row u(i0) = rhs[0], row 1 the biased stencil.
    """
    r, h = grid.r[i0:], grid.h
    m = len(r)
    ab = np.zeros((_L_BAND + _U_BAND + 1, m))
    central = np.arange(-2, 3)
    if i0 == 0:
        row0 = np.zeros(5, dtype=int)
        _add_entries(ab, row0, np.abs(central),
                     scale * n * (fd_weights(central, 2) / h ** 2))
        six = np.array([-20.0, 30.0, -12.0, 2.0])
        _add_entries(ab, row0[:4], np.arange(4),
                     -scale * (n - 1.0) * six / (45.0 * h ** 2))
        stencils = [(np.arange(1, m - 2), central)]
    else:
        ab[_U_BAND, 0] = 1.0
        stencils = [(np.array([1]), np.arange(-1, 4)),
                    (np.arange(2, m - 2), central)]
    stencils.append((np.array([m - 2]), np.arange(-3, 2)))
    for rows, offs in stencils:
        a1 = scale * (n - 1.0) * (1.0 / np.tanh(r[rows]))
        vals = (scale * (fd_weights(offs, 2) / h ** 2)
                + a1[:, None] * (fd_weights(offs, 1) / h))
        _add_entries(ab, np.repeat(rows, len(offs)),
                     np.abs(rows[:, None] + offs).ravel(), vals.ravel())
    ab[_U_BAND, (1 if i0 else 0):m - 1] += constant
    return ab


def _close_band(ab, h, value, slope):
    """Write the closure row  value u(R) + slope u'(R), with u' the
    one-sided (-4..0) derivative, into the last row of `ab`; returns ab."""
    i = ab.shape[1] - 1
    offs = np.arange(-4, 1)
    ab[_U_BAND - offs, i + offs] += slope * (fd_weights(offs, 1) / h)
    ab[_U_BAND, i] += value
    return ab


class BandedFactor:
    """The radial operator  scale * Lap + constant  on a RadialGrid.

    Application goes through the shared fourth-order stencils (dtype
    preserving, so extended-precision diagnostics pass through); solves
    assemble a banded matrix whose last row is chosen per call: a Robin
    row selecting a decay rate, or an anchor row transversal to a supplied
    kernel profile.
    """

    def __init__(self, grid, n, scale, constant):
        if grid.n_points < _MIN_POINTS:
            raise CoarseGridError("grid has %d points; need at least %d"
                                  % (grid.n_points, _MIN_POINTS))
        self.grid = grid
        self.n = check_dimension(n)
        self.scale = float(scale)
        self.constant = float(constant)
        self._c = np.longdouble(self.constant) / np.longdouble(self.scale)

    def apply(self, values, parity=1):
        values = np.asarray(values)
        lap = laplacian_values(values, self.grid, self.n, parity=parity)
        return self.scale * lap + self.constant * values

    def _solve(self, f, value, slope, closure_rhs):
        """u with (scale Lap + constant) u = f, origin closed by regularity,
        and the outer row  value u(R) + slope u'(R) = closure_rhs."""
        ab = _equation_band(self.grid, self.n, self.scale, self.constant)
        rhs = f.copy()
        rhs[-1] = closure_rhs
        return solve_banded(BAND, _close_band(ab, self.grid.h, value, slope),
                            rhs)

    def solve_robin(self, f, robin):
        """u with (scale Lap + constant) u = f and the outer Robin row

            u' + robin (u - f(R)/constant) = 0,

        selecting the x^robin decaying deviation from the local constant
        particular solution f(R)/constant (origin closed by regularity).
        For data vanishing at the boundary this is the plain decaying-branch
        condition u' + robin u = 0."""
        f = np.asarray(f, dtype=float)
        robin = float(robin)
        return self._solve(f, robin, 1.0, robin * f[-1] / self.constant
                           if self.constant else 0.0)

    def solve_anchored(self, f, anchor_value, anchor_slope):
        """A particular solution with closure row
        a0 u(R) + a1 u'(R) = 0, (a0, a1) = (anchor, anchor') of a reference
        kernel profile -- always transversal to that kernel since the row
        evaluates to anchor^2 + anchor'^2 > 0 on it."""
        a0, a1 = float(anchor_value), float(anchor_slope)
        scale = math.hypot(a0, a1)
        if scale == 0.0:
            raise ValueError("anchor profile vanishes at the outer radius")
        return self._solve(np.asarray(f, dtype=float), a0 / scale,
                           a1 / scale, 0.0)

    def _matched_outer(self):
        """Coefficients (c1, c2) on `_outer_solutions` continuing the inner
        series past r = 1.05: least squares on its values at 16 points of
        [0.9, 1.2], by Gram-Schmidt in longdouble."""
        rm = np.linspace(np.longdouble(0.9), np.longdouble(1.2), 16)
        target = _inner_series(self.n, self._c, rm)[0]
        (u, _), (v, _) = _outer_solutions(self.n, self._c, rm)
        nu = np.sqrt(np.dot(u, u))
        proj = np.dot(u, v) / nu
        v = v - proj * u / nu
        c2 = np.dot(v, target) / np.dot(v, v)
        return (np.dot(u, target) / nu - proj * c2) / nu, c2

    def shoot_regular(self, dtype=np.float64):
        """The regular solution of (scale Lap + constant) k = 0 with
        k(0) = 1, k'(0) = 0, and its slope, in closed form: `_inner_series`
        inside r = 1.05, the matched `_outer_solutions` beyond.  Both are
        summed to longdouble rounding, clean under the 1/h^4 amplification
        of composed fourth-order residuals; `dtype` only casts the result."""
        r = np.asarray(self.grid.r, dtype=np.longdouble)
        inner = r < _JOIN_R
        out = np.empty((2, len(r)), dtype=np.longdouble)
        out[:, inner] = _inner_series(self.n, self._c, r[inner])
        if not inner.all():
            c1, c2 = self._matched_outer()
            u, v = _outer_solutions(self.n, self._c, r[~inner])
            out[:, ~inner] = c1 * u + c2 * v
        return out[0].astype(dtype), out[1].astype(dtype)


@dataclass(frozen=True)
class FactoredOperator:
    """L = t1 t2 with t1 = Lap - n and t2 either Lap + (n^2-4)/2 (the
    constant-Q family) or (1+alpha) Lap + 6 alpha (the n = 4 determinant
    family).  The factors commute, so the application order is free; the
    decaying Robin rate of t1 is carried along for the solves."""

    grid: RadialGrid
    n: int
    family: str            # 'q' | 'u'
    t1: BandedFactor
    t2: BandedFactor
    robin: float           # decaying rate of the t1 branch (x^robin)
    alpha: float | None = None


def assemble(grid, n=None, alpha=None):
    """FactoredOperator for dimension n (constant-Q family) or for the
    n = 4 determinant family at parameter alpha (exactly one of the two)."""
    if (n is None) == (alpha is None):
        raise ValueError("supply exactly one of n= or alpha=")
    if alpha is not None:
        if alpha == -1:
            raise DegenerateOperatorError(
                "alpha = -1 degenerates the fourth-order family")
        a = float(alpha)
        t1 = BandedFactor(grid, 4, 1.0, -4.0)
        t2 = BandedFactor(grid, 4, 1.0 + a, 6.0 * a)
        return FactoredOperator(grid=grid, n=4, family="u", t1=t1, t2=t2,
                                robin=4.0, alpha=a)
    n = check_dimension(n)
    t1 = BandedFactor(grid, n, 1.0, -float(n))
    t2 = BandedFactor(grid, n, 1.0, (n * n - 4.0) / 2.0)
    return FactoredOperator(grid=grid, n=n, family="q", t1=t1, t2=t2,
                            robin=float(n))


def apply_L(op, u):
    """L u through the factored application; accepts a RadialFunction and
    returns one (dtype preserving, so extended-precision input stays so)."""
    if u.grid != op.grid:
        raise ValueError("function does not live on the operator's grid")
    inner = op.t2.apply(u.values, parity=u.parity)
    outer = op.t1.apply(inner, parity=u.parity)
    return RadialFunction(op.grid, outer, u.parity)


# ---------------------------------------------------------------------------
# kernel of T2 and the boundary-coefficient projection


@dataclass(frozen=True)
class KernelElement:
    """A multiple of the regular radial kernel of T2.

    `base` is the phase-normalized profile k^ with fitted leading amplitude
    1; `profile` = amplitude * k^.  `leading_fit` holds (a, b) with

        k ~ x^{(n-1)/2} (a cos(beta ln x) + b sin(beta ln x)),  x -> 0,

    fitted on `window_r`; `diagnostics` records the measured oscillation
    frequency and envelope decay exponent next to their exact values.
    """

    grid: RadialGrid
    n: int
    amplitude: float
    base: RadialFunction
    leading_fit: tuple[float, float]
    window_r: tuple[float, float]
    diagnostics: dict

    @property
    def profile(self):
        return self.base * self.amplitude

    def with_amplitude(self, amplitude):
        a, b = self.leading_fit
        if self.amplitude != 0.0:
            a, b = a / self.amplitude, b / self.amplitude
        return KernelElement(
            grid=self.grid, n=self.n, amplitude=float(amplitude),
            base=self.base,
            leading_fit=(a * float(amplitude), b * float(amplitude)),
            window_r=self.window_r, diagnostics=self.diagnostics)


_NUISANCE_POWERS = 6


def _fit_boundary(r, values, window, mu, beta=None):
    """Leading boundary coefficients of `values` (sampled at radii r) on the
    window: (a, b) of  x^mu (a cos(beta ln x) + b sin(beta ln x))  when beta
    is given, else (c,) of  c x^mu  (ln x = -r).

    The regression carries a nuisance dictionary of faster-decaying powers
    x^{mu + j/2}, j = 1..6, so that smooth remainders (which still dwarf
    the leading order well inside any affordable window) are absorbed
    instead of leaking into the leading coefficients.
    """
    lo, hi = window
    mask = (r >= lo) & (r <= hi)
    r = r[mask].astype(float)
    env = np.exp(-mu * r)
    lead = ([env] if beta is None
            else [env * np.cos(beta * r), -env * np.sin(beta * r)])
    k = len(lead)
    design = np.column_stack(lead + [env * np.exp(-0.5 * j * r)
                                     for j in range(1, _NUISANCE_POWERS + 1)])
    norms = np.linalg.norm(design, axis=0)
    sol, _, rank, _ = np.linalg.lstsq(design / norms,
                                      np.asarray(values, float)[mask],
                                      rcond=None)
    if rank < design.shape[1]:
        raise IllConditionedFitError(
            "boundary fit window [%g, %g] is degenerate" % (lo, hi))
    # identifiability: the leading columns must not be representable by
    # the nuisance span
    cols = design[:, :k] / norms[:k]
    nui = design[:, k:] / norms[k:]
    coef, _, _, _ = np.linalg.lstsq(nui, cols, rcond=None)
    leak = cols - nui @ coef
    if min(np.linalg.norm(leak, axis=0)) < 1e-6:
        raise IllConditionedFitError(
            "boundary fit window [%g, %g] cannot separate the leading "
            "order from faster-decaying remainders" % (lo, hi))
    return tuple(float(c) for c in sol[:k] / norms[:k])


def _measure_oscillation(grid, values, n, window):
    """(frequency, envelope exponent) from zero crossings and extrema of
    the envelope-stripped profile -- independent of the fitted basis."""
    lo, hi = window
    mask = grid.window_mask(lo, hi)
    r = grid.r[mask].astype(float)
    y = np.asarray(values, float)[mask] * np.exp((n - 1.0) / 2.0 * r)
    sign = np.sign(y)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    freq = math.nan
    if len(flips) >= 2:
        # linear interpolation of each crossing; mean spacing = pi / beta
        zs = [r[i] - y[i] * (r[i + 1] - r[i]) / (y[i + 1] - y[i])
              for i in flips]
        freq = math.pi / float(np.mean(np.diff(zs)))
    # envelope: log |y| at interior extrema of the stripped oscillation,
    # slope relative to r recovers (decay - (n-1)/2) = 0 for the kernel
    mags = np.abs(y)
    ex = [i for i in range(1, len(y) - 1)
          if mags[i] >= mags[i - 1] and mags[i] >= mags[i + 1]]
    envelope = math.nan
    if len(ex) >= 2:
        slope = np.polyfit(r[ex], np.log(mags[ex]), 1)[0]
        envelope = (n - 1.0) / 2.0 - slope
    return freq, envelope


def _default_window(grid):
    return (max(2.0, grid.r_max - 10.0), grid.r_max - 0.25)


def kernel_element(n, grid, amplitude=1.0, window=None, dtype=np.float64):
    """The regular decaying kernel element of T2, from the series solution
    k = 1 - (n^2-4)/(4n) r^2 + ... of BandedFactor.shoot_regular; the
    boundary oscillation x^{(n-1)/2 +- i beta} is then fitted on `window`
    (default: the outer 10 units of radius, clear of the origin transient)
    and the profile rescaled so the fitted amplitude equals `amplitude`.
    """
    n = check_dimension(n)
    factor = BandedFactor(grid, n, 1.0, (n * n - 4.0) / 2.0)
    beta = oscillation_parameter(n)
    window = window or _default_window(grid)
    periods = beta * (window[1] - window[0]) / (2.0 * math.pi)
    if periods < 3.0:
        raise WindowError(
            "fit window spans %.2f oscillation periods; need 3 "
            "(increase r_max)" % periods)
    vals, _ = factor.shoot_regular(dtype=dtype)
    a, b = _fit_boundary(grid.r, vals, window, (n - 1.0) / 2.0, beta)
    scale = math.hypot(a, b)
    if scale == 0.0:
        raise IllConditionedFitError("kernel has no leading oscillation")
    base = RadialFunction(grid, vals / scale)
    freq, envelope = _measure_oscillation(grid, vals, n, window)
    diagnostics = {
        "beta_exact": beta,
        "frequency_measured": freq,
        "envelope_exponent_exact": (n - 1.0) / 2.0,
        "envelope_exponent_measured": envelope,
        "fit_periods": periods,
    }
    return KernelElement(
        grid=grid, n=n, amplitude=float(amplitude), base=base,
        leading_fit=(a / scale * amplitude, b / scale * amplitude),
        window_r=window, diagnostics=diagnostics)


@dataclass(frozen=True)
class ProjectionP1:
    """Boundary-coefficient projection onto the radial kernel span.

    P1 u fits u's oscillatory coefficients (a, b) at order x^{(n-1)/2} on
    the window and returns c k^ with c = (a a0 + b b0) / (a0^2 + b0^2),
    (a0, b0) the coefficients of the reference k^.  Exact annihilation of
    the complement requires the remainder to decay strictly faster than
    x^{(n-1)/2}, which the nonlinear scheme guarantees by its choice of
    solution weight.
    """

    kernel: KernelElement
    window_x: tuple[float, float]

    @property
    def window_r(self):
        lo_x, hi_x = self.window_x
        return (-math.log(hi_x), -math.log(lo_x))


def make_projection(kernel, window=None):
    window = window or kernel.window_r
    return ProjectionP1(kernel=kernel,
                        window_x=(math.exp(-window[1]), math.exp(-window[0])))


def project_P1(proj, u):
    """P1 u as a KernelElement (its .profile is the projected function)."""
    k = proj.kernel
    if u.grid != k.grid:
        raise ValueError("function does not live on the projection's grid")
    beta = k.diagnostics["beta_exact"]
    a, b = _fit_boundary(u.grid.r, u.values, proj.window_r,
                         (k.n - 1.0) / 2.0, beta)
    a0, b0 = k.with_amplitude(1.0).leading_fit
    c = (a * a0 + b * b0) / (a0 * a0 + b0 * b0)
    return k.with_amplitude(c)


# ---------------------------------------------------------------------------
# solves


def _measured_decay(grid, values, span=3.0):
    """Least-squares decay exponent mu of |f| ~ x^mu near the boundary."""
    mask = grid.window_mask(grid.r_max - span, grid.r_max - 0.25)
    mags = np.abs(np.asarray(values, float)[mask])
    floor = mags.max() * 1e-300 + 1e-300
    return float(-np.polyfit(grid.r[mask].astype(float),
                             np.log(mags + floor), 1)[0])


def solve_T1(op, f):
    """The unique decaying solution of T1 v = f: regular at the origin,
    outer Robin row v' + robin v = 0 selecting the x^robin branch over the
    growing x^{-1} branch.  Slowly decaying data is solved anyway, with the
    measured decay reported in a warning."""
    if f.grid != op.grid:
        raise ValueError("data does not live on the operator's grid")
    if np.all(f.values == 0.0):
        return RadialFunction(op.grid, np.zeros(op.grid.n_points))
    mu = _measured_decay(op.grid, f.values)
    tail_sup = float(np.abs(np.asarray(f.values, float)[
        op.grid.window_mask(op.grid.r_max - 3.0, op.grid.r_max)]).max())
    head_sup = float(np.abs(np.asarray(f.values, float)).max())
    # the gate separates rounding-level tails (iterates of a converged
    # contraction carry ~1e-10 relative noise there) from genuinely slow
    # decay, whose tail/head ratio is at least x^0.5(r_max) ~ 2.5e-3
    if mu < 0.5 and abs(mu) > 0.05 and tail_sup > 1e-8 * head_sup:
        # constant-like tails (mu ~ 0) are absorbed exactly by the Robin
        # row's particular-solution shift; genuinely slow decay is not
        warnings.warn(
            "T1 data decays like x^%.3f; the Robin closure at r_max = %g "
            "carries an O(x^%.3f) boundary-condition residual"
            % (mu, op.grid.r_max, max(mu, 0.0)), stacklevel=2)
    v = op.t1.solve_robin(f.values, op.robin)
    return RadialFunction(op.grid, v)


def generalized_inverse(op, f, proj):
    """u2 = G f with L u2 = f and P1 u2 = 0.

    Factored: solve T1 v = f (Robin closure), then a particular T2 w = v
    through the anchor row transversal to the kernel, then subtract P1 w.
    No local boundary row can separate the two homogeneous T2 branches
    (both decay at the same envelope rate), hence the subtraction step.
    """
    if f.grid != op.grid:
        raise ValueError("data does not live on the operator's grid")
    if np.all(f.values == 0.0):
        return RadialFunction(op.grid, np.zeros(op.grid.n_points))
    fv = np.asarray(f.values, float)
    tail_sup = float(np.abs(fv[op.grid.window_mask(
        op.grid.r_max - 3.0, op.grid.r_max)]).max())
    if _measured_decay(op.grid, f.values) <= 0.0 \
            and tail_sup > 1e-8 * float(np.abs(fv).max()):
        warnings.warn("generalized inverse applied to non-decaying data",
                      stacklevel=2)
    v = solve_T1(op, f)
    khat = proj.kernel.with_amplitude(1.0)
    kv = khat.base.values
    ks = khat.base.d(1)
    w = op.t2.solve_anchored(v.values, kv[-1], ks[-1])
    w_fn = RadialFunction(op.grid, w)
    p = project_P1(proj, w_fn)
    return w_fn - p.profile
