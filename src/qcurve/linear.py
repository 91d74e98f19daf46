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

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import check_dimension, laplacian_values
from .grid import RadialFunction, RadialGrid, stencil_weights
from .indicial import DegenerateOperatorError, oscillation_parameter

__all__ = [
    "BandedFactor",
    "FactoredOperator",
    "KernelElement",
    "ProjectionP1",
    "assemble",
    "kernel_element",
    "fit_window",
    "apply_L",
    "solve_T1",
    "generalized_inverse",
    "decay_diagnostics",
    "project_P1",
    "make_projection",
]

_MIN_POINTS = 64


class CoarseGridError(ValueError):
    """Fewer than 64 grid points cannot support the banded stencils."""


class WindowError(ValueError):
    """The oscillation fit window covers too few periods."""


class IllConditionedFitError(ValueError):
    """The boundary-coefficient least-squares system is degenerate."""


# ---------------------------------------------------------------------------
# the regular solution of  Lap + c  on H^n in closed form

_HC_TERMS = 48      # y = e^{-2r} <= 0.17 wherever the outer series is used
_JOIN_R = 1.05      # hypergeometric series inside, Harish-Chandra outside
_NEAR = 0.02        # this close to a confluence the basis uses `_divided`


def _hc_sums(r, s, roots, n):
    """(P, Q) with Phi_s = e^{sr} P, Phi_s' = e^{sr} Q for the Harish-Chandra
    series Phi_s = e^{sr} sum_k G_k e^{-2kr}: G_0 = 1, G_j = -2(n-1)
    sum_{i<j} (s-2i) G_i / p(s-2j), with p(z) = (z - s+)(z - s-) the
    indicial polynomial of Lap + c, roots = (s+, s-).  At a root p(s-2j) =
    4j(j-s-rho) and (Lap + c) Phi_s = 0; at any other s only the leading
    term is left: p(s) e^{sr}.

    Summed by Horner in longdouble, on the real and imaginary parts apart
    (y = e^{-2r} is real), each point only up to its last term with
    |G_k| y^{k-1} >= 2^-72 (|(s-2k) G_k| for Q): Im P starts at y Im G_1,
    so every term left out lies below the longdouble rounding of every
    part.  r must ascend, so that term k reaches a prefix of the points."""
    if (np.diff(r) < 0).any():
        raise ValueError("Harish-Chandra sums need ascending r")
    s = np.clongdouble(s)
    gam, acc = [np.clongdouble(1)], 0
    for j in range(1, _HC_TERMS):
        acc += (s - 2 * j + 2) * gam[-1]
        gam.append(-2 * (n - 1) * acc
                   / ((s - 2 * j - roots[0]) * (s - 2 * j - roots[1])))
    coef = np.array([gam, (s - 2 * np.arange(_HC_TERMS)) * gam])
    # term k >= 2 is summed where r <= ln(2^72 |coef_k|) / (2k - 2) (a zero
    # coefficient nowhere), and a point takes every term below its last
    # one: `ends` counts the leading points that take term k, for k from
    # _HC_TERMS - 1 down to 2
    k = np.arange(_HC_TERMS - 1, 1, -1)
    with np.errstate(divide="ignore"):
        reach = np.log(abs(coef[:, k]).max(axis=0) * 2.0 ** 72) / (2 * k - 2)
    ends = np.maximum.accumulate(np.searchsorted(r, reach, side="right"))
    parts = np.stack([coef.real, coef.imag], axis=1)
    y = np.exp(-2 * r)
    sums = np.zeros((2, 2, len(r)), dtype=np.longdouble)   # (P, Q) x (re, im)
    for k, m in zip(range(_HC_TERMS - 1, -1, -1),
                    np.r_[ends, len(r), len(r)]):
        head = sums[..., :m]
        head *= y[:m]
        head += parts[..., k, None]
    out = np.empty((2, len(r)), dtype=np.clongdouble)
    out.real, out.imag = sums[:, 0], sums[:, 1]
    return out


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
    its pole part, the logarithmic solution at at = m.  Complex roots are
    conjugate, and so are their series: Phi_s+ = conj Phi_s-, summed once.
    r must ascend (`_hc_sums`)."""
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
        phi_p = (phi.conj() if disc < 0
                 else np.exp(sp * r) * _hc_sums(r, sp, roots, n))
        dd = ((phi_p - phi) / (sp - sm)).real
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
    as a row-by-row loop would: the origin rows, where the mirrored fold
    makes a stencil's entries collide."""
    np.add.at(ab, (_U_BAND + rows - cols, cols), vals)


def _stencil_values(r, n, scale, h, lo, hi):
    """The stencil rows of  scale Lap  at the radii r, one column per offset
    lo..hi, as pairs (offset, values) in longdouble: at most one diagonal
    is held at a time."""
    a1 = scale * (n - 1.0) * (1.0 / np.tanh(r))
    w2 = scale * (stencil_weights(lo, hi, 2) / h ** 2)
    w1 = stencil_weights(lo, hi, 1) / h
    for k, off in enumerate(range(lo, hi + 1)):
        yield off, w2[k] + a1 * w1[k]


def _equation_band(grid, n, scale, constant, i0=0):
    """Rows 0 .. m-2 of the banded matrix of  scale Lap + constant  on the m
    nodes i0 .. N-1; row m-1 is left to the closure (`_close_band`).

    i0 = 0, the full ball: row 0 is the regular limit Lap u(0) = n u''(0)
    with the mirrored fold, plus the same sixth-difference truncation
    compensation as laplacian_values -- solves and residual evaluations
    must share one discretization of this row or solutions carry an O(h^2)
    origin error under composed fourth-order diagnostics -- and row 1's
    stencil folds across the origin.  i0 > 0, an excised segment: row 0 is
    the inner Dirichlet row u(i0) = rhs[0], row 1 the biased stencil.

    Rows 0 and 1 of the full ball accumulate entry by entry; every other
    stencil row owns its positions, so each diagonal of a run of rows is
    written whole, its longdouble values rounded once to double.
    """
    r, h = grid.r[i0:], grid.h
    m = len(r)
    ab = np.zeros((_L_BAND + _U_BAND + 1, m))
    if i0 == 0:
        row0 = np.zeros(5, dtype=int)
        _add_entries(ab, row0, np.abs(np.arange(-2, 3)),
                     scale * n * (stencil_weights(-2, 2, 2) / h ** 2))
        six = np.array([-20.0, 30.0, -12.0, 2.0])
        _add_entries(ab, row0[:4], np.arange(4),
                     -scale * (n - 1.0) * six / (45.0 * h ** 2))
        row1 = [vals for _, vals in _stencil_values(r[1:2], n, scale, h,
                                                    -2, 2)]
        _add_entries(ab, row0 + 1, np.abs(np.arange(-1, 4)),
                     np.concatenate(row1))
        runs = [(2, m - 2, (-2, 2))]
    else:
        ab[_U_BAND, 0] = 1.0
        runs = [(1, 2, (-1, 3)), (2, m - 2, (-2, 2))]
    runs.append((m - 2, m - 1, (-3, 1)))
    for start, stop, (lo, hi) in runs:
        for off, vals in _stencil_values(r[start:stop], n, scale, h, lo, hi):
            ab[_U_BAND - off, start + off:stop + off] = vals
    ab[_U_BAND, (1 if i0 else 0):m - 1] += constant
    return ab


def _close_band(ab, h, value, slope):
    """Write the closure row  value u(R) + slope u'(R), with u' the
    one-sided (-4..0) derivative, into the last row of `ab`; returns ab."""
    i = ab.shape[1] - 1
    offs = np.arange(-4, 1)
    ab[_U_BAND - offs, i + offs] += slope * (stencil_weights(-4, 0, 1)
                                             / h)
    ab[_U_BAND, i] += value
    return ab


def _banded_lapack():
    """dgbtrf and dgbtrs from scipy's `_flapack` extension file, found by
    `find_spec` without running scipy's __init__ (scipy.linalg's package
    init is most of a cold start): the Fortran routines scipy.linalg.lapack
    re-exports, which the public import gives when the file will not load."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None:
        spec = importlib.util.spec_from_file_location(
            "scipy.linalg._flapack", os.path.join(
                scipy.submodule_search_locations[0], "linalg",
                "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0]))
        try:
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
            return flapack.dgbtrf, flapack.dgbtrs
        except ImportError:
            pass
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    return dgbtrf, dgbtrs


def _openblas_lapack():
    """dgbtrf and dgbtrs of the ILP64 OpenBLAS numpy itself links
    (`scipy_dgbtrf_64_`, `scipy_dgbtrs_64_`), called through ctypes with
    scipy.linalg.lapack's signatures and 1-based int64 pivots; a negative
    LAPACK info raises ValueError.  AttributeError where numpy's build
    exports no such symbols."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    trf, trs = lib.scipy_dgbtrf_64_, lib.scipy_dgbtrs_64_
    trf.restype = trs.restype = None

    def refs(*ints):
        return [ctypes.byref(ctypes.c_int64(i)) for i in ints]

    def checked(name, info):
        if info.value < 0:
            raise ValueError("illegal value in argument %d of %s"
                             % (-info.value, name))
        return info.value

    def dgbtrf(ab, kl, ku, overwrite_ab=False):
        ab = np.asarray(ab, float, order="F") if overwrite_ab \
            else np.array(ab, float, order="F")
        m = ab.shape[1]
        piv, info = np.empty(m, np.int64), ctypes.c_int64()
        trf(*refs(m, m, kl, ku), ab.ctypes, *refs(ab.shape[0]), piv.ctypes,
            ctypes.byref(info))
        return ab, piv, checked("dgbtrf", info)

    def dgbtrs(lu, kl, ku, b, piv):
        x, info = np.array(b, float, order="F"), ctypes.c_int64()
        n = lu.shape[1]
        trs(b"N", *refs(n, kl, ku, x.size // n), lu.ctypes,
            *refs(lu.shape[0]), piv.ctypes, x.ctypes, *refs(n),
            ctypes.byref(info), ctypes.c_size_t(1))
        return x, checked("dgbtrs", info)

    return dgbtrf, dgbtrs


@functools.cache
def _lapack():
    """`_openblas_lapack`, or `_banded_lapack` where numpy exports no
    banded LAPACK: the process then maps no second OpenBLAS."""
    try:
        return _openblas_lapack()
    except AttributeError:
        return _banded_lapack()


def factor_banded(ab):
    """LU factors of a closed band in the solve_banded layout (BAND), for
    any number of `solve_banded` calls: LAPACK dgbtrf, in place, on a
    Fortran-ordered copy padded with the l rows of fill-in it needs -- the
    factorization scipy.linalg.solve_banded repeats on every call.  The
    factors carry their dgbtrs.  LAPACK (`_lapack`: numpy's own OpenBLAS,
    scipy's where numpy exports no dgbtrf) is bound at the first
    factoring, so a process that factors no band never looks it up."""
    dgbtrf, dgbtrs = _lapack()
    lu = np.zeros((2 * _L_BAND + _U_BAND + 1, ab.shape[1]), order="F")
    lu[_L_BAND:] = ab
    lu, piv, info = dgbtrf(lu, _L_BAND, _U_BAND, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular banded matrix")
    return lu, piv, dgbtrs


def solve_banded(factor, rhs):
    """x with A x = rhs, A given by its `factor_banded` factors (dgbtrs);
    like scipy.linalg.solve_banded, non-finite data raise ValueError, and
    so does a right-hand side that is not one column of the band's order
    (dgbtrs would read its length as a column count)."""
    lu, piv, dgbtrs = factor
    rhs = np.asarray_chkfinite(rhs)
    if rhs.shape != (lu.shape[1],):
        raise ValueError("right-hand side of shape %s for a band of order %d"
                         % (rhs.shape, lu.shape[1]))
    return dgbtrs(lu, _L_BAND, _U_BAND, rhs, piv)[0]


class BandedFactor:
    """The radial operator  scale * Lap + constant  on a RadialGrid.

    Application goes through the shared fourth-order stencils (dtype
    preserving, so extended-precision diagnostics pass through); solves
    run on a banded matrix whose last row is chosen per call: a Robin row
    selecting a decay rate, or an anchor row transversal to a supplied
    kernel profile.  Each closure row's band is assembled and factored at
    its first solve and only its LU factors are kept.
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
        self._factors = {}      # closure row (value, slope) -> LU factors

    def apply(self, values):
        values = np.asarray(values)
        lap = laplacian_values(values, self.grid, self.n)
        return self.scale * lap + self.constant * values

    def _solve(self, f, value, slope, closure_rhs):
        """u with (scale Lap + constant) u = f, origin closed by regularity,
        and the outer row  value u(R) + slope u'(R) = closure_rhs."""
        factor = self._factors.get((value, slope))
        if factor is None:
            ab = _equation_band(self.grid, self.n, self.scale, self.constant)
            factor = self._factors[value, slope] = factor_banded(
                _close_band(ab, self.grid.h, value, slope))
        rhs = f.copy()
        rhs[-1] = closure_rhs
        return solve_banded(factor, rhs)

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

    def shoot_regular(self):
        """The regular solution of (scale Lap + constant) k = 0 with
        k(0) = 1, k'(0) = 0, and its slope, in closed form: `_inner_series`
        inside r = 1.05, the matched `_outer_solutions` beyond.  Both are
        summed to longdouble rounding and returned in longdouble: rounded
        to double, k seeds noise that the composed fourth-order residuals
        amplify ~1/h^4."""
        r = np.asarray(self.grid.r, dtype=np.longdouble)
        inner = r < _JOIN_R
        out = np.empty((2, len(r)), dtype=np.longdouble)
        out[:, inner] = _inner_series(self.n, self._c, r[inner])
        if not inner.all():
            c1, c2 = self._matched_outer()
            u, v = _outer_solutions(self.n, self._c, r[~inner])
            out[:, ~inner] = c1 * u + c2 * v
        return out[0], out[1]


@dataclass(frozen=True)
class FactoredOperator:
    """L = t1 t2 with t1 = Lap - n and t2 either Lap + (n^2-4)/2 (the
    constant-Q family) or (1+alpha) Lap + 6 alpha (the n = 4 determinant
    family).  The factors commute, so the application order is free; the
    decaying Robin rate of t1 is carried along for the solves."""

    grid: RadialGrid
    t1: BandedFactor
    t2: BandedFactor
    robin: float           # decaying rate of the t1 branch (x^robin)


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
        return FactoredOperator(grid=grid, t1=t1, t2=t2, robin=4.0)
    n = check_dimension(n)
    t1 = BandedFactor(grid, n, 1.0, -float(n))
    t2 = BandedFactor(grid, n, 1.0, (n * n - 4.0) / 2.0)
    return FactoredOperator(grid=grid, t1=t1, t2=t2, robin=float(n))


def apply_L(op, u):
    """L u of the samples u through the factored application (dtype
    preserving, so extended-precision input stays so)."""
    return op.t1.apply(op.t2.apply(u))


# ---------------------------------------------------------------------------
# kernel of T2 and the boundary-coefficient projection


@dataclass(frozen=True)
class KernelElement:
    """The unit regular radial kernel of a T2-type factor.

    `base` is the profile k^ whose leading boundary coefficients, fitted
    on `window_r`, are `unit_fit` = (a, b) with a^2 + b^2 = 1 in

        k ~ x^mu (a cos(beta ln x) + b sin(beta ln x)),  x -> 0,

    or (a, 0) with a = +-1 in  k ~ a x^mu  when `beta` is None (a real
    indicial root).  A kernel datum is a number a, naming a k^ with
    leading coefficients a unit_fit.  `diagnostics` records the measured
    oscillation frequency and envelope exponent (or decay exponent) next
    to their exact values.
    """

    grid: RadialGrid
    base: RadialFunction
    unit_fit: tuple[float, float]
    mu: float
    beta: float | None
    window_r: tuple[float, float]
    diagnostics: dict


_NUISANCE_POWERS = 6


def _boundary_design(r, window, mu, beta=None):
    """(mask, design, norms, k): the column-normalized design of the
    boundary fit on the window, whose k leading columns model
    x^mu (a cos(beta ln x) + b sin(beta ln x))  when beta is given, else
    c x^mu  (ln x = -r).

    The design carries a nuisance dictionary of faster-decaying powers
    x^{mu + j/2}, j = 1..6, so that smooth remainders (which still dwarf
    the leading order well inside any affordable window) are absorbed
    instead of leaking into the leading coefficients.  A design whose
    leading columns the nuisance span can represent is refused here; its
    one user, `_boundary_rows`, refuses a deficient rank.
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
    design = design / norms
    cols, nui = design[:, :k], design[:, k:]
    coef, _, _, _ = np.linalg.lstsq(nui, cols, rcond=None)
    if min(np.linalg.norm(cols - nui @ coef, axis=0)) < 1e-6:
        raise IllConditionedFitError(
            "boundary fit window [%g, %g] cannot separate the leading "
            "order from faster-decaying remainders" % (lo, hi))
    return mask, design, norms, k


@functools.lru_cache(maxsize=16)
def _boundary_rows(grid, window, mu, beta=None):
    """(mask, rows), read-only and computed once per (grid, window, mu,
    beta): the leading rows of the pseudo-inverse of `_boundary_design`
    (the least-squares fit's linear map), refused when the design is rank
    deficient.  The design is not kept."""
    mask, design, norms, k = _boundary_design(grid.r, window, mu, beta)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    # the rank cut of lstsq with rcond=None
    if np.sum(s > s[0] * max(design.shape) * np.finfo(float).eps) \
            < design.shape[1]:
        raise IllConditionedFitError(
            "boundary fit window [%g, %g] is degenerate" % tuple(window))
    rows = (vt[:, :k].T / s) @ u.T / norms[:k, None]
    mask.flags.writeable = rows.flags.writeable = False
    return mask, rows


def _fit_boundary(grid, values, window, mu, beta=None, i0=0):
    """Leading boundary coefficients on the window of `values`, sampled on
    grid.r[i0:]: the `_boundary_rows` covector applied to them (the window
    must lie in that segment)."""
    mask, rows = _boundary_rows(grid, tuple(window), mu, beta)
    return tuple(map(float, rows @ np.asarray(values, float)[mask[i0:]]))


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
        zs = (r[flips] - y[flips] * (r[flips + 1] - r[flips])
              / (y[flips + 1] - y[flips]))
        freq = math.pi / float(np.mean(np.diff(zs)))
    # envelope: log |y| at interior extrema of the stripped oscillation,
    # slope relative to r recovers (decay - (n-1)/2) = 0 for the kernel
    mags = np.abs(y)
    mid = mags[1:-1]
    ex = 1 + np.nonzero((mid >= mags[:-2]) & (mid >= mags[2:]))[0]
    envelope = math.nan
    if len(ex) >= 2:
        slope = np.polyfit(r[ex], np.log(mags[ex]), 1)[0]
        envelope = (n - 1.0) / 2.0 - slope
    return freq, envelope


def _default_window(r_max):
    # the outer 10 units of radius, clear of the origin transient
    return (max(2.0, r_max - 10.0), r_max - 0.25)


def fit_window(r_max, beta, need=3.0):
    """(window, periods): `_default_window` and the oscillation periods of
    frequency beta it spans; WindowError below `need` periods.  Needs no
    grid, so a configuration can be checked before any work."""
    window = _default_window(r_max)
    periods = beta * (window[1] - window[0]) / (2.0 * math.pi)
    if periods < need:
        raise WindowError(
            "fit window [%g, %g] spans %.2f oscillation periods; need %g "
            "(increase r_max)" % (window[0], window[1], periods, need))
    return window, periods


def _regular_kernel(factor, mu, beta=None, need=3.0, **diagnostics):
    """KernelElement of the regular solution of `factor`, in longdouble,
    whose leading boundary term x^{mu +- i beta} (x^mu if beta is None) is
    fitted on `_default_window` -- for an oscillation over at least `need`
    periods, checked before the solution is summed -- and the profile
    scaled to unit leading coefficients; `diagnostics` joins the measured
    frequency and envelope exponent, or the measured decay exponent."""
    grid, n = factor.grid, factor.n
    if beta is None:
        window = _default_window(grid.r_max)
    else:
        window, periods = fit_window(grid.r_max, beta, need)
    vals, _ = factor.shoot_regular()
    # a real root has the one coefficient a
    a, b, *_ = _fit_boundary(grid, vals, window, mu, beta) + (0.0,)
    scale = math.hypot(a, b)
    if scale == 0.0:
        raise IllConditionedFitError("kernel has no leading boundary term")
    if beta is None:
        diagnostics.update(decay_exact=mu,
                           decay_measured=_measured_decay(grid, vals))
    else:
        freq, envelope = _measure_oscillation(grid, vals, n, window)
        diagnostics.update({
            "beta_exact": beta,
            "frequency_measured": freq,
            "envelope_exponent_exact": mu,
            "envelope_exponent_measured": envelope,
            "fit_periods": periods,
        })
    return KernelElement(
        grid=grid, base=RadialFunction(grid, vals / scale),
        unit_fit=(a / scale, b / scale), mu=mu, beta=beta, window_r=window,
        diagnostics=diagnostics)


def kernel_element(n, grid):
    """The regular decaying kernel element of T2, from the series solution
    k = 1 - (n^2-4)/(4n) r^2 + ... of BandedFactor.shoot_regular, with its
    boundary oscillation fitted over at least 3 periods (see
    `_regular_kernel`)."""
    n = check_dimension(n)
    factor = BandedFactor(grid, n, 1.0, (n * n - 4.0) / 2.0)
    return _regular_kernel(factor, (n - 1.0) / 2.0, oscillation_parameter(n))


@dataclass(frozen=True)
class ProjectionP1:
    """Boundary-coefficient projection onto the radial kernel span.

    P1 u fits u's leading coefficients (a, b) of x^mu (cos, sin)(beta ln x)
    on the kernel's `window_r` and is c k^ with
    c = (a a0 + b b0) / (a0^2 + b0^2), (a0, b0) the kernel's `unit_fit` (a
    real-regime kernel, beta None, has the one coefficient a of x^mu);
    `project_P1` returns the amplitude c.
    Exact annihilation of the complement requires the remainder to decay
    strictly faster than the kernel, which the nonlinear scheme guarantees
    by its choice of solution weight.

    The fit is linear in u and its design is fixed, so c = covector . u
    with the covector built from the memoized `_boundary_rows` (on the
    kernel's own window, the entry its fit computed); `anchor` is
    (k^(R), k^'(R)), the T2 closure row of the generalized inverse.
    """

    kernel: KernelElement
    anchor: tuple[float, float]
    covector: np.ndarray


def make_projection(kernel):
    """ProjectionP1 for `kernel` on the kernel's fit window, with the
    covector and the anchor row it holds."""
    mask, rows = _boundary_rows(kernel.grid, kernel.window_r, kernel.mu,
                                kernel.beta)
    lead = np.array(kernel.unit_fit[:len(rows)])
    covector = np.zeros(kernel.grid.n_points)
    covector[mask] = lead @ rows / (lead @ lead)
    # k^'(R) by the one-sided stencil of the closure row, the last entry
    # of base.d(1)
    kv = kernel.base.values
    slope = (stencil_weights(-4, 0, 1) @ kv[-5:]
             / np.longdouble(kernel.grid.h))
    return ProjectionP1(kernel=kernel, anchor=(float(kv[-1]), float(slope)),
                        covector=covector)


def project_P1(proj, u):
    """The amplitude c of P1 u = c k^, for the samples u."""
    return float(proj.covector @ np.asarray(u, float))


# ---------------------------------------------------------------------------
# solves


def _measured_decay(grid, values):
    """Least-squares decay exponent mu of |f| ~ x^mu on [r_max - 3,
    r_max - 0.25]."""
    window = slice(np.searchsorted(grid.r, grid.r_max - 3.0),
                   np.searchsorted(grid.r, grid.r_max - 0.25, side="right"))
    mags = np.abs(np.asarray(values, float)[window])
    floor = mags.max() * 1e-300 + 1e-300
    return float(-np.polyfit(grid.r[window].astype(float),
                             np.log(mags + floor), 1)[0])


def decay_diagnostics(grid, values):
    """Report notes on data for G decaying like x^mu too slowly: mu <= 0
    is non-decaying data; 0.05 < |mu|, mu < 0.5 leaves an O(x^mu) residual
    at the T1 Robin closure, which absorbs only constant-like tails exactly
    (through its particular-solution shift)."""
    mags = np.abs(np.asarray(values, float))
    # the gate separates rounding-level tails (iterates of a converged
    # contraction carry ~1e-10 relative noise there) from genuinely slow
    # decay, whose tail/head ratio is at least x^0.5(r_max) ~ 2.5e-3
    tail = mags[np.searchsorted(grid.r, grid.r_max - 3.0):]
    if not tail.max() > 1e-8 * mags.max():
        return []
    mu = _measured_decay(grid, values)
    notes = []
    if mu <= 0.0:
        notes.append("generalized inverse applied to non-decaying data")
    if mu < 0.5 and abs(mu) > 0.05:
        notes.append("T1 data decays like x^%.3f; the Robin closure at "
                     "r_max = %g carries an O(x^%.3f) boundary-condition "
                     "residual" % (mu, grid.r_max, max(mu, 0.0)))
    return notes


def solve_T1(op, f):
    """The unique decaying solution of T1 v = f: regular at the origin,
    outer Robin row v' + robin v = 0 selecting the x^robin branch over the
    growing x^{-1} branch.  Slowly decaying data is solved anyway; see
    `decay_diagnostics`.  Zero data of the grid's length skip the solve."""
    if not np.any(f) and len(f) == op.grid.n_points:
        return np.zeros(op.grid.n_points)
    return op.t1.solve_robin(f, op.robin)


def generalized_inverse(op, f, proj):
    """u2 = G f with L u2 = f and P1 u2 = 0.

    Factored: solve T1 v = f (Robin closure), then a particular T2 w = v
    through the anchor row transversal to the kernel, then subtract P1 w.
    No local boundary row can separate the two homogeneous T2 branches
    (both decay at the same envelope rate), hence the subtraction step.
    c k^ is subtracted in extended precision and rounded to double once.
    """
    v = solve_T1(op, f)
    if not v.any():
        return v
    w = op.t2.solve_anchored(v, *proj.anchor)
    return np.asarray(w - project_P1(proj, w) * proj.kernel.base.values,
                      float)
