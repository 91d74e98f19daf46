"""Curvature operators and conformal transformation laws on the radial model.

The base metric is hyperbolic space of dimension n >= 4 written in geodesic
polar form, so radial differential operators reduce to ODE expressions:

    Lap f = f'' + (n-1) coth(r) f'        (trace-of-Hessian sign convention)

with the regular limit Lap f(0) = n f''(0) at the origin.  On this base the
Paneitz operator collapses to a constant-coefficient polynomial in Lap, and
the conformal transformation laws for the Q- and scalar curvature become
pointwise algebra in the conformal factor.

For verifying conformal covariance the module also carries a second, fully
independent evaluator of the Paneitz operator on a radially conformal metric
e^{2w} g, built from warped-product curvature formulas rather than from the
covariance law itself.  The same warped-product curvature gives a second
route to the scalar curvature, independent of the conformal-Laplacian law.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import RadialFunction, _stencils, check_samples, differentiate

__all__ = [
    "check_dimension",
    "CurvatureConstants",
    "hyperbolic_curvature_report",
    "check_positive",
    "laplacian_values",
    "paneitz_apply",
    "paneitz_values",
    "q_of_conformal",
    "scalar_of_conformal",
    "WarpedCurvature",
    "warped_product_curvature",
    "paneitz_conformal_values",
]


class DimensionError(ValueError):
    pass


class PositivityError(ValueError):
    """Raised when a power-regime conformal factor fails 1 + u > 0."""


def check_dimension(n):
    if int(n) != n or n < 4:
        raise DimensionError("dimension must be an integer >= 4, got %r" % (n,))
    return int(n)


@dataclass(frozen=True)
class CurvatureConstants:
    """Exact curvature constants of the hyperbolic model."""

    n: int
    R_hyp: float
    Q_hyp: float
    a_n: float
    b_n: float

    def to_dict(self):
        return {"n": self.n, "R_hyp": self.R_hyp, "Q_hyp": self.Q_hyp,
                "a_n": self.a_n, "b_n": self.b_n}


@functools.lru_cache(maxsize=16)
def hyperbolic_curvature_report(n):
    """Constants of hyperbolic n-space: R = -n(n-1), Q = n(n^2-4)/8, and the
    Paneitz coefficients a_n = ((n-2)^2+4)/(2(n-1)(n-2)), b_n = 4/(n-2),
    once per n and process.

    Near the boundary the model satisfies Ric = -(n-1) g and W = 0 exactly,
    so these constants are global, not just leading-order.
    """
    n = check_dimension(n)
    return CurvatureConstants(
        n=n,
        R_hyp=float(-n * (n - 1)),
        # fourth-order scalar curvature of the model: the n >= 5 formula
        # n(n^2-4)/8 does not extend to n = 4, where the defining identity
        # -(1/12)(Lap R - R^2 + 3|Ric|^2) evaluates to 3
        Q_hyp=3.0 if n == 4 else n * (n * n - 4) / 8.0,
        a_n=((n - 2) ** 2 + 4) / (2.0 * (n - 1) * (n - 2)),
        b_n=4.0 / (n - 2),
    )


def check_positive(u, grid, n):
    """PositivityError unless the samples u on `grid` (`check_samples`)
    are a conformal factor of the hyperbolic base: g~ = e^{2u} g (n = 4)
    takes any u, while g~ = (1+u)^{4/(n-4)} g (n >= 5) needs 1 + u > 0."""
    u = check_samples(u, grid)
    if n > 4:
        bad = 1.0 + u <= 0.0
        if bad.any():
            raise PositivityError(
                "conformal factor needs 1 + u > 0; violated first at r=%g"
                % grid.r[bad.argmax()])


@functools.lru_cache(maxsize=16)
def _coth(grid, dtype):
    """coth on the nodes of `grid` in `dtype`, once per (grid, dtype);
    read-only, since every caller shares it."""
    # r[0] = 0 is special-cased by every caller; avoid the 1/0 warning here
    r = grid.r.astype(dtype)
    out = np.empty_like(r)
    out[1:] = np.cosh(r[1:]) / np.sinh(r[1:])
    out[0] = np.inf
    out.flags.writeable = False
    return out


def laplacian_values(values, grid, n):
    """Lap f = f'' + (n-1) coth(r) f' on raw sample arrays.

    At r = 0 the regular limit n f''(0) is used (valid for even profiles).
    Returns the dtype of `values` (double for non-float input), with the
    derivatives accumulated in longdouble (see `differentiate`); longdouble
    input keeps residual diagnostics in extended precision throughout.
    """
    values = np.asarray(values)
    dtype = values.dtype if np.issubdtype(values.dtype, np.floating) else np.dtype(float)
    values = values.astype(dtype)
    d1 = differentiate(values, grid.h, 1)
    d2 = differentiate(values, grid.h, 2)
    coth = _coth(grid, dtype)
    out = np.empty_like(values)
    out[1:] = d2[1:] + (n - 1) * coth[1:] * d1[1:]
    # regular limit n f''(0), plus a sixth-difference compensation that
    # matches this row's truncation error to the r -> 0 limit of the
    # interior rows' (the coth-weighted first-derivative truncation
    # survives the limit); without it the error field has an O(h^4) kink
    # at the origin that composed second-order factors amplify by 1/h^2
    d6 = (-20 * values[0] + 30 * values[1]
          - 12 * values[2] + 2 * values[3])
    out[0] = n * d2[0] - (n - 1) * d6 / (dtype.type(45) * grid.h ** 2)
    return out


@functools.lru_cache(maxsize=16)
def _small_stencils(grid, n):
    """(w1, w2, origin, outer): the weights of `_small_laplacian` on `grid`,
    each formed in longdouble and rounded once to double, read-only.  w1
    and w2 are the central stencils of (n-1) d/dr and d^2/dr^2, origin the
    r = 0 row on f[0..3] (n f''(0) less `laplacian_values`' sixth-difference
    term), outer the two last rows of f'' + (n-1) coth(r) f' on the last
    six samples, from `differentiate`'s biased stencils and the double
    coth table."""
    h = grid.h
    (w1, o1), (w2, o2) = _stencils(1), _stencils(2)
    origin = (n * np.array([w2[2], w2[1] + w2[3], w2[0] + w2[4], 0])
              - (n - 1) * np.array([-20, 30, -12, 2]) / np.longdouble(45))
    coth = _coth(grid, np.dtype(float))[-2:, None]
    outer = o2 + (n - 1) * h * coth * np.pad(o1, ((0, 0), (1, 0)))
    out = ((n - 1) * w1 / h, w2 / h ** 2, origin / h ** 2, outer / h ** 2)
    out = tuple(w.astype(float) for w in out)
    for w in out:
        w.flags.writeable = False
    return out


def _small_laplacian(values, grid, n):
    """`laplacian_values` of a double array, accumulated in double: one
    multiply-add of two correlations with pre-scaled weights on the
    even-ghost-padded samples.  Weights rounded to double no longer
    annihilate constants exactly, an error of order eps max|f| / h^2 that
    the next factor amplifies by 1/h^2: for small fields only."""
    w1, w2, origin, outer = _small_stencils(grid, n)
    size = values.shape[0]
    # rows 1..size-3 read f[-1] = f[1] at most
    padded = np.concatenate((values[1:2], values))
    out = np.empty(size)
    inner = out[1:size - 2]
    # coth(0) is inf: row 0 is the origin row alone
    coth = _coth(grid, np.dtype(float))
    np.multiply(np.correlate(padded, w1), coth[1:size - 2], out=inner)
    inner += np.correlate(padded, w2)
    out[0] = origin @ values[:4]
    out[size - 2:] = outer @ values[size - 6:]
    return out


def paneitz_values(values, grid, n, extended=True):
    """P_g applied to a raw sample array on the hyperbolic base, in the
    dtype and with the accumulation of `laplacian_values`.  `extended=False`
    applies each Laplacian by `_small_laplacian`, in double: for small
    fields only (the double part of a split residual).

    On the base P = Lap^2 - c_n Lap + (n-4)/2 Q: the tensor a_n R g - b_n
    Ric is c_n g (Ric = -(n-1) g, R = -n(n-1)), so the divergence term is
    a pure Laplacian multiple."""
    n = check_dimension(n)
    cc = hyperbolic_curvature_report(n)
    c_n = cc.a_n * cc.R_hyp + cc.b_n * (n - 1)
    if extended:
        lap = laplacian_values(values, grid, n)
        lap2 = laplacian_values(lap, grid, n)
    else:
        values = np.asarray(values, float)
        lap = _small_laplacian(values, grid, n)
        lap2 = _small_laplacian(lap, grid, n)
    out = lap2 - c_n * lap
    if n > 4:
        out = out + 0.5 * (n - 4) * cc.Q_hyp * np.asarray(values, dtype=out.dtype)
    return out


def paneitz_apply(phi, grid, n):
    """Paneitz operator of the hyperbolic base applied to a RadialFunction."""
    if phi.grid != grid:
        raise ValueError("function does not live on the supplied grid")
    return RadialFunction(grid, paneitz_values(phi.values, grid, n))


def q_of_conformal(u, n):
    """Q-curvature of the metric with conformal factor u (see
    `check_positive`), pointwise on the grid of u.

    n = 4:   Q~ = e^{-4u} (P u + 2 Q) / 2
    n >= 5:  Q~ = (2/(n-4)) (1+u)^{-(n+4)/(n-4)} P(1+u)
    """
    n = check_dimension(n)
    check_positive(u.values, u.grid, n)
    cc = hyperbolic_curvature_report(n)
    uv = u.values
    pu = paneitz_values(uv, u.grid, n)
    if n == 4:
        vals = np.exp(-4.0 * uv.astype(pu.dtype)) * (pu + 2.0 * cc.Q_hyp) / 2.0
    else:
        # split P(1+u) = P u + (n-4)/2 Q analytically: applying the
        # fourth-order stencils to the O(1) field 1+u would amplify its
        # eps-level representation noise by 1/h^4
        pw = pu + 0.5 * (n - 4.0) * cc.Q_hyp
        p_exp = (n + 4.0) / (n - 4.0)
        vals = (2.0 / (n - 4.0)) * np.asarray(1.0 + uv, dtype=pw.dtype) ** (-p_exp) * pw
    return RadialFunction(u.grid, vals)


def scalar_of_conformal(u, n):
    """Scalar curvature of the metric with conformal factor u (see
    `check_positive`), pointwise on the grid of u.

    n = 4 uses (1+v)^{-3} (-6 Lap + R)(1+v) with 1+v = e^u; n >= 5 the
    conformal-Laplacian law with phi = (1+u)^{(n-2)/(n-4)}.
    """
    n = check_dimension(n)
    check_positive(u.values, u.grid, n)
    cc = hyperbolic_curvature_report(n)
    uv = u.values
    if n == 4:
        w = np.exp(uv)
        lap_w = laplacian_values(w, u.grid, n)
        vals = np.exp(-3.0 * uv.astype(lap_w.dtype)) * (-6.0 * lap_w + cc.R_hyp * w)
    else:
        phi = (1.0 + uv) ** ((n - 2.0) / (n - 4.0))
        lap_phi = laplacian_values(phi, u.grid, n)
        c = 4.0 * (n - 1.0) / (n - 2.0)
        vals = np.asarray(phi, dtype=lap_phi.dtype) ** (-(n + 2.0) / (n - 2.0)) \
            * (-c * lap_phi + cc.R_hyp * phi)
    return RadialFunction(u.grid, vals)


class WarpedCurvature(NamedTuple):
    """Warped-product data of g~ = e^{2w} g = A^2 dr^2 + B^2 dS^2.

    `B_s` is the arc-length derivative B_s = A^{-1} dB/dr; `ric_ss` and
    `ric_ang` are the radial and the angular Ricci curvatures (the latter
    per unit angular metric) and `scalar` is R = Ric_ss + (n-1) Ric_ang.
    """

    A: np.ndarray
    B: np.ndarray
    B_s: np.ndarray
    ric_ss: np.ndarray
    ric_ang: np.ndarray
    scalar: np.ndarray


def warped_product_curvature(w, grid, n):
    """Ricci and scalar curvature of the radially conformal metric
    g~ = e^{2w} g from warped-product formulas.

    Writing g~ = A^2 dr^2 + B^2 dS^2 with A = e^w, B = e^w sinh r and
    arc-length derivative d/ds = A^{-1} d/dr,

        Ric_ss  = -(n-1) B_ss / B
        Ric_ang = -B_ss/B - (n-2)(B_s^2 - 1)/B^2   (per unit angular metric)
        R       = Ric_ss + (n-1) Ric_ang.

    No conformal transformation law is used.  Works in the dtype of `w`.
    The r = 0 entries are 0/0 limits and hold the placeholder -(n-1) in
    both Ricci arrays; read the result through an interior window.  The
    nested first-derivative stencils carry an O(h^4 sinh r) truncation
    error that grows toward the boundary, so a curvature deviation is best
    taken against this function at w = 0 on the same grid rather than
    against the exact -n(n-1).
    """
    n = check_dimension(n)
    w = np.asarray(w)
    dtype = w.dtype if np.issubdtype(w.dtype, np.floating) else np.dtype(float)
    w = w.astype(dtype)
    h = grid.h
    r = grid.r.astype(dtype)

    A = np.exp(w)                                      # even
    B = A * np.sinh(r)                                 # odd
    B_r = differentiate(B, h, 1, parity=-1)            # even
    B_s = B_r / A                                      # even
    B_s_r = differentiate(B_s, h, 1)                   # odd
    B_ss = B_s_r / A                                   # odd

    with np.errstate(divide="ignore", invalid="ignore"):
        ric_ss = -(n - 1) * B_ss / B
        ric_ang = -B_ss / B - (n - 2) * (B_s ** 2 - 1.0) / B ** 2
    # r = 0 entries are 0/0; mask with the smooth-limit placeholder so the
    # arrays stay finite (interior windows never read them)
    for arr in (ric_ss, ric_ang):
        bad = ~np.isfinite(arr)
        arr[bad] = -(n - 1.0)
    return WarpedCurvature(A, B, B_s, ric_ss, ric_ang,
                           ric_ss + (n - 1) * ric_ang)


def paneitz_conformal_values(phi, w, grid, n):
    """Paneitz operator of the radially conformal metric g~ = e^{2w} g on
    an even profile phi, evaluated from warped-product curvature formulas.

    With the curvature of `warped_product_curvature` (A = e^w,
    B = e^w sinh r, d/ds = A^{-1} d/dr),

        P~ phi = Lap~^2 phi - B^{1-n} d/ds(B^{n-1} T_ss phi_s)
                 + (n-4)/2 Q~ phi,   T = a_n R g~ - b_n Ric.

    This route never invokes the conformal covariance law, so it serves as
    its independent check.  Values within a few grid spacings of r = 0 are
    polluted by the 0/0 limits of B and should be read through an interior
    window; the returned array is raw for that reason.
    """
    n = check_dimension(n)
    cc = hyperbolic_curvature_report(n)
    phi = np.asarray(phi)
    dtype = phi.dtype if np.issubdtype(phi.dtype, np.floating) else np.dtype(float)
    phi = phi.astype(dtype)
    w = np.asarray(w, dtype=dtype)
    h = grid.h

    A, B, B_s, ric_ss, ric_ang, R_scal = warped_product_curvature(w, grid, n)
    # Lap~ f = e^{-2w} (Lap f + (n-2) w' f'), the Laplacian of g~
    wp = (n - 2.0) * differentiate(w, h, 1)
    exp_m2w = np.exp(-2.0 * w)

    def lap_conf(vals):
        return exp_m2w * (laplacian_values(vals, grid, n)
                          + wp * differentiate(vals, h, 1))

    lap_phi = lap_conf(phi)
    lap2_phi = lap_conf(lap_phi)

    phi_s = differentiate(phi, h, 1) / A               # odd
    T_ss = cc.a_n * R_scal - cc.b_n * ric_ss           # even
    G = T_ss * phi_s                                   # odd
    G_s = differentiate(G, h, 1, parity=-1) / A        # even
    with np.errstate(divide="ignore", invalid="ignore"):
        div_term = G_s + (n - 1) * (B_s / B) * G
    # the r = 0 entry is 0/0; interior windows never read it
    div_term[~np.isfinite(div_term)] = 0.0

    out = lap2_phi - div_term
    if n > 4:
        ric_sq = ric_ss ** 2 + (n - 1) * ric_ang ** 2
        lap_R = lap_conf(R_scal)
        q_conf = (-2.0 / (n - 2) ** 2 * ric_sq
                  + (n ** 3 - 4 * n ** 2 + 16 * n - 16)
                  / (8.0 * (n - 1) ** 2 * (n - 2) ** 2) * R_scal ** 2
                  - lap_R / (2.0 * (n - 1)))
        out = out + 0.5 * (n - 4) * q_conf * phi
    return out
