"""Radial grids on [0, R_max] and sampled radial profiles.

The geodesic radius r is the primary coordinate; the boundary-defining
variable is x = exp(-r), strictly decreasing from 1 at the origin toward 0
at the outer radius.  All differential operators in this package act on
profiles sampled on a uniform r-grid, with derivatives supplied by
fourth-order finite-difference stencils.  Smooth radial profiles are even
functions of r, so the origin is closed with mirrored ghost points instead
of one-sided stencils; a segment that starts away from the origin is
closed by the outer end's biased stencils, mirrored.  A RadialFunction
checks a profile where it enters or leaves the library; the operators
and solves inside act on plain sample arrays.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = ["RadialGrid", "RadialFunction", "fd_weights", "stencil_weights",
           "differentiate", "check_samples"]


def fd_weights(offsets, m):
    """Finite-difference weights for the m-th derivative at offset 0.

    ``offsets`` are the integer node positions relative to the evaluation
    point (unit spacing), and the returned weights w satisfy
    f^(m)(0) ~ sum_j w[j] f(offsets[j]).

    Each weight is m! [t^m] L_j(t) for the Lagrange basis polynomial
    L_j(t) = prod_{i != j} (t - x_i) / (x_j - x_i), an exact ratio of
    Python integers, rounded once to extended precision: weight-level
    rounding would otherwise put a ~1e-16 floor under every derivative,
    which composed operators amplify by 1/h^2 per factor.
    """
    x = [operator.index(o) for o in offsets]
    if m >= len(x):
        raise ValueError("need at least m+1 points for the m-th derivative")
    weights = []
    for j, xj in enumerate(x):
        poly, den = [1], 1      # prod_{i != j} (t - x_i), lowest power first
        for xi in x[:j] + x[j + 1:]:
            poly = [a - xi * b for a, b in zip([0] + poly, poly + [0])]
            den *= xj - xi
        num = math.factorial(m) * poly[m]
        g = math.gcd(num, den) * (1 if den > 0 else -1)
        weights.append(np.longdouble(num // g) / np.longdouble(den // g))
    return np.array(weights)


# Central stencil half-widths giving 4th-order accuracy.
_HALF_WIDTH = {1: 2, 2: 2, 3: 3, 4: 3}


@functools.cache
def stencil_weights(lo, hi, m):
    """fd_weights(lo..hi, m), computed once per stencil and process;
    read-only, since every caller shares it."""
    w = fd_weights(range(lo, hi + 1), m)
    w.flags.writeable = False
    return w


@functools.cache
def _stencils(m):
    """(central, outer) longdouble weights of `differentiate`, the biased
    stencils of the outer rows stacked (each reads the last m+4 samples);
    read-only, since every caller shares them."""
    k = _HALF_WIDTH[m]
    out = (stencil_weights(-k, k, m),
           np.array([stencil_weights(lead - m - 3, lead, m)
                     for lead in range(k - 1, -1, -1)]))
    out[1].flags.writeable = False
    return out


def differentiate(values, h, m, parity=1):
    """m-th derivative of a sampled profile, 4th-order accurate, in the
    dtype of `values`.

    parity = +1 treats the sample as an even function of r about the origin
    (ghost values f[-i] = f[i]); parity = -1 as odd; parity = None as a
    segment that starts at an edge away from the origin, closed like the
    outer end.  The outer end uses biased stencils of the same order.  The
    extended-precision weights accumulate in longdouble whatever the input
    dtype: weights rounded to double no longer annihilate constants
    exactly, and a composed operator amplifies that residue by 1/h^2.
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        values = values.astype(float)
    if m == 0:
        return values.copy()
    n = values.shape[0]
    k = _HALF_WIDTH[m]
    if n < m + 5:
        raise ValueError("grid too short for a 4th-order order-%d stencil" % m)
    w, w_outer = _stencils(m)
    out = np.empty(n, dtype=np.longdouble)
    # correlate sums each row's taps in stencil order, as a loop would
    if parity is None:
        # the inner edge: the outer rows' biased stencils, mirrored
        out[k:n - k] = np.correlate(values, w)
        out[:k] = (-1) ** m * (w_outer[::-1] @ values[m + 3::-1])
    else:
        # the origin's rows through parity ghosts f[-i] = parity f[i]
        padded = np.concatenate((parity * values[k:0:-1], values))
        out[:n - k] = np.correlate(padded, w)
    out[n - k:] = w_outer @ values[n - m - 4:]
    return (out / np.longdouble(h) ** m).astype(values.dtype)


class RadialGrid:
    """Uniform grid in geodesic radius r on [0, R_max].

    Attributes
    ----------
    r : ndarray, strictly increasing from 0 to r_max
    x : ndarray, x = exp(-r), strictly decreasing in (0, 1]
    h : float, grid spacing
    """

    def __init__(self, r_max=12.0, n_points=4096):
        if r_max <= 0:
            raise ValueError("r_max must be positive")
        if n_points < 16:
            raise ValueError("need at least 16 grid points")
        self.r_max = float(r_max)
        self.n_points = int(n_points)
        # extended-precision coordinates: double-rounded nodes carry a
        # spacing jitter that masquerades as grid-scale roughness in any
        # profile sampled on them, and composed fourth-order operators
        # amplify that by 1/h^4
        self.r = np.linspace(np.longdouble(0), np.longdouble(self.r_max),
                             self.n_points)
        self.h = self.r[1] - self.r[0]
        self.x = np.exp(-self.r)
        self.r.setflags(write=False)
        self.x.setflags(write=False)

    def __repr__(self):
        return "RadialGrid(r_max=%g, n_points=%d)" % (self.r_max, self.n_points)

    def __eq__(self, other):
        return (isinstance(other, RadialGrid)
                and self.r_max == other.r_max
                and self.n_points == other.n_points)

    def __hash__(self):
        return hash((self.r_max, self.n_points))

    def window_mask(self, r_lo, r_hi):
        return (self.r >= r_lo) & (self.r <= r_hi)

    def index_of(self, r_value):
        """Index of the grid point closest to r_value."""
        i = int(round(r_value / self.h))
        return min(max(i, 0), self.n_points - 1)

    def refine(self):
        """A grid with the same extent and twice the resolution."""
        return RadialGrid(self.r_max, 2 * self.n_points - 1)


def check_samples(values, grid):
    """`values` as an array, ValueError unless one sample per node of
    `grid` (a length-1 array would broadcast silently)."""
    values = np.asarray(values)
    if values.shape != (grid.n_points,):
        raise ValueError("value array length %s does not match grid size %d"
                         % (values.shape, grid.n_points))
    return values


class RadialFunction:
    """A radial profile sampled on a RadialGrid: an even function of r, the
    generic case for regular radial data.

    The checked container for profiles that enter or leave the library (a
    target curvature, a solved u or w, a unit kernel, the arguments of the
    expansion fits and the conformal curvature laws): construction rejects
    a wrong length and NaN/Inf, and keeps a read-only copy of the values.
    Internal maps, the solves' right-hand sides and residuals among them,
    act on value arrays and check only their length (`check_samples`).
    """

    def __init__(self, grid, values):
        values = check_samples(values, grid)
        if not np.isfinite(values).all():
            raise ValueError("RadialFunction values must be finite")
        self.grid = grid
        self.values = values.copy()
        self.values.setflags(write=False)
