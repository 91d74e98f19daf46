"""Fixed-point construction of constant / prescribed Q-curvature metrics.

Given a small kernel amplitude a, set u1 = a k-hat and iterate

    u2  <-  G T(u1 + u2),    u2^(0) = 0,

where T collects every term of the curvature equation that is quadratic in
u or proportional to the deviation f - Q_g, and G is the generalized
inverse of the factored linear operator with the kernel component projected
out.  The limit u = u1 + u2 solves the prescribed-curvature equation with
P1 u = u1, so distinct amplitudes parametrize distinct solutions.
`projected_contraction` runs this scheme for any factored operator and
right-hand side: the constant-Q solve here and the U-curvature solve of
`qcurve.ucurve` share it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .expansion import ExpansionFit, fit_leading
from .geometry import (PositivityError, check_dimension, check_positive,
                       hyperbolic_curvature_report, paneitz_values)
from .grid import RadialFunction, RadialGrid, check_samples
from .linear import (FactoredOperator, KernelElement, ProjectionP1, assemble,
                     decay_diagnostics, generalized_inverse, kernel_element,
                     make_projection, project_P1)

__all__ = [
    "TargetCurvature",
    "IterationConfig",
    "SolveReport",
    "Machinery",
    "build_machinery",
    "constant_q_problem",
    "nonlinear_rhs",
    "iterate_fixed_point",
    "solve_report",
    "projected_contraction",
    "fixed_point_solve",
    "guarded_solve",
    "e_residual",
    "sweep_family",
]


class AdmissibilityError(ValueError):
    """Target curvature outside the admissible deviation class."""


@dataclass(frozen=True)
class Machinery:
    """The assembled linear machinery a solve runs on; `iterates` memoizes
    the constant-Q solve's fixed-point iterates as power series in the
    amplitude (`_iterate_memo`) per (target, epsilon, tol), and
    `paneitz_kernel` holds P k-hat in longdouble for the constant-Q
    residual (None in U solves)."""

    grid: object
    n: int
    operator: FactoredOperator
    kernel: KernelElement
    projection: ProjectionP1
    iterates: dict = field(default_factory=dict, compare=False, repr=False)
    paneitz_kernel: np.ndarray = field(default=None, compare=False, repr=False)


def build_machinery(n, grid):
    n = check_dimension(n)
    op = assemble(grid, n=n)
    k = kernel_element(n, grid)
    return Machinery(grid=grid, n=n, operator=op, kernel=k,
                     projection=make_projection(k),
                     paneitz_kernel=paneitz_values(k.base.values, grid, n))


def constant_q_problem(n, r_max, points, target=None):
    """(machinery, target) of the constant-Q problem on RadialGrid(r_max,
    points): the assembled machinery and the constant target curvature
    (default: the hyperbolic Q)."""
    grid = RadialGrid(r_max, points)
    machinery = build_machinery(n, grid)
    if target is None:
        target = hyperbolic_curvature_report(n).Q_hyp
    return machinery, TargetCurvature(target, n, grid=grid)


class TargetCurvature:
    """Prescribed curvature target f with its deviation bookkeeping.

    `f` may be a constant (the constant-curvature problem) or a
    RadialFunction; the deviation f - Q_g must decay like x^nu, the weight
    nu = 3(n-1)/8 the midpoint of ((n-1)/4, (n-1)/2) -- the window on which
    the projected linear theory is invertible.  The measured weighted
    deviation norm is stored; a deviation that fails to decay at rate nu is
    noted in `diagnostics`, which every solve on this target reports, not
    refused, since constants sharper than the a-priori ones may still admit
    the contraction.
    """

    def __init__(self, f, n, grid=None):
        n = check_dimension(n)
        self.n = n
        self.q_base = hyperbolic_curvature_report(n).Q_hyp
        self.nu = 0.375 * (n - 1)
        if isinstance(f, RadialFunction):
            self.f = f
            self.grid = f.grid
        else:
            if grid is None:
                raise ValueError("a constant target needs an explicit grid")
            self.f = RadialFunction(grid, np.full(grid.n_points, float(f)))
            self.grid = grid
        dev = np.asarray(self.f.values, float) - self.q_base
        r = self.grid.r.astype(float)
        weighted = np.abs(dev) * np.exp(self.nu * r)
        self.deviation_norm = float(weighted.max())
        # decay check on the outer half: the weighted deviation must not
        # keep growing into the boundary
        self.diagnostics = []
        half = r >= self.grid.r_max / 2.0
        tail = weighted[half]
        if tail.size and self.deviation_norm > 0:
            third = max(1, tail.size // 3)
            if tail[-third:].max() > 2.0 * tail[:third].max() + 1e-300:
                self.diagnostics.append(
                    "target deviation f - Q_g does not decay like x^%.3g; "
                    "measured weighted norm %.3g keeps growing toward the "
                    "boundary" % (self.nu, self.deviation_norm))


@dataclass(frozen=True)
class IterationConfig:
    """Contraction-iteration knobs.

    epsilon bounds the kernel amplitude, tol stops the iteration on the
    sup-norm of increments, max_iter on the number of maps.
    """

    epsilon: float = 1e-3
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    contraction_ratios: list[float] = field(default_factory=list)
    residual: float = math.nan
    amplitude: float = math.nan
    fitted_amplitude: float = math.nan
    expansion: ExpansionFit | None = None
    message: str = ""
    error_bound: float = math.nan
    pairwise_distances: list[float] | None = None
    excised_r0: float | None = None
    diagnostics: list[str] = field(default_factory=list)

    def to_dict(self):
        """The fields not left None; `diagnostics` only when non-empty."""
        d = {k: v for k, v in vars(self).items() if v is not None}
        if self.expansion is not None:
            d["expansion"] = self.expansion.to_dict()
        if not self.diagnostics:
            del d["diagnostics"]
        return d


def nonlinear_rhs(u, f, dim):
    """T(u) of the sample array u on the target's grid: every term of the
    curvature equation beyond L u, in double.

    n = 4:   T(u) = 2 f (e^{4u} - 1 - 4u) + 2 (f - Q) + 8 (f - Q) u
    n >= 5:  T(u) = (n-4)/2 [ f ((1+u)^p - 1 - p u) + (f - Q) ]
                    + (n+4)/2 (f - Q) u,     p = (n+4)/(n-4),

    so that the curvature equation reads L u = T(u).  T vanishes to second
    order at u = 0 when f = Q.
    """
    n = check_dimension(dim)
    check_positive(u, f.grid, n)
    u = np.asarray(u, float)
    fv = np.asarray(f.f.values, float)
    q = f.q_base
    if n == 4:
        vals = (2.0 * fv * (np.expm1(4.0 * u) - 4.0 * u)
                + 2.0 * (fv - q) + 8.0 * (fv - q) * u)
    else:
        p = (n + 4.0) / (n - 4.0)
        # (1+u)^p - 1 through expm1/log1p: w ** p - 1 leaves rounding noise
        # of absolute size eps that does not shrink with u
        vals = (0.5 * (n - 4.0) * (fv * (np.expm1(p * np.log1p(u)) - p * u)
                                   + (fv - q))
                + 0.5 * (n + 4.0) * (fv - q) * u)
    return vals


def _power1p(u, p):
    """(1+u)^p by exp/log1p: (1+u) ** p in longdouble is x87 powl."""
    return np.exp(p * np.log1p(u))


@functools.lru_cache(maxsize=16)
def _interior(grid):
    """The rows r <= r_max - 0.5 that `e_residual` reads, as a slice."""
    return slice(np.searchsorted(grid.r, grid.r_max - 0.5, side="right"))


def e_residual(u, f, dim, split=None):
    """Sup of the curvature equation residual of the samples u on the
    target's grid, on the interior window.

    n = 4:   E(u) = P u + 2 Q - 2 f e^{4u}
    n >= 5:  E(u) = P(1+u) - (n-4)/2 f (1+u)^{(n+4)/(n-4)}

    The outer 0.5 of radius (biased-stencil rows) is excluded, and E is
    formed only on the rows read, in the dtype of u, or in double given
    `split` = (P v, w) for u = v + w: P u = P v + P w, P w by the fused
    double kernel of `paneitz_values(..., extended=False)` (for w small
    enough that its rounding, of order eps max|w| / h^4, is negligible).
    """
    n = check_dimension(dim)
    grid = f.grid
    rows = _interior(grid)
    uv = check_samples(u, grid)
    fv = np.asarray(f.f.values[rows], float)
    if split is None:
        pu = paneitz_values(uv, grid, n)[rows]
    else:
        pu = np.asarray(split[0][rows], float) + paneitz_values(
            split[1], grid, n, extended=False)[rows]
    uv = np.asarray(uv[rows], pu.dtype)
    if n == 4:
        res = pu + 2.0 * f.q_base - 2.0 * fv * np.exp(4.0 * uv)
    else:
        # P(1+u) = P u + (n-4)/2 Q, split analytically (see q_of_conformal)
        pw = pu + 0.5 * (n - 4.0) * f.q_base
        res = pw - 0.5 * (n - 4.0) * fv * _power1p(uv, (n + 4.0) / (n - 4.0))
    return float(np.abs(np.asarray(res, float)).max())


# Highest power of the amplitude an iterate series keeps: T(a k-hat) for
# n = 5 is a polynomial of degree p = 9.
_MAX_DEGREE = 9


def _rhs_coefficients(u, f, n):
    """Yield T_0, T_1, ...: the a^m coefficients of T(sum_j a^j u[j])
    (`nonlinear_rhs`), one row at a time and without end.  T_0 = T(u[0]);
    beyond it, X = e^{4u} (n = 4) or (1+u)^p (n >= 5) obeys w X' =
    p u' X with p = 4, w = 1 (n = 4) or w = 1 + u, so its excess
    R_m = X_m - p u_m over the linear term is

        R_m = sum_{k=1}^{m-1} c_k u_k X_{m-k} / (m w_0)
              + p u_m (X_0 / w_0 - 1),

    c_k = 4 k (n = 4) or (p+1) k - m, and T_m = scale f R_m + linear
    (f - Q) u_m.  Only the last len(u) - 1 coefficients of X are kept."""
    fv = np.asarray(f.f.values, float)
    dev = fv - f.q_base
    yield nonlinear_rhs(u[0], f, n)
    if n == 4:
        scale, linear, p, w0 = 2.0, 8.0, 4.0, 1.0
        x0 = np.exp(4.0 * u[0])
        excess = np.expm1(4.0 * u[0])

        def weight(k, m):
            return 4.0 * k
    else:
        scale, linear = 0.5 * (n - 4.0), 0.5 * (n + 4.0)
        p = (n + 4.0) / (n - 4.0)
        w0 = 1.0 + u[0]
        x0 = _power1p(u[0], p)
        excess = np.expm1((p - 1.0) * np.log1p(u[0]))

        def weight(k, m):
            return (p + 1.0) * k - m
    lead = x0 / w0
    history = collections.deque([x0], maxlen=len(u) - 1)
    for m in itertools.count(1):
        s = np.zeros_like(fv)
        for k in range(1, min(m, len(u))):
            s += weight(k, m) * u[k] * history[-k]
        s /= m * w0
        um = u[m] if m < len(u) else 0.0
        history.append(s + p * um * lead)
        yield scale * fv * (s + p * um * excess) + linear * dev * um


def _iterate_series(machinery, f, epsilon, u, j0):
    """(j0, W): G T(sum_j a^j u[j]) = sum_j a^j W[j - j0] for every |a| <=
    epsilon, W[j - j0] = G T_j of `_rhs_coefficients` (T_j = 0 for j <
    j0); W is one contiguous read-only array.  A row whose term epsilon^j
    max|W_j| falls to 2^-64 of the kept terms' sum, 11 bits under the
    rounding of the sum, ends the series.  That term is estimated before G
    is applied, from the gain max|W| / max|T| of the last kept row: G's
    gain falls with j past the first rows, so the estimate errs toward
    keeping a row.  None where the series takes powers beyond
    `_MAX_DEGREE`."""
    rows, total, gain = [], 0.0, 0.0
    for j, data in enumerate(_rhs_coefficients(u, f, machinery.n)):
        if j < j0:
            continue
        size = float(np.abs(data).max())
        if j >= 2 and rows and (epsilon ** j * gain * size
                                <= 2.0 ** -64 * total):
            break
        if j > _MAX_DEGREE:
            return None
        row = generalized_inverse(machinery.operator, data,
                                  machinery.projection)
        rows.append(row)
        peak = float(np.abs(row).max())
        total += epsilon ** j * peak
        gain = peak / size
    rows = np.array(rows)
    rows.flags.writeable = False
    return j0, rows


def _step_bound(memo, epsilon):
    """sum_j epsilon^j max|W_j - W'_j| over the rows of the last two
    `_iterate_series` of `memo` (one series: its predecessor is 0), a
    bound on the sup-norm step between them at every |a| <= epsilon."""
    j0, rows = memo[-1]
    previous = memo[-2][1] if len(memo) > 1 else ()
    return sum(epsilon ** (j0 + i) * float(np.abs(row - prev).max())
               for i, (row, prev) in enumerate(
                   itertools.zip_longest(rows, previous, fillvalue=0.0)))


def _iterate_memo(machinery, f, epsilon, tol):
    """The constant-Q solve's fixed-point iterates u2^(1), u2^(2), ...,
    u2^(k+1) = G T(a k-hat + u2^(k)), as a tuple of `_iterate_series` at
    every |a| <= epsilon.  Their rows start at j0 = 2 on a constant target,
    where T(a k-hat) = O(a^2), and at 0 otherwise.  The tuple ends at the
    first iterate whose step from its predecessor is certified below `tol`
    on the whole disc, sum_j epsilon^j max|W_j - W'_j| < tol, after
    `_MAX_DEGREE` iterates (on a constant target step k is O(a^(k+1)), so
    by then it lies beyond the kept powers), or before a series that needs
    powers beyond `_MAX_DEGREE`; None where the first does."""
    k = np.asarray(machinery.kernel.base.values, float)
    zero = np.zeros_like(k)
    j0 = 0 if np.any(np.asarray(f.f.values, float) - f.q_base) else 2
    memo, u = [], [zero, k]
    while len(memo) < _MAX_DEGREE:
        series = _iterate_series(machinery, f, epsilon, u, j0)
        if series is None:
            break
        memo.append(series)
        if _step_bound(memo, epsilon) < tol:
            break
        # a k-hat + the iterate by coefficient: views of its rows but u_1
        u = [zero] * j0 + list(series[1])
        u[1] = u[1] + k
    return tuple(memo) or None


def _iterate_at(series, amplitude):
    """sum_j a^j W_j of an `_iterate_series`, by Horner's rule."""
    j0, rows = series
    a = float(amplitude)
    out = rows[-1].copy()
    for row in rows[-2::-1]:
        out *= a
        out += row
    out *= a ** j0
    return out


def iterate_fixed_point(update, u2, cfg, known=()):
    """Iterate u2 <- update(u2) until the sup-norm step falls below cfg.tol
    or cfg.max_iter maps have been applied.  `known` yields maps computed
    beforehand, each drawn only when the loop reaches it: the first counts
    as the first map, and map k >= 2 calls update(u2, known[k - 1]), which
    returns that map and does only the rest of its work.  Past `known`,
    update(u2) computes each map.

    A step that is not <= the first one (NaN included) ends the loop as
    diverging, since a contraction never takes one; u2 is then the last
    iterate before that step.

    Returns (u2, converged, iterations, contraction_ratios, step), the
    ratios being those of successive steps and step the last one.  The
    iterate is kept in double, and each step is measured between the
    double iterates the loop keeps (the generalized inverse already rounds
    its result once)."""
    ratios, step, first_step = [], None, None
    known = iter(known)
    for iterations in range(1, cfg.max_iter + 1):
        given = next(known, None)
        if given is None:
            new = update(u2)
        elif iterations == 1:
            new = given
        else:
            new = update(u2, given)
        new = np.asarray(new, float)
        prev_step, step = step, float(np.abs(new - u2).max())
        if prev_step:
            ratios.append(step / prev_step)
        first_step = step if first_step is None else first_step
        if not step <= first_step:
            return u2, False, iterations, ratios, step
        u2 = new
        if step < cfg.tol:
            return u2, True, iterations, ratios, step
    return u2, False, cfg.max_iter, ratios, step


def check_amplitude(amplitude, cfg):
    """AdmissibilityError unless |amplitude| <= cfg.epsilon (NaN is not)."""
    if math.isnan(amplitude):
        raise AdmissibilityError("kernel amplitude is not a number")
    if abs(amplitude) > cfg.epsilon:
        raise AdmissibilityError(
            "kernel amplitude %g exceeds the configured bound %g"
            % (amplitude, cfg.epsilon))


def solve_report(cfg, converged, amplitude, fitted, ratios, step, **fields):
    """SolveReport of a solve under `cfg` with the shared verdict: a
    converged solve whose re-fitted datum `fitted` misses `amplitude` by
    more than 1e-6 |amplitude| + 1e-10 has failed.

    `error_bound` is the a-posteriori contraction estimate q/(1-q) step of
    the sup distance from the last iterate to the fixed point, q the last
    of the contraction `ratios` and step the last step: 0 after a zero
    step, NaN with no ratio measured, inf when q >= 1.  An unconverged
    solve that stopped before cfg.max_iter maps was diverging."""
    message = "" if converged else (
        "no convergence in %d iterations" % cfg.max_iter
        if fields["iterations"] == cfg.max_iter else
        "diverging: the step of iteration %d exceeds the first step"
        % fields["iterations"])
    if converged and abs(fitted - amplitude) > 1e-6 * abs(amplitude) + 1e-10:
        converged = False
        message = ("kernel projection drifted: fitted amplitude %g vs "
                   "prescribed %g" % (fitted, amplitude))
    if step == 0.0 or not ratios:
        bound = 0.0 if step == 0.0 else math.nan
    else:
        q = ratios[-1]
        bound = q / (1.0 - q) * step if q < 1.0 else math.inf
    return SolveReport(converged=converged, amplitude=float(amplitude),
                       fitted_amplitude=float(fitted), message=message,
                       contraction_ratios=ratios, error_bound=bound,
                       **fields)


def projected_contraction(amplitude, u1, cfg, machinery, rhs, residual,
                          known=()):
    """(report, u): iterate u2 <- G T(u1 + u2) from u2 = 0, u1 = amplitude
    k-hat in extended precision (an amplitude the caller has checked), on
    the machinery's operator, kernel and projection; `known` yields the
    first iterates G T(u1), G T(u1 + first), ..., computed beforehand: a
    map after the first that takes one still forms T(u1 + u2) but applies
    no G (`iterate_fixed_point`).

    `rhs(u1, u2)` and `residual(u1, u2)` are the array T(u1 + u2) and the
    family's equation residual from the value arrays of u1 (extended
    precision) and u2 (double), so each family picks where the sum is
    rounded or splits a linear term.  u = u1 + u2, the one RadialFunction
    a solve builds, stays in extended precision: rounding u1 seeds noise
    that residuals amplify by 1/h^4.  The report holds the
    re-fitted kernel datum and the `decay_diagnostics` of the last
    right-hand side formed, T(u1) if the loop stops at the first iterate
    and T(u1 + u2) of the iterate before the last otherwise, whether G
    was applied to it or its image was known."""
    grid = machinery.grid
    zero = np.zeros(grid.n_points)
    data = None

    def update(u2, image=None):
        nonlocal data
        data = rhs(u1, u2)
        if image is not None:
            return image
        return generalized_inverse(machinery.operator, data,
                                   machinery.projection)

    u2, converged, iterations, ratios, step = iterate_fixed_point(
        update, zero, cfg, known)
    if data is None:
        data = rhs(u1, zero)
    u = RadialFunction(grid, u1 + u2)
    return solve_report(
        cfg, converged, amplitude,
        project_P1(machinery.projection, u.values), ratios, step,
        iterations=iterations, residual=residual(u1, u2),
        diagnostics=decay_diagnostics(grid, data)), u


def fixed_point_solve(amplitude, f, cfg, machinery):
    """(report, u) of the constant / prescribed Q-curvature metric with
    kernel datum `amplitude` (`projected_contraction`); the report adds the
    boundary expansion and the target's diagnostics.
    """
    n = machinery.n
    grid = machinery.grid
    if f.grid != grid:
        raise ValueError("target curvature lives on a different grid")
    check_amplitude(amplitude, cfg)
    key = (f, cfg.epsilon, cfg.tol)
    if key not in machinery.iterates:
        machinery.iterates[key] = _iterate_memo(machinery, *key)
    memo = machinery.iterates[key]
    # T(u) and E(u) in double from u1 = a k-hat rounded once per solve,
    # with P u = a P k-hat + P u2 in E: u2 = O(a^2)
    u1 = machinery.kernel.base.values * float(amplitude)
    u1_double = np.asarray(u1, float)
    known = ()
    if memo is not None:
        check_positive(u1_double, grid, n)
        known = (_iterate_at(series, amplitude) for series in memo)
    report, u = projected_contraction(
        amplitude, u1, cfg, machinery,
        lambda _, u2: nonlinear_rhs(u1_double + u2, f, n),
        lambda _, u2: e_residual(u1_double + u2, f, n, split=(
            amplitude * machinery.paneitz_kernel, u2)),
        known)
    report.expansion = fit_leading(u, n) if amplitude != 0 else None
    report.diagnostics = f.diagnostics + report.diagnostics
    return report, u


def guarded_solve(solve, amplitude, *args):
    """(report, solution) of solve(amplitude, *args); an inadmissible
    amplitude or a conformal factor losing positivity gives a failed report
    carrying the error message, and no solution, instead of raising."""
    try:
        return solve(amplitude, *args)
    except (AdmissibilityError, PositivityError) as exc:
        return SolveReport(converged=False, iterations=0,
                           amplitude=float(amplitude), message=str(exc)), None


def sweep_family(amplitudes, f, cfg, machinery):
    """Independent solves over a family of kernel amplitudes.

    Failures are isolated per entry.  Each report carries
    `pairwise_distances`: sup-distances of the solution to every earlier
    member of the family, witnessing that distinct kernel data give
    distinct metrics.
    """
    reports, solutions = [], []
    for a in amplitudes:
        rep, u = guarded_solve(fixed_point_solve, a, f, cfg, machinery)
        rep.pairwise_distances = [
            float(np.abs(np.asarray(u.values, float)
                         - np.asarray(other.values, float)).max())
            if u is not None and other is not None else math.nan
            for other in solutions]
        reports.append(rep)
        solutions.append(u)
    return reports, solutions
