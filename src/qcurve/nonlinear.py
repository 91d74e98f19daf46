"""Fixed-point construction of constant / prescribed Q-curvature metrics.

Given a small kernel amplitude a, set u1 = a k-hat and iterate

    u2  <-  G T(u1 + u2),    u2^(0) = 0,

where T collects every term of the curvature equation that is quadratic in
u or proportional to the deviation f - Q_g, and G is the generalized
inverse of the factored linear operator with the kernel component projected
out.  The limit u = u1 + u2 solves the prescribed-curvature equation with
P1 u = u1, so distinct amplitudes parametrize distinct solutions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .expansion import ExpansionFit, fit_leading
from .geometry import (ConformalFactor, PositivityError, check_dimension,
                       hyperbolic_curvature_report, paneitz_values,
                       q_of_conformal)
from .grid import RadialFunction
from .linear import (FactoredOperator, KernelElement, ProjectionP1, assemble,
                     generalized_inverse, kernel_element, make_projection,
                     project_P1)

__all__ = [
    "TargetCurvature",
    "IterationConfig",
    "SolveReport",
    "Machinery",
    "build_machinery",
    "nonlinear_rhs",
    "iterate_fixed_point",
    "fixed_point_solve",
    "guarded_solve",
    "e_residual",
    "sweep_family",
]


class AdmissibilityError(ValueError):
    """Target curvature outside the admissible deviation class."""


@dataclass(frozen=True)
class Machinery:
    """The assembled linear machinery a solve runs on."""

    grid: object
    n: int
    operator: FactoredOperator
    kernel: KernelElement
    projection: ProjectionP1


def build_machinery(n, grid):
    n = check_dimension(n)
    op = assemble(grid, n=n)
    # keep the series kernel in longdouble: rounding it to double seeds
    # noise that the composed operator amplifies ~1/h^4 into every residual
    k = kernel_element(n, grid, dtype=np.longdouble)
    return Machinery(grid=grid, n=n, operator=op, kernel=k,
                     projection=make_projection(k))


class TargetCurvature:
    """Prescribed curvature target f with its deviation bookkeeping.

    `f` may be a constant (the constant-curvature problem) or a
    RadialFunction; the deviation f - Q_g must decay like x^nu with
    nu in ((n-1)/4, (n-1)/2) — the window on which the projected linear
    theory is invertible.  The measured weighted deviation norm is stored;
    a deviation that fails to decay at rate nu triggers a warning, not an
    error, since constants sharper than the a-priori ones may still admit
    the contraction.
    """

    def __init__(self, f, n, nu=None, grid=None):
        n = check_dimension(n)
        self.n = n
        cc = hyperbolic_curvature_report(n)
        self.q_base = cc.Q_hyp
        if nu is None:
            nu = 0.375 * (n - 1)  # midpoint of the admissible window
        if not (n - 1) / 4.0 < nu < (n - 1) / 2.0:
            raise AdmissibilityError(
                "deviation weight nu=%g outside ((n-1)/4, (n-1)/2) = (%g, %g)"
                % (nu, (n - 1) / 4.0, (n - 1) / 2.0))
        self.nu = float(nu)
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
        half = r >= self.grid.r_max / 2.0
        tail = weighted[half]
        if tail.size and self.deviation_norm > 0:
            third = max(1, tail.size // 3)
            if tail[-third:].max() > 2.0 * tail[:third].max() + 1e-300:
                warnings.warn(
                    "target deviation f - Q_g does not decay like x^%.3g; "
                    "measured weighted norm %.3g keeps growing toward the "
                    "boundary" % (self.nu, self.deviation_norm),
                    stacklevel=2)

    @property
    def is_constant_target(self):
        v = self.f.values
        return bool(np.all(v == v[0]))


@dataclass(frozen=True)
class IterationConfig:
    """Contraction-iteration knobs.

    epsilon bounds the kernel amplitude, tol stops the iteration on the
    sup-norm of increments, nu is the diagnostic weight.  The classical
    smallness inequality (a constant times epsilon times the target norm
    below 1) is checked with measured constants and reported as a warning
    only: the measured constants are sharper than the a-priori ones.
    """

    epsilon: float = 1e-3
    tol: float = 1e-10
    max_iter: int = 50
    nu: float | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.tol <= 0:
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
    smallness_margin: float = math.nan
    pairwise_distances: list[float] | None = None
    excised_r0: float | None = None

    def to_dict(self):
        d = {
            "converged": self.converged,
            "iterations": self.iterations,
            "contraction_ratios": list(self.contraction_ratios),
            "residual": self.residual,
            "amplitude": self.amplitude,
            "fitted_amplitude": self.fitted_amplitude,
            "message": self.message,
            "smallness_margin": self.smallness_margin,
        }
        if self.expansion is not None:
            d["expansion"] = self.expansion.to_dict()
        if self.pairwise_distances is not None:
            d["pairwise_distances"] = list(self.pairwise_distances)
        if self.excised_r0 is not None:
            d["excised_r0"] = self.excised_r0
        return d


def nonlinear_rhs(u1, u2, f, dim):
    """T(u1 + u2): every term of the curvature equation beyond L u.

    n = 4:   T(u) = 2 f (e^{4u} - 1 - 4u) + 2 (f - Q) + 8 (f - Q) u
    n >= 5:  T(u) = (n-4)/2 [ f ((1+u)^p - 1 - p u) + (f - Q) ]
                    + (n+4)/2 (f - Q) u,     p = (n+4)/(n-4),

    so that the curvature equation reads L u = T(u).  T vanishes to second
    order at u = 0 when f = Q.
    """
    n = check_dimension(dim)
    u1v = u1.profile.values if isinstance(u1, KernelElement) else u1.values
    u = np.asarray(u1v, float) + np.asarray(u2.values, float)
    fv = np.asarray(f.f.values, float)
    q = f.q_base
    if n == 4:
        vals = (2.0 * fv * (np.expm1(4.0 * u) - 4.0 * u)
                + 2.0 * (fv - q) + 8.0 * (fv - q) * u)
    else:
        w = 1.0 + u
        bad = np.where(w <= 0.0)[0]
        if bad.size:
            raise PositivityError(
                "conformal factor needs 1 + u > 0; violated first at r=%g"
                % f.grid.r[bad[0]])
        p = (n + 4.0) / (n - 4.0)
        vals = (0.5 * (n - 4.0) * (fv * (w ** p - 1.0 - p * u) + (fv - q))
                + 0.5 * (n + 4.0) * (fv - q) * u)
    return RadialFunction(f.grid, vals)


def e_residual(u, f, dim, margin=0.5):
    """Sup of the curvature equation residual on the interior window.

    n = 4:   E(u) = P u + 2 Q - 2 f e^{4u}
    n >= 5:  E(u) = P(1+u) - (n-4)/2 f (1+u)^{(n+4)/(n-4)}

    The outer `margin` of the grid (biased-stencil rows) is excluded.
    """
    n = check_dimension(dim)
    grid = u.grid
    fv = np.asarray(f.f.values, float)
    uv = np.asarray(u.values)
    if not np.issubdtype(uv.dtype, np.floating):
        uv = uv.astype(float)
    if n == 4:
        pu = paneitz_values(uv, grid, n, parity=u.parity)
        res = pu + 2.0 * f.q_base - 2.0 * fv * np.exp(4.0 * uv)
    else:
        w = 1.0 + uv
        # P(1+u) = P u + (n-4)/2 Q, split analytically (see q_of_conformal)
        pw = paneitz_values(uv, grid, n, parity=u.parity) \
            + 0.5 * (n - 4.0) * f.q_base
        res = pw - 0.5 * (n - 4.0) * fv * w ** ((n + 4.0) / (n - 4.0))
    mask = grid.r <= grid.r_max - margin
    return float(np.abs(np.asarray(res, float)[mask]).max())


def _measured_smallness(machinery, f, epsilon):
    """Advisory contraction margin 16 C epsilon ||f|| with measured C.

    C is fitted from the quadratic response of T along the kernel datum;
    the norm of f enters through the hyperbolic background value.  A margin
    below 1 is the classical sufficient condition; larger values, common
    for converging solves, only mean the a-priori estimate is inconclusive."""
    n = machinery.n
    zero = RadialFunction(machinery.grid,
                          np.zeros(machinery.grid.n_points))
    a = epsilon
    t_a = nonlinear_rhs(machinery.kernel.with_amplitude(a), zero, f, n)
    sup_k = float(np.abs(machinery.kernel.profile.values).max())
    sup_t = float(np.abs(t_a.values).max())
    c_meas = sup_t / (a * sup_k) ** 2 if a > 0 else 0.0
    f_norm = float(np.abs(f.f.values).max())
    return 16.0 * c_meas * epsilon * f_norm


def iterate_fixed_point(update, u2, cfg):
    """Iterate u2 <- update(u2) until the sup-norm step falls below cfg.tol
    or cfg.max_iter maps have been applied.

    Returns (u2, converged, iterations, contraction_ratios), the ratios
    being those of successive steps.  The step is measured on update's
    output as returned (extended precision passes through); u2 is kept in
    double."""
    ratios, prev_step = [], None
    for iterations in range(1, cfg.max_iter + 1):
        new = update(u2)
        step = float(np.abs(new - u2).max())
        if prev_step is not None and prev_step > 0:
            ratios.append(step / prev_step)
        prev_step = step
        u2 = np.asarray(new, float)
        if step < cfg.tol:
            return u2, True, iterations, ratios
    return u2, False, cfg.max_iter, ratios


def fixed_point_solve(amplitude, f, cfg, machinery):
    """Iterate u2 <- G T(u1 + u2) from u2 = 0 with u1 = amplitude k-hat.

    Returns (report, u) where u = u1 + u2.  On convergence the re-fitted
    kernel projection of u reproduces `amplitude` (the parametrization is
    by the kernel datum) and the equation residual is re-verified through
    the independent conformal-curvature evaluation.
    """
    n = machinery.n
    grid = machinery.grid
    if f.grid != grid:
        raise ValueError("target curvature lives on a different grid")
    if abs(amplitude) > cfg.epsilon:
        raise AdmissibilityError(
            "kernel amplitude %g exceeds the configured bound %g"
            % (amplitude, cfg.epsilon))
    margin = _measured_smallness(machinery, f, cfg.epsilon)

    u1 = machinery.kernel.with_amplitude(amplitude)
    # keep the kernel part in its extended precision: rounding it to double
    # seeds pointwise noise that the residual evaluation amplifies by 1/h^4
    u1v = np.asarray(u1.profile.values)

    def update(u2):
        rhs = nonlinear_rhs(u1, RadialFunction(grid, u2), f, n)
        return generalized_inverse(machinery.operator, rhs,
                                   machinery.projection).values

    u2, converged, iterations, ratios = iterate_fixed_point(
        update, np.zeros(grid.n_points), cfg)
    message = "" if converged else (
        "no convergence in %d iterations; ratio trace signals epsilon too "
        "large for the measured constants" % cfg.max_iter)

    u = RadialFunction(grid, u1v + u2)
    fitted = project_P1(machinery.projection, u).amplitude
    residual = e_residual(u, f, n)
    expansion = fit_leading(u, n) if amplitude != 0 else None
    report = SolveReport(
        converged=converged,
        iterations=iterations,
        contraction_ratios=ratios,
        residual=residual,
        amplitude=float(amplitude),
        fitted_amplitude=float(fitted),
        expansion=expansion,
        message=message,
        smallness_margin=margin,
    )
    if converged and abs(fitted - amplitude) > 1e-6 * abs(amplitude) + 1e-10:
        report.converged = False
        report.message = ("kernel projection drifted: fitted amplitude %g "
                          "vs prescribed %g" % (fitted, amplitude))
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
