import math

import numpy as np
import pytest

from qcurve.geometry import (ConformalFactor, PositivityError,
                             hyperbolic_curvature_report, q_of_conformal)
from qcurve.grid import RadialFunction, RadialGrid
from qcurve.linear import apply_L
from qcurve.nonlinear import (AdmissibilityError, IterationConfig,
                              TargetCurvature, build_machinery, e_residual,
                              fixed_point_solve, nonlinear_rhs, sweep_family)


def constant_target(machinery):
    n = machinery.n
    return TargetCurvature(hyperbolic_curvature_report(n).Q_hyp, n,
                           grid=machinery.grid)


def zero_fn(grid):
    return RadialFunction(grid, np.zeros(grid.n_points))


# ---------------------------------------------------------------------------
# target admissibility


def test_target_requires_grid_for_constants():
    with pytest.raises(ValueError):
        TargetCurvature(3.0, 4)


def test_target_weight_window(grid1024):
    TargetCurvature(3.0, 4, nu=1.0, grid=grid1024)
    with pytest.raises(AdmissibilityError):
        TargetCurvature(3.0, 4, nu=0.5, grid=grid1024)
    with pytest.raises(AdmissibilityError):
        TargetCurvature(3.0, 4, nu=1.6, grid=grid1024)


def test_target_deviation_norm(grid1024):
    g = grid1024
    r = g.r.astype(float)
    f = RadialFunction(g, 3.0 + 0.5 * np.exp(-2.0 * r))
    t = TargetCurvature(f, 4)
    assert t.is_constant_target is False
    assert t.deviation_norm > 0
    const = TargetCurvature(3.0, 4, grid=g)
    assert const.is_constant_target
    assert const.deviation_norm == 0.0


def test_target_slow_decay_warns(grid1024):
    g = grid1024
    r = g.r.astype(float)
    f = RadialFunction(g, 3.0 + 0.1 * np.exp(-0.5 * r))
    with pytest.warns(UserWarning, match="does not decay"):
        TargetCurvature(f, 4)


def test_iteration_config_validation():
    IterationConfig()
    with pytest.raises(ValueError):
        IterationConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        IterationConfig(tol=-1.0)
    with pytest.raises(ValueError):
        IterationConfig(max_iter=0)


# ---------------------------------------------------------------------------
# algebraic structure of the right-hand side


@pytest.mark.parametrize("fixture", ["machinery4", "machinery5"])
def test_rhs_vanishes_quadratically_at_zero(fixture, request):
    m = request.getfixturevalue(fixture)
    f = constant_target(m)
    z = zero_fn(m.grid)
    t0 = nonlinear_rhs(m.kernel.with_amplitude(0.0), z, f, m.n)
    assert np.abs(t0.values).max() == 0.0
    sups = []
    for a in (1e-3, 5e-4):
        t = nonlinear_rhs(m.kernel.with_amplitude(a), z, f, m.n)
        sups.append(np.abs(t.values).max())
    # halving the amplitude quarters the response
    assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.05)


@pytest.mark.parametrize("fixture", ["machinery4", "machinery5"])
def test_rhs_consistent_with_equation_residual(fixture, request):
    """L u - T(u) equals the curvature equation residual E(u): the
    iteration's fixed points solve the equation."""
    m = request.getfixturevalue(fixture)
    g = m.grid
    f = constant_target(m)
    r = g.r.astype(float)
    u = RadialFunction(g, 2e-3 * (1.0 + r ** 2) / np.cosh(r) ** 3)
    lhs = apply_L(m.operator, u).values \
        - nonlinear_rhs(m.kernel.with_amplitude(0.0), u, f, m.n).values
    # recompute E(u) directly for comparison with e_residual's convention
    res = e_residual(u, f, m.n)
    mask = g.window_mask(0.0, g.r_max - 0.5)
    assert np.abs(np.asarray(lhs, float))[mask].max() == \
        pytest.approx(res, rel=1e-6)


def test_rhs_positivity_guard(machinery5):
    g = machinery5.grid
    f = constant_target(machinery5)
    bad = RadialFunction(g, np.full(g.n_points, -1.2))
    with pytest.raises(PositivityError):
        nonlinear_rhs(machinery5.kernel.with_amplitude(0.0), bad, f, 5)


# ---------------------------------------------------------------------------
# fixed-point solves


@pytest.mark.parametrize("fixture", ["machinery4", "machinery5"])
def test_solve_constant_curvature(fixture, request):
    m = request.getfixturevalue(fixture)
    f = constant_target(m)
    report, u = fixed_point_solve(1e-3, f, IterationConfig(), m)
    assert report.converged
    assert report.iterations <= 15
    assert all(rho <= 0.5 for rho in report.contraction_ratios)
    assert report.residual < 1e-6
    assert report.fitted_amplitude == pytest.approx(1e-3, abs=1e-9)
    # independent curvature recomputation: Q~ is the prescribed constant
    q = q_of_conformal(ConformalFactor(u, m.n), m.grid)
    mask = m.grid.window_mask(0.0, m.grid.r_max - 0.5)
    qdev = np.abs(np.asarray(q.values, float) - f.q_base)[mask].max()
    assert qdev < 1e-6
    assert report.expansion is not None
    assert report.expansion.leading_exponent == (m.n - 1) / 2.0


def test_solve_reports_exhausted_iterations(machinery4):
    """max_iter maps without reaching tol: a failed verdict, not a raise."""
    f = constant_target(machinery4)
    report, u = fixed_point_solve(1e-3, f, IterationConfig(max_iter=1),
                                  machinery4)
    assert report.converged is False
    assert report.iterations == 1
    assert "no convergence in 1 iterations" in report.message
    assert u is not None


def test_solve_zero_amplitude_returns_trivial(machinery4):
    f = constant_target(machinery4)
    report, u = fixed_point_solve(0.0, f, IterationConfig(), machinery4)
    assert report.converged
    assert np.abs(u.values).max() < 1e-12


def test_solve_rejects_large_amplitude(machinery4):
    f = constant_target(machinery4)
    with pytest.raises(AdmissibilityError):
        fixed_point_solve(0.5, f, IterationConfig(), machinery4)


def test_solve_grid_mismatch(machinery4, grid1024):
    f = TargetCurvature(3.0, 4, grid=grid1024)
    with pytest.raises(ValueError):
        fixed_point_solve(1e-3, f, IterationConfig(), machinery4)


def test_solve_perturbed_target_n4(machinery4):
    """Prescribed non-constant curvature: f = 3 + decaying bump gives a
    metric with Q~ = f to high accuracy."""
    m = machinery4
    g = m.grid
    r = g.r.astype(float)
    f = RadialFunction(g, 3.0 + 0.02 * np.exp(-2.0 * r))
    target = TargetCurvature(f, 4)
    report, u = fixed_point_solve(1e-3, target, IterationConfig(), m)
    assert report.converged
    q = q_of_conformal(ConformalFactor(u, 4), g)
    mask = g.window_mask(0.0, g.r_max - 0.5)
    assert np.abs(np.asarray(q.values, float) - f.values)[mask].max() < 1e-6


def test_residual_refinement(grid1024):
    """One dyadic refinement cuts the equation residual by >= 4x."""
    n = 5
    residuals = []
    for g in (grid1024, grid1024.refine()):
        m = build_machinery(n, g)
        f = TargetCurvature(hyperbolic_curvature_report(n).Q_hyp, n, grid=g)
        rep, _ = fixed_point_solve(1e-3, f, IterationConfig(), m)
        assert rep.converged
        residuals.append(rep.residual)
    assert residuals[0] / residuals[1] >= 4.0


def test_sweep_family_distinct_solutions(machinery4):
    f = constant_target(machinery4)
    amps = (5e-4, -5e-4, 1e-3, -1e-3)
    reports, sols = sweep_family(amps, f, IterationConfig(), machinery4)
    assert [r.converged for r in reports] == [True] * 4
    assert all(s is not None for s in sols)
    # leading-order separation: fitted amplitudes track the data
    for rep, a in zip(reports, amps):
        assert rep.fitted_amplitude == pytest.approx(a, abs=1e-9)
    for i, rep in enumerate(reports):
        assert len(rep.pairwise_distances) == i
        assert all(d > 0 for d in rep.pairwise_distances)


def test_sweep_family_isolates_failures(machinery4):
    f = constant_target(machinery4)
    reports, sols = sweep_family((1e-3, 0.5), f, IterationConfig(),
                                 machinery4)
    assert reports[0].converged
    assert not reports[1].converged
    assert "exceeds" in reports[1].message
    assert sols[1] is None
    assert math.isnan(reports[1].pairwise_distances[0])


def test_report_serialization(machinery4):
    f = constant_target(machinery4)
    report, _ = fixed_point_solve(1e-3, f, IterationConfig(), machinery4)
    d = report.to_dict()
    for key in ("converged", "iterations", "contraction_ratios", "residual",
                "amplitude", "fitted_amplitude", "message",
                "smallness_margin", "expansion"):
        assert key in d
