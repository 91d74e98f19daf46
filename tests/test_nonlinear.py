import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

from qcurve.geometry import (PositivityError, hyperbolic_curvature_report,
                             q_of_conformal)
from qcurve import expansion, geometry, indicial, linear, nonlinear, ucurve
from qcurve.grid import RadialFunction, RadialGrid
from qcurve.linear import apply_L
from qcurve.nonlinear import (AdmissibilityError, IterationConfig,
                              TargetCurvature, build_machinery, e_residual,
                              fixed_point_solve, nonlinear_rhs, sweep_family)


def constant_target(machinery):
    n = machinery.n
    return TargetCurvature(hyperbolic_curvature_report(n).Q_hyp, n,
                           grid=machinery.grid)


# ---------------------------------------------------------------------------
# target admissibility


def test_target_requires_grid_for_constants():
    with pytest.raises(ValueError):
        TargetCurvature(3.0, 4)


def test_target_deviation_norm(grid1024):
    g = grid1024
    r = g.r.astype(float)
    f = RadialFunction(g, 3.0 + 0.5 * np.exp(-2.0 * r))
    t = TargetCurvature(f, 4)
    assert t.deviation_norm > 0
    const = TargetCurvature(3.0, 4, grid=g)
    assert const.deviation_norm == 0.0


def test_target_slow_decay_warns(grid1024):
    """A slowly decaying deviation is noted in the target's diagnostics,
    which its solves report, not raised as a warning."""
    g = grid1024
    r = g.r.astype(float)
    f = RadialFunction(g, 3.0 + 0.1 * np.exp(-0.5 * r))
    note, = TargetCurvature(f, 4).diagnostics
    assert "does not decay" in note
    assert TargetCurvature(3.0, 4, grid=g).diagnostics == []


def test_iteration_config_validation():
    IterationConfig()
    with pytest.raises(ValueError):
        IterationConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        IterationConfig(tol=-1.0)
    with pytest.raises(ValueError):
        IterationConfig(max_iter=0)


@pytest.mark.parametrize("field", ["epsilon", "tol"])
def test_iteration_config_rejects_nan(field):
    with pytest.raises(ValueError, match="must be positive"):
        IterationConfig(**{field: math.nan})


def test_nan_amplitude_is_inadmissible(machinery4, monkeypatch):
    """A NaN amplitude fails the admissibility check before any memo is
    built or G applied: `abs(nan) > epsilon` is False."""
    applied = []
    inverse = nonlinear.generalized_inverse
    monkeypatch.setattr(nonlinear, "generalized_inverse",
                        lambda *args: applied.append(1) or inverse(*args))
    m = machinery4
    f = constant_target(m)
    cfg = IterationConfig(epsilon=7e-4)
    with pytest.raises(AdmissibilityError, match="not a number"):
        fixed_point_solve(math.nan, f, cfg, m)
    assert (f, cfg.epsilon, cfg.tol) not in m.iterates
    assert applied == []


# ---------------------------------------------------------------------------
# algebraic structure of the right-hand side


@pytest.mark.parametrize("fixture", ["machinery4", "machinery5"])
def test_rhs_vanishes_quadratically_at_zero(fixture, request):
    m = request.getfixturevalue(fixture)
    f = constant_target(m)
    k = m.kernel.base.values
    t0 = nonlinear_rhs(0.0 * k, f, m.n)
    assert np.abs(t0).max() == 0.0
    sups = []
    for a in (1e-3, 5e-4):
        t = nonlinear_rhs(a * k, f, m.n)
        sups.append(np.abs(t).max())
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
    lhs = apply_L(m.operator, u.values) - nonlinear_rhs(u.values, f, m.n)
    # recompute E(u) directly for comparison with e_residual's convention
    res = e_residual(u.values, f, m.n)
    mask = g.window_mask(0.0, g.r_max - 0.5)
    assert np.abs(np.asarray(lhs, float))[mask].max() == \
        pytest.approx(res, rel=1e-6)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_residual_power_matches_mpmath(n):
    """The residual's (1+u)^p, exp(p log1p(u)) in extended precision,
    against 30-digit mpmath on u in [-0.5, 1): the error is that of the
    exponent's rounding, about one ulp of p ln(1+u), plus the rounding of
    exp and log1p.  p is the double the residual uses (11/3 is inexact)."""
    mpmath = pytest.importorskip("mpmath")
    u = np.linspace(np.longdouble(-0.5), np.longdouble(1.0), 1201)[:-1]
    p = (n + 4.0) / (n - 4.0)
    got = nonlinear._power1p(u, p)
    assert got.dtype == np.longdouble

    def exact(x):
        num, den = x.as_integer_ratio()
        return mpmath.mpf(num) / den

    eps = np.finfo(np.longdouble).eps
    with mpmath.workdps(30):
        for x, y in zip(u, got):
            arg = mpmath.mpf(p) * mpmath.log1p(exact(x))
            want = mpmath.exp(arg)
            assert abs(exact(y) - want) <= 2 * eps * (1 + abs(arg)) * want


@pytest.mark.parametrize("n", [5, 6])
def test_rhs_small_u_matches_exact_power(n, grid512):
    """T(u) = (n-4)/2 Q ((1+u)^p - 1 - p u) for a constant target, against
    40-digit mpmath: the error stays at rounding of p u, so it shrinks with
    u instead of sitting at the eps of (1+u)^p - 1."""
    mpmath = pytest.importorskip("mpmath")
    g = grid512
    q = hyperbolic_curvature_report(n).Q_hyp
    f = TargetCurvature(q, n, grid=g)
    p = (n + 4.0) / (n - 4.0)
    u = np.sign(np.cos(7.0 * np.arange(g.n_points))) * np.logspace(
        -9, -2, g.n_points)
    got = nonlinear_rhs(u, f, n)
    with mpmath.workdps(40):
        pm = mpmath.mpf(n + 4) / (n - 4)
        want = np.array([float(mpmath.mpf(n - 4) / 2 * mpmath.mpf(q)
                               * ((1 + mpmath.mpf(x)) ** pm - 1
                                  - pm * mpmath.mpf(x))) for x in u])
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want)
                  <= 16 * eps * (n - 4) / 2 * q * p * np.abs(u))


def test_rhs_positivity_guard(machinery5):
    g = machinery5.grid
    f = constant_target(machinery5)
    bad = np.full(g.n_points, -1.2)
    with pytest.raises(PositivityError):
        nonlinear_rhs(bad, f, 5)


@pytest.mark.parametrize("size", [1, 511])
@pytest.mark.parametrize("name", ["nonlinear_rhs", "e_residual",
                                  "check_positive", "u_nonlinear_rhs",
                                  "u_e_residual"])
def test_array_maps_refuse_a_wrong_length(name, size, grid512):
    """The right-hand sides, residuals and positivity check take sample
    arrays and refuse one that is not one sample per grid node, a
    length-1 array (which would broadcast) and one of length N - 1
    alike, in the exponential regime too, which has no positivity
    constraint."""
    g = grid512
    f = TargetCurvature(3.0, 4, grid=g)
    params = ucurve.DetParams.preset("spin_laplacian")
    call = {"nonlinear_rhs": lambda v: nonlinear_rhs(v, f, 4),
            "e_residual": lambda v: e_residual(v, f, 4),
            "check_positive": lambda v: geometry.check_positive(v, g, 4),
            "u_nonlinear_rhs": lambda v: ucurve.u_nonlinear_rhs(v, g, params),
            "u_e_residual": lambda v: ucurve.u_e_residual(v, g, params)}[name]
    call(np.zeros(g.n_points))
    with pytest.raises(ValueError, match="does not match grid size 512"):
        call(np.zeros(size))


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
    q = q_of_conformal(u, m.n)
    mask = m.grid.window_mask(0.0, m.grid.r_max - 0.5)
    qdev = np.abs(np.asarray(q.values, float) - f.q_base)[mask].max()
    assert qdev < 1e-6
    assert report.expansion is not None
    assert report.expansion.leading_exponent == (m.n - 1) / 2.0


@pytest.fixture(scope="module")
def machinery_4096(grid4096):
    return {n: build_machinery(n, grid4096) for n in (4, 5, 6, 7)}


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("amplitude", [-5e-5, 5e-5, 7e-5])
def test_small_amplitude_solve_is_quiet(n, amplitude, machinery_4096):
    """Small kernel data leave T(u) of size a^2 in the tail: no rounding
    floor may look like slowly decaying data to the T1 and G decay checks
    (a warning is an error in this suite)."""
    m = machinery_4096[n]
    report, _ = fixed_point_solve(amplitude, constant_target(m),
                                  IterationConfig(), m)
    assert report.converged
    assert report.residual < 1e-9


@pytest.mark.parametrize("n", [5, 6])
def test_small_amplitude_solve_reports_no_diagnostics(n, machinery_4096):
    """The tail of T(u) at a^2 size is rounding, not slow decay: a default
    solve's report carries no diagnostics and serializes none."""
    report, _ = fixed_point_solve(5e-5, constant_target(machinery_4096[n]),
                                  IterationConfig(), machinery_4096[n])
    assert report.diagnostics == []
    assert "diagnostics" not in report.to_dict()


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("amplitude", [0.0, 1e-4, -1e-4, 1e-3, -1e-3])
def test_split_residual_matches_extended_oracle(n, amplitude,
                                                machinery_4096):
    """A solve's residual, a P k-hat (memoized in longdouble) plus P u2
    and the nonlinear terms in double, reads what the all-longdouble
    e_residual(u, f, n) reads on the returned u.  The measured gap (at
    most 1.4e-10, for n = 6) is the longdouble rounding of P(a k-hat + u2)
    against a P k-hat + P u2.  Leaving out either term, or applying P to
    a k-hat + u2 in double, misses by 5e-9 or more at |a| >= 1e-4."""
    m = machinery_4096[n]
    f = constant_target(m)
    report, u = fixed_point_solve(amplitude, f, IterationConfig(), m)
    assert report.converged
    assert u.values.dtype == np.longdouble
    assert abs(report.residual - e_residual(u.values, f, n)) <= 2e-10


def test_paneitz_kernel_is_memoized_in_extended_precision(monkeypatch):
    """P k-hat is longdouble, bit-equal to paneitz_values of the kernel
    base, and computed once, by build_machinery: each solve applies P to
    u2 only, in double."""
    dtypes = []
    paneitz = nonlinear.paneitz_values

    def counted(values, *args, **kwargs):
        dtypes.append(np.asarray(values).dtype)
        return paneitz(values, *args, **kwargs)

    monkeypatch.setattr(nonlinear, "paneitz_values", counted)
    m = build_machinery(5, RadialGrid(12.0, 1200))
    assert dtypes == [np.longdouble]
    memo = m.paneitz_kernel
    assert memo.dtype == np.longdouble
    assert np.array_equal(memo, paneitz(m.kernel.base.values, m.grid, 5))
    f = constant_target(m)
    for amplitude in (7e-4, -4e-4):
        dtypes.clear()
        report, _ = fixed_point_solve(amplitude, f, IterationConfig(), m)
        assert report.converged
        assert dtypes == [np.float64]
        assert m.paneitz_kernel is memo


@pytest.mark.parametrize("amplitude", [5e-4, -1e-3, 0.0])
@pytest.mark.parametrize("sign", [1, -1])
def test_solve_report_flags_kernel_drift(amplitude, sign):
    """A converged call whose re-fitted datum misses the amplitude by more
    than 1e-6 |a| + 1e-10 is failed with the drift message; a miss just
    inside the bound stays converged."""
    cfg = IterationConfig()
    bound = 1e-6 * abs(amplitude) + 1e-10
    drifted = nonlinear.solve_report(cfg, True, amplitude,
                                     amplitude + sign * 1.01 * bound,
                                     [], 0.0, iterations=3)
    assert drifted.converged is False
    assert drifted.message.startswith("kernel projection drifted")
    kept = nonlinear.solve_report(cfg, True, amplitude,
                                  amplitude + sign * 0.99 * bound,
                                  [], 0.0, iterations=3)
    assert kept.converged is True
    assert kept.message == ""
    assert kept.fitted_amplitude == amplitude + sign * 0.99 * bound


@pytest.mark.parametrize("ratios, step, bound", [
    ([0.5], 1e-11, 1e-11), ([0.2, 1.0], 1e-3, math.inf),
    ([2.5], 1e-3, math.inf), ([2.5], 0.0, 0.0), ([], 1e-12, math.nan)])
def test_error_bound_edge_cases(ratios, step, bound):
    """error_bound = q/(1-q) step for the last ratio q < 1; 0 after a zero
    step, inf for q >= 1 and NaN (null in JSON) with no ratio measured."""
    report = nonlinear.solve_report(IterationConfig(), True, 0.0, 0.0,
                                    ratios, step, iterations=len(ratios) + 1)
    assert report.error_bound == pytest.approx(bound, nan_ok=True)


@pytest.mark.parametrize("amplitude, iterations", [(0.05, 6), (0.4, 47)])
def test_error_bound_matches_distance_to_fixed_point(amplitude, iterations,
                                                     machinery5):
    """The reported error_bound against max|u - u_ref|, u_ref the same
    solve run to tol 1e-14 (the iteration's rounding floor is lower).  The
    bound is asymptotically sharp, not a strict upper bound: at 2048
    points bound / distance reads 1.0037 at q = 0.036 (a = 0.05) and
    0.9989 at q = 0.65 (a = 0.4), where the last ratio still moves in its
    fourth digit from step to step."""
    f = constant_target(machinery5)
    report, u = fixed_point_solve(amplitude, f, IterationConfig(epsilon=0.5),
                                  machinery5)
    ref, u_ref = fixed_point_solve(
        amplitude, f, IterationConfig(epsilon=0.5, tol=1e-14, max_iter=200),
        machinery5)
    assert report.converged and ref.converged
    assert report.iterations == iterations
    distance = np.abs(np.asarray(u.values, float)
                      - np.asarray(u_ref.values, float)).max()
    assert 0.99 * distance <= report.error_bound <= 1.01 * distance


def test_bands_factored_once_per_machinery(monkeypatch, grid2048):
    """Ten solves on one machinery assemble two bands, T1 with its Robin
    row and T2 with its anchor row, each factored once."""
    calls = []
    assemble_band = linear._equation_band

    def counted(*args):
        calls.append(args)
        return assemble_band(*args)

    monkeypatch.setattr(linear, "_equation_band", counted)
    m = build_machinery(4, grid2048)
    f = constant_target(m)
    for a in np.linspace(-8e-4, 8e-4, 10):
        report, _ = fixed_point_solve(a, f, IterationConfig(), m)
        assert report.converged
    assert len(calls) == 2


@pytest.mark.parametrize("n", [4, 5])
def test_warm_solve_recomputes_no_invariant(n, monkeypatch):
    """The coth table, the boundary-fit design and its SVD, the indicial
    spectrum and the iterate memo are fixed per grid, n or
    (machinery, target, epsilon): a second solve on the same machinery and
    target computes none of them.  The coth table is counted by its cosh
    calls, which no other step of a solve makes."""
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(np, "cosh")
    count(linear, "_boundary_design")
    count(np.linalg, "svd")
    count(nonlinear, "_iterate_memo")
    for owner in (expansion, indicial):
        count(owner, "q_indicial_spectrum")
    # a grid no other case uses, so the first solve finds cold caches
    m = build_machinery(n, RadialGrid(12.0, 1000 + n))
    f = constant_target(m)
    # the hooks are live: the kernel fit and the projection pass them
    assert calls.get("_boundary_design") and calls.get("svd")
    calls.clear()
    report, _ = fixed_point_solve(7e-4, f, IterationConfig(), m)
    assert report.converged
    for name in ("cosh", "_iterate_memo"):
        assert calls.get(name, 0) >= 1, name
    calls.clear()
    report, _ = fixed_point_solve(-3e-4, f, IterationConfig(), m)
    assert report.converged
    assert calls == {}


def test_boundary_fits_read_one_covector(monkeypatch):
    """Every leading boundary coefficient comes from the memoized covector:
    `build_machinery` and `u_fixed_point_solve` (presets A, D2, P) call
    np.linalg.lstsq only in `_boundary_design`'s identifiability check,
    and each computes one `_boundary_rows` entry, which its kernel build
    and projection (or the excised solve's x^4 normalization, projection
    and re-fit) share."""
    callers = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    # a grid no other case uses, so every build finds a cold cache
    grid = RadialGrid(12.0, 1030)
    rows = linear._boundary_rows.cache_info

    def entries(build, *args):
        misses = rows().misses
        build(*args)
        return rows().misses - misses

    assert entries(build_machinery, 5, grid) == 1
    for tag in ("conformal_laplacian", "spin_laplacian", "paneitz"):
        assert entries(lambda: ucurve.u_fixed_point_solve(
            1e-3, ucurve.DetParams.preset(tag), IterationConfig(),
            grid)) == 1, tag
    assert callers and set(callers) == {"_boundary_design"}


def test_caching_cannot_change_results(machinery5):
    """Solving a, then b, then a again on one machinery and target gives
    the same report for both a solves: warm caches return what a cold
    solve computed."""
    f = constant_target(machinery5)
    cfg = IterationConfig()
    first, u_first = fixed_point_solve(6e-4, f, cfg, machinery5)
    fixed_point_solve(-9e-4, f, cfg, machinery5)
    again, u_again = fixed_point_solve(6e-4, f, cfg, machinery5)
    assert first.converged
    assert again.to_dict() == first.to_dict()
    assert np.array_equal(u_again.values, u_first.values)


def _direct_contraction(m, f, amplitude, cfg):
    """(u2, steps) of the loop u2 <- G T(a k-hat + u2) from u2 = 0, every
    map computed from T: the route the memoized first iterate replaces,
    written out apart from it."""
    grid = m.grid
    u1 = np.asarray(m.kernel.base.values * amplitude, float)
    u2, steps = np.zeros(grid.n_points), []
    for _ in range(cfg.max_iter):
        t = nonlinear_rhs(u1 + u2, f, m.n)
        new = linear.generalized_inverse(m.operator, t, m.projection)
        steps.append(float(np.abs(new - u2).max()))
        u2 = new
        if steps[-1] < cfg.tol:
            break
    return u2, steps


def _perturbed_target(m):
    r = m.grid.r.astype(float)
    q = hyperbolic_curvature_report(m.n).Q_hyp
    return TargetCurvature(RadialFunction(m.grid, q + 0.02 * np.exp(-2.0 * r)),
                           m.n)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("fraction", [1.0, -1.0, 0.3, -0.3])
def test_memoized_first_iterate_matches_direct(n, fraction, machinery_4096):
    """sum_j a^j G(c_j k-hat^j), memoized per target and epsilon, is
    G T(a k-hat) at every |a| <= epsilon, for a constant target and (n = 4)
    a prescribed one, whose rows start at j = 0.  The bound is the direct
    route's own rounding, whose expm1 / log1p terms cancel to a^2 size:
    measured at most 3.3e-12 relative at 4096 points."""
    m = machinery_4096[n]
    cfg = IterationConfig()
    targets = [constant_target(m)] + ([_perturbed_target(m)] if n == 4
                                      else [])
    for f, j0 in zip(targets, (2, 0)):
        series = nonlinear._iterate_memo(m, f, cfg.epsilon, cfg.tol)[0]
        assert series[0] == j0
        a = fraction * cfg.epsilon
        u1 = np.asarray(m.kernel.base.values * a, float)
        direct = linear.generalized_inverse(
            m.operator, nonlinear_rhs(u1, f, n), m.projection)
        memo = nonlinear._iterate_at(series, a)
        assert memo.dtype == np.float64
        assert (np.abs(memo - direct).max()
                <= 1e-11 * np.abs(direct).max())


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("fraction", [1.0, -1.0, 0.3, -0.3])
def test_memoized_second_iterate_matches_direct(n, fraction, machinery_4096):
    """Every memoized iterate after the first, sum_j a^j G T_j with T_j
    the a^j coefficient of T(a k-hat + previous), is G T(u1 + previous) at
    every |a| <= epsilon, previous the memoized iterate before it: the
    second and, for n = 5 and the prescribed target, the third.  Checked
    for a constant target and (n = 4) a prescribed one, whose rows start
    at j = 0.  The bound is the direct route's own rounding, as for the
    first iterate: measured at most 1.9e-12 relative at 4096 points for
    the second and 9.0e-13 for the third."""
    m = machinery_4096[n]
    cfg = IterationConfig()
    targets = [constant_target(m)] + ([_perturbed_target(m)] if n == 4
                                      else [])
    for f, j0 in zip(targets, (2, 0)):
        memo = nonlinear._iterate_memo(m, f, cfg.epsilon, cfg.tol)
        assert len(memo) == (3 if n == 5 or j0 == 0 else 2)
        a = fraction * cfg.epsilon
        u1 = np.asarray(m.kernel.base.values * a, float)
        for previous, series in zip(memo, memo[1:]):
            assert series[0] == j0
            u = u1 + nonlinear._iterate_at(previous, a)
            direct = linear.generalized_inverse(
                m.operator, nonlinear_rhs(u, f, n), m.projection)
            iterate = nonlinear._iterate_at(series, a)
            assert iterate.dtype == np.float64
            assert (np.abs(iterate - direct).max()
                    <= 1e-11 * np.abs(direct).max())


@pytest.mark.parametrize("n, count", [(4, 2), (5, 3), (6, 2)])
def test_memo_runs_to_the_certified_step(n, count, machinery_4096):
    """At epsilon = 1e-3 and tol = 1e-10 the memo holds 2 / 3 / 2 iterates
    for n = 4 / 5 / 6 at 4096 points: it ends at the first whose step from
    its predecessor is certified below tol on the whole disc |a| <=
    epsilon, and the step of every solve in it obeys that bound."""
    m = machinery_4096[n]
    cfg = IterationConfig()
    memo = nonlinear._iterate_memo(m, constant_target(m), cfg.epsilon,
                                   cfg.tol)
    assert len(memo) == count
    bound = nonlinear._step_bound(memo, cfg.epsilon)
    assert bound < cfg.tol <= nonlinear._step_bound(memo[:-1], cfg.epsilon)
    for a in np.linspace(-cfg.epsilon, cfg.epsilon, 9):
        step = np.abs(nonlinear._iterate_at(memo[-1], a)
                      - nonlinear._iterate_at(memo[-2], a)).max()
        # up to the rounding of the two Horner sums: at a = +-epsilon the
        # step attains the bound
        assert step <= (1.0 + 1e-12) * bound


@pytest.mark.parametrize("n", [4, 5, 6])
def test_warm_solve_builds_one_radial_function(n, machinery_4096,
                                               monkeypatch):
    """Over the benchmark's 81 calibration amplitudes at 4096 points, a
    warm solve builds one RadialFunction, the u it returns: its
    right-hand sides, positivity checks and residual act on arrays."""
    m = machinery_4096[n]
    f = constant_target(m)
    cfg = IterationConfig()
    fixed_point_solve(0.0, f, cfg, m)
    built = []
    init = RadialFunction.__init__
    monkeypatch.setattr(RadialFunction, "__init__",
                        lambda self, *args: built.append(1) or init(self,
                                                                    *args))
    for i in range(81):
        built.clear()
        report, u = fixed_point_solve(-cfg.epsilon + 2.0 * cfg.epsilon * i
                                      / 80, f, cfg, m)
        assert report.converged and isinstance(u, RadialFunction)
        assert len(built) == 1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_warm_solves_apply_no_generalized_inverse(n, machinery_4096,
                                                  monkeypatch):
    """Over the benchmark's 81 calibration amplitudes in [-epsilon,
    epsilon] at 4096 points, warm solves take every iterate from the memo
    and apply no G; their iteration counts, verdicts and solutions are
    those of the direct loop (`_iterate_memo` patched to None), the
    solutions to 1e-14 relative (measured at most 1.0e-15)."""
    m = machinery_4096[n]
    f = constant_target(m)
    cfg = IterationConfig()
    amplitudes = [-cfg.epsilon + 2.0 * cfg.epsilon * i / 80
                  for i in range(81)]
    fixed_point_solve(0.0, f, cfg, m)
    applied = []
    inverse = nonlinear.generalized_inverse
    monkeypatch.setattr(nonlinear, "generalized_inverse",
                        lambda *args: applied.append(1) or inverse(*args))
    warm = [fixed_point_solve(a, f, cfg, m) for a in amplitudes]
    assert applied == []
    monkeypatch.setattr(nonlinear, "_iterate_memo", lambda *args: None)
    direct = dataclasses.replace(m, iterates={})
    for a, (report, u) in zip(amplitudes, warm):
        ref, u_ref = fixed_point_solve(a, f, cfg, direct)
        assert report.converged and ref.converged
        assert report.iterations == ref.iterations
        assert report.message == ref.message
        scale = np.abs(u_ref.values).max()
        assert (np.abs(u.values - u_ref.values).max()
                <= 1e-14 * scale)
    assert applied


@pytest.mark.parametrize("n", [4, 5, 6])
def test_memoized_first_iterate_keeps_the_contraction(n, machinery_4096):
    """Solves that take their iterates from the memo count each as one
    iteration: iteration counts, steps and the solution are those of the
    loop that computes every map from T.  The first contraction ratio
    agrees to 1e-5 relative (measured at most 7e-9); a second ratio, where
    n = 5 at |a| >= 0.85e-3 has one, divides steps of about 5e-13 that are
    measured against the iterates' own rounding (about 1e-18, redrawn by
    any change to iterate 1's rounding), and agrees to 1e-4 (measured at
    most 1.0e-5)."""
    m = machinery_4096[n]
    cfg = IterationConfig()
    f = constant_target(m)
    for a in np.linspace(-1e-3, 1e-3, 9):
        report, u = fixed_point_solve(a, f, cfg, m)
        u2, steps = _direct_contraction(m, f, a, cfg)
        assert report.converged
        assert report.iterations == len(steps)
        assert len(report.contraction_ratios) == report.iterations - 1
        want = [s / p for p, s in zip(steps, steps[1:])]
        for i, (got, ref) in enumerate(zip(report.contraction_ratios, want)):
            assert got == pytest.approx(ref, rel=1e-5 if i == 0 else 1e-4)
        direct = m.kernel.base.values * a + u2
        assert np.abs(u.values - direct).max() <= 1e-17
    assert m.iterates[(f, cfg.epsilon, cfg.tol)] is not None


@pytest.mark.parametrize("n", [4, 5])
def test_first_iterate_memo_built_once(n, monkeypatch):
    """The memo is built at the first solve on a (machinery, target,
    epsilon, tol), as one contiguous read-only float64 array per iterate:
    at epsilon = 1e-3 the first iterate's (6 rows, j = 2..7), the
    second's (7 rows, j = 2..8) and, for n = 5, the third's (7 rows).
    The build applies G to the kept rows only, and no later solve on it
    applies G."""
    built, applied = [], []
    series, inverse = nonlinear._iterate_memo, nonlinear.generalized_inverse

    def counted_series(*args):
        built.append(args[1:])
        return series(*args)

    def counted_inverse(*args):
        applied.append(1)
        return inverse(*args)

    monkeypatch.setattr(nonlinear, "_iterate_memo", counted_series)
    monkeypatch.setattr(nonlinear, "generalized_inverse", counted_inverse)
    m = build_machinery(n, RadialGrid(12.0, 1100 + n))
    f = constant_target(m)
    assert m.iterates == {}
    counts = (6, 7, 7) if n == 5 else (6, 7)
    iterations = []
    for a, memo_rows in ((7e-4, sum(counts)), (-4e-4, 0), (1e-3, 0),
                         (-1e-3, 0)):
        applied.clear()
        report, _ = fixed_point_solve(a, f, IterationConfig(), m)
        assert report.converged
        iterations.append(report.iterations)
        assert len(applied) == memo_rows
    # n = 5 at |a| = 1e-3 takes a third iteration, from the third series
    assert max(iterations) == len(counts)
    assert built == [(f, 1e-3, 1e-10)]
    memo = m.iterates[(f, 1e-3, 1e-10)]
    assert len(memo) == len(counts)
    for rows, count in zip(memo, counts):
        assert rows[0] == 2 and rows[1].shape == (count, m.grid.n_points)
        assert rows[1].dtype == np.float64
        assert rows[1].flags.c_contiguous and not rows[1].flags.writeable
    fixed_point_solve(1e-4, f, IterationConfig(epsilon=5e-4), m)
    fixed_point_solve(-1e-4, f, IterationConfig(epsilon=5e-4), m)
    fixed_point_solve(1e-4, f, IterationConfig(tol=1e-12), m)
    assert built == [(f, 1e-3, 1e-10), (f, 5e-4, 1e-10), (f, 1e-3, 1e-12)]


@pytest.mark.parametrize("n", [4, 7])
def test_large_epsilon_falls_back_to_the_direct_loop(n, machinery4):
    """At epsilon = 0.5 and 2 the kernel series of n = 4 (exponential) and
    n = 7 (non-integer p) needs more than _MAX_DEGREE powers: the memo
    records None, and the solve computes every iteration from T as the
    loop without a memo does, bit for bit."""
    m = machinery4 if n == 4 else build_machinery(7, machinery4.grid)
    f = constant_target(m)
    for cfg, a in itertools.product(
            (IterationConfig(epsilon=0.5), IterationConfig(epsilon=2.0)),
            (1e-3, -2e-2)):
        report, u = fixed_point_solve(a, f, cfg, m)
        u2, steps = _direct_contraction(m, f, a, cfg)
        assert m.iterates[(f, cfg.epsilon, cfg.tol)] is None
        assert report.converged
        assert report.iterations == len(steps)
        assert report.contraction_ratios == [
            s / p for p, s in zip(steps, steps[1:])]
        assert np.array_equal(u.values, m.kernel.base.values * a + u2)


def test_second_iterate_falls_back_alone(machinery5, monkeypatch):
    """At epsilon = 0.5 the n = 5 first iterate, a polynomial of degree 9,
    is memoized, but the second iterate's series needs more powers: the
    memo holds the first alone, and the solve applies G from iteration 2
    on.  It matches the direct loop to the first memo's rounding:
    measured at most 5.8e-14 a^2 at 2048 points."""
    m = machinery5
    f = constant_target(m)
    cfg = IterationConfig(epsilon=0.5)
    applied = []
    inverse = nonlinear.generalized_inverse
    report, u = fixed_point_solve(1e-3, f, cfg, m)
    first, = m.iterates[(f, 0.5, cfg.tol)]
    assert first[1].shape[0] == 8
    monkeypatch.setattr(nonlinear, "generalized_inverse",
                        lambda *args: applied.append(1) or inverse(*args))
    for a in (1e-3, -2e-2):
        applied.clear()
        report, u = fixed_point_solve(a, f, cfg, m)
        u2, steps = _direct_contraction(m, f, a, cfg)
        assert report.converged
        assert report.iterations == len(steps) >= 2
        assert len(applied) == report.iterations - 1
        assert np.abs(u.values - (m.kernel.base.values * a + u2)).max() \
            <= 1e-12 * a ** 2


def test_memoized_solve_checks_positivity_of_the_datum(machinery5,
                                                       monkeypatch):
    """The memo path still refuses a datum with 1 + a k-hat <= 0, with the
    message nonlinear_rhs gives on it, before G is applied: at a = -1.9
    the memoized iterate would lift 1 + u1 + u2 above 0 everywhere."""
    m = machinery5
    f = constant_target(m)
    cfg = IterationConfig(epsilon=2.0)
    assert fixed_point_solve(1e-3, f, cfg, m)[0].converged
    # the p = 9 polynomial ends within the cap at any epsilon
    assert len(m.iterates[(f, 2.0, cfg.tol)]) == 1
    u1 = np.asarray(m.kernel.base.values * -1.9, float)
    with pytest.raises(PositivityError) as direct:
        nonlinear_rhs(u1, f, 5)
    applied = []
    inverse = nonlinear.generalized_inverse
    monkeypatch.setattr(nonlinear, "generalized_inverse",
                        lambda *args: applied.append(1) or inverse(*args))
    with pytest.raises(PositivityError) as solved:
        fixed_point_solve(-1.9, f, cfg, m)
    assert str(solved.value) == str(direct.value)
    assert applied == []
    report, _ = nonlinear.guarded_solve(fixed_point_solve, -1.9, f, cfg, m)
    assert not report.converged and "1 + u > 0" in report.message


@pytest.mark.parametrize("amplitude", [0.0, 1e-3])
def test_memoized_solve_reports_decay_of_its_first_data(amplitude,
                                                        machinery4):
    """A solve that stops at the memoized iterate (max_iter = 1, or a = 0
    on a constant target) still reports the decay notes of T(u1), the
    data G was applied to."""
    m = machinery4
    r = m.grid.r.astype(float)
    slow = TargetCurvature(RadialFunction(m.grid,
                                          3.0 + 0.1 * np.exp(-0.3 * r)), 4)
    u1 = np.asarray(m.kernel.base.values * amplitude, float)
    notes = linear.decay_diagnostics(m.grid, nonlinear_rhs(u1, slow, 4))
    assert any("T1 data decays like x^0.300" in note for note in notes)
    report, _ = fixed_point_solve(amplitude, slow, IterationConfig(max_iter=1),
                                  m)
    assert m.iterates[(slow, 1e-3, 1e-10)] is not None
    assert report.iterations == 1
    assert report.diagnostics == slow.diagnostics + notes
    report, _ = fixed_point_solve(0.0, constant_target(m), IterationConfig(),
                                  m)
    assert report.iterations == 1 and report.converged
    assert report.diagnostics == []


def test_solve_reports_exhausted_iterations(machinery4):
    """max_iter maps without reaching tol: a failed verdict, not a raise."""
    f = constant_target(machinery4)
    report, u = fixed_point_solve(1e-3, f, IterationConfig(max_iter=1),
                                  machinery4)
    assert report.converged is False
    assert report.iterations == 1
    assert "no convergence in 1 iterations" in report.message
    assert u is not None
    assert math.isnan(report.error_bound)   # no contraction ratio yet


@pytest.mark.parametrize("name, amplitude, iterations", [
    ("machinery4", 0.8, 11), ("machinery5", 0.5, 5)])
def test_diverging_solve_ends_unconverged(name, amplitude, iterations,
                                          request):
    """Past the family's reach (epsilon 2, 2048 points) the loop stops at
    the first step that exceeds the first one, before expm1 overflows
    (n = 4) or 1 + u loses positivity (n = 5): a failed sweep entry with
    its maps counted, a last ratio > 1 and an inf bound, next to an entry
    that converges as before."""
    machinery = request.getfixturevalue(name)
    cfg = IterationConfig(epsilon=2.0, max_iter=200)
    (ok, bad), solutions = sweep_family(
        [0.1, amplitude], constant_target(machinery), cfg, machinery)
    assert ok.converged and ok.error_bound < 1e-10
    assert bad.converged is False
    assert bad.iterations == iterations            # measured
    assert bad.message == ("diverging: the step of iteration %d exceeds "
                           "the first step" % iterations)
    assert bad.contraction_ratios[-1] > 1.0
    assert bad.error_bound == math.inf
    assert math.isfinite(bad.residual)
    assert solutions[1] is not None


def test_solve_zero_amplitude_returns_trivial(machinery4):
    f = constant_target(machinery4)
    report, u = fixed_point_solve(0.0, f, IterationConfig(), machinery4)
    assert report.converged
    assert np.abs(u.values).max() < 1e-12
    assert report.error_bound == 0.0


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
    q = q_of_conformal(u, 4)
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


def test_sweep_family_isolates_a_nan_amplitude(machinery4):
    f = constant_target(machinery4)
    reports, sols = sweep_family((1e-4, math.nan, -1e-4), f,
                                 IterationConfig(), machinery4)
    assert reports[0].converged and reports[2].converged
    bad = reports[1]
    assert not bad.converged and bad.iterations == 0
    assert "not a number" in bad.message and math.isnan(bad.amplitude)
    assert sols[1] is None
    assert math.isnan(bad.pairwise_distances[0])
    assert math.isnan(reports[2].pairwise_distances[1])
    assert reports[2].pairwise_distances[0] > 0


def test_report_serialization(machinery4):
    f = constant_target(machinery4)
    report, _ = fixed_point_solve(1e-3, f, IterationConfig(), machinery4)
    d = report.to_dict()
    for key in ("converged", "iterations", "contraction_ratios", "residual",
                "amplitude", "fitted_amplitude", "message",
                "error_bound", "expansion"):
        assert key in d
