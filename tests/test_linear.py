import importlib.machinery
import importlib.util
import math
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from qcurve.geometry import laplacian_values
from qcurve.grid import RadialGrid, differentiate, stencil_weights
from qcurve.indicial import oscillation_parameter
from qcurve import linear
from qcurve.linear import (BAND, BandedFactor, WindowError, _banded_lapack,
                           _close_band, _equation_band, _fit_boundary,
                           _hc_sums, apply_L, assemble,
                           decay_diagnostics, factor_banded,
                           generalized_inverse, kernel_element,
                           make_projection, project_P1, solve_banded,
                           solve_T1)
from qcurve.nonlinear import build_machinery
from qcurve.ucurve import DetParams, u_kernel_element, u_kernel_regime


def even_profile(grid, power=3):
    r = grid.r.astype(float)
    return 1.0 / np.cosh(r) ** power


def test_banded_factor_matches_laplacian(grid1024):
    g = grid1024
    n = 5
    f = BandedFactor(g, n, 1.0, (n * n - 4.0) / 2.0)
    r = g.r.astype(float)
    v = np.cos(2.0 * r) * np.exp(-r ** 2 / 8.0)
    got = f.apply(v)
    want = laplacian_values(v, g, n) + 0.5 * (n * n - 4.0) * v
    m = g.window_mask(0.0, g.r_max - 0.5)
    scale = np.abs(np.asarray(want, float))[m].max()
    assert np.abs(np.asarray(got - want, float))[m].max() < 1e-9 * scale


def band_matvec(ab, v):
    """Product of the solve_banded-layout matrix ab with v."""
    lower, upper = BAND
    m = len(v)
    out = np.zeros(m)
    for k in range(lower + upper + 1):
        d = upper - k           # column offset j - i held in band row k
        if d >= 0:
            out[:m - d] += ab[k, d:] * v[d:]
        else:
            out[-d:] += ab[k, :m + d] * v[:m + d]
    return out


@pytest.mark.parametrize("n, scale, constant", [
    (4, 1.0, 6.0), (5, 1.0, 10.5), (6, 1.0, 16.0),
    (4, 1.5, 3.0), (4, 1.0 + 11.0 / 7.0, 66.0 / 7.0),
    (4, 1.0 - 7.0 / 16.0, -42.0 / 16.0),
], ids=["T2 n=4", "T2 n=5", "T2 n=6", "T3 A", "T3 D2", "T3 P"])
def test_band_matches_stencils(n, scale, constant, grid2048):
    """The assembled band times a profile equals the stencil application
    on the rows the two discretizations share: BandedFactor.apply on the
    full ball (rows 0..N-3, origin row included), and the excised
    segment's operator built from `differentiate(..., parity=None)` (rows
    i0+2..N-3), whose inner row 0 is the Dirichlet identity.  Entries are
    O(scale/h^2), so agreement is to a rounding-level multiple of that."""
    g = grid2048
    r = g.r.astype(float)
    v = np.cos(3.0 * r) / np.cosh(r)
    h = float(g.h)
    tol = 2e-14 * abs(scale) / h ** 2
    full = band_matvec(_equation_band(g, n, scale, constant), v)
    want = np.asarray(BandedFactor(g, n, scale, constant).apply(v), float)
    assert np.abs(full - want)[:-2].max() < tol
    i0 = g.index_of(1.0)
    seg, vs = band_matvec(_equation_band(g, n, scale, constant, i0),
                          v[i0:]), v[i0:]
    want = scale * (differentiate(vs, h, 2, parity=None)
                    + (n - 1) / np.tanh(r[i0:])
                    * differentiate(vs, h, 1, parity=None)) + constant * vs
    assert seg[0] == vs[0]
    assert np.abs(seg - want)[2:-2].max() < tol


@pytest.mark.parametrize("n", [4, 5, 6])
def test_factor_solves_match_solve_banded(n, grid2048):
    """solve_robin and solve_anchored, dgbtrs on the LU factors kept from
    a closure row's first solve, equal scipy.linalg.solve_banded on the
    same closed band bit for bit, at the first solve and at later ones."""
    g = grid2048
    op = assemble(g, n=n)
    r = g.r.astype(float)
    h = g.h
    for f in (np.cos(2.0 * r) / np.cosh(r) ** 3, np.exp(-0.5 * r)):
        band = _close_band(_equation_band(g, n, 1.0, -float(n)), h,
                           op.robin, 1.0)
        rhs = f.copy()
        rhs[-1] = op.robin * f[-1] / -n
        want = scipy.linalg.solve_banded(BAND, band, rhs)
        assert np.array_equal(op.t1.solve_robin(f, op.robin), want)
        rhs[-1] = 0.0
        for a0, a1 in ((0.3, -0.7), (1.0, 0.2)):   # two rows, two factors
            scale = math.hypot(a0, a1)
            band = _close_band(
                _equation_band(g, n, 1.0, (n * n - 4.0) / 2.0), h,
                a0 / scale, a1 / scale)
            want = scipy.linalg.solve_banded(BAND, band, rhs)
            assert np.array_equal(op.t2.solve_anchored(f, a0, a1), want)


def test_excised_factor_solves_match_solve_banded(grid2048):
    """The excised split-regime bands (T3 with its decaying Robin row, T1
    with the x^4 one, inner Dirichlet rows) factored once solve like
    scipy.linalg.solve_banded, bit for bit."""
    g = grid2048
    a = DetParams.preset("paneitz").alpha
    i0 = g.index_of(1.0)
    r = g.r[i0:].astype(float)
    bands = [
        _close_band(_equation_band(g, 4, 1.0 + a, 6.0 * a, i0), g.h,
                    1.5 + u_kernel_regime(a)[1], 1.0),
        _close_band(_equation_band(g, 4, 1.0, -4.0, i0), g.h, 4.0, 1.0)]
    for band in bands:
        factor = factor_banded(band)
        for rhs in (np.sin(r) / np.cosh(r), np.exp(-2.0 * r)):
            rhs[0], rhs[-1] = 0.25, -0.5
            assert np.array_equal(solve_banded(factor, rhs),
                                  scipy.linalg.solve_banded(BAND, band, rhs))


def add_at_band(grid, n, scale, constant, i0=0):
    """`_equation_band` written out with np.add.at for every stencil row:
    the entry-by-entry accumulation that the diagonal writes replace."""
    ub = BAND[1]
    r, h = grid.r[i0:], grid.h
    m = len(r)
    ab = np.zeros((sum(BAND) + 1, m))

    def add(rows, cols, vals):
        np.add.at(ab, (ub + rows - cols, cols), vals)

    if i0 == 0:
        row0 = np.zeros(5, dtype=int)
        add(row0, np.abs(np.arange(-2, 3)),
            scale * n * (stencil_weights(-2, 2, 2) / h ** 2))
        add(row0[:4], np.arange(4), -scale * (n - 1.0)
            * np.array([-20.0, 30.0, -12.0, 2.0]) / (45.0 * h ** 2))
        stencils = [(np.arange(1, m - 2), (-2, 2))]
    else:
        ab[ub, 0] = 1.0
        stencils = [(np.array([1]), (-1, 3)), (np.arange(2, m - 2), (-2, 2))]
    stencils.append((np.array([m - 2]), (-3, 1)))
    for rows, (lo, hi) in stencils:
        offs = np.arange(lo, hi + 1)
        a1 = scale * (n - 1.0) * (1.0 / np.tanh(r[rows]))
        vals = (scale * (stencil_weights(lo, hi, 2) / h ** 2)
                + a1[:, None] * (stencil_weights(lo, hi, 1) / h))
        add(np.repeat(rows, len(offs)),
            np.abs(rows[:, None] + offs).ravel(), vals.ravel())
    ab[ub, (1 if i0 else 0):m - 1] += constant
    return ab


@pytest.mark.parametrize("points", [64, 1024, 4096])
def test_bands_match_add_at_reference(points):
    """Every full-ball band (n = 4, 5, 6 and the T3 of each U preset) and
    every excised band (the P preset's T3 and Lap - 4) equals the np.add.at
    accumulation bit for bit, signs of zero included."""
    g = RadialGrid(12.0, points)
    cases = [(n, 1.0, c) for n in (4, 5, 6)
             for c in (-float(n), (n * n - 4.0) / 2.0)]
    for tag in ("conformal_laplacian", "spin_laplacian", "paneitz"):
        a = DetParams.preset(tag).alpha
        cases.append((4, 1.0 + a, 6.0 * a))
    i0 = g.index_of(1.0)
    a = DetParams.preset("paneitz").alpha
    excised = [(4, 1.0 + a, 6.0 * a, i0), (4, 1.0, -4.0, i0)]
    for args in cases + excised:
        got, want = _equation_band(g, *args), add_at_band(g, *args)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), args
        assert np.array_equal(np.signbit(got), np.signbit(want)), args


def test_lapack_loads_at_first_factoring(tmp_path):
    """A fresh interpreter binds LAPACK only when a command factors a
    band: importing qcurve.cli, the commands that factor none (indicial,
    kernel, verify bessel and covariance) and refused configs leave
    `_lapack` uncalled; a solve binds it, once, from numpy's own OpenBLAS,
    so scipy's `_flapack` is never mapped and no scipy module imported."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = """if True:
        import os, sys
        import qcurve.cli, qcurve.linear

        def loaded():
            if os.path.exists("/proc/self/maps"):
                with open("/proc/self/maps") as fh:
                    assert "_flapack" not in fh.read()
            assert not [name for name in sys.modules
                        if name.split(".")[0] == "scipy"]
            return qcurve.linear._lapack.cache_info().currsize

        assert not loaded(), "import"
        out = sys.argv[1]
        for argv, want in [
                (["indicial", "--n", "5"], 0),
                (["indicial", "--alpha", "0.6"], 0),
                (["kernel", "--n", "5", "--points", "512"], 0),
                (["kernel", "--preset", "D2", "--points", "512"], 0),
                (["verify", "bessel", "--n", "4"], 0),
                (["verify", "covariance", "--n", "4"], 0),
                (["solve", "--n", "3"], 2),
                (["ucurve", "--gamma", "1,-12,1"], 2),
                (["solve", "--amplitude", "nan"], 2)]:
            assert qcurve.cli.main(argv + ["--out", out]) == want, argv
            assert not loaded(), argv
        assert qcurve.cli.main(["solve", "--n", "4", "--points", "256",
                                "--out", out]) == 0
        assert loaded() == 1
        """
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def _closed_bands(grid):
    """Every closed band a solve factors on `grid`: the T1 (Robin) and T2
    (anchored) bands of n = 4, 5, 6, and one T3 band (alpha = 0.4)."""
    bands = []
    for n in (4, 5, 6):
        op = assemble(grid, n=n)
        for factor, closure in ((op.t1, (op.robin, 1.0)),
                                (op.t2, (0.6, 0.8))):
            ab = _equation_band(grid, n, factor.scale, factor.constant)
            bands.append(_close_band(ab, grid.h, *closure))
    ab = _equation_band(grid, 4, 1.4, 2.4)
    bands.append(_close_band(ab, grid.h, 0.6, 0.8))
    return bands


def _factor_and_solve(routines, band, rhs):
    trf, trs = routines
    lu = np.zeros((2 * BAND[0] + BAND[1] + 1, band.shape[1]), order="F")
    lu[BAND[0]:] = band
    lu, piv, info = trf(lu, *BAND, overwrite_ab=True)
    x, info_s = trs(lu, *BAND, rhs, piv)
    assert info == info_s == 0
    return lu, piv, x


def test_numpy_lapack_matches_scipy_flapack(grid4096):
    """dgbtrf and dgbtrs of numpy's OpenBLAS give the LU factors and
    solves of scipy's `_flapack`, bit for bit, on every band a solve
    factors; their pivots are LAPACK's 1-based ones, scipy's less one."""
    g = grid4096
    r = g.r.astype(float)
    rhs = np.cos(2.0 * r) / np.cosh(r)
    for band in _closed_bands(g):
        lu, piv, x = _factor_and_solve(linear._openblas_lapack(), band, rhs)
        lu_s, piv_s, x_s = _factor_and_solve(_banded_lapack(), band, rhs)
        assert np.array_equal(lu, lu_s)
        assert np.array_equal(piv, piv_s + 1)
        assert np.array_equal(x, x_s)
        # two right-hand sides in one call
        both, info = linear._openblas_lapack()[1](
            lu, *BAND, np.column_stack([rhs, 2.0 * rhs]), piv)
        assert info == 0 and np.array_equal(both[:, 0], x)


def test_lapack_falls_back_to_scipy(grid2048, monkeypatch):
    """Where numpy's library exports no `scipy_dgbtrf_64_`, `_lapack`
    binds `_banded_lapack`'s routines, which solve the same band alike."""
    rhs = np.sin(grid2048.r.astype(float)) / np.cosh(grid2048.r.astype(float))
    band = _closed_bands(grid2048)[2]
    want = _factor_and_solve(linear._openblas_lapack(), band, rhs)[2]
    monkeypatch.setattr(linear.ctypes, "CDLL",
                        lambda path: types.SimpleNamespace())
    with pytest.raises(AttributeError):
        linear._openblas_lapack()
    routines = linear._lapack.__wrapped__()
    assert routines == _banded_lapack()
    assert np.array_equal(_factor_and_solve(routines, band, rhs)[2], want)


@pytest.mark.parametrize("binding", ["numpy", "scipy"])
def test_solve_banded_rejects_wrong_length(binding, monkeypatch):
    """A right-hand side of N - 1 or 2N samples on an N = 256 band raises
    ValueError before dgbtrs, on both LAPACK bindings: numpy's ctypes
    dgbtrs would read N - 1 samples as no column and return them, and 2N
    as two columns, while scipy's returns a result for both."""
    g = RadialGrid(12.0, 256)
    routines = (linear._openblas_lapack() if binding == "numpy"
                else _banded_lapack())
    monkeypatch.setattr(linear, "_lapack", lambda: routines)
    factor = factor_banded(_closed_bands(g)[0])
    assert factor[2] is routines[1]
    rhs = np.cos(2.0 * g.r.astype(float)) / np.cosh(g.r.astype(float))
    assert solve_banded(factor, rhs).shape == rhs.shape
    for bad in (rhs[:-1], np.concatenate([rhs, rhs])):
        with pytest.raises(ValueError, match="right-hand side of shape"):
            solve_banded(factor, bad)


def test_numpy_lapack_raises_on_an_illegal_argument(grid512):
    """A negative LAPACK info (an illegal argument) raises ValueError
    naming the argument, where scipy's wrappers would return it."""
    trf, trs = linear._openblas_lapack()
    band = _closed_bands(grid512)[0]
    lu = np.zeros((2 * BAND[0] + BAND[1] + 1, band.shape[1]), order="F")
    lu[BAND[0]:] = band
    with pytest.raises(ValueError, match="argument 3 of dgbtrf"):
        trf(lu.copy(order="F"), -1, BAND[1])
    lu, piv, info = trf(lu, *BAND, overwrite_ab=True)
    assert info == 0
    with pytest.raises(ValueError, match="argument 4 of dgbtrs"):
        trs(lu, BAND[0], -1, np.ones(band.shape[1]), piv)


def test_loaded_lapack_matches_public_routines(grid2048):
    """dgbtrf and dgbtrs loaded from the `_flapack` file give the LU factors,
    pivots and solves of scipy.linalg.lapack's, bit for bit."""
    loaded = _banded_lapack()
    public = scipy.linalg.lapack.dgbtrf, scipy.linalg.lapack.dgbtrs
    g = grid2048
    band = _close_band(_equation_band(g, 5, 1.0, -5.0), g.h, 2.0, 1.0)
    r = g.r.astype(float)
    rhs = np.cos(2.0 * r) / np.cosh(r)
    results = []
    for trf, trs in (loaded, public):
        lu = np.zeros((2 * BAND[0] + BAND[1] + 1, band.shape[1]), order="F")
        lu[BAND[0]:] = band
        lu, piv, info = trf(lu, *BAND, overwrite_ab=True)
        x, info_s = trs(lu, *BAND, rhs, piv)
        assert info == info_s == 0
        results.append((lu, piv, x))
    for mine, theirs in zip(*results):
        assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("case", ["no scipy spec", "no file", "bad file"])
def test_lapack_loader_falls_back_to_public_import(case, tmp_path,
                                                   monkeypatch):
    """When the extension file cannot be found or loaded, the loader hands
    out scipy.linalg.lapack's own routines."""
    if case == "bad file":
        (tmp_path / "linalg").mkdir()
        (tmp_path / "linalg" / ("_flapack"
                                + importlib.machinery.EXTENSION_SUFFIXES[0])
         ).write_bytes(b"not a shared object")
    spec = (None if case == "no scipy spec" else
            types.SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, package=None: spec)
    trf, trs = _banded_lapack()
    assert trf is scipy.linalg.lapack.dgbtrf
    assert trs is scipy.linalg.lapack.dgbtrs


def test_cli_solve_leaves_scipy_linalg_unimported(tmp_path):
    """A fresh interpreter runs a whole solve without scipy.linalg's
    package init: the LAPACK routines come from the extension file."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys, qcurve.cli\n"
            "code = qcurve.cli.main(['solve', '--n', '4', '--points', "
            "'256', '--out', sys.argv[1]])\n"
            "assert code == 0, code\n"
            "assert 'scipy.linalg' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "solve.json").exists()


@pytest.mark.parametrize("kind", ["n=4", "n=5", "n=6", "U real (A)",
                                  "x^4 (excised P)"])
def test_projection_covector_matches_lstsq(kind, grid2048,
                                           lstsq_coefficients):
    """project_P1, a dot product with a covector computed once, equals the
    least-squares fit of the leading coefficients (normalized by those of
    the reference kernel) to 1e-12 relative; so does the excised U solve's
    fit of its x^4 datum on the segment r >= 1, to 1e-10: its design has
    condition number 1.3e7 (the kernel fits' 1e5 to 2e6), and the two
    routes agree there to about 1e-11."""
    g = grid2048
    r = g.r.astype(float)
    rel = 1e-12
    if kind.startswith("x^4"):
        rel = 1e-10
        i0 = g.index_of(1.0)
        mu, beta, base, lead_fit = 4.0, None, np.exp(-4.0 * r), (1.0,)
        window = (max(r[i0] + 1.0, g.r_max - 10.0), g.r_max - 0.25)

        def fitted(values):
            return _fit_boundary(g, values[i0:], window, mu, i0=i0)[0]
    else:
        if kind.startswith("n="):
            n = int(kind[2:])
            kernel = build_machinery(n, g).kernel
            mu = (n - 1.0) / 2.0
            beta = kernel.diagnostics["beta_exact"]
        else:
            kernel = u_kernel_element(DetParams.preset("conformal_laplacian"),
                                      g)
            mu, beta = kernel.diagnostics["decay_exact"], None
        proj = make_projection(kernel)
        window = proj.kernel.window_r
        base = np.asarray(kernel.base.values, float)
        lead_fit = kernel.unit_fit

        def fitted(values):
            return project_P1(proj, values)
    for c in (0.37, -2e-3):
        values = (c * base
                  + 0.2 * np.exp(-(mu + 0.8) * r) * np.cos(3.0 * r)
                  + 1e-3 * np.exp(-(mu + 1.5) * r))
        coef = lstsq_coefficients(g.r, values, window, mu, beta)
        lead = np.array(lead_fit[:len(coef)])
        want = coef @ lead / (lead @ lead)
        assert abs(fitted(values) - want) <= rel * abs(want)


def test_zero_amplitude_kernel_keeps_its_direction(grid2048):
    """A kernel element is the unit kernel whatever the datum, so a zero
    datum keeps its direction: its projection covector is finite."""
    kernel = kernel_element(5, grid2048)
    assert math.hypot(*kernel.unit_fit) == pytest.approx(1.0)
    assert np.isfinite(make_projection(kernel).covector).all()


def test_banded_factor_scale_and_constant(grid1024):
    g = grid1024
    alpha = 0.5
    f = BandedFactor(g, 4, 1.0 + alpha, 6.0 * alpha)
    v = even_profile(g)
    got = f.apply(v)
    want = (1.0 + alpha) * laplacian_values(v, g, 4) + 6.0 * alpha * v
    m = g.window_mask(0.0, g.r_max - 0.5)
    assert np.abs(np.asarray(got - want, float))[m].max() < 1e-8


def test_assemble_validation(grid512):
    with pytest.raises(ValueError):
        assemble(grid512)
    with pytest.raises(ValueError):
        assemble(grid512, n=5, alpha=0.5)
    op = assemble(grid512, n=6)
    assert op.robin == 6.0 and op.t2.scale == 1.0 and op.t2.constant == 16.0
    opu = assemble(grid512, alpha=0.5)
    assert opu.robin == 4.0 and opu.t2.scale == 1.5 and opu.t2.constant == 3.0


@pytest.mark.parametrize("n", [4, 5])
def test_kernel_envelope_and_frequency(n, grid2048):
    """Fitted envelope exponent (n-1)/2 within 0.5%, frequency
    sqrt(n^2+2n-9)/2 within 0.1%."""
    k = kernel_element(n, grid2048)
    d = k.diagnostics
    env_exact = (n - 1.0) / 2.0
    beta = oscillation_parameter(n)
    assert abs(d["envelope_exponent_measured"] - env_exact) < 0.005 * env_exact
    assert abs(d["frequency_measured"] - beta) < 0.001 * beta


def test_kernel_satisfies_equation(grid1024, grid2048):
    """T2 k = 0 pointwise; the residual drops under refinement."""
    n = 4
    sups = []
    for g in (grid1024, grid2048):
        k = kernel_element(n, g)
        t2 = BandedFactor(g, n, 1.0, (n * n - 4.0) / 2.0)
        res = t2.apply(k.base.values)
        m = g.window_mask(0.25, g.r_max - 0.5)
        sups.append(float(np.abs(np.asarray(res, float))[m].max()))
    assert sups[0] < 1e-5
    assert sups[0] / sups[1] > 4.0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kernel_matches_spherical_function(n, grid2048):
    """shoot_regular against an independent oracle at 6 radii up to r_max,
    relative to the envelope (1 + r) x^{(n-1)/2}: the regular solution of
    (Lap + c) k = 0 on H^n with k(0) = 1 is the spherical function
    2F1((rho + i beta)/2, (rho - i beta)/2; n/2; -sinh^2 r), rho = (n-1)/2
    (Helgason, Groups and Geometric Analysis, ch. IV)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    g = grid2048
    vals, _ = BandedFactor(g, n, 1.0, (n * n - 4.0) / 2.0).shoot_regular()
    rho = mp.mpf(n - 1) / 2
    beta = mp.sqrt(mp.mpf(n * n + 2 * n - 9)) / 2
    for r_target in (0.5, 1.5, 3.0, 6.0, 9.0, g.r_max - 0.01):
        i = g.index_of(r_target)
        r = mp.mpf(str(g.r[i]))
        want = mp.re(mp.hyp2f1((rho + 1j * beta) / 2, (rho - 1j * beta) / 2,
                               mp.mpf(n) / 2, -mp.sinh(r) ** 2))
        err = abs(mp.mpf(str(vals[i])) - want) / ((1 + r) * mp.exp(-rho * r))
        assert err < 1e-12, (r_target, float(err))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kernel_outer_coefficient_is_c_function(n, grid2048):
    """The matched coefficient of Phi_s, s = -rho + i beta, is Harish-
    Chandra's c(beta) = 2^{n-2} Gamma(n/2) Gamma(i beta)
    / (sqrt(pi) Gamma(rho + i beta)), and the fitted leading amplitude
    |(a, b)| of the kernel element is 2 |c(beta)| up to the fit bias of
    the nuisance regression (3e-4 at n = 4 to 5e-3 at n = 6 on 2048
    points)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    t2 = BandedFactor(grid2048, n, 1.0, (n * n - 4.0) / 2.0)
    c1, c2 = t2._matched_outer()
    beta = mp.sqrt(mp.mpf(n * n + 2 * n - 9)) / 2
    rho = mp.mpf(n - 1) / 2
    want = (2 ** (n - 2) * mp.gamma(mp.mpf(n) / 2) * mp.gamma(1j * beta)
            / (mp.sqrt(mp.pi) * mp.gamma(rho + 1j * beta)))
    # k = c1 Re Phi_s + c2 Im Phi_s / beta = 2 Re(c(beta) Phi_s)
    got = (mp.mpf(str(c1)) - 1j * mp.mpf(str(c2)) / beta) / 2
    assert abs(got - want) < 1e-12 * abs(want)
    k = kernel_element(n, grid2048)
    fitted = 1.0 / float(np.asarray(k.base.values, float)[0])
    assert fitted == pytest.approx(2.0 * float(abs(want)), rel=1e-2)


def _hc_full_horner(r, s, roots, n):
    """((P, Q), (sum |G_k| y^k, sum |(s-2k) G_k| y^k)) of the Harish-Chandra
    series by the full 48-term Horner in complex longdouble at every point:
    the sum `_hc_sums` evaluates, without its cut."""
    s = np.clongdouble(s)
    gam, acc = [np.clongdouble(1)], 0
    for j in range(1, 48):
        acc += (s - 2 * j + 2) * gam[-1]
        gam.append(-2 * (n - 1) * acc
                   / ((s - 2 * j - roots[0]) * (s - 2 * j - roots[1])))
    y = np.exp(-2 * r)
    p = q = mp = mq = 0
    for k in range(47, -1, -1):
        p, q = p * y + gam[k], q * y + (s - 2 * k) * gam[k]
        mp, mq = mp * y + abs(gam[k]), mq * y + abs((s - 2 * k) * gam[k])
    return np.array([p, q]), np.array([mp, mq])


@pytest.mark.parametrize("case", [
    4, 5, 6, "conformal_laplacian", "spin_laplacian", "x4", 5.0 / 19.0, 0.6,
], ids=["n4", "n5", "n6", "A", "D2", "x4", "5/19", "3/5"])
def test_hc_sums_match_full_horner(case, grid4096):
    """`_hc_sums`, which sums each point only to longdouble rounding,
    against the full Horner sum within 4 longdouble ulps of sum |terms|,
    pointwise, on the outer grid and on the 16 matching points: at both
    roots of T2 (n = 4, 5, 6) and of T3 (presets A, D2), at the x^4 branch
    of the excised U solve, and at the contour nodes of `_divided` next to
    the confluent points alpha = 5/19 and 3/5."""
    g = grid4096
    if case == "x4":
        n, roots, nodes = 4, (1, -4), [-4]
    else:
        if isinstance(case, int):
            n, scale, constant = case, 1.0, (case * case - 4.0) / 2.0
        else:
            alpha = (DetParams.preset(case).alpha if isinstance(case, str)
                     else case)
            n, scale, constant = 4, 1.0 + alpha, 6.0 * alpha
        rho = np.longdouble(n - 1) / 2
        disc = rho * rho - BandedFactor(g, n, scale, constant)._c
        at = np.sqrt(abs(disc))
        roots = nodes = ((-rho + at, -rho - at) if disc >= 0
                         else (-rho + 1j * at, -rho - 1j * at))
        if isinstance(case, float):
            center = (roots[0] + roots[1] + 2 * round(at)) / 2
            t = np.arctan(np.longdouble(1)) * np.arange(0, 32, 4) / 4
            nodes = center + (np.cos(t) + 1j * np.sin(t)) / 10
    for r in (g.r[g.r >= 1.0], np.linspace(np.longdouble(0.9),
                                           np.longdouble(1.2), 16)):
        for s in nodes:
            want, mags = _hc_full_horner(r, s, roots, n)
            got = _hc_sums(r, s, roots, n)
            ulps = 4 * np.spacing(mags)
            assert (abs(got.real - want.real) <= ulps).all(), s
            assert (abs(got.imag - want.imag) <= ulps).all(), s
    with pytest.raises(ValueError, match="ascending"):
        _hc_sums(g.r[::-1], nodes[0], roots, n)


def test_kernel_window_guard():
    g = RadialGrid(3.0, 256)
    with pytest.raises(WindowError):
        kernel_element(4, g)


def test_projection_recovers_kernel_amplitude(machinery5):
    """P1 (c k^) = c k^ for several amplitudes (idempotency on the span)."""
    proj = machinery5.projection
    for c in (1.0, -0.3, 2.5e-3):
        got = project_P1(proj, c * machinery5.kernel.base.values)
        assert abs(got - c) < 1e-8 * max(1.0, abs(c))


def test_projection_idempotent(machinery4):
    proj = machinery4.projection
    k = machinery4.kernel.base.values
    once = project_P1(proj, 0.7 * k)
    twice = project_P1(proj, once * k)
    assert abs(twice - once) < 1e-8


def test_projection_annihilates_fast_decay(machinery5):
    """A pure x^n tail carries no x^{(n-1)/2} oscillation."""
    g = machinery5.grid
    got = project_P1(machinery5.projection, np.exp(-5.0 * g.r.astype(float)))
    assert abs(got) < 1e-10


def test_projection_superposition(machinery4):
    """P1 extracts the kernel part of kernel + fast remainder."""
    g = machinery4.grid
    rem = 4.0 * np.exp(-2.0 * g.r.astype(float))
    u = 0.3 * machinery4.kernel.base.values + rem
    got = project_P1(machinery4.projection, u)
    assert abs(got - 0.3) < 1e-4


@pytest.mark.parametrize("power", [3, 4])
def test_generalized_inverse_left_identity(machinery5, power):
    """G L u = u - P1 u on manufactured decaying profiles."""
    m = machinery5
    u = even_profile(m.grid, power)
    f = apply_L(m.operator, u)
    got = generalized_inverse(m.operator, f, m.projection)
    want = u - project_P1(m.projection, u) * m.kernel.base.values
    scale = np.abs(want).max()
    assert np.abs(got - want).max() < 1e-5 * scale


@pytest.mark.parametrize("case", [4, 5, 6, "conformal_laplacian",
                                  "spin_laplacian"])
def test_generalized_inverse_rounds_once(case, grid1024):
    """G returns double values equal, bit for bit, to the anchored T2
    solve less its extended-precision P1 profile, rounded once; a kernel
    rounded to double before the subtraction misses."""
    g = grid1024
    if isinstance(case, int):
        m = build_machinery(case, g)
        op, proj = m.operator, m.projection
    else:
        params = DetParams.preset(case)
        op = assemble(g, alpha=params.alpha)
        proj = make_projection(u_kernel_element(params, g))
    f = even_profile(g, 4)
    got = generalized_inverse(op, f, proj)
    w = op.t2.solve_anchored(solve_T1(op, f), *proj.anchor)
    c = project_P1(proj, w)
    p1 = c * proj.kernel.base.values
    assert p1.dtype == np.longdouble
    want = np.asarray(w - p1, float)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    rounded_first = w - c * np.asarray(proj.kernel.base.values, float)
    assert not np.array_equal(rounded_first, want)


def test_generalized_inverse_of_zero(machinery4):
    z = np.zeros(machinery4.grid.n_points)
    out = generalized_inverse(machinery4.operator, z, machinery4.projection)
    assert out.shape == z.shape and np.all(out == 0.0)


def test_generalized_inverse_kernel_free(machinery4):
    """P1 G f = 0: the generalized inverse lands in the complement."""
    m = machinery4
    f = even_profile(m.grid, 4)
    u2 = generalized_inverse(m.operator, f, m.projection)
    p = project_P1(m.projection, u2)
    assert abs(p) < 1e-8 * max(1.0, np.abs(u2).max())


def test_solve_T1_inverts_factor(machinery5):
    m = machinery5
    f = even_profile(m.grid, 4)
    v = solve_T1(m.operator, f)
    back = m.operator.t1.apply(v)
    mask = m.grid.window_mask(0.0, m.grid.r_max - 0.5)
    scale = np.abs(f).max()
    assert np.abs(np.asarray(back, float) - f)[mask].max() < 1e-7 * scale
    # the decaying branch was selected: the solution dies at the boundary
    assert np.abs(v[-10:]).max() < 1e-6 * np.abs(v).max()


@pytest.mark.parametrize("mu, notes", [
    (None, []), (2.0, []),
    (-0.02, ["generalized inverse applied to non-decaying data"]),
    (0.3, ["T1 data decays like x^0.300"]),
    (-0.2, ["generalized inverse applied to non-decaying data",
            "T1 data decays like x^-0.200"]),
])
def test_decay_diagnostics(mu, notes, grid1024):
    """Data x^mu near the boundary: zero data and fast decay pass quietly,
    a constant-like tail is noted for G only (the Robin row absorbs it),
    slow decay for T1, growth for both."""
    r = grid1024.r.astype(float)
    values = np.zeros_like(r) if mu is None else np.exp(-mu * r)
    got = decay_diagnostics(grid1024, values)
    assert len(got) == len(notes)
    assert all(g.startswith(want) for g, want in zip(got, notes))


def test_grid_mismatch_rejected(machinery4):
    """Samples of the wrong length (N - 1 or 2N against the operator's
    N = 2048 points), zero or not, raise in L, T1, G and P1."""
    op, proj = machinery4.operator, machinery4.projection
    for length in (2047, 4096):
        for f in (1.0 / np.cosh(np.linspace(0.0, 12.0, length)) ** 3,
                  np.zeros(length)):
            for apply in (lambda: apply_L(op, f), lambda: solve_T1(op, f),
                          lambda: generalized_inverse(op, f, proj),
                          lambda: project_P1(proj, f)):
                with pytest.raises(ValueError):
                    apply()
