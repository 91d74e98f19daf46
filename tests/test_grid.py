from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcurve.grid import RadialFunction, RadialGrid, differentiate, fd_weights


def test_fd_weights_second_derivative_central():
    w = fd_weights(range(-2, 3), 2)
    expect = np.array([-1.0 / 12, 4.0 / 3, -5.0 / 2, 4.0 / 3, -1.0 / 12])
    assert np.allclose(np.asarray(w, float), expect, atol=1e-18)


def test_fd_weights_first_derivative_central():
    w = fd_weights(range(-2, 3), 1)
    expect = np.array([1.0 / 12, -2.0 / 3, 0.0, 2.0 / 3, -1.0 / 12])
    assert np.allclose(np.asarray(w, float), expect, atol=1e-18)


def test_fd_weights_sum_zero_for_derivatives():
    for m in (1, 2, 3, 4):
        w = fd_weights(range(-3, 4), m)
        assert abs(float(np.sum(w))) < 1e-18


def test_fd_weights_needs_enough_points():
    with pytest.raises(ValueError):
        fd_weights(range(-1, 1), 2)


def _fornberg_weights(offsets, m):
    """Fornberg's recursion (Math. Comp. 51, 1988) in exact rational
    arithmetic, each weight rounded once to longdouble: the oracle of
    `fd_weights`."""
    x = [Fraction(o) for o in offsets]
    n = len(x)
    c = [[Fraction(0)] * (m + 1) for _ in range(n)]
    c[0][0] = Fraction(1)
    c1 = Fraction(1)
    c4 = x[0]
    for i in range(1, n):
        mn = min(i, m)
        c2 = Fraction(1)
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i][k] = (c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k])
                               / c2)
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for k in range(mn, 0, -1):
                c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return np.array([np.longdouble(row[m].numerator)
                     / np.longdouble(row[m].denominator) for row in c])


@pytest.mark.parametrize("lo", range(-8, 1))
def test_fd_weights_match_fornberg(lo):
    """The integer Lagrange weights equal Fornberg's rational recursion bit
    for bit (signs of zeros included), for every stencil lo .. lo + p - 1
    of up to 10 points and every derivative order m < p."""
    for p in range(1, 11):
        for m in range(p):
            got = fd_weights(range(lo, lo + p), m)
            want = _fornberg_weights(range(lo, lo + p), m)
            assert got.dtype == np.longdouble
            assert np.array_equal(got, want), (lo, p, m)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_differentiate_fourth_order_convergence(m):
    """Errors against the analytic derivative of an even profile shrink
    ~16x per dyadic refinement."""
    def f(r):
        return np.cos(r) * np.exp(-0.5 * r ** 2)

    errs = []
    for pts in (257, 513):
        g = RadialGrid(6.0, pts)
        r = g.r.astype(float)
        vals = f(r)
        d = differentiate(vals, float(g.h), m)
        # analytic m-th derivative via high-order complex-step-free
        # Richardson on a very fine auxiliary grid
        hh = 1e-2
        offs = np.arange(-4, 5)
        w = np.asarray(fd_weights(offs, m), float)
        exact = sum(wj * f(r + o * hh) for wj, o in zip(w, offs)) / hh ** m
        interior = (r > 0.5) & (r < 5.5)
        errs.append(np.abs(d - exact)[interior].max())
    assert errs[0] / errs[1] > 10.0


def test_differentiate_polynomial_exact():
    g = RadialGrid(4.0, 128)
    r = g.r.astype(float)
    vals = 1.0 + 3.0 * r ** 2 + 0.25 * r ** 4
    d2 = differentiate(vals, float(g.h), 2)
    assert np.abs(d2 - (6.0 + 3.0 * r ** 2)).max() < 1e-9


def test_differentiate_annihilates_constants_tightly():
    g = RadialGrid(12.0, 2048)
    ones = np.ones(g.n_points)
    for m in (1, 2, 3, 4):
        d = differentiate(ones, float(g.h), m)
        assert np.abs(d).max() < 1e-8, m


def test_differentiate_odd_parity():
    g = RadialGrid(6.0, 512)
    r = g.r.astype(float)
    vals = np.sin(r)  # odd
    d1 = differentiate(vals, float(g.h), 1, parity=-1)
    assert abs(d1[0] - 1.0) < 1e-8
    assert np.abs(d1[: 400] - np.cos(r[:400])).max() < 1e-8


def test_grid_basic_invariants():
    g = RadialGrid(12.0, 1024)
    assert g.r[0] == 0.0
    assert float(g.r[-1]) == pytest.approx(12.0)
    assert np.all(np.diff(g.r.astype(float)) > 0)
    assert np.all(np.diff(g.x.astype(float)) < 0)
    assert float(g.x[0]) == 1.0
    assert g.index_of(0.0) == 0
    assert g.index_of(12.0) == 1023
    fine = g.refine()
    assert fine.n_points == 2047
    assert fine.r_max == g.r_max


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RadialGrid(-1.0, 64)
    with pytest.raises(ValueError):
        RadialGrid(12.0, 4)


def test_radial_function_rejects_nan_and_shape():
    g = RadialGrid(4.0, 64)
    with pytest.raises(ValueError):
        RadialFunction(g, np.full(64, np.nan))
    with pytest.raises(ValueError):
        RadialFunction(g, np.zeros(63))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5))
def test_derivative_linearity(coeffs):
    """differentiate is linear: d(a f + b g) = a d f + b d g."""
    g = RadialGrid(5.0, 128)
    r = g.r.astype(float)
    f = np.cos(r)
    k = np.exp(-r ** 2 / 4.0)
    a, b = coeffs[0], coeffs[1]
    lhs = differentiate(a * f + b * k, float(g.h), 2)
    rhs = a * differentiate(f, float(g.h), 2) \
        + b * differentiate(k, float(g.h), 2)
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(lhs - rhs).max() < 1e-10 * scale


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4))
def test_even_profile_derivative_parity(m):
    """Odd-order derivatives of even profiles vanish at the origin."""
    g = RadialGrid(5.0, 256)
    r = g.r.astype(float)
    vals = np.cosh(r) * np.exp(-r ** 2 / 2.0)
    d = differentiate(vals, float(g.h), m)
    if m % 2 == 1:
        assert abs(float(d[0])) < 1e-7


def _differentiate_edge_loops(values, h, m, parity=1):
    """Reference: differentiate with its edge rows as Python-scalar loops
    (origin ghosts one term at a time, one biased stencil per outer row;
    with parity=None, inner row i takes the biased stencil on -i..m+3-i,
    summed from its far tap as the mirrored outer rows are)."""
    from qcurve.grid import _HALF_WIDTH, stencil_weights
    values = np.asarray(values)
    n = values.shape[0]
    k = _HALF_WIDTH[m]
    w = stencil_weights(-k, k, m)
    acc_dtype = np.result_type(values.dtype, w.dtype)
    out = np.zeros(n, dtype=acc_dtype)
    for j, off in enumerate(range(-k, k + 1)):
        out[k:n - k] += w[j] * values[k + off:n - k + off]
    for i in range(k):
        acc = acc_dtype.type(0)
        if parity is None:
            wi = stencil_weights(-i, m + 3 - i, m)
            for j in range(m + 3, -1, -1):
                acc += wi[j] * values[j]
        else:
            for j, off in enumerate(range(-k, k + 1)):
                idx = i + off
                acc += w[j] * (values[idx] if idx >= 0
                               else parity * values[-idx])
        out[i] = acc
    for i in range(n - k, n):
        lead = n - 1 - i
        lo = lead - m - 3
        out[i] = stencil_weights(lo, lead, m) @ values[i + lo:i + lead + 1]
    return (out / np.longdouble(h) ** m).astype(values.dtype)


@pytest.mark.parametrize("points", [64, 4096])
@pytest.mark.parametrize("parity", [1, -1, None])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_vectorized_edge_rows_match_loops(m, parity, points):
    """The padded origin rows, the mirrored inner-edge stencils and the
    stacked outer stencils give exactly the scalar loops' values, for
    longdouble and double input."""
    g = RadialGrid(12.0, points)
    r = g.r
    vals = np.cos(3 * r) * np.exp(-r) + np.sin(r) * np.exp(-r / 2) / 7
    for v in (vals, vals.astype(float)):
        got = differentiate(v, g.h, m, parity)
        assert got.dtype == v.dtype
        assert np.array_equal(got, _differentiate_edge_loops(v, g.h, m, parity))


def _segment_diff(values, h, m):
    """The excised segment's former derivative: the origin-closed stencils,
    with the first three rows recomputed from the reversed array."""
    d = differentiate(values, h, m)
    rev = differentiate(np.asarray(values)[::-1], h, m)
    nn = len(d)
    sign = (-1) ** m
    for i in range(3):
        d[i] = sign * rev[nn - 1 - i]
    return d


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_inner_edge_matches_reversed_outer_rows(m):
    """parity=None equals the two-call reversal on random data bit for bit,
    except row 2 for m = 1, 2: that row is central there, and the reversal
    summed its taps in the opposite order, so the two may differ in the
    last bit (3 of 6,000 random 16-point cases did)."""
    rng = np.random.default_rng(m)
    for n in (9 + m, 16, 257):
        for _ in range(50):
            v = rng.standard_normal(n)
            h = float(rng.uniform(1e-3, 0.1))
            got = differentiate(v, h, m, parity=None)
            want = _segment_diff(v, h, m)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(np.delete(got, 2), np.delete(want, 2))
            assert abs(got[2] - want[2]) <= np.spacing(abs(want[2]))
            if m > 2:
                assert got[2] == want[2]


def test_inner_edge_is_one_sided():
    """parity=None reads no mirror across the first sample: the cubic
    f(r) = r^3 sampled from r = 5 on, where the mirrored ghosts would fold
    in a kink, is differentiated exactly to rounding up to its edge."""
    r = np.arange(5.0, 40.0)
    f = r ** 3
    for m, want in ((1, 3 * r ** 2), (2, 6 * r), (3, np.full_like(r, 6.0)),
                    (4, np.zeros_like(r))):
        got = differentiate(f, 1.0, m, parity=None)
        assert np.abs(got - want).max() < 1e-12 * f.max()
        ghost = differentiate(f, 1.0, m)
        assert np.abs(ghost - want)[:3].max() > 1.0
