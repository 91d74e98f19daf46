"""Modified Bessel functions of complex order and the model ODE solutions.

The production evaluator is the ascending series

    I_a(t) = sum_k (t/2)^{a+2k} / (k! Gamma(a+k+1)),

summed with compensated (Kahan) accumulation and differentiated term by
term, so value, first and second derivative come from independent sums
rather than from the ODE itself.  K is formed from the reflection formula
K_a = (pi/2)(I_{-a} - I_a)/sin(a pi).  Orders within 1e-3 of an integer m
sidestep the sin(a pi) cancellation: K_m comes from the integer-order
log-series with its digamma tail, shifted to order a by a second-order
Taylor step in the order: the first order-derivative is a
Richardson-extrapolated central difference of reflection-formula values
at m +- 0.01 and m +- 0.02, the second a central second difference at
m +- 0.02.

Every evaluator takes a whole float array of t > 0 and runs each series on
all of it at once; a live mask stops each point at its own term, so a
value does not depend on the other points of the array.  Beyond t = 30
values are scaled to stay inside double range (I-types reported times
e^{-t}, K-types times e^{+t}), and each evaluator returns the signed
exponent applied as a `log_scale` array beside them; all residual checks
are scale-invariant.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import check_dimension
from .indicial import DegenerateOperatorError

__all__ = [
    "bessel_I_derivatives",
    "bessel_K_derivatives",
    "ModelSolution",
    "model_solutions",
    "model_operator",
    "model_residual",
    "SCALE_THRESHOLD",
]

SCALE_THRESHOLD = 30.0
_MAX_TERMS = 600
_INTEGER_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# extended-precision kernel: the reflection formula for K cancels the two
# exponentially growing I-series down to an exponentially small remainder,
# so both series and their difference are carried in 80-bit extended
# precision (np.clongdouble), with the Gamma prefactor supplied by a
# shifted Stirling series evaluated in the same precision.  (A Spouge
# approximation is the textbook choice here but its alternating ~e^a
# coefficients cancel catastrophically in fixed 80-bit arithmetic; the
# Bernoulli series has no such cancellation.)

_LD = np.longdouble
_CLD = np.clongdouble
_PI_LD = _LD("3.14159265358979323846264338327950288")
_HALF_LOG_2PI = np.log(2 * _PI_LD) / 2

# B_{2k} / (2k (2k-1)) for k = 1..11; truncation error below 1e-25 once the
# argument is shifted to Re z >= 16.
_STIRLING = tuple(_LD(p) / _LD(q) for p, q in [
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
    (-691, 360360), (1, 156), (-3617, 122400), (43867, 244188),
    (-174611, 125400), (854513, 63756),
])


def _gamma_ld(z):
    """Gamma(z) for complex z, in clongdouble (poles excepted)."""
    z = _CLD(z)
    if z.real < 0.5:
        return _PI_LD / (np.sin(_PI_LD * z) * _gamma_ld(1.0 - z))
    shift = _CLD(1)
    while z.real < 16.0:
        shift = shift * z
        z = z + 1.0
    zi2 = 1.0 / (z * z)
    series = _CLD(0)
    for c in reversed(_STIRLING):
        series = series * zi2 + c
    log_gamma = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + series / z
    return np.exp(log_gamma) / shift


def _kahan_triple_series(alpha, t, rows=slice(None)):
    """Rows (S0, S1, S2) with S0 = I_a(t), S1 = I_a'(t), S2 = I_a''(t): an
    unscaled read-only clongdouble array over the float array t, its
    columns `rows`.

    Term-wise differentiated ascending series, accumulated in clongdouble
    with Kahan compensation; a point's sums and compensations freeze once
    its own stopping test passes, so a column does not depend on the rest
    of t.  The last two sums over all of t are kept, so K reuses the I_a
    that `bessel_I_derivatives` summed on the same t.
    """
    if np.any(t <= 0):
        raise ValueError("Bessel evaluator needs t > 0")
    return _kahan_triple_sums(complex(alpha),
                              np.asarray(t, float).tobytes())[:, rows]


@functools.lru_cache(maxsize=2)
def _kahan_triple_sums(alpha_c, t_bytes):
    t = np.frombuffer(t_bytes)
    if alpha_c.imag == 0.0 and alpha_c.real < 0 \
            and alpha_c.real == round(alpha_c.real):
        alpha_c = -alpha_c  # I_{-m} = I_m at exact integer order
    alpha = _CLD(alpha_c)
    tl = t.astype(_LD)
    half = tl / 2
    # leading term (t/2)^alpha / Gamma(alpha+1)
    term = np.exp(alpha * np.log(half.astype(_CLD))) / _gamma_ld(alpha + 1.0)
    sums = np.zeros((3,) + t.shape, _CLD)
    comps = np.zeros_like(sums)
    live = np.ones(t.shape, bool)
    q = half * half
    k = 0
    while k < _MAX_TERMS and live.any():
        mu = alpha + 2 * k
        # S1 is later divided by t, S2 by t^2
        y = np.array([term, mu * term, mu * (mu - 1.0) * term]) - comps
        s = sums + y
        comps = np.where(live, (s - sums) - y, comps)
        sums = np.where(live, s, sums)
        live &= ~((k > half) & (np.abs(term) < 1e-24 * (np.abs(sums[0])
                                                       + _LD("1e-300"))))
        k += 1
        term = term * q / (k * (alpha + k))
    sums[1] /= tl
    sums[2] /= tl * tl
    sums.flags.writeable = False
    return sums


def _k_triple_direct(alpha, t, rows):
    """K at the points `rows` of t by the reflection formula, no integer
    handling: unscaled clongdouble triple rows (the caller downcasts)."""
    alpha = _CLD(complex(alpha))
    im = _kahan_triple_series(-alpha, t, rows)
    ip = _kahan_triple_series(alpha, t, rows)
    return _PI_LD / 2 * (im - ip) / np.sin(alpha * _PI_LD)


def _k_asymptotic_scaled(alpha, t):
    """e^{+t} (K, K', K'') from the large-t expansion
    K_a(t) = sqrt(pi/2t) e^{-t} sum_j a_j t^{-j},
    a_j = a_{j-1} (4a^2 - (2j-1)^2) / (8j).

    With f(t) = sqrt(pi/2) sum_j a_j t^{-j-1/2} the scaled triple is
    (f, f' - f, f'' - 2 f' + f); used only past t = 12, where the
    optimally truncated series is far below double roundoff for the
    moderate orders this package traffics in.
    """
    alpha = complex(alpha)
    four_a2 = 4.0 * alpha * alpha
    pref = math.sqrt(math.pi / 2.0)
    a_j = 1.0 + 0j
    f, df, d2f = np.zeros((3,) + t.shape, complex)
    last = np.full(t.shape, math.inf)
    live = np.ones(t.shape, bool)
    for j in range(0, 60):
        if j > 0:
            a_j = a_j * (four_a2 - (2.0 * j - 1.0) ** 2) / (8.0 * j)
        p = -j - 0.5
        term = pref * a_j * t ** p
        size = np.abs(term)
        # a point whose series started diverging stops at its best term
        live &= ~(size > last)
        last = np.where(live, size, last)
        f = np.where(live, f + term, f)
        df = np.where(live, df + term * p / t, df)
        d2f = np.where(live, d2f + term * p * (p - 1.0) / (t * t), d2f)
        live &= ~(last < 1e-18 * np.abs(f))
        if not live.any():
            break
    return np.array([f, df - f, d2f - 2.0 * df + f])


_EULER_GAMMA = _LD("0.57721566490153286060651209008240243")


def _k_triple_int(m, t, rows):
    """Unscaled clongdouble (K, K', K'') rows at exact nonnegative integer
    order at the points `rows` of t.

    Ascending log-series: finite (t/2)^{-m} part, the log term ln(t/2) I_m
    (differentiated by product rule against the I triple), and the digamma
    tail.  No 1/sin(pi a) division, so the only cancellation left is the
    intrinsic e^{2t} depth of any ascending K evaluation.
    """
    m = int(m)
    i0, i1, i2 = _kahan_triple_series(m, t, rows)
    t = t[rows]
    tl = t.astype(_LD)
    half = tl / 2
    q = half * half
    sums = np.zeros((3,) + t.shape, _CLD)

    # finite part: (1/2) sum_{k<m} ((m-k-1)!/k!) (-q)^k (t/2)^{2k-m}
    if m > 0:
        term = _CLD(math.factorial(m - 1)) / 2 * half ** (-m)
        for k in range(m):
            mu = _LD(2 * k - m)
            sums = sums + np.array([term, mu * term, mu * (mu - 1.0) * term])
            if k < m - 1:
                term = term * (-q) / ((k + 1) * (m - k - 1))

    # digamma tail: (-1)^m (1/2)(t/2)^m sum_k (psi(k+1)+psi(m+k+1)) q^k
    #                                        / (k! (m+k)!)
    sign = -1.0 if m % 2 else 1.0
    w = _CLD(sign) / 2 * half ** m / _LD(math.factorial(m))
    p = -2 * _EULER_GAMMA + sum(_LD(1) / _LD(j) for j in range(1, m + 1))
    live = np.ones(t.shape, bool)
    k = 0
    while k < _MAX_TERMS and live.any():
        term, mu = w * p, _LD(m + 2 * k)
        sums = np.where(live, sums + np.array(
            [term, mu * term, mu * (mu - 1.0) * term]), sums)
        live &= ~((k > half) & (np.abs(w) * (abs(p) + 1.0) < 1e-26 * (
            np.abs(sums[0]) + _LD("1e-300"))))
        k += 1
        w = w * q / (k * (m + k))
        p = p + _LD(1) / _LD(k) + _LD(1) / _LD(m + k)
    sums[1] /= tl
    sums[2] /= tl * tl

    # log part: (-1)^{m+1} ln(t/2) I_m(t), product rule for the derivatives
    lg = np.log(half.astype(_CLD))
    return sums - sign * np.array([lg * i0, i0 / tl + lg * i1,
                                   -i0 / (tl * tl) + 2 * i1 / tl + lg * i2])


_K_ASYMPTOTIC_FROM = 12.0


def bessel_I_derivatives(alpha, t):
    """(I_a, I_a', I_a'', log_scale) over the float array t: three complex
    arrays and the signed exponent applied to them, -t past SCALE_THRESHOLD
    (values reported times e^{-t}) and 0 elsewhere."""
    t = np.asarray(t, float)
    scaled = t > SCALE_THRESHOLD
    f = np.where(scaled, np.exp(-t.astype(_LD)), 1)
    z, dz, d2z = (_kahan_triple_series(alpha, t) * f).astype(complex)
    return z, dz, d2z, np.where(scaled, -t, 0.0)


def bessel_K_derivatives(alpha, t):
    """(K_a, K_a', K_a'', log_scale) over the float array t: three complex
    arrays and the signed exponent applied to them, +t past SCALE_THRESHOLD
    (values reported times e^{+t}) and 0 elsewhere.  Near-integer orders go
    through the log-series.

    Past t = 12 any ascending evaluation has burned most of the extended
    precision (the cancellation is e^{-2t} deep), while the large-t
    expansion is already below 1e-9 for moderate orders, so the evaluator
    crosses over early for near-integer orders and once t beats 1.5|a|^2
    otherwise; very large orders at middling t stay on the reflection
    path, whose accuracy degrades outside that contracted (t, order) box.
    The ascending series runs only on the points left to it, but for the
    shared I sums (`_kahan_triple_series`).
    """
    alpha = complex(alpha)
    t = np.asarray(t, float)
    scaled = t > SCALE_THRESHOLD
    near = not abs(alpha.imag) > _INTEGER_MARGIN
    m = round(alpha.real) if near else None
    dist = abs(alpha - m) if near else math.inf
    asym = scaled | ((t > _K_ASYMPTOTIC_FROM)
                     & ((t > 1.5 * abs(alpha) ** 2) | (dist < _INTEGER_MARGIN)))
    out = np.empty((3,) + t.shape, complex)
    ta = t[asym]
    f = np.where(scaled[asym], 1.0, np.exp(-ta))
    out[:, asym] = _k_asymptotic_scaled(alpha, ta) * f
    rows = ~asym
    if dist >= _INTEGER_MARGIN:
        triple = _k_triple_direct(alpha, t, rows)
    else:
        # the reflection formula divides by sin(pi a), hopeless this close
        # to an integer; evaluate the integer-order log-series (K is even
        # in the order, so the nonnegative integer suffices)
        triple = _k_triple_int(abs(m), t, rows)
        if dist > 0:
            # shift back by a second-order Taylor step in the order;
            # both order-derivatives come from m +- h reflection evals
            # (far enough from the integer to be clean), leaving an
            # O(dist^3) remainder below the series noise floor.
            up2, dn2, up1, dn1 = (_k_triple_direct(m + d, t, rows)
                                  for d in (0.02, -0.02, 0.01, -0.01))
            coarse = (up2 - dn2) / 0.04
            fine = (up1 - dn1) / 0.02
            d1 = (4.0 * fine - coarse) / 3.0
            d2 = (up2 + dn2 - 2.0 * triple) / 0.02 ** 2
            shift = _CLD(alpha - m)
            triple = triple + shift * d1 + shift * shift / 2.0 * d2
    out[:, rows] = triple
    return out[0], out[1], out[2], np.where(scaled, t, 0.0)


@dataclass(frozen=True)
class ModelSolution:
    """One basis solution u(t) = t^p Z_order(t) of a model factor ODE."""

    factor_id: str           # 'L1' | 'L2' | 'L3'
    kind: str                # 'I' (grows) | 'K' (decays)
    prefactor_exponent: float
    order: complex
    params: dict

    def eval_with_derivatives(self, t):
        """(u, u', u'', log_scale) over the float array t: three complex
        arrays under the scaling convention of the Bessel factor, whose
        signed exponent is the fourth entry."""
        p = self.prefactor_exponent
        if self.kind == "I":
            z, dz, d2z, log_scale = bessel_I_derivatives(self.order, t)
        else:
            z, dz, d2z, log_scale = bessel_K_derivatives(self.order, t)
        tp = t ** p
        u = tp * z
        du = tp * (dz + p / t * z)
        d2u = tp * (d2z + 2.0 * p / t * dz + p * (p - 1.0) / t ** 2 * z)
        return u, du, d2u, log_scale


def _factor_params(factor_id, n=None, alpha=None):
    if factor_id == "L1":
        n = check_dimension(n)
        return {"b": -(n - 1.0), "c": -float(n), "scale": 1.0,
                "prefactor": (n - 1) / 2.0, "order": complex((n + 1) / 2.0),
                "n": n, "k_membership_delta": -0.5}
    if factor_id == "L2":
        n = check_dimension(n)
        beta = math.sqrt(n * n + 2.0 * n - 9.0) / 2.0
        return {"b": -(n - 1.0), "c": (n * n - 4.0) / 2.0, "scale": 1.0,
                "prefactor": (n - 1) / 2.0, "order": complex(0.0, beta),
                "n": n, "k_membership_delta": n / 2.0}
    if factor_id == "L3":
        if alpha is None:
            raise ValueError("L3 needs the alpha parameter")
        if alpha == -1:
            raise DegenerateOperatorError("alpha = -1 is degenerate")
        a = float(alpha)
        at = cmath.sqrt(complex(9.0 / 4.0 - 6.0 * a / (1.0 + a)))
        return {"b": -3.0, "c": 6.0 * a / (1.0 + a), "scale": 1.0 + a,
                "prefactor": 1.5, "order": at, "alpha": a,
                "k_membership_delta": 2.0 - at.real}
    raise ValueError("unknown factor id %r" % (factor_id,))


def model_solutions(factor_id, n=None, alpha=None):
    """The two-solution basis t^p {I, K} of a model factor, with asymptotic
    metadata: L1 has order (n+1)/2 (K-type ~ t^{-1}, I-type ~ t^n near 0),
    L2 order i sqrt(n^2+2n-9)/2, L3 order alpha~ on prefactor t^{3/2}.

    params carries the t^delta L^2 membership threshold of the K-type branch.
    """
    params = _factor_params(factor_id, n=n, alpha=alpha)
    mk = lambda kind: ModelSolution(
        factor_id=factor_id, kind=kind,
        prefactor_exponent=params["prefactor"], order=params["order"],
        params=dict(params))
    return [mk("I"), mk("K")]


def model_operator(factor_id, n=None, alpha=None):
    """Callable (t, u, u', u'') -> value of the model ODE applied to u.

    The factor with symbol s((t d/dt)) = (t d/dt)^2 + b (t d/dt) + c - t^2
    evaluates as t^2 u'' + (1+b) t u' + (c - t^2) u, times the family scale.
    """
    p = _factor_params(factor_id, n=n, alpha=alpha)
    b, c, scale = p["b"], p["c"], p["scale"]

    def apply(t, u, du, d2u):
        return scale * (t * t * d2u + (1.0 + b) * t * du + (c - t * t) * u)

    return apply


def model_residual(sol, t_window):
    """Scale-invariant sup residual of the model ODE at 200 points of a
    window, evaluated on the whole array at once.

    Pointwise |L u| is compared against |u| + |t u'| + |t^2 u''|, the natural
    size of the operator's ingredients, so oscillatory zeros of u do not
    blow the quotient up; points where u, u' and u'' all vanish are left
    out, so the zero function gets residual 0.
    """
    lo, hi = t_window
    op = model_operator(sol.factor_id, n=sol.params.get("n"),
                        alpha=sol.params.get("alpha"))
    ts = np.linspace(lo, hi, 200)
    u, du, d2u, _ = sol.eval_with_derivatives(ts)
    num = np.abs(op(ts, u, du, d2u))
    den = np.abs(u) + ts * np.abs(du) + ts * ts * np.abs(d2u)
    keep = den != 0.0
    return float(np.max(num[keep] / den[keep], initial=0.0))
