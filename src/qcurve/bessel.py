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

Beyond t = 30 every value carries an explicit exponential scaling flag
(I-types reported times e^{-t}, K-types times e^{+t}) to stay inside double
range; all residual checks are scale-invariant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .geometry import check_dimension
from .indicial import DegenerateOperatorError

__all__ = [
    "BesselValue",
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


class BesselValue(complex):
    """A complex value with an exponential-scaling annotation.

    scaled=False: the plain function value.  scaled=True: the value has been
    multiplied by e^{-t} (I-type) or e^{+t} (K-type) to stay in range; the
    signed exponent actually applied is in log_scale.
    """

    def __new__(cls, value, scaled=False, log_scale=0.0):
        self = complex.__new__(cls, value)
        self.scaled = scaled
        self.log_scale = float(log_scale)
        return self


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


def _kahan_triple_series(alpha, t):
    """(S0, S1, S2) with S0 = I_a(t), S1 = I_a'(t), S2 = I_a''(t), unscaled.

    Term-wise differentiated ascending series, accumulated in clongdouble
    with Kahan compensation.
    """
    alpha_c = complex(alpha)
    t = float(t)
    if t <= 0:
        raise ValueError("Bessel evaluator needs t > 0")
    if alpha_c.imag == 0.0 and alpha_c.real < 0 \
            and alpha_c.real == round(alpha_c.real):
        alpha_c = -alpha_c  # I_{-m} = I_m at exact integer order
    alpha = _CLD(alpha_c)
    tl = _LD(t)
    half = tl / 2
    # leading term (t/2)^alpha / Gamma(alpha+1)
    term = np.exp(alpha * np.log(_CLD(half))) / _gamma_ld(alpha + 1.0)
    zero = _CLD(0)
    sums = [zero, zero, zero]
    comps = [zero, zero, zero]

    def add(idx, val):
        y = val - comps[idx]
        s = sums[idx] + y
        comps[idx] = (s - sums[idx]) - y
        sums[idx] = s

    q = half * half
    k = 0
    while k < _MAX_TERMS:
        mu = alpha + 2 * k
        add(0, term)
        add(1, mu * term)               # later divided by t
        add(2, mu * (mu - 1.0) * term)  # later divided by t^2
        size = abs(term)
        if k > half and size < 1e-24 * (abs(sums[0]) + _LD("1e-300")):
            break
        k += 1
        term = term * q / (k * (alpha + k))
    s0 = sums[0]
    s1 = sums[1] / tl
    s2 = sums[2] / (tl * tl)
    return s0, s1, s2


def _i_triple(alpha, t):
    """I and derivatives with the scaling convention applied."""
    s0, s1, s2 = _kahan_triple_series(alpha, t)
    if t > SCALE_THRESHOLD:
        f = np.exp(-_LD(t))
        return (complex(s0 * f), complex(s1 * f), complex(s2 * f)), True, -t
    return (complex(s0), complex(s1), complex(s2)), False, 0.0


def _k_triple_direct(alpha, t):
    """K via the reflection formula, no integer handling, unscaled triple
    in clongdouble (the caller downcasts)."""
    alpha = _CLD(complex(alpha))
    im = _kahan_triple_series(-alpha, t)
    ip = _kahan_triple_series(alpha, t)
    s = np.sin(alpha * _PI_LD)
    pref = _PI_LD / 2
    return tuple(pref * (a - b) / s for a, b in zip(im, ip))


def _k_asymptotic_scaled(alpha, t):
    """e^{+t} (K, K', K'') from the large-t expansion
    K_a(t) = sqrt(pi/2t) e^{-t} sum_j a_j t^{-j},
    a_j = a_{j-1} (4a^2 - (2j-1)^2) / (8j).

    With f(t) = sqrt(pi/2) sum_j a_j t^{-j-1/2} the scaled triple is
    (f, f' - f, f'' - 2 f' + f); used only past the scaling threshold,
    where the optimally truncated series is far below double roundoff
    for the moderate orders this package traffics in.
    """
    alpha = complex(alpha)
    four_a2 = 4.0 * alpha * alpha
    pref = math.sqrt(math.pi / 2.0)
    a_j = 1.0 + 0j
    f = df = d2f = 0j
    last = math.inf
    for j in range(0, 60):
        if j > 0:
            a_j = a_j * (four_a2 - (2.0 * j - 1.0) ** 2) / (8.0 * j)
        p = -j - 0.5
        term = pref * a_j * t ** p
        if abs(term) > last:
            break  # asymptotic series started diverging; stop at best term
        last = abs(term)
        f += term
        df += term * p / t
        d2f += term * p * (p - 1.0) / (t * t)
        if last < 1e-18 * abs(f):
            break
    return (f, df - f, d2f - 2.0 * df + f)


_EULER_GAMMA = _LD("0.57721566490153286060651209008240243")


def _k_triple_int(m, t):
    """Unscaled clongdouble (K, K', K'') at exact nonnegative integer order.

    Ascending log-series: finite (t/2)^{-m} part, the log term ln(t/2) I_m
    (differentiated by product rule against the I triple), and the digamma
    tail.  No 1/sin(pi a) division, so the only cancellation left is the
    intrinsic e^{2t} depth of any ascending K evaluation.
    """
    m = int(m)
    tl = _LD(t)
    half = tl / 2
    q = half * half
    s0 = s1 = s2 = _CLD(0)

    def add(term, mu):
        nonlocal s0, s1, s2
        s0 = s0 + term
        s1 = s1 + mu * term
        s2 = s2 + mu * (mu - 1.0) * term

    # finite part: (1/2) sum_{k<m} ((m-k-1)!/k!) (-q)^k (t/2)^{2k-m}
    if m > 0:
        term = _CLD(math.factorial(m - 1)) / 2 * half ** (-m)
        for k in range(m):
            add(term, _LD(2 * k - m))
            if k < m - 1:
                term = term * (-q) / ((k + 1) * (m - k - 1))

    # digamma tail: (-1)^m (1/2)(t/2)^m sum_k (psi(k+1)+psi(m+k+1)) q^k
    #                                        / (k! (m+k)!)
    sign = -1.0 if m % 2 else 1.0
    w = _CLD(sign) / 2 * half ** m / _LD(math.factorial(m))
    p = -2 * _EULER_GAMMA + sum(_LD(1) / _LD(j) for j in range(1, m + 1))
    k = 0
    while k < _MAX_TERMS:
        add(w * p, _LD(m + 2 * k))
        if k > half and abs(w) * (abs(p) + 1.0) < 1e-26 * (abs(s0) + _LD("1e-300")):
            break
        k += 1
        w = w * q / (k * (m + k))
        p = p + _LD(1) / _LD(k) + _LD(1) / _LD(m + k)
    s1 = s1 / tl
    s2 = s2 / (tl * tl)

    # log part: (-1)^{m+1} ln(t/2) I_m(t), product rule for the derivatives
    i0, i1, i2 = _kahan_triple_series(m, t)
    lg = np.log(_CLD(half))
    eps = -sign
    s0 = s0 + eps * lg * i0
    s1 = s1 + eps * (i0 / tl + lg * i1)
    s2 = s2 + eps * (-i0 / (tl * tl) + 2 * i1 / tl + lg * i2)
    return s0, s1, s2


def _nearest_integer_distance(alpha):
    alpha = complex(alpha)
    if abs(alpha.imag) > _INTEGER_MARGIN:
        return math.inf, None
    m = round(alpha.real)
    return abs(alpha - m), m


_K_ASYMPTOTIC_FROM = 12.0


def _k_triple(alpha, t):
    """K and derivatives; near-integer orders through the log-series.

    Past t = 12 any ascending evaluation has burned most of the extended
    precision (the cancellation is e^{-2t} deep), while the large-t
    expansion is already below 1e-9 for moderate orders, so the evaluator
    crosses over early for near-integer orders and once t beats 1.5|a|^2
    otherwise; very large orders at middling t stay on the reflection
    path, whose accuracy degrades outside that contracted (t, order) box.
    """
    alpha = complex(alpha)
    if t > SCALE_THRESHOLD:
        return _k_asymptotic_scaled(alpha, t), True, t
    dist, m = _nearest_integer_distance(alpha)
    if t > _K_ASYMPTOTIC_FROM and (t > 1.5 * abs(alpha) ** 2
                                   or dist < _INTEGER_MARGIN):
        triple = _k_asymptotic_scaled(alpha, t)
        f = math.exp(-t)
        return tuple(v * f for v in triple), False, 0.0
    if dist >= _INTEGER_MARGIN:
        triple = _k_triple_direct(alpha, t)
    else:
        # the reflection formula divides by sin(pi a), hopeless this close
        # to an integer; evaluate the integer-order log-series (K is even
        # in the order, so the nonnegative integer suffices)
        triple = _k_triple_int(abs(m), t)
        if dist > 0:
            # shift back by a second-order Taylor step in the order;
            # both order-derivatives come from m +- h reflection evals
            # (far enough from the integer to be clean), leaving an
            # O(dist^3) remainder below the series noise floor.
            evals = {h: (_k_triple_direct(m + h, t),
                         _k_triple_direct(m - h, t))
                     for h in (0.02, 0.01)}

            def secant(h):
                up, dn = evals[h]
                return [(a - b) / (2.0 * h) for a, b in zip(up, dn)]

            coarse, fine = secant(0.02), secant(0.01)
            d1 = [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]
            up, dn = evals[0.02]
            d2 = [(a + b - 2.0 * v) / 0.02 ** 2
                  for a, b, v in zip(up, dn, triple)]
            shift = _CLD(alpha - m)
            triple = tuple(v + shift * a + shift * shift / 2.0 * b
                           for v, a, b in zip(triple, d1, d2))
    return tuple(complex(v) for v in triple), False, 0.0


def bessel_I_derivatives(alpha, t):
    """(I, I', I'') as BesselValues sharing one scaling flag."""
    triple, scaled, ls = _i_triple(alpha, t)
    return tuple(BesselValue(v, scaled, ls) for v in triple)


def bessel_K_derivatives(alpha, t):
    triple, scaled, ls = _k_triple(alpha, t)
    return tuple(BesselValue(v, scaled, ls) for v in triple)


@dataclass(frozen=True)
class ModelSolution:
    """One basis solution u(t) = t^p Z_order(t) of a model factor ODE."""

    factor_id: str           # 'L1' | 'L2' | 'L3'
    kind: str                # 'I' (grows) | 'K' (decays)
    prefactor_exponent: float
    order: complex
    params: dict

    def eval_with_derivatives(self, t):
        """(u, u', u'') at a single t, with the shared scaling convention."""
        p = self.prefactor_exponent
        if self.kind == "I":
            z, dz, d2z = bessel_I_derivatives(self.order, t)
        else:
            z, dz, d2z = bessel_K_derivatives(self.order, t)
        tp = t ** p
        u = tp * complex(z)
        du = tp * (complex(dz) + p / t * complex(z))
        d2u = tp * (complex(d2z) + 2.0 * p / t * complex(dz)
                    + p * (p - 1.0) / t ** 2 * complex(z))
        scaled = z.scaled
        ls = z.log_scale
        return (BesselValue(u, scaled, ls), BesselValue(du, scaled, ls),
                BesselValue(d2u, scaled, ls))

    def __call__(self, t):
        return self.eval_with_derivatives(t)[0]


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
    window.

    Pointwise |L u| is compared against |u| + |t u'| + |t^2 u''|, the natural
    size of the operator's ingredients, so oscillatory zeros of u do not
    blow the quotient up; the zero function gets residual 0 by convention.
    """
    lo, hi = t_window
    op = model_operator(sol.factor_id, n=sol.params.get("n"),
                        alpha=sol.params.get("alpha"))
    ts = np.linspace(lo, hi, 200)
    worst = 0.0
    for t in ts:
        u, du, d2u = sol.eval_with_derivatives(float(t))
        num = abs(op(float(t), complex(u), complex(du), complex(d2u)))
        den = abs(u) + t * abs(du) + t * t * abs(d2u)
        if den == 0.0:
            continue
        worst = max(worst, num / den)
    return worst
