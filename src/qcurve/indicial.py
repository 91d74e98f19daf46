"""Indicial polynomials, boundary spectra and Fredholm weight windows.

Two operator families are covered: the linearized constant-Q-curvature
operator, whose indicial polynomial factors as

    (z^2 - (n-1) z - n)(z^2 - (n-1) z + (n^2-4)/2),

and the n = 4 determinant-functional family parametrized by alpha, with

    ((1+alpha)(z^2 - 3 z) + 6 alpha)(z^2 - 3 z - 4).

Roots are produced from the closed forms and cross-checked against a
companion-matrix eigenvalue oracle; a discrepancy beyond 1e-10 (1e-6 for
a root of a cluster: a double root splits by about sqrt(eps) in both
routes) aborts construction with RootCheckError, guarding the
hand-transcribed formulas.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import check_dimension

__all__ = [
    "IndicialPolynomial",
    "BoundarySpectrum",
    "q_indicial_polynomial",
    "q_indicial_spectrum",
    "u_indicial_polynomial",
    "u_indicial_spectrum",
]

_ROOT_GUARD = 1e-10
_CLUSTER_GUARD = 1e-6


class DegenerateOperatorError(ValueError):
    """The alpha = -1 family degenerates to second order."""


class RootCheckError(ArithmeticError):
    """A closed-form indicial root fails its companion-matrix or residual
    check: a numerical failure (CLI exit code 1)."""


@dataclass(frozen=True)
class IndicialPolynomial:
    """Product of monic quadratics q(z) = z^2 + b z + c (real b, c)."""

    factors: tuple[tuple[float, float], ...]
    leading: float = 1.0

    def __call__(self, z):
        out = complex(self.leading)
        for b, c in self.factors:
            out *= z * z + b * z + c
        return out

    def coefficients(self):
        """Quartic coefficients, highest degree first."""
        poly = np.array([self.leading], dtype=float)
        for b, c in self.factors:
            poly = np.convolve(poly, [1.0, b, c])
        return poly


@dataclass(frozen=True)
class BoundarySpectrum:
    """Indicial roots plus weight-window data for one operator family."""

    roots: tuple[complex, ...]
    lambda_set: tuple[float, ...]
    delta_bar: float
    delta_under: float
    oscillatory: tuple[bool, ...]
    log_terms_possible: bool
    polynomial: IndicialPolynomial
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "roots": [[z.real, z.imag] for z in self.roots],
            "lambda_set": list(self.lambda_set),
            "delta_bar": self.delta_bar,
            "delta_under": self.delta_under,
            "oscillatory": list(self.oscillatory),
            "log_terms_possible": self.log_terms_possible,
            **self.extras,
        }


def _sorted_roots(roots):
    return tuple(sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12))))


def _companion_check(poly, roots):
    oracle = _sorted_roots([complex(z) for z in np.roots(poly.coefficients())])
    roots = _sorted_roots(roots)
    for i, (a, b) in enumerate(zip(oracle, roots)):
        clustered = any(abs(z - b) < _CLUSTER_GUARD
                        for j, z in enumerate(roots) if j != i)
        if abs(a - b) > (_CLUSTER_GUARD if clustered else _ROOT_GUARD):
            raise RootCheckError(
                "closed-form root %s disagrees with companion-matrix oracle %s"
                % (b, a))
    for z in roots:
        if abs(poly(z)) > 1e-12 * max(1.0, abs(z) ** 4):
            raise RootCheckError("root %s fails polynomial residual" % (z,))


def _log_terms_flag(roots):
    """Integer differences or coincidences among decaying-side roots signal
    possible log(x) terms in boundary expansions.

    Only roots with positive real part participate: the growing branches
    never enter a decaying solution's expansion, so e.g. the universal pair
    (n, -1) of the Q-family must not trip the flag.
    """
    rs = [z for z in roots if z.real > 1e-9]
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            d = rs[i] - rs[j]
            if abs(d.imag) < 1e-12 and abs(d.real - round(d.real)) < 1e-9:
                return True
    return False


def _build(poly, roots, delta_bar, delta_under, extras):
    _companion_check(poly, roots)
    roots = _sorted_roots(roots)
    lam = tuple(sorted({round(0.5 + z.real, 12) for z in roots}))
    osc = tuple(abs(z.imag) > 1e-12 for z in roots)
    return BoundarySpectrum(
        roots=roots,
        lambda_set=lam,
        delta_bar=delta_bar,
        delta_under=delta_under,
        oscillatory=osc,
        log_terms_possible=_log_terms_flag(roots),
        polynomial=poly,
        extras=extras,
    )


def q_indicial_polynomial(n):
    n = check_dimension(n)
    return IndicialPolynomial(factors=(
        (-(n - 1.0), -float(n)),              # z^2 - (n-1) z - n
        (-(n - 1.0), (n * n - 4.0) / 2.0),    # z^2 - (n-1) z + (n^2-4)/2
    ))


def oscillation_parameter(n):
    """beta = sqrt(n^2 + 2n - 9)/2, the log-frequency of the kernel branch."""
    return math.sqrt(n * n + 2.0 * n - 9.0) / 2.0


def q_indicial_spectrum(n):
    """Boundary spectrum {n, -1, (n-1)/2 +- i beta} of the linearized
    Q-curvature operator, with delta_bar = delta_under = n/2.

    The Hoelder weight is nu = delta - 1/2; the operator stays essentially
    surjective for 0 < nu < (n-1)/2, recorded in `extras`.
    """
    n = check_dimension(n)
    poly = q_indicial_polynomial(n)
    beta = oscillation_parameter(n)
    roots = [complex(n), complex(-1.0),
             complex((n - 1) / 2.0, beta), complex((n - 1) / 2.0, -beta)]
    extras = {
        "beta": beta,
        "nu_surjective": [0.0, (n - 1) / 2.0],
        "family": "q",
        "n": n,
    }
    return _build(poly, roots, n / 2.0, n / 2.0, extras)


def u_indicial_polynomial(alpha):
    if alpha == -1:
        raise DegenerateOperatorError(
            "alpha = -1 degenerates the fourth-order family")
    a = float(alpha)
    return IndicialPolynomial(
        factors=((-3.0, 6.0 * a / (1.0 + a)), (-3.0, -4.0)),
        leading=1.0 + a,
    )


def u_indicial_spectrum(alpha):
    """Boundary spectrum {4, -1, 3/2 +- alpha~} of the determinant-family
    linearization, with alpha~^2 = 9/4 - 6 alpha/(1+alpha).

    Real alpha~ gives delta_bar = max(-1/2, 2 - alpha~) and
    delta_under = min(9/2, 2 + alpha~); purely imaginary alpha~ (the
    oscillatory regime) reproduces the self-adjoint Q-type window
    delta_bar = delta_under = 2.
    """
    if alpha == -1:
        raise DegenerateOperatorError(
            "alpha = -1 degenerates the fourth-order family")
    a = float(alpha)
    poly = u_indicial_polynomial(a)
    at_sq = 9.0 / 4.0 - 6.0 * a / (1.0 + a)
    at = cmath.sqrt(complex(at_sq))
    roots = [complex(4.0), complex(-1.0), 1.5 + at, 1.5 - at]
    if at_sq >= 0:
        delta_bar = max(-0.5, 2.0 - at.real)
        delta_under = min(4.5, 2.0 + at.real)
    else:
        delta_bar = delta_under = 2.0
    extras = {
        "alpha": a,
        "alpha_tilde_sq": at_sq,
        "family": "u",
    }
    return _build(poly, roots, delta_bar, delta_under, extras)
