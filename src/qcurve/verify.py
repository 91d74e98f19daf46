"""Self-checks of the layers the constructions rest on: the modified
Bessel model layer, the conformal covariance of the Paneitz operator, and
the scalar-curvature asymptotics of the constant-Q family.  Each returns a
report dict whose `passed` entry is its verdict.
"""

from __future__ import annotations

import math

import numpy as np

from .bessel import (bessel_I_derivatives, bessel_K_derivatives,
                     model_residual, model_solutions)
from .expansion import (scalar_asymptotic_coefficient,
                        scalar_linearization_coefficient)
from .geometry import paneitz_conformal_values, paneitz_values
from .grid import RadialGrid
from .nonlinear import IterationConfig, constant_q_problem, fixed_point_solve

__all__ = [
    "verify_bessel",
    "verify_covariance",
    "verify_asymptotics",
    "covariance_pair",
    "covariance_residual",
]


def verify_bessel(n):
    """Model residuals of the three Bessel factors (L1, L2 of dimension n,
    L3 at alpha = -7/16) on t in [0.2, 8], the worst Wronskian defect at 40
    points there, and the extreme log-magnitude slopes of I and K on
    [5, 20]; passed when residuals and defect are below 1e-8, the I-slope
    above 0.5 and the K-slope below -0.5."""
    window = (0.2, 8.0)
    factors = (("L1", {"n": n}), ("L2", {"n": n}),
               ("L3", {"alpha": -7.0 / 16.0}))
    out = {"window": list(window), "factors": {}}
    for fid, kw in factors:
        sols = model_solutions(fid, **kw)
        res = {s.kind: model_residual(s, window) for s in sols}
        order = sols[0].order
        # Wronskian of the modified Bessel pair: I K' - I' K = -1/t
        ts = np.linspace(window[0], window[1], 40)
        i0, i1, _, _ = bessel_I_derivatives(order, ts)
        k0, k1, _, _ = bessel_K_derivatives(order, ts)
        worst_w = float(np.abs(i0 * k1 - i1 * k0 + 1.0 / ts).max())
        # exponential dichotomy on [5, 20]: log-magnitude slope of the
        # I-branch stays positive, of the K-branch negative
        ts = np.linspace(5.0, 20.0, 31)
        vi, _, _, ls_i = bessel_I_derivatives(order, ts)
        vk, _, _, ls_k = bessel_K_derivatives(order, ts)
        si = np.diff(np.log(np.abs(vi)) + ls_i) / np.diff(ts)
        sk = np.diff(np.log(np.abs(vk)) - ls_k) / np.diff(ts)
        out["factors"][fid] = {
            "order": [order.real, order.imag],
            "residual_I": res["I"],
            "residual_K": res["K"],
            "wronskian_defect": worst_w,
            "dichotomy_I_min_slope": float(si.min()),
            "dichotomy_K_max_slope": float(sk.max()),
        }
    out["passed"] = all(f["residual_I"] < 1e-8 and f["residual_K"] < 1e-8
                        and f["wronskian_defect"] < 1e-8
                        and f["dichotomy_I_min_slope"] > 0.5
                        and f["dichotomy_K_max_slope"] < -0.5
                        for f in out["factors"].values())
    return out


def covariance_residual(grid, n, w_vals, phi_vals):
    """Relative defect of the Paneitz conformal-covariance law for the
    radial metric e^{2w} g against the warped-product evaluation, on
    [1, r_max - 1]."""
    # extended precision: the warped-product curvature chain amplifies
    # double-rounding noise by 1/h^4, which would bury the h^4 truncation
    # error this check is supposed to watch
    w_vals = np.asarray(w_vals).astype(np.longdouble)
    phi_vals = np.asarray(phi_vals).astype(np.longdouble)
    lhs = paneitz_conformal_values(phi_vals, w_vals, grid, n)
    s = 0.5 * (n - 4.0)
    lifted = np.exp(s * w_vals) * phi_vals
    rhs = np.exp(-(s + 4.0) * w_vals) * paneitz_values(lifted, grid, n)
    mask = grid.window_mask(1.0, grid.r_max - 1.0)
    num = np.abs(np.asarray(lhs - rhs, float)[mask]).max()
    den = (np.abs(np.asarray(lhs, float)[mask])
           + np.abs(np.asarray(rhs, float)[mask])).max()
    return num / den if den > 0 else 0.0


def covariance_pair(grid, cw, cp):
    """Smooth even (w, phi) profiles decaying like x^2, from even
    polynomial coefficients in tanh^2 r.

    The cosine factors keep the sixth-derivative scale large enough that
    the h^4 truncation error of the covariance defect sits well above the
    rounding floor on 2048-point grids; without them the refinement ratio
    is noise."""
    r = grid.r.astype(float)
    rho = np.tanh(r) ** 2
    env = 1.0 / np.cosh(r) ** 2
    w = 0.3 * (cw[0] + cw[1] * rho + cw[2] * rho ** 2) * np.cos(3.0 * r) * env
    phi = (cp[0] + cp[1] * rho + cp[2] * rho ** 2) * np.cos(5.0 * r) * env
    return w, phi


# the (w, phi) coefficients of `verify_covariance`, rows of (cw, cp): the
# draw np.random.default_rng(20260823).uniform(-1, 1, (10, 2, 3)), kept as
# numbers so that the check loads no random-number generator
_COVARIANCE_COEFFS = (
    -0.9175146655806534, -0.6496781143276384, -0.5145652030945886,
    -0.0659154876775685, 0.9282538513354992, -0.6522639555049929,
    0.5984281422432969, -0.4056825448265664, 0.6537635396034382,
    0.7669251639274433, 0.3096331592659973, 0.9488786696317197,
    -0.20955935831106465, -0.3944651237995247, 0.8307816252918871,
    -0.16234122763113645, 0.8410485455834356, -0.7758847057867753,
    -0.5110214484604645, -0.2980788858565748, 0.0354421123819173,
    0.7321549008203663, -0.9633818766178528, -0.4758786558143795,
    0.29711139240911133, -0.6696369603820382, 0.656108979504177,
    -0.8570820824901944, 0.009527945364862012, -0.7035232982419788,
    0.5813292937312451, 0.7774170322722227, -0.728921803561754,
    -0.9173445959769357, -0.29998531579489707, 0.05340988000268054,
    -0.8813250956511598, -0.6830148251686534, 0.17923749948611944,
    0.9026472799454002, 0.541702617963499, -0.9811016633481253,
    0.5591244856909883, -0.48623897529151217, -0.6528673502220652,
    -0.7532723751614809, 0.9843336219414862, -0.41341650878732916,
    0.5269592566624988, -0.18977750872514787, 0.5630945649916215,
    0.1796194756562537, 0.6426626186635391, -0.7979920253299531,
    0.08689273419908061, 0.09829565026852793, 0.5822775066965586,
    0.4589643032414894, 0.9444034613712731, 0.31326656603556025,
)


def verify_covariance(n, r_max):
    """Covariance defects of ten seeded (w, phi) pairs at 2048 and 4096
    points on [0, r_max]; passed when every refinement ratio is at least
    3.5, the h^4 truncation error (ratio 16) rather than rounding."""
    coarse = RadialGrid(r_max, 2048)
    fine = RadialGrid(r_max, 4096)
    coeffs = np.reshape(_COVARIANCE_COEFFS, (10, 2, 3))
    entries = []
    for cw, cp in coeffs:
        res = [covariance_residual(g, n, *covariance_pair(g, cw, cp))
               for g in (coarse, fine)]
        ratio = res[0] / res[1] if res[1] > 0 else math.inf
        entries.append({"residual_coarse": res[0], "residual_fine": res[1],
                        "ratio": ratio})
    min_ratio = min(e["ratio"] for e in entries)
    return {"n": n, "pairs": entries, "min_ratio": min_ratio,
            "passed": min_ratio >= 3.5}


def verify_asymptotics(r_max, points):
    """The scalar-curvature coefficient measured on the amplitude-1e-3
    constant-Q solution against `scalar_linearization_coefficient`, for
    n = 4, 5, 6 on min(points, 2048) points; passed when every solve
    converges and every coefficient is within 1%."""
    entries = {}
    for n in (4, 5, 6):
        machinery, target = constant_q_problem(n, r_max, min(points, 2048))
        rep, u = fixed_point_solve(1e-3, target, IterationConfig(), machinery)
        entry = {"converged": rep.converged,
                 "analytic": scalar_linearization_coefficient(n)}
        # the x^{(n-1)/2} decay leaves no curvature signal past r ~ 7 for
        # n = 6, so the extrapolation windows move inward with n
        window = None if n < 6 else (4.5, 6.5)
        try:
            entry["measured"] = scalar_asymptotic_coefficient(
                u, n, base_window=window)
        except Exception as exc:
            entry["measured"] = math.nan
            entry["error"] = str(exc)
        entries["n%d" % n] = entry
    ok = all(e["converged"] and e["measured"] == e["measured"]
             and abs(e["measured"] - e["analytic"])
             <= 0.01 * abs(e["analytic"])
             for e in entries.values())
    return {"cases": entries, "passed": ok}
