"""Command-line runner: configuration, dispatch, deterministic reports.

Commands
--------
indicial   boundary spectrum of the linearized operator (Q or U family)
kernel     series kernel element with its leading-order fit
solve      constant / prescribed Q-curvature fixed-point solve
sweep      family of solves over several kernel amplitudes
ucurve     constant U-curvature solve for a determinant preset
expand     boundary-expansion diagnostics of a solved metric
verify     self-checks: bessel | covariance | asymptotics

Exit codes: 0 success, 1 solver non-convergence (the diverged report is
still written), 2 configuration error.  Reports are serialized with sorted
keys and fixed float formatting so identical configs give byte-identical
files; the default output directory comes from $QCURVE_OUT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .bessel import (bessel_I_derivatives, bessel_K_derivatives,
                     model_residual, model_solutions)
from .expansion import (fit_leading, scalar_asymptotic_coefficient,
                        scalar_linearization_coefficient, weighted_norm)
from .geometry import (ConformalFactor, hyperbolic_curvature_report,
                       paneitz_conformal_values, paneitz_values,
                       q_of_conformal, scalar_of_conformal)
from .grid import RadialFunction, RadialGrid
from .linear import WindowError, kernel_element
from .nonlinear import (IterationConfig, TargetCurvature, build_machinery,
                        fixed_point_solve, guarded_solve, sweep_family)
from .ucurve import (DetParams, u_curvature_conformal, u_fixed_point_solve,
                     u_kernel_element)
from .indicial import (DegenerateOperatorError, q_indicial_spectrum,
                       u_indicial_spectrum)

__all__ = ["main", "parse_config", "execute", "write_report", "ConfigError"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration

_COMMON_KEYS = ("r_max", "points", "format", "out")
_ALLOWED_KEYS = {
    "indicial": _COMMON_KEYS + ("n", "alpha"),
    "kernel": _COMMON_KEYS + ("n", "preset", "gamma", "amplitude"),
    "solve": _COMMON_KEYS + ("n", "amplitude", "epsilon", "tol", "max_iter",
                             "target"),
    "sweep": _COMMON_KEYS + ("n", "amplitudes", "epsilon", "tol", "max_iter",
                             "workers"),
    "ucurve": _COMMON_KEYS + ("preset", "gamma", "amplitude", "epsilon",
                              "tol", "max_iter"),
    "expand": _COMMON_KEYS + ("n", "amplitude", "epsilon", "tol", "max_iter"),
    "verify": _COMMON_KEYS + ("check", "n"),
}

_DEFAULTS = {
    "n": 5,
    "r_max": 12.0,
    "points": 4096,
    "format": "json",
    "amplitude": 1e-3,
    "epsilon": 1e-3,
    "tol": 1e-10,
    "max_iter": 50,
    "amplitudes": (5e-4, -5e-4, 1e-3, -1e-3),
    "workers": 4,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully defaulted configuration for one command."""

    command: str
    options: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.options[name]
        except KeyError:
            raise AttributeError(name)

    def get(self, name, default=None):
        return self.options.get(name, default)


def _parse_floats(text, count=None, what="list"):
    try:
        vals = tuple(float(p) for p in str(text).split(","))
    except ValueError:
        raise ConfigError("could not parse %s %r as comma-separated floats"
                          % (what, text))
    if count is not None and len(vals) != count:
        raise ConfigError("%s needs exactly %d comma-separated values, got %r"
                          % (what, count, text))
    _check_finite(what, vals)
    return vals


def _check_finite(key, values):
    # NaN and +-inf slip through every `<= 0` range check
    if not all(math.isfinite(v) for v in values
               if isinstance(v, (int, float))):
        raise ConfigError("%s must be finite, got %r" % (key, values))


def _build_parser():
    p = argparse.ArgumentParser(
        prog="qcurve",
        description="Constant Q- and U-curvature conformal metrics on the "
                    "ball: solvers, kernels, and verification reports.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--r-max", type=float, default=None, dest="r_max")
        sp.add_argument("--points", type=int, default=None)
        sp.add_argument("--format", choices=("json", "csv"), default=None)
        sp.add_argument("--out", default=None,
                        help="output directory (default: $QCURVE_OUT or .)")
        sp.add_argument("--config", default=None,
                        help="JSON file with option overrides")

    sp = sub.add_parser("indicial", help="boundary spectrum")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    common(sp)

    sp = sub.add_parser("kernel", help="series kernel element")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--preset", default=None)
    sp.add_argument("--gamma", default=None, metavar="G1,G2,G3")
    sp.add_argument("--amplitude", type=float, default=None)
    common(sp)

    sp = sub.add_parser("solve", help="constant Q-curvature solve")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--amplitude", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    sp.add_argument("--target", type=float, default=None,
                    help="constant target curvature (default: hyperbolic Q)")
    common(sp)

    sp = sub.add_parser("sweep", help="family of solves over amplitudes")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--amplitudes", default=None, metavar="A1,A2,...")
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    sp.add_argument("--workers", type=int, default=None,
                    help="accepted and validated; sweeps run serially")
    common(sp)

    sp = sub.add_parser("ucurve", help="constant U-curvature solve")
    sp.add_argument("--preset", default=None,
                    help="determinant preset tag")
    sp.add_argument("--gamma", default=None, metavar="G1,G2,G3")
    sp.add_argument("--amplitude", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    common(sp)

    sp = sub.add_parser("expand", help="boundary-expansion diagnostics")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--amplitude", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    common(sp)

    sp = sub.add_parser("verify", help="self-checks")
    sp.add_argument("check", choices=("bessel", "covariance", "asymptotics"))
    sp.add_argument("--n", type=int, default=None)
    common(sp)

    return p


_PRESET_ALIASES = {
    "A": "conformal_laplacian",
    "D2": "spin_laplacian",
    "P": "paneitz",
    "conformal_laplacian": "conformal_laplacian",
    "spin_laplacian": "spin_laplacian",
    "paneitz": "paneitz",
}


def parse_config(argv):
    """argv (without the program name) -> validated RunConfig.

    Option precedence: command-line flag > --config file entry > default.
    Unknown config-file keys are rejected.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    command = ns.command
    allowed = _ALLOWED_KEYS[command]

    file_opts = {}
    if getattr(ns, "config", None):
        try:
            with open(ns.config) as fh:
                file_opts = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config file %s: %s"
                              % (ns.config, exc))
        except json.JSONDecodeError as exc:
            raise ConfigError("malformed JSON in %s: %s" % (ns.config, exc))
        if not isinstance(file_opts, dict):
            raise ConfigError("config file %s must hold a JSON object"
                              % ns.config)
        cmd = file_opts.pop("command", command)
        if cmd != command:
            raise ConfigError("config file command %r does not match %r"
                              % (cmd, command))
        unknown = sorted(set(file_opts) - set(allowed))
        if unknown:
            raise ConfigError("unknown config keys for %s: %s"
                              % (command, ", ".join(unknown)))

    opts = {}
    for key in allowed:
        cli_val = getattr(ns, key, None)
        if cli_val is not None:
            opts[key] = cli_val
        elif key in file_opts:
            opts[key] = file_opts[key]
        elif key in _DEFAULTS:
            opts[key] = _DEFAULTS[key]
        else:
            opts[key] = None

    # family selection and numeric validation
    if command in ("kernel", "ucurve") or (command == "indicial"
                                           and opts.get("alpha") is not None):
        if opts.get("preset") is not None or opts.get("gamma") is not None:
            opts["params"] = _det_params(opts)
    if command == "ucurve" and "params" not in opts:
        raise ConfigError("ucurve needs --preset or --gamma")
    if command == "indicial" and opts.get("alpha") is not None:
        if opts["alpha"] == -1:
            raise ConfigError("alpha = -1 degenerates the operator family")
    elif "n" in opts and opts.get("n") is not None:
        if opts["n"] < 4:
            raise ConfigError("dimension must be ≥ 4")
    if opts.get("r_max", 1.0) <= 0:
        raise ConfigError("r_max must be positive")
    if opts.get("points", 16) < 16:
        raise ConfigError("need at least 16 grid points")
    for key in ("epsilon", "tol"):
        if key in allowed and opts[key] <= 0:
            raise ConfigError("%s must be positive" % key)
    if "max_iter" in allowed and opts["max_iter"] < 1:
        raise ConfigError("max_iter must be at least 1")
    if "workers" in allowed and opts["workers"] < 1:
        raise ConfigError("workers must be at least 1")
    if "amplitudes" in allowed and isinstance(opts["amplitudes"], str):
        opts["amplitudes"] = _parse_floats(opts["amplitudes"],
                                           what="amplitudes")
    for key in ("amplitude", "amplitudes", "epsilon", "tol", "r_max",
                "alpha", "target"):
        if opts.get(key) is not None:
            _check_finite(key, np.ravel(opts[key]))
    if opts.get("out") is None:
        opts["out"] = os.environ.get("QCURVE_OUT", ".")
    opts.pop("preset", None)
    opts.pop("gamma", None)
    return RunConfig(command=command, options=opts)


def _det_params(opts):
    preset = opts.get("preset")
    gamma = opts.get("gamma")
    if preset is not None and gamma is not None:
        raise ConfigError("give either --preset or --gamma, not both")
    if preset is not None:
        tag = _PRESET_ALIASES.get(preset)
        if tag is None:
            raise ConfigError("unknown preset %r (choose from %s)"
                              % (preset, ", ".join(sorted(set(
                                  _PRESET_ALIASES.values())))))
        params = DetParams.preset(tag)
    else:
        if isinstance(gamma, str):
            g1, g2, g3 = _parse_floats(gamma, count=3, what="gamma")
        else:
            try:
                g1, g2, g3 = (float(v) for v in gamma)
            except (TypeError, ValueError):
                raise ConfigError("gamma must be three numbers, got %r"
                                  % (gamma,))
        try:
            params = DetParams(g1, g2, g3)
        except ValueError as exc:
            raise ConfigError(str(exc))
    if params.alpha == -1:
        raise ConfigError("alpha = -1 degenerates the operator family")
    return params


# ---------------------------------------------------------------------------
# deterministic serialization

def _canonical(obj):
    """Recursively render an object as canonical JSON text.

    Keys sorted, floats through %.12e, NaN -> null, infinities as the
    strings "inf"/"-inf" (JSON has no number for them).
    """
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ", ".join('"%s": %s' % (k, _canonical(v)) for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return "[" + ", ".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return "null"
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return "%.12e" % v
    if isinstance(obj, complex):
        return _canonical([obj.real, obj.imag])
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def write_report(report, fmt, path):
    """Serialize a report dict (json) or a column table (csv) to `path`.

    The csv table is given as report = (header, columns).  Serialization is
    deterministic: identical inputs produce byte-identical files.
    """
    try:
        if fmt == "json":
            text = _canonical(report) + "\n"
        elif fmt == "csv":
            header, columns = report
            rows = ["%s" % ",".join(header)]
            length = len(columns[0])
            for i in range(length):
                rows.append(",".join("%.12e" % float(col[i])
                                     for col in columns))
            text = "\n".join(rows) + "\n"
        else:
            raise ValueError("unknown format %r" % fmt)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError("cannot write report to %s: %s" % (path, exc))


# ---------------------------------------------------------------------------
# command implementations: each returns (report_dict, profile_table | None,
# exit_code)

def _grid(cfg):
    return RadialGrid(cfg.r_max, cfg.points)


def _iteration_config(cfg):
    return IterationConfig(epsilon=cfg.epsilon, tol=cfg.tol,
                           max_iter=cfg.max_iter)


def _run_indicial(cfg):
    if cfg.get("alpha") is not None:
        spec = u_indicial_spectrum(cfg.alpha)
        report = {"family": "ucurve", "alpha": cfg.alpha, **spec.to_dict()}
    else:
        spec = q_indicial_spectrum(cfg.n)
        report = {"family": "qcurve", "n": cfg.n, **spec.to_dict()}
    return report, None, EXIT_OK


def _run_kernel(cfg):
    grid = _grid(cfg)
    if cfg.get("params") is not None:
        params = cfg.params
        try:
            k = u_kernel_element(params, grid, amplitude=cfg.amplitude)
        except WindowError as exc:
            report = {"family": "ucurve", "params": params.to_dict(),
                      "error": str(exc)}
            return report, None, EXIT_SOLVER
        report = {"family": "ucurve", "params": params.to_dict()}
    else:
        k = kernel_element(cfg.n, grid, amplitude=cfg.amplitude)
        report = {"family": "qcurve", "n": cfg.n}
    report.update({
        "amplitude": k.amplitude,
        "leading_fit": list(k.leading_fit),
        "diagnostics": dict(k.diagnostics),
        "window_r": list(k.window_r),
    })
    prof = k.profile
    table = (("r", "x", "value"),
             (grid.r.astype(float), grid.x.astype(float),
              np.asarray(prof.values, float)))
    return report, table, EXIT_OK


def _solve_profile_table(u, grid, n):
    factor = ConformalFactor(u, n)
    q = q_of_conformal(factor, grid)
    s = scalar_of_conformal(factor, grid)
    return (("r", "x", "u", "Q", "R"),
            (grid.r.astype(float), grid.x.astype(float),
             np.asarray(u.values, float), np.asarray(q.values, float),
             np.asarray(s.values, float)))


def _run_solve(cfg):
    grid = _grid(cfg)
    machinery = build_machinery(cfg.n, grid)
    target_value = (cfg.target if cfg.get("target") is not None
                    else hyperbolic_curvature_report(cfg.n).Q_hyp)
    target = TargetCurvature(target_value, cfg.n, grid=grid)
    report, u = guarded_solve(fixed_point_solve, cfg.amplitude, target,
                              _iteration_config(cfg), machinery)
    if u is None:
        return {"n": cfg.n, **report.to_dict()}, None, EXIT_SOLVER
    table = _solve_profile_table(u, grid, cfg.n)
    code = EXIT_OK if report.converged else EXIT_SOLVER
    return {"n": cfg.n, "target": float(target_value),
            **report.to_dict()}, table, code


def _run_sweep(cfg):
    grid = _grid(cfg)
    machinery = build_machinery(cfg.n, grid)
    target = TargetCurvature(hyperbolic_curvature_report(cfg.n).Q_hyp,
                             cfg.n, grid=grid)
    reports, solutions = sweep_family(cfg.amplitudes, target,
                                      _iteration_config(cfg), machinery)
    all_ok = all(rep.converged for rep in reports)
    report = {"n": cfg.n, "amplitudes": [float(a) for a in cfg.amplitudes],
              "entries": [rep.to_dict() for rep in reports]}
    header = ["r", "x"] + ["u%d" % i for i in range(len(reports))]
    cols = [grid.r.astype(float), grid.x.astype(float)]
    for u in solutions:
        cols.append(np.asarray(u.values, float) if u is not None
                    else np.full(grid.n_points, math.nan))
    return report, (tuple(header), tuple(cols)), (
        EXIT_OK if all_ok else EXIT_SOLVER)


def _run_ucurve(cfg):
    grid = _grid(cfg)
    params = cfg.params
    report, w = guarded_solve(u_fixed_point_solve, cfg.amplitude, params,
                              _iteration_config(cfg), grid)
    if w is None:
        return {"params": params.to_dict(), **report.to_dict()}, None, \
            EXIT_SOLVER
    u_vals = u_curvature_conformal(w, params)
    table = (("r", "x", "w", "U"),
             (grid.r.astype(float), grid.x.astype(float),
              np.asarray(w.values, float), np.asarray(u_vals.values, float)))
    code = EXIT_OK if report.converged else EXIT_SOLVER
    return {"params": params.to_dict(), **report.to_dict()}, table, code


def _run_expand(cfg):
    grid = _grid(cfg)
    machinery = build_machinery(cfg.n, grid)
    target = TargetCurvature(hyperbolic_curvature_report(cfg.n).Q_hyp,
                             cfg.n, grid=grid)
    report, u = guarded_solve(fixed_point_solve, cfg.amplitude, target,
                              _iteration_config(cfg), machinery)
    if not report.converged:
        return {"n": cfg.n, **report.to_dict()}, None, EXIT_SOLVER
    fit = fit_leading(u, cfg.n)
    nu_half = (cfg.n - 1) / 2.0
    norms = {"nu_sub": 0.9 * nu_half,
             "norm_sub": weighted_norm(u, 0.9 * nu_half),
             "nu_super": 1.1 * nu_half,
             "norm_super": weighted_norm(u, 1.1 * nu_half)}
    scalar = {"analytic": scalar_linearization_coefficient(cfg.n)}
    try:
        scalar["measured"] = scalar_asymptotic_coefficient(u, cfg.n)
    except Exception as exc:  # diagnostics should not kill the report
        scalar["measured"] = math.nan
        scalar["error"] = str(exc)
    out = {"n": cfg.n, "amplitude": float(cfg.amplitude),
           "expansion": fit.to_dict(), "weighted_norms": norms,
           "scalar_coefficient": scalar}
    table = (("r", "x", "u", "leading"),
             (grid.r.astype(float), grid.x.astype(float),
              np.asarray(u.values, float), fit.evaluate(grid)))
    return out, table, EXIT_OK


# ---------------------------------------------------------------------------
# verify sub-checks

def _verify_bessel(cfg):
    n = cfg.n
    window = (0.2, 8.0)
    factors = (("L1", {"n": n}), ("L2", {"n": n}),
               ("L3", {"alpha": -7.0 / 16.0}))
    out = {"window": list(window), "factors": {}}
    for fid, kw in factors:
        sols = model_solutions(fid, **kw)
        res = {s.kind: model_residual(s, window) for s in sols}
        order = sols[0].order
        # Wronskian of the modified Bessel pair: I K' - I' K = -1/t
        worst_w = 0.0
        for t in np.linspace(window[0], window[1], 40):
            t = float(t)
            i0, i1, _ = bessel_I_derivatives(order, t)
            k0, k1, _ = bessel_K_derivatives(order, t)
            wr = complex(i0) * complex(k1) - complex(i1) * complex(k0)
            worst_w = max(worst_w, abs(wr + 1.0 / t))
        # exponential dichotomy on [5, 20]: log-magnitude slope of the
        # I-branch stays positive, of the K-branch negative
        ts = np.linspace(5.0, 20.0, 31)
        li = [math.log(abs(bessel_I_derivatives(order, float(t))[0]))
              + bessel_I_derivatives(order, float(t))[0].log_scale
              for t in ts]
        lk = [math.log(abs(bessel_K_derivatives(order, float(t))[0]))
              - bessel_K_derivatives(order, float(t))[0].log_scale
              for t in ts]
        si = np.diff(li) / np.diff(ts)
        sk = np.diff(lk) / np.diff(ts)
        out["factors"][fid] = {
            "order": [order.real, order.imag],
            "residual_I": res["I"],
            "residual_K": res["K"],
            "wronskian_defect": worst_w,
            "dichotomy_I_min_slope": float(si.min()),
            "dichotomy_K_max_slope": float(sk.max()),
        }
    ok = all(f["residual_I"] < 1e-8 and f["residual_K"] < 1e-8
             and f["wronskian_defect"] < 1e-8
             and f["dichotomy_I_min_slope"] > 0.5
             and f["dichotomy_K_max_slope"] < -0.5
             for f in out["factors"].values())
    out["passed"] = ok
    return out, None, EXIT_OK if ok else EXIT_SOLVER


def covariance_residual(grid, n, w_vals, phi_vals, window=(1.0, None)):
    """Relative defect of the Paneitz conformal-covariance law for the
    radial metric e^{2w} g against the warped-product evaluation."""
    r_lo, r_hi = window
    if r_hi is None:
        r_hi = grid.r_max - 1.0
    # extended precision: the warped-product curvature chain amplifies
    # double-rounding noise by 1/h^4, which would bury the h^4 truncation
    # error this check is supposed to watch
    w_vals = np.asarray(w_vals).astype(np.longdouble)
    phi_vals = np.asarray(phi_vals).astype(np.longdouble)
    lhs = paneitz_conformal_values(phi_vals, w_vals, grid, n)
    s = 0.5 * (n - 4.0)
    lifted = np.exp(s * w_vals) * phi_vals
    rhs = np.exp(-(s + 4.0) * w_vals) * paneitz_values(lifted, grid, n)
    mask = grid.window_mask(r_lo, r_hi)
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


def _verify_covariance(cfg):
    n = cfg.n
    coarse = RadialGrid(cfg.r_max, 2048)
    fine = RadialGrid(cfg.r_max, 4096)
    coeffs = np.random.default_rng(20260823).uniform(-1.0, 1.0, (10, 2, 3))
    ratios = []
    entries = []
    for cw, cp in coeffs:
        per_grid = []
        for grid in (coarse, fine):
            w, phi = covariance_pair(grid, cw, cp)
            per_grid.append(covariance_residual(grid, n, w, phi))
        ratio = per_grid[0] / per_grid[1] if per_grid[1] > 0 else math.inf
        ratios.append(ratio)
        entries.append({"residual_coarse": per_grid[0],
                        "residual_fine": per_grid[1], "ratio": ratio})
    min_ratio = min(ratios)
    ok = min_ratio >= 3.5
    report = {"n": n, "pairs": entries, "min_ratio": min_ratio,
              "passed": ok}
    return report, None, EXIT_OK if ok else EXIT_SOLVER


def _verify_asymptotics(cfg):
    entries = {}
    for n in (4, 5, 6):
        grid = RadialGrid(cfg.r_max, min(cfg.points, 2048))
        machinery = build_machinery(n, grid)
        target = TargetCurvature(hyperbolic_curvature_report(n).Q_hyp, n,
                                 grid=grid)
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
    report = {"cases": entries, "passed": ok}
    return report, None, EXIT_OK if ok else EXIT_SOLVER


def _run_verify(cfg):
    return {"bessel": _verify_bessel,
            "covariance": _verify_covariance,
            "asymptotics": _verify_asymptotics}[cfg.check](cfg)


_RUNNERS = {
    "indicial": _run_indicial,
    "kernel": _run_kernel,
    "solve": _run_solve,
    "sweep": _run_sweep,
    "ucurve": _run_ucurve,
    "expand": _run_expand,
    "verify": _run_verify,
}


def execute(cfg):
    """Run a validated config; write artifacts; return the exit code."""
    report, table, code = _RUNNERS[cfg.command](cfg)
    out_dir = cfg.out
    os.makedirs(out_dir, exist_ok=True)
    stem = cfg.command if cfg.command != "verify" else "verify_" + cfg.check
    write_report(report, "json", os.path.join(out_dir, stem + ".json"))
    if table is not None and cfg.format == "csv":
        write_report(table, "csv", os.path.join(out_dir, stem + ".csv"))
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except (ConfigError, DegenerateOperatorError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    try:
        return execute(cfg)
    except (ConfigError, DegenerateOperatorError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
