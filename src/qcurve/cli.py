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

Exit codes: 0 success; 1 solver non-convergence or a failed check (the
report is still written), or a numerical failure (no report, the message
on stderr); 2 configuration error.  Reports are serialized with sorted
keys and fixed float formatting so identical configs give byte-identical
files; the default output directory comes from $QCURVE_OUT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .expansion import (fit_leading, scalar_asymptotic_coefficient,
                        scalar_linearization_coefficient, weighted_norm)
from .geometry import q_of_conformal, scalar_of_conformal
from .grid import RadialGrid
from .indicial import (DegenerateOperatorError, oscillation_parameter,
                       q_indicial_spectrum, u_indicial_spectrum)
from .linear import _MIN_POINTS, WindowError, fit_window, kernel_element
from .nonlinear import (IterationConfig, constant_q_problem,
                        fixed_point_solve, guarded_solve, sweep_family)
from .ucurve import (OSCILLATORY_PERIODS, DetParams, u_curvature_conformal,
                     u_fixed_point_solve, u_kernel_element, u_kernel_regime)
from .verify import verify_asymptotics, verify_bessel, verify_covariance

__all__ = ["main", "parse_config", "execute", "write_report", "ConfigError"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration

_COMMANDS = {
    "indicial": "boundary spectrum",
    "kernel": "series kernel element",
    "solve": "constant Q-curvature solve",
    "sweep": "family of solves over amplitudes",
    "ucurve": "constant U-curvature solve",
    "expand": "boundary-expansion diagnostics",
    "verify": "self-checks",
}
_ALL = tuple(_COMMANDS)
_SOLVERS = ("solve", "sweep", "ucurve", "expand")
# commands whose runs assemble banded operators
_BANDED = ("kernel",) + _SOLVERS


class _Option(NamedTuple):
    commands: tuple
    help: str
    default: object = None
    type: object = None
    choices: tuple | None = None
    metavar: str | None = None


# Every option, once: the commands taking it, its help text, its default
# (applied after the config file: flag > file > default) and its argparse
# type, choices and metavar.  `check` is the one positional; `config` names
# the file and is no key in it.  Table order is --help order.
_OPTIONS = {
    "check": _Option(("verify",), "which self-check",
                     choices=("bessel", "covariance", "asymptotics")),
    "n": _Option(("indicial", "kernel", "solve", "sweep", "expand",
                  "verify"), "dimension, at least 4", 5, int),
    "alpha": _Option(("indicial",), "U-family parameter gamma2/(12 gamma3), "
                     "in place of --n", type=float),
    "preset": _Option(("kernel", "ucurve"), "determinant preset tag: A, D2 "
                      "or P (or its long name)"),
    "gamma": _Option(("kernel", "ucurve"), "determinant coefficients",
                     metavar="G1,G2,G3"),
    "amplitude": _Option(("kernel", "solve", "ucurve", "expand"),
                         "kernel amplitude", 1e-3, float),
    "amplitudes": _Option(("sweep",), "kernel amplitudes",
                          (5e-4, -5e-4, 1e-3, -1e-3), metavar="A1,A2,..."),
    "epsilon": _Option(_SOLVERS, "bound on the kernel amplitude", 1e-3,
                       float),
    "tol": _Option(_SOLVERS, "fixed-point step tolerance", 1e-10, float),
    "max_iter": _Option(_SOLVERS, "fixed-point iteration limit", 50, int),
    "target": _Option(("solve",), "constant target curvature (default: "
                      "hyperbolic Q)", type=float),
    "workers": _Option(("sweep",), "accepted and validated; sweeps run "
                       "serially", 4, int),
    "r_max": _Option(_ALL, "outer grid radius", 12.0, float),
    "points": _Option(_ALL, "grid points", 4096, int),
    "format": _Option(_ALL, "report format", "json",
                      choices=("json", "csv")),
    "out": _Option(_ALL, "output directory (default: $QCURVE_OUT or .)"),
    "config": _Option(_ALL, "JSON file with option overrides"),
}


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


def _check_finite(key, value):
    """ConfigError unless a number, or each of a tuple of them, is finite:
    NaN and +-inf slip through every `<= 0` range check."""
    values = value if isinstance(value, tuple) else (value,)
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("%s must be finite, got %r" % (key, value))


def _add_options(sp, command):
    """Give a command's subparser its arguments from the option table."""
    for dest, opt in _OPTIONS.items():
        if command not in opt.commands:
            continue
        default = opt.default
        if isinstance(default, tuple):
            default = ",".join(map(str, default))
        text = opt.help if default is None else \
            "%s (default: %s)" % (opt.help, default)
        kw = {"type": opt.type, "choices": opt.choices,
              "metavar": opt.metavar, "help": text}
        if dest == "check":
            sp.add_argument(dest, **kw)
        else:
            sp.add_argument("--" + dest.replace("_", "-"), dest=dest, **kw)


class _LazySubcommands(argparse._SubParsersAction):
    """The command subparsers, each given its arguments only when its
    command is parsed: a run builds one of the seven."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values[0] in self.choices:
            _add_options(self.choices[values[0]], values[0])
        super().__call__(parser, namespace, values, option_string)


def _build_parser(lazy=False):
    """The qcurve argument parser.  With `lazy`, as `parse_config` builds
    it, a subparser gets its arguments only when its command is parsed;
    help, usage and error text are those of the whole parser."""
    p = argparse.ArgumentParser(
        prog="qcurve",
        description="Constant Q- and U-curvature conformal metrics on the "
                    "ball: solvers, kernels, and verification reports.")
    sub = p.add_subparsers(dest="command", required=True,
                           **({"action": _LazySubcommands} if lazy else {}))
    for command, summary in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        if not lazy:
            _add_options(sp, command)
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
    """argv (without the program name) -> the validated, fully defaulted
    configuration, an argparse.Namespace holding `command` and its options.

    Option precedence: command-line flag > --config file entry > default.
    Unknown config-file keys are rejected; file values pass their option's
    type and choices, as flags do (a JSON null leaves the default).  A
    grid too coarse for the banded solves, or an r_max too short for the
    kernel fit window or the covariance window, is refused here, before
    any work.
    """
    ns = _build_parser(lazy=True).parse_args(argv)
    command = ns.command
    allowed = [key for key, opt in _OPTIONS.items()
               if command in opt.commands and key != "config"]
    # verify's positional check always wins, so a file may not set it
    file_opts = _read_config_file(
        ns.config, command, [key for key in allowed if key != "check"]) \
        if ns.config else {}
    opts = {}
    for key in allowed:
        value = getattr(ns, key)
        opts[key] = (value if value is not None
                     else file_opts.get(key, _OPTIONS[key].default))

    # family selection and numeric validation
    if command in ("kernel", "ucurve"):
        opts["params"] = (_det_params(opts) if opts["preset"] is not None
                          or opts["gamma"] is not None else None)
    if command == "ucurve" and opts["params"] is None:
        raise ConfigError("ucurve needs --preset or --gamma")
    if opts.get("alpha") == -1:
        raise ConfigError("alpha = -1 degenerates the operator family")
    if opts.get("alpha") is None and opts.get("n") is not None \
            and opts["n"] < 4:
        raise ConfigError("dimension must be ≥ 4")
    if opts.get("r_max", 1.0) <= 0:
        raise ConfigError("r_max must be positive")
    if opts.get("check") == "covariance" and opts["r_max"] <= 2:
        raise ConfigError("verify covariance compares on [1, r_max - 1]; "
                          "r_max must exceed 2")
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
            _check_finite(key, opts[key])
    if command in _BANDED or opts.get("check") == "asymptotics":
        if opts["points"] < _MIN_POINTS:
            raise ConfigError("need at least %d grid points for the banded "
                              "solves" % _MIN_POINTS)
        _check_fit_window(command, opts)
    if opts.get("out") is None:
        opts["out"] = os.environ.get("QCURVE_OUT", ".")
    opts.pop("preset", None)
    opts.pop("gamma", None)
    return argparse.Namespace(command=command, **opts)


def _read_config_file(path, command, allowed):
    """The option overrides in a --config JSON file, less its "command"."""
    try:
        with open(path) as fh:
            file_opts = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("malformed JSON in %s: %s" % (path, exc))
    if not isinstance(file_opts, dict):
        raise ConfigError("config file %s must hold a JSON object" % path)
    cmd = file_opts.pop("command", command)
    if cmd != command:
        raise ConfigError("config file command %r does not match %r"
                          % (cmd, command))
    unknown = sorted(set(file_opts) - set(allowed))
    if unknown:
        raise ConfigError("unknown config keys for %s: %s"
                          % (command, ", ".join(unknown)))
    return {key: _file_value(key, value) for key, value in file_opts.items()
            if value is not None}


def _file_value(key, value):
    """A config-file value through its option's type and choices, as
    argparse treats the flag's text: "1024" and 1024 both give int 1024,
    while 5.5 or true for an int option is refused.  `amplitudes` takes
    the flag's comma string or a non-empty list of numbers."""
    opt = _OPTIONS[key]
    if key == "amplitudes" and not isinstance(value, str):
        if not (isinstance(value, list) and value
                and all(type(v) in (int, float) for v in value)):
            raise ConfigError("config key amplitudes: need comma-separated "
                              "numbers or a non-empty list of numbers, got "
                              "%r" % (value,))
        return tuple(map(float, value))
    if opt.type is not None:
        try:
            value = opt.type(str(value))
        except ValueError:
            raise ConfigError("config key %s: invalid %s value %r"
                              % (key, opt.type.__name__, value))
    if opt.choices is not None and value not in opt.choices:
        raise ConfigError("config key %s: invalid choice %r (choose from %s)"
                          % (key, value, ", ".join(opt.choices)))
    return value


def _check_fit_window(command, opts):
    """ConfigError unless the default kernel fit window at r_max spans the
    oscillation periods the command's kernel fits need (n = 4..6 for
    `verify asymptotics`; a real-regime U kernel has no oscillation)."""
    try:
        if opts.get("params") is not None:
            regime, beta = u_kernel_regime(opts["params"].alpha)
            if regime == "oscillatory":
                fit_window(opts["r_max"], beta, OSCILLATORY_PERIODS)
        else:
            for n in (4, 5, 6) if command == "verify" else (opts["n"],):
                fit_window(opts["r_max"], oscillation_parameter(n))
    except WindowError as exc:
        raise ConfigError(str(exc))


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


_CSV_BLOCK = 256     # table rows formatted per write


def write_report(report, fmt, path):
    """Serialize a report dict (json) or a column table (csv) to `path`.

    The csv table is given as report = (header, columns) and is formatted
    and written _CSV_BLOCK rows at a time.  Serialization is deterministic:
    identical inputs produce byte-identical files.
    """
    try:
        if fmt == "json":
            text = _canonical(report) + "\n"
            with open(path, "w") as fh:
                fh.write(text)
        elif fmt == "csv":
            header, columns = report
            columns = [np.asarray(col, float) for col in columns]
            row = ",".join(["%.12e"] * len(columns)) + "\n"
            rows = min(map(len, columns), default=0)
            with open(path, "w") as fh:
                fh.write(",".join(header) + "\n")
                for i in range(0, rows, _CSV_BLOCK):
                    cells = zip(*(col[i:i + _CSV_BLOCK].tolist()
                                  for col in columns))
                    fh.write("".join([row % cell for cell in cells]))
        else:
            raise ValueError("unknown format %r" % fmt)
    except OSError as exc:
        raise OSError("cannot write report to %s: %s" % (path, exc))


# ---------------------------------------------------------------------------
# command implementations: each returns (report_dict, profile_table | None,
# exit_code)

def _iteration_config(cfg):
    return IterationConfig(epsilon=cfg.epsilon, tol=cfg.tol,
                           max_iter=cfg.max_iter)


def _run_indicial(cfg):
    if cfg.alpha is not None:
        spec = u_indicial_spectrum(cfg.alpha)
        report = {"family": "ucurve", "alpha": cfg.alpha, **spec.to_dict()}
    else:
        spec = q_indicial_spectrum(cfg.n)
        report = {"family": "qcurve", "n": cfg.n, **spec.to_dict()}
    return report, None, EXIT_OK


def _run_kernel(cfg):
    grid = RadialGrid(cfg.r_max, cfg.points)
    if cfg.params is not None:
        params = cfg.params
        try:
            k = u_kernel_element(params, grid)
        except WindowError as exc:
            report = {"family": "ucurve", "params": params.to_dict(),
                      "error": str(exc)}
            return report, None, EXIT_SOLVER
        report = {"family": "ucurve", "params": params.to_dict()}
    else:
        k = kernel_element(cfg.n, grid)
        report = {"family": "qcurve", "n": cfg.n}
    # the kernel datum a names a k^, with leading coefficients a unit_fit
    a = float(cfg.amplitude)
    report.update({
        "amplitude": a,
        "leading_fit": [c * a for c in k.unit_fit],
        "diagnostics": dict(k.diagnostics),
        "window_r": list(k.window_r),
    })
    table = (("r", "x", "value"),
             (grid.r.astype(float), grid.x.astype(float),
              np.asarray(k.base.values * a, float)))
    return report, table, EXIT_OK


def _run_solve(cfg):
    machinery, target = constant_q_problem(cfg.n, cfg.r_max, cfg.points,
                                           cfg.target)
    report, u = guarded_solve(fixed_point_solve, cfg.amplitude, target,
                              _iteration_config(cfg), machinery)
    if u is None:
        return {"n": cfg.n, **report.to_dict()}, None, EXIT_SOLVER
    q, s = q_of_conformal(u, cfg.n), scalar_of_conformal(u, cfg.n)
    table = (("r", "x", "u", "Q", "R"),
             (u.grid.r.astype(float), u.grid.x.astype(float),
              np.asarray(u.values, float), np.asarray(q.values, float),
              np.asarray(s.values, float)))
    code = EXIT_OK if report.converged else EXIT_SOLVER
    return {"n": cfg.n, "target": float(target.f.values[0]),
            **report.to_dict()}, table, code


def _run_sweep(cfg):
    machinery, target = constant_q_problem(cfg.n, cfg.r_max, cfg.points)
    grid = machinery.grid
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
    grid = RadialGrid(cfg.r_max, cfg.points)
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
    machinery, target = constant_q_problem(cfg.n, cfg.r_max, cfg.points)
    grid = machinery.grid
    report, u = guarded_solve(fixed_point_solve, cfg.amplitude, target,
                              _iteration_config(cfg), machinery)
    if not report.converged:
        return {"n": cfg.n, **report.to_dict()}, None, EXIT_SOLVER
    # the solve has fitted the expansion already, unless the amplitude is 0
    fit = report.expansion or fit_leading(u, cfg.n)
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


def _run_verify(cfg):
    if cfg.check == "bessel":
        report = verify_bessel(cfg.n)
    elif cfg.check == "covariance":
        report = verify_covariance(cfg.n, cfg.r_max)
    else:
        report = verify_asymptotics(cfg.r_max, cfg.points)
    return report, None, EXIT_OK if report["passed"] else EXIT_SOLVER


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
    """Parse, run and report; returns the exit code.  Configuration errors
    exit 2 whether parsing or the run finds them; any other error of the
    run (a numerical failure) exits 1 without a report."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        return execute(parse_config(argv))
    except (ConfigError, DegenerateOperatorError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
