"""Measure today's accuracy and write the correctness ceilings.

    python3 bench/calibrate.py

For every (family, n or preset, points) the benchmark runs, solve over an
evenly spaced grid of amplitudes covering [-1e-3, 1e-3] and record the
largest equation residual; do the same for the relative kernel-frequency
error of every kernel the benchmark checks.  Each ceiling is the measured
maximum times a fixed margin, rounded up to one significant digit, and is
written with its measured maximum to `ceilings.json`.  Rerun only when a
change is meant to move accuracy, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import math
import sys
import warnings

import harness

harness.pin_threads()

RESIDUAL_MARGIN = 4.0
FREQUENCY_MARGIN = 2.0
Q_AMPLITUDES = 81
U_AMPLITUDES = 41


def ceiling(measured, margin):
    value = measured * margin
    exp = math.floor(math.log10(value))
    return math.ceil(value / 10 ** exp) * 10 ** exp


def amplitudes(count):
    b = harness.AMPLITUDE_BOUND
    return [-b + 2.0 * b * i / (count - 1) for i in range(count)]


def main():
    qc = harness.load_qcurve()
    from qcurve.geometry import hyperbolic_curvature_report
    residual, frequency = {}, {}
    warnings.simplefilter("ignore")
    for n in harness.Q_DIMS:
        grid = qc.RadialGrid(harness.R_MAX, harness.Q_POINTS)
        mach = qc.build_machinery(n, grid)
        key = "q/n%d/%d" % (n, harness.Q_POINTS)
        frequency[key] = harness.frequency_error(mach.kernel.diagnostics)
        cli_kernel = qc.kernel_element(n, grid)
        frequency["cli/" + key] = harness.frequency_error(
            cli_kernel.diagnostics)
        target = qc.TargetCurvature(hyperbolic_curvature_report(n).Q_hyp, n,
                                    grid=grid)
        worst = 0.0
        for a in amplitudes(Q_AMPLITUDES):
            rep, _ = qc.fixed_point_solve(a, target, qc.IterationConfig(),
                                          mach)
            worst = max(worst, rep.residual)
        residual[key] = worst
        print(key, worst, frequency[key], file=sys.stderr)
    grid = qc.RadialGrid(harness.R_MAX, harness.U_POINTS)
    for tag, preset in harness.U_PRESETS.items():
        params = qc.DetParams.preset(preset)
        key = "u/%s/%d" % (tag, harness.U_POINTS)
        worst = 0.0
        for a in amplitudes(U_AMPLITUDES):
            rep, _ = qc.u_fixed_point_solve(a, params, qc.IterationConfig(),
                                            grid)
            worst = max(worst, rep.residual)
        residual[key] = worst
        print(key, worst, file=sys.stderr)
    out = {
        "rule": ("ceiling = measured maximum x margin, rounded up to one "
                 "significant digit; residual over %d (Q) or %d (U) evenly "
                 "spaced amplitudes in [-1e-3, 1e-3]"
                 % (Q_AMPLITUDES, U_AMPLITUDES)),
        "residual_margin": RESIDUAL_MARGIN,
        "frequency_margin": FREQUENCY_MARGIN,
        "residual": {k: ceiling(v, RESIDUAL_MARGIN)
                     for k, v in sorted(residual.items())},
        "kernel_frequency_rel": {k: ceiling(v, FREQUENCY_MARGIN)
                                 for k, v in sorted(frequency.items())},
        "measured_max": {
            "residual": dict(sorted(residual.items())),
            "kernel_frequency_rel": dict(sorted(frequency.items())),
        },
        "environment": harness.environment(None),
    }
    with open(harness.CEILINGS_FILE, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
