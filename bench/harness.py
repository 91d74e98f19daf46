"""Shared pieces of the benchmark: locating the source tree, pinning and
recording the environment, seeded inputs, the host-speed probes,
summary statistics and the per-operation correctness gate.

Nothing here imports numpy or qcurve at module level, so `run.py` can pin
the BLAS thread counts before either is loaded.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CEILINGS_FILE = BENCH_DIR / "ceilings.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

R_MAX = 12.0
Q_DIMS = (4, 5, 6)
Q_POINTS = 4096
U_PRESETS = {"A": "conformal_laplacian", "D2": "spin_laplacian",
             "P": "paneitz"}
U_POINTS = 4096
AMPLITUDE_BOUND = 1e-3
STRATA = 16

METRIC_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, bad settings)."""


def nproc():
    return len(os.sched_getaffinity(0))


def check_workers(count, what):
    """Refuse a thread or worker count above the usable processors."""
    if count > nproc():
        raise SetupError("%s = %d exceeds nproc = %d" % (what, count, nproc()))


def pin_threads(env=None):
    """Pin BLAS/OpenMP pools to one thread in `env` (default: os.environ)."""
    env = os.environ if env is None else env
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def child_env():
    """Environment for child interpreters: pinned threads, `src` first."""
    env = pin_threads(dict(os.environ))
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def load_qcurve():
    """Import qcurve from this checkout's `src`, never from elsewhere."""
    if not (SRC / "qcurve" / "__init__.py").is_file():
        raise SetupError("no qcurve source tree at %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qcurve
    if Path(qcurve.__file__).resolve().parent != (SRC / "qcurve").resolve():
        raise SetupError("qcurve imported from %s, not %s"
                         % (qcurve.__file__, SRC))
    return qcurve


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git
    directly so nothing outside the checkout is consulted."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# seeded inputs

def stratified_amplitudes(rng, count, bound=AMPLITUDE_BOUND):
    """`count` amplitudes, one uniform draw in each of `count` equal strata
    of [-bound, bound], in seeded order.  Each is uniform on the interval;
    the strata keep the mix of iteration counts the same from seed to seed.
    """
    width = 2.0 * bound / count
    vals = [-bound + width * (i + rng.random()) for i in range(count)]
    rng.shuffle(vals)
    return vals


def q_cycle(rng):
    """One cycle of q-sweep operations: (n, amplitude) pairs."""
    ops = [(n, a) for n in Q_DIMS
           for a in stratified_amplitudes(rng, STRATA)]
    rng.shuffle(ops)
    return ops


def make_rng(seed, workload):
    return random.Random("%s:%d" % (workload, seed))


# ---------------------------------------------------------------------------
# host speed
#
# The virtual machines the benchmark runs on change speed by up to 1.9x for
# seconds to minutes at a time, and a process's CPU time stretches with its
# wall time, so neither clock alone tells a slower program from a slower
# host.  Every timed step is therefore bracketed by a fixed probe, and its
# time is scaled by the probe's nominal time over the mean of the two probe
# times around it: seconds at the host's nominal speed.  Host slowdowns hit
# different kinds of work differently, so each workload's probe mirrors its
# own work, and neither calls anything in qcurve, so no change to the
# program can move them.

# in-process probe: element writes into a banded array through numpy
# scalars and whole-array numpy arithmetic on 4096 points, the two kinds of
# work in qcurve's solve path
PROBE_BAND_COLUMNS = 600
PROBE_ARRAY_PASSES = 120
# each probe's time on the baseline host at its usual speed
IN_PROCESS_NOMINAL_S = 3.5e-3
# fresh-process probe: a new interpreter importing numpy, as every CLI
# invocation starts
FRESH_PROCESS_NOMINAL_S = 0.155


def in_process_probe():
    """Wall time of the fixed in-process probe step."""
    import numpy as np
    start = time.perf_counter()
    band = np.zeros((5, PROBE_BAND_COLUMNS))
    weights = np.linspace(1.0, 2.0, 5)
    for i in range(2, PROBE_BAND_COLUMNS - 2):
        for off in range(-2, 3):
            band[2 + off, i + off] += weights[off + 2] * 1.5
    values = np.linspace(0.0, 1.0, 4096)
    for _ in range(PROBE_ARRAY_PASSES):
        values = np.sqrt(values * values + 1.0) - 0.5
    return time.perf_counter() - start


def fresh_process_probe():
    """Wall time of a fresh interpreter importing numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(),
                   cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - start


class Bracketed:
    """Times steps between probes.  Consecutive steps share the probe
    between them; `record` is the dict a step's times go into."""

    def __init__(self, probe, nominal_s):
        self.probe = probe
        self.nominal_s = nominal_s
        self.ref = probe()

    def time(self, fn, record):
        """Run `fn()` and return its result (or re-raise its exception).
        `record` gets its wall seconds, the speed scale of the host around
        it and its scaled seconds."""
        start = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - start
            after = self.probe()
            record["wall_s"] = wall
            record["scale"] = 2.0 * self.nominal_s / (self.ref + after)
            record["seconds"] = wall * record["scale"]
            self.ref = after


# ---------------------------------------------------------------------------
# statistics

def tail_stats(samples):
    """Median and tail of a list of timings.

    The tail is the highest percentile with at least ten samples beyond
    it: the 11th largest sample, at percentile 100 (N - 10) / N.  When
    that percentile is not above the median (N <= 20), the tail is the
    median and `tail_pct` says 50.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    p50 = xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
    k = n - 10
    if 2 * k > n:
        return {"p50": p50, "tail": xs[k - 1], "tail_pct": 100.0 * k / n,
                "count": n}
    return {"p50": p50, "tail": p50, "tail_pct": 50.0, "count": n}


def median(values):
    return tail_stats(values)["p50"]


def valid_metric_name(name):
    return (0 < len(name) <= 64 and name[0].isalnum()
            and set(name) <= METRIC_NAME_CHARS)


# ---------------------------------------------------------------------------
# correctness gate

def load_ceilings():
    with open(CEILINGS_FILE) as fh:
        return json.load(fh)


def drift_ok(fitted, amplitude):
    """The program's own kernel-datum drift test."""
    return (math.isfinite(fitted)
            and abs(fitted - amplitude) <= 1e-6 * abs(amplitude) + 1e-10)


def solve_failures(report, key, amplitude, ceilings):
    """Reasons a solve report fails the gate ([] when it passes).  `report`
    is a SolveReport or its dict form; `key` names the residual ceiling."""
    get = (report.get if isinstance(report, dict)
           else lambda k: getattr(report, k))
    reasons = []
    if get("converged") != True:  # noqa: E712  (numpy bools compare too)
        reasons.append("not converged: %s" % get("message"))
    residual = get("residual")
    ceiling = ceilings["residual"][key]
    if not (isinstance(residual, (int, float)) and residual <= ceiling):
        reasons.append("residual %r above ceiling %g" % (residual, ceiling))
    fitted = get("fitted_amplitude")
    if not (isinstance(fitted, (int, float)) and drift_ok(fitted, amplitude)):
        reasons.append("fitted amplitude %r drifted from %r"
                       % (fitted, amplitude))
    return reasons


def frequency_failures(diagnostics, key, ceilings):
    """Relative kernel-frequency error against its ceiling."""
    err = frequency_error(diagnostics)
    ceiling = ceilings["kernel_frequency_rel"][key]
    if not err <= ceiling:
        return ["kernel frequency error %r above ceiling %g" % (err, ceiling)]
    return []


def frequency_error(diagnostics):
    exact = float(diagnostics["beta_exact"])
    return abs(float(diagnostics["frequency_measured"]) - exact) / exact


def q_beta(n):
    """Closed-form oscillation frequency of the constant-Q kernel:
    beta^2 = (n^2 - 4)/2 - ((n - 1)/2)^2."""
    return math.sqrt((n * n + 2.0 * n - 9.0) / 4.0)


# warning texts issued by each module; anything else is "other"
_WARNING_ORIGINS = (
    ("measured smallness margin", "nonlinear"),
    ("target deviation", "nonlinear"),
    ("T1 data decays", "linear"),
    ("generalized inverse applied", "linear"),
)


def classify_warning(message):
    text = str(message)
    for prefix, module in _WARNING_ORIGINS:
        if text.startswith(prefix):
            return module
    return "other"
