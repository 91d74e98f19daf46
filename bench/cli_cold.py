"""cli-cold: one fresh `python -m qcurve.cli` process per invocation, one
at a time, over a fixed command mix shuffled by the seed.

Invocations are issued in whole passes over the mix, at least two and then
until the scaled invocation time reaches the run length, so every run
times the same commands and has enough samples for a tail.
Every invocation is checked: its exit code, and for the good configs the
numbers in `<command>.json` (and the CSV table of `solve`).  Each pass
also repeats one config and requires a byte-identical `<command>.json`;
that repeat is a check, so its time stays out of the timings.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import subprocess
import sys

import harness
from tracer import aggregate

INVOCATION_TIMEOUT = 60.0
SETUP_REPS = 5
MIN_PASSES = 2
RUNNER = harness.BENCH_DIR / "cli_runner.py"
DEFAULT_AMPLITUDE = 1e-3
SWEEP_AMPLITUDES = (5e-4, -5e-4, 1e-3, -1e-3)
SWEEP_WORKERS = 2


def command_mix():
    """(argv, expected exit code) for one pass, in a fixed order."""
    good = [["solve", "--n", str(n), "--format", "csv"] for n in (4, 5, 6)]
    good += [["kernel", "--n", "5"], ["expand", "--n", "4"],
             ["sweep", "--n", "5", "--workers", str(SWEEP_WORKERS)]]
    good += [["ucurve", "--preset", tag] for tag in harness.U_PRESETS]
    good += [["verify", check]
             for check in ("bessel", "covariance", "asymptotics")]
    good += [["indicial", "--n", "5"]]
    bad = [["solve", "--n", "3"], ["ucurve", "--gamma", "1,-12,1"],
           ["solve", "--amplitude", "nan"]]
    return [(a, 0) for a in good] + [(a, 2) for a in bad]


def passes(rng):
    """Endless seeded passes: (shuffled mix, index of the config to repeat
    for the determinism check)."""
    mix = command_mix()
    while True:
        order = list(mix)
        rng.shuffle(order)
        repeat = rng.choice([i for i, (_, code) in enumerate(order)
                             if code == 0])
        yield order, repeat


def stem(argv):
    return "verify_" + argv[1] if argv[0] == "verify" else argv[0]


def _opt(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


# ---------------------------------------------------------------------------
# output checks: each returns a list of reasons (empty when correct)

def _check_solve(argv, rep, out_dir, ceilings):
    n = int(_opt(argv, "--n", "5"))
    reasons = harness.solve_failures(rep, "q/n%d/4096" % n,
                                     DEFAULT_AMPLITUDE, ceilings)
    try:
        with open(out_dir / "solve.csv") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return reasons + ["no CSV table: %s" % exc]
    if lines[0] != "r,x,u,Q,R" or len(lines) != 4097:
        reasons.append("CSV table has header %r and %d lines"
                       % (lines[0], len(lines)))
    elif not all(math.isfinite(float(v)) for v in lines[-1].split(",")):
        reasons.append("CSV table has non-finite values")
    return reasons


def _check_kernel(argv, rep, out_dir, ceilings):
    n = int(_opt(argv, "--n", "5"))
    diag = rep["diagnostics"]
    reasons = harness.frequency_failures(diag, "cli/q/n%d/4096" % n,
                                         ceilings)
    if abs(diag["beta_exact"] - harness.q_beta(n)) > 1e-9:
        reasons.append("beta_exact %r != closed form" % diag["beta_exact"])
    return reasons


def _check_expand(argv, rep, out_dir, ceilings):
    sc = rep["scalar_coefficient"]
    measured, analytic = sc.get("measured"), sc["analytic"]
    if not (isinstance(measured, float)
            and abs(measured - analytic) <= 0.01 * abs(analytic)):
        return ["scalar coefficient %r vs analytic %r" % (measured, analytic)]
    return []


def _check_sweep(argv, rep, out_dir, ceilings):
    n = int(_opt(argv, "--n", "5"))
    reasons = []
    for a, entry in zip(SWEEP_AMPLITUDES, rep["entries"]):
        reasons += harness.solve_failures(entry, "q/n%d/4096" % n, a,
                                          ceilings)
        dists = entry.get("pairwise_distances", [])
        if not all(isinstance(d, float) and d > 0 for d in dists):
            reasons.append("pairwise distances %r" % dists)
    if len(rep["entries"]) != len(SWEEP_AMPLITUDES):
        reasons.append("%d sweep entries" % len(rep["entries"]))
    return reasons


def _check_ucurve(argv, rep, out_dir, ceilings):
    return harness.solve_failures(rep, "u/%s/4096" % _opt(argv, "--preset",
                                                          ""),
                                  DEFAULT_AMPLITUDE, ceilings)


def _check_verify(argv, rep, out_dir, ceilings):
    return [] if rep.get("passed") is True else ["verify reports failure"]


def _check_indicial(argv, rep, out_dir, ceilings):
    """Roots of the factored operator: -1 and n from Lap - n, and
    (n-1)/2 +- i beta from the kernel factor."""
    n = int(_opt(argv, "--n", "5"))
    beta = harness.q_beta(n)
    want = sorted([complex(-1, 0), complex(n, 0),
                   complex((n - 1) / 2, -beta), complex((n - 1) / 2, beta)],
                  key=lambda z: (z.real, z.imag))
    got = sorted((complex(re, im) for re, im in rep["roots"]),
                 key=lambda z: (z.real, z.imag))
    if len(got) != 4 or any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
        return ["indicial roots %r" % rep["roots"]]
    return []


CHECKS = {"solve": _check_solve, "kernel": _check_kernel,
          "expand": _check_expand, "sweep": _check_sweep,
          "ucurve": _check_ucurve, "verify": _check_verify,
          "indicial": _check_indicial}


def check_outputs(argv, expected, code, stderr, out_dir, ceilings):
    if code != expected:
        return ["exit code %r, expected %d: %s"
                % (code, expected, stderr.strip()[-300:])]
    if expected != 0:
        if "Traceback" in stderr or "error:" not in stderr:
            return ["config error not reported cleanly: %s" % stderr[-300:]]
        return []
    try:
        with open(out_dir / (stem(argv) + ".json")) as fh:
            rep = json.load(fh)
        return CHECKS[argv[0]](argv, rep, out_dir, ceilings)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return ["unreadable report: %r" % exc]


# ---------------------------------------------------------------------------
# running

def invoke(argv, out_dir, spans_file=None):
    """One fresh interpreter; returns (exit code, stderr)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if spans_file is None:
        cmd = [sys.executable, "-m", "qcurve.cli"]
    else:
        cmd = [sys.executable, str(RUNNER), "--spans", str(spans_file), "--"]
    cmd += list(argv) + ["--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, env=harness.child_env(), cwd=harness.ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=INVOCATION_TIMEOUT)
        return proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        return None, "timed out after %gs" % INVOCATION_TIMEOUT


def import_cli():
    """A fresh interpreter importing qcurve.cli."""
    subprocess.run([sys.executable, "-c", "import qcurve.cli"],
                   env=harness.child_env(), cwd=harness.ROOT, check=True,
                   timeout=INVOCATION_TIMEOUT)


class Runner:
    def __init__(self, seed, ceilings, work_dir):
        self.rng = harness.make_rng(seed, "cli-cold")
        self.ceilings = ceilings
        self.work_dir = work_dir
        self.count = 0
        self.bracket = harness.Bracketed(harness.fresh_process_probe,
                                         harness.FRESH_PROCESS_NOMINAL_S)

    def setup_seconds(self):
        record = {}
        self.bracket.time(import_cli, record)
        return record["seconds"]

    def one(self, argv, expected, spans=False):
        self.count += 1
        out_dir = self.work_dir / ("inv%d" % self.count)
        spans_file = (self.work_dir / ("spans%d.json" % self.count)
                      if spans else None)
        record = {"op": argv, "kind": " ".join(argv), "out_dir": out_dir,
                  "spans_file": spans_file}
        code, stderr = self.bracket.time(
            lambda: invoke(argv, out_dir, spans_file), record)
        reasons = check_outputs(argv, expected, code, stderr, out_dir,
                                self.ceilings)
        record.update(exit_code=code, ok=not reasons, reasons=reasons)
        return record

    def same_report(self, first, again, why):
        """`again` fails unless its `<command>.json` matches `first`'s."""
        name = stem(first["op"]) + ".json"
        try:
            same = ((first["out_dir"] / name).read_bytes()
                    == (again["out_dir"] / name).read_bytes())
        except OSError:
            same = False
        if not same:
            again["ok"] = False
            again["reasons"].append("%s differs %s" % (name, why))
        return again

    def whole_passes(self, records, seconds, least):
        """Seeded passes, at least `least` of them, until the scaled time
        of `records` (filled by the caller) reaches `seconds`; the time is
        checked only between passes."""
        for done, pass_ in enumerate(passes(self.rng)):
            if (done >= least
                    and sum(r["seconds"] for r in records) >= seconds):
                return
            yield pass_

    def timed_phase(self, seconds):
        """Whole passes of timed invocations, each pass with its repeat
        for the determinism check.  Returns (timed records, repeat
        records)."""
        timed, repeats = [], []
        for order, repeat in self.whole_passes(timed, seconds, MIN_PASSES):
            for i, (argv, expected) in enumerate(order):
                record = self.one(argv, expected)
                timed.append(record)
                if i == repeat:
                    again = self.one(argv, expected)
                    again["kind"] = "repeat " + again["kind"]
                    repeats.append(self.same_report(
                        record, again, "between identical runs"))
        return timed, repeats

    def traced_phase(self, seconds):
        """Whole passes, each config untraced and then under the tracer,
        until the untraced half reaches half of `seconds`; the traced
        report must be byte-identical.  Returns (plain, traced) records."""
        plain, traced = [], []
        for order, _ in self.whole_passes(plain, seconds / 2, 1):
            for argv, expected in order:
                plain.append(self.one(argv, expected))
                rec = self.one(argv, expected, spans=True)
                if expected == 0:
                    self.same_report(plain[-1], rec, "under the tracer")
                traced.append(rec)
        return plain, traced


def run(seed, seconds, trace, ceilings):
    work_dir = harness.OUT_DIR / "cli"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = Runner(seed, ceilings, work_dir)
    out = {}
    if not trace:
        out["setup_samples"] = [runner.setup_seconds()
                                for _ in range(SETUP_REPS)]
        timed, repeats = runner.timed_phase(seconds)
        out.update(records=timed, untimed=repeats,
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
        return out
    plain, traced = runner.traced_phase(seconds)
    phases = {"run": {}}
    counts = {}
    for rec in traced:
        try:
            with open(rec["spans_file"]) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            rec["ok"] = False
            rec["reasons"].append("no trace written: %r" % exc)
            continue
        agg = aggregate(data["spans"])["run"]
        rec["shoot_calls"] = agg.get("linear.shoot_regular", (0.0, 0))[1]
        for name, (self_s, calls) in agg.items():
            cell = phases["run"].setdefault(name, [0.0, 0])
            cell[0] += self_s
            cell[1] += calls
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
    out.update(records=plain + traced, traced_records=traced,
               plain_wall=sum(r["seconds"] for r in plain),
               traced_wall=sum(r["seconds"] for r in traced),
               setup_wall=0.0, phases=phases, counts=counts)
    return out
