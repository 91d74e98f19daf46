"""q-sweep: the constant-Q family for n = 4, 5, 6 over machinery built
once in set-up, solved in process.

A closed loop with one client: the next solve starts when the previous one
has returned and been checked.  A run is SESSIONS warm sessions, one after
the other, each in a fresh interpreter: set-up, one untimed warm-up solve
per n, then whole seeded cycles until the scaled time of its solves reaches
its share of the run length.  Every run thus times the same mix and,
whatever the host's speed, the same number of cycles; and the few per cent
by which one interpreter runs the same solves faster or slower than another
average out over the sessions.

    python3 bench/inproc.py SEED SESSION SECONDS

runs one untraced session and prints its result as JSON.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import traceback
import warnings

import harness
from tracer import Tracer, aggregate

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import qcurve; "
                "print(repr(time.perf_counter() - t))")
SESSIONS = 3
SESSION_TIMEOUT = 150.0


def child_import_seconds():
    """Time `import qcurve` in a fresh interpreter (interpreter start
    excluded)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                          str(harness.SRC)],
                         env=harness.child_env(), cwd=harness.ROOT,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


class QSweep:
    """Set-up, seeded operation cycles and one checked operation."""

    def __init__(self, qc, seed, ceilings, session=0):
        self.qc = qc
        self.ceilings = ceilings
        self.rng = harness.make_rng(seed, "q-sweep/%d" % session)
        self.cfg = qc.IterationConfig()
        self.setup_failures = {}
        self.setup_info = {}
        self.bracket = harness.Bracketed(harness.in_process_probe,
                                         harness.IN_PROCESS_NOMINAL_S)

    def run_op(self, op):
        """Time one solve with its warnings captured, then check it."""
        n, amplitude = op
        record = {"op": list(op), "kind": "n%d" % n}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                report = self.bracket.time(lambda: self.solve(op), record)
                error = None
            except Exception:  # counted as a failed operation
                report, error = None, traceback.format_exc(limit=3)
        counts = {}
        for w in caught:
            origin = harness.classify_warning(w.message) + ".warnings"
            counts[origin] = counts.get(origin, 0) + 1
        record["warnings"] = counts
        if error is not None:
            reasons = ["raised: " + error]
        else:
            reasons = list(self.setup_failures.get(record["kind"], []))
            reasons += harness.solve_failures(
                report, "q/n%d/%d" % (n, harness.Q_POINTS), amplitude,
                self.ceilings)
            record.update(iterations=report.iterations,
                          residual=report.residual,
                          fitted_amplitude=report.fitted_amplitude)
        record["ok"] = not reasons
        record["reasons"] = reasons
        return record

    def timed_phase(self, seconds):
        """Run whole cycles until the solves' scaled time reaches
        `seconds`."""
        records = []
        for cycle in self.cycles():
            if sum(r["seconds"] for r in records) >= seconds:
                break
            records.extend(self.run_op(op) for op in cycle)
        return records

    def build_one(self, n):
        """Machinery and target for one n."""
        from qcurve.geometry import hyperbolic_curvature_report
        qc = self.qc
        grid = qc.RadialGrid(harness.R_MAX, harness.Q_POINTS)
        self.ctx[n] = (qc.build_machinery(n, grid),
                       qc.TargetCurvature(hyperbolic_curvature_report(n).Q_hyp,
                                          n, grid=grid))

    def build(self):
        self.ctx = {}
        for n in harness.Q_DIMS:
            self.build_one(n)

    def check_kernels(self):
        for n, (mach, _) in self.ctx.items():
            diag = mach.kernel.diagnostics
            reasons = harness.frequency_failures(
                diag, "q/n%d/%d" % (n, harness.Q_POINTS), self.ceilings)
            if abs(diag["beta_exact"] - harness.q_beta(n)) > 1e-12:
                reasons.append("beta_exact %r != closed form %r"
                               % (diag["beta_exact"], harness.q_beta(n)))
            self.setup_failures["n%d" % n] = reasons
            self.setup_info["kernel_frequency_rel.n%d" % n] = \
                harness.frequency_error(diag)

    def setup(self):
        """A fresh-interpreter import of qcurve plus the machinery for
        every n; returns its scaled seconds.  Each piece is scaled on its
        own, so the host speed is sampled every 1.5 s or so."""
        imp = {}
        total = self.bracket.time(child_import_seconds, imp) * imp["scale"]
        self.ctx = {}
        for n in harness.Q_DIMS:
            step = {}
            self.bracket.time(lambda: self.build_one(n), step)
            total += step["seconds"]
        self.check_kernels()
        return total

    def warm_up(self):
        """One checked, untimed solve per n, so first-call costs inside
        numpy and scipy stay out of the timed phase of a warm session."""
        return [self.run_op((n, 0.5 * harness.AMPLITUDE_BOUND))
                for n in harness.Q_DIMS]

    def cycles(self):
        while True:
            yield harness.q_cycle(self.rng)

    def solve(self, op):
        n, a = op
        mach, target = self.ctx[n]
        report, _ = self.qc.fixed_point_solve(a, target, self.cfg, mach)
        return report


def session(seed, index, seconds):
    """One untraced warm session in this interpreter."""
    qc = harness.load_qcurve()
    wl = QSweep(qc, seed, harness.load_ceilings(), index)
    setup_s = wl.setup()
    warm = wl.warm_up()
    records = wl.timed_phase(seconds)
    return {"setup_s": setup_s, "records": records, "untimed": warm,
            "setup_info": wl.setup_info}


def run_sessions(seed, seconds):
    out = {"setup_samples": [], "records": [], "untimed": [],
           "setup_info": []}
    for index in range(SESSIONS):
        proc = subprocess.run([sys.executable, __file__, str(seed),
                               str(index), repr(seconds / SESSIONS)],
                              env=harness.child_env(), cwd=harness.ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=SESSION_TIMEOUT, check=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        out["setup_samples"].append(res["setup_s"])
        out["records"] += res["records"]
        out["untimed"] += res["untimed"]
        out["setup_info"].append(res["setup_info"])
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return out


def run(qc, seed, seconds, trace, ceilings):
    if not trace:
        return run_sessions(seed, seconds)
    wl = QSweep(qc, seed, ceilings)
    out = {"setup_info": wl.setup_info}

    # traced set-up: where the machinery time goes
    tracer = Tracer()
    tracer.op = "setup"
    setup = {}
    tracer.install()
    try:
        wl.bracket.time(wl.build, setup)
    finally:
        tracer.uninstall()
    wl.check_kernels()
    # each operation runs untraced, then traced: the pair gives the
    # tracing overhead without drift between two separate phases; the
    # untraced half gets half of `seconds`
    plain, traced = [], []
    for cycle in wl.cycles():
        if sum(r["seconds"] for r in plain) >= seconds / 2:
            break
        for op in cycle:
            plain.append(wl.run_op(op))
            tracer.op = len(traced)
            tracer.install()
            try:
                traced.append(wl.run_op(op))
            finally:
                tracer.uninstall()
    for span in tracer.spans:
        if span[0] == "linear.shoot_regular" and span[4] != "setup":
            rec = traced[span[4]]
            rec["shoot_calls"] = rec.get("shoot_calls", 0) + 1
    with open(harness.OUT_DIR / ("spans-q-sweep-seed%d.json" % seed),
              "w") as fh:
        json.dump(tracer.export(), fh)
    phases = aggregate(tracer.spans,
                       lambda op: "setup" if op == "setup" else "run")
    out.update(records=plain + traced, traced_records=traced,
               plain_wall=sum(r["seconds"] for r in plain),
               traced_wall=sum(r["seconds"] for r in traced),
               setup_wall=setup["wall_s"], phases=phases,
               counts=dict(tracer.counts))
    return out


if __name__ == "__main__":
    print(json.dumps(session(int(sys.argv[1]), int(sys.argv[2]),
                             float(sys.argv[3]))))
