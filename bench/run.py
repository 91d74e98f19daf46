"""qcurve benchmark: one command, two closed-loop single-client workloads.

    python3 bench/run.py --workload q-sweep|cli-cold \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; qcurve is imported from its `src`.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, the per-layer metrics with `--trace 1`.
The lines before it restate the figures under the workload's own names,
and the full record (environment, seeded inputs, every operation and its
verdict) goes to `.bench_out/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402  (path set above)

harness.pin_threads()

WORKLOADS = ("q-sweep", "cli-cold")

# per-layer metrics reported on the set-up phase (q-sweep builds its
# machinery there; cli-cold reports zeros)
SETUP_LAYERS = ("linear.shoot_regular", "linear.kernel_element",
                "nonlinear.build_machinery")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def end_to_end(result):
    """Metrics from scaled times (seconds at the nominal host speed)."""
    timed = [r["seconds"] for r in result["records"]]
    st = harness.tail_stats(timed)
    metrics = {
        "setup_s": (harness.median(result["setup_samples"]), "s"),
        "op_s.p50": (st["p50"], "s"),
        "op_s.tail": (st["tail"], "s"),
        "ops_per_s": (len(timed) / sum(timed), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return metrics, st


def per_layer(result):
    from tracer import COUNT_NAMES, SPAN_NAMES
    ops = len(result["traced_records"])
    run = result["phases"].get("run", {})
    setup = result["phases"].get("setup", {})
    counts = dict(result["counts"])
    for rec in result["traced_records"]:
        for name, k in rec.get("warnings", {}).items():
            counts[name] = counts.get(name, 0) + k
    metrics = {}
    for name in SPAN_NAMES:
        self_s, calls = run.get(name, (0.0, 0))
        metrics[name + ".self_s"] = (self_s / ops, "s/op")
        metrics[name + ".calls"] = (calls / ops, "count/op")
    for name in COUNT_NAMES:
        key = name + ".calls" if name == "grid.differentiate" else name
        unit = "bytes/op" if name == "cli.report_bytes" else "count/op"
        metrics[key] = (counts.get(name, 0) / ops, unit)
    for module in ("nonlinear", "linear"):
        metrics[module + ".warnings"] = (
            counts.get(module + ".warnings", 0) / ops, "count/op")
    metrics["trace_overhead_frac"] = (
        result["traced_wall"] / result["plain_wall"] - 1.0, "frac")
    wall = result["setup_wall"]
    for name in SETUP_LAYERS:
        self_s, calls = setup.get(name, (0.0, 0))
        metrics["setup." + name + ".self_s"] = (self_s, "s")
        metrics["setup." + name + ".calls"] = (calls, "count")
    shoot = setup.get("linear.shoot_regular", (0.0, 0))[0]
    metrics["setup.linear.shoot_regular.share"] = (
        shoot / wall if wall > 0 else 0.0, "frac")
    metrics["setup.wall_s"] = (wall, "s")
    return metrics


def summary_lines(workload, result, metrics, stats, trace):
    noun = "cli_s" if workload == "cli-cold" else "solve_s"
    rate = "commands_per_s" if workload == "cli-cold" else "solves_per_s"
    attempted, failed = result["attempted"], result["failed"]
    lines = ["workload %s seed %d trace %d" % (workload, result["seed"],
                                               trace)]
    if not trace:
        lines += [
            "setup_s = %.4f s (median of %d)" % (
                metrics["setup_s"][0], len(result["setup_samples"])),
            "%s.p50 = %.4f s" % (noun, stats["p50"]),
            "%s.tail = %.4f s (p%.1f of %d samples)" % (
                noun, stats["tail"], stats["tail_pct"], stats["count"]),
            "%s = %.4f 1/s" % (rate, metrics["ops_per_s"][0]),
            "peak_rss_mb = %.1f MB" % metrics["peak_rss_mb"][0],
            "unscaled %s.p50 = %.4f s wall; host speed scale p50 %.3f"
            % (noun, harness.median([r["wall_s"] for r in result["records"]]),
               harness.median([r["scale"] for r in result["records"]])),
        ]
        for kind, st in sorted(result["by_kind"].items()):
            lines.append("  %-32s p50 %.4f s over %d" % (kind, st["p50"],
                                                         st["count"]))
    else:
        lines.append("trace_overhead_frac = %.4f"
                     % metrics["trace_overhead_frac"][0])
        lines.append("setup: linear.shoot_regular %.3f s of %.3f s "
                     "traced set-up, %d calls" % (
                         metrics["setup.linear.shoot_regular.self_s"][0],
                         metrics["setup.wall_s"][0],
                         metrics["setup.linear.shoot_regular.calls"][0]))
        for kind, calls in sorted(result["shoot_calls_by_kind"].items()):
            lines.append("  linear.shoot_regular calls per %s op: %.2f"
                         % (kind, calls))
    lines.append("fail_frac = %.4f (%d of %d attempted)" % (
        failed / attempted, failed, attempted))
    for rec in result["all_records"]:
        if not rec["ok"]:
            lines.append("FAILED %s: %s" % (rec["kind"],
                                             "; ".join(rec["reasons"])))
    return lines


def by_kind(records):
    groups = {}
    for rec in records:
        groups.setdefault(rec["kind"], []).append(rec["seconds"])
    return {k: harness.tail_stats(v) for k, v in groups.items()}


def shoot_calls_by_kind(records):
    """Calls of linear.shoot_regular per operation, by operation kind."""
    calls, ops = {}, {}
    for rec in records:
        ops[rec["kind"]] = ops.get(rec["kind"], 0) + 1
        calls[rec["kind"]] = (calls.get(rec["kind"], 0)
                              + rec.get("shoot_calls", 0))
    return {k: calls[k] / ops[k] for k in ops}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, float) and obj != obj:
        return None
    return obj


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        qc = harness.load_qcurve()
        ceilings = harness.load_ceilings()
        if args.workload == "cli-cold":
            import cli_cold
            harness.check_workers(cli_cold.SWEEP_WORKERS, "sweep --workers")
    except (harness.SetupError, OSError, ValueError) as exc:
        print("bench: cannot run: %s" % exc, file=sys.stderr)
        return 2
    harness.OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "cli-cold":
        result = cli_cold.run(args.seed, args.seconds, args.trace, ceilings)
    else:
        import inproc
        result = inproc.run(qc, args.seed, args.seconds, args.trace,
                            ceilings)
    records = result["records"] + result.get("untimed", [])
    result.update(seed=args.seed, all_records=records,
                  attempted=len(records),
                  failed=sum(1 for r in records if not r["ok"]))
    if args.trace:
        metrics = per_layer(result)
        stats = None
        result["shoot_calls_by_kind"] = shoot_calls_by_kind(
            result["traced_records"])
    else:
        metrics, stats = end_to_end(result)
        result["by_kind"] = by_kind(result["records"])
    for line in summary_lines(args.workload, result, metrics, stats,
                              args.trace):
        print(line)
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": harness.environment(args.seed),
              "stats": stats, "result": out,
              "setup_samples": result.get("setup_samples"),
              "setup_info": result.get("setup_info"),
              "operations": records}
    path = harness.OUT_DIR / ("%s-seed%d-trace%d.json"
                              % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(_jsonable(record), fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
