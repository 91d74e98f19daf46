"""Self-tests of the benchmark's own logic.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import cli_cold  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402


# -- tail-percentile rule -----------------------------------------------------

def test_tail_is_eleventh_largest_sample():
    st = harness.tail_stats([float(i) for i in range(1, 101)])
    assert st["p50"] == 50.5
    assert st["tail"] == 90.0          # ten samples (91..100) beyond it
    assert st["tail_pct"] == 90.0
    assert st["count"] == 100


def test_tail_ignores_sample_order():
    xs = [float(i) for i in range(40)]
    assert harness.tail_stats(xs[::-1]) == harness.tail_stats(xs)


@pytest.mark.parametrize("n", [1, 5, 19, 20])
def test_tail_falls_back_to_median_without_enough_samples(n):
    st = harness.tail_stats([float(i) for i in range(n)])
    assert st["tail"] == st["p50"]
    assert st["tail_pct"] == 50.0


def test_tail_with_21_samples_is_the_median_sample():
    st = harness.tail_stats([float(i) for i in range(21)])
    assert st["tail"] == st["p50"] == 10.0
    assert st["tail_pct"] == pytest.approx(100.0 * 11 / 21)


# -- self-time arithmetic -----------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],      # overlaps a: union [1, 5]
        ["c", 8.0, 12.0, 0, 0],     # clipped to the parent: [8, 10]
        ["a.child", 1.5, 2.0, 1, 0],
    ]
    selfs = tr.self_times(spans)
    assert selfs == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])


def test_aggregate_groups_by_phase():
    spans = [
        ["x", 0.0, 2.0, None, "setup"],
        ["y", 0.5, 1.0, 0, "setup"],
        ["x", 3.0, 4.0, None, 0],
    ]
    agg = tr.aggregate(spans, lambda op: "setup" if op == "setup" else "run")
    assert agg["setup"]["x"] == pytest.approx([1.5, 1])
    assert agg["setup"]["y"] == pytest.approx([0.5, 1])
    assert agg["run"]["x"] == pytest.approx([1.0, 1])


# -- metric names -------------------------------------------------------------

def _fake_trace_result():
    return {"traced_records": [{"kind": "k", "warnings": {}}],
            "phases": {"run": {}, "setup": {}}, "counts": {},
            "traced_wall": 1.1, "plain_wall": 1.0, "setup_wall": 0.0}


def test_metric_names_match_pattern_and_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    emitted_layer = run.per_layer(_fake_trace_result())
    emitted_e2e, _ = run.end_to_end({
        "records": [{"seconds": 1.0}], "setup_samples": [1.0],
        "peak_rss_mb": 1.0})
    assert set(emitted_layer) == layer
    assert set(emitted_e2e) == e2e
    for name in e2e | layer:
        assert harness.valid_metric_name(name), name
    units = {m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units |= {u for _, u in emitted_layer.values()}
    for unit in units:
        assert set(unit) <= harness.METRIC_NAME_CHARS | {"/", "%"}, unit


@pytest.mark.parametrize("bad", ["", "-lead", "a b", "a/b", "x" * 65])
def test_metric_name_pattern_rejects(bad):
    assert not harness.valid_metric_name(bad)


# -- tracer installs and restores ---------------------------------------------

def _bindings():
    harness.load_qcurve()
    snap = {}
    for key, mod in list(sys.modules.items()):
        if key == "qcurve" or key.startswith("qcurve."):
            for attr, val in vars(mod).items():
                snap[(key, attr)] = val
    cls = sys.modules["qcurve.linear"].BandedFactor
    for attr, val in vars(cls).items():
        snap[("BandedFactor", attr)] = val
    return snap


def test_tracer_restores_every_binding():
    harness.load_qcurve()
    import qcurve.cli  # noqa: F401  (its namespace is rebound too)
    before = _bindings()
    t = tr.Tracer()
    t.install()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        # every target is wrapped, in its home and where it was imported
        assert ("qcurve.nonlinear", "fixed_point_solve") in changed
        assert ("qcurve.cli", "fixed_point_solve") in changed
        assert ("qcurve", "fixed_point_solve") in changed
        assert ("qcurve.linear", "solve_banded") in changed
        assert ("qcurve.ucurve", "solve_banded") in changed
        assert ("BandedFactor", "shoot_regular") in changed
        assert ("qcurve.geometry", "differentiate") in changed
    finally:
        t.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert set(after) == set(before)


def test_tracer_records_nested_spans_and_counts():
    qc = harness.load_qcurve()
    import numpy as np
    grid = qc.RadialGrid(12.0, 256)
    t = tr.Tracer()
    t.op = 7
    t.install()
    try:
        qc.paneitz_apply(qc.RadialFunction(grid, np.exp(-grid.r)), grid, 5)
    finally:
        t.uninstall()
    names = [s[0] for s in t.spans]
    assert "geometry.paneitz_values" in names
    assert all(s[2] is not None and s[4] == 7 for s in t.spans)
    assert t.counts["grid.differentiate"] > 0


def test_worker_thread_spans_nest_under_the_submitting_span():
    from concurrent.futures import ThreadPoolExecutor
    t = tr.Tracer()

    def work(_):
        with t.span("inner"):
            pass

    t.install()
    try:
        with t.span("outer"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(work, [0]))
    finally:
        t.uninstall()
    names = [s[0] for s in t.spans]
    assert t.spans[names.index("inner")][3] == names.index("outer")


# -- seeded inputs ------------------------------------------------------------

def test_same_seed_same_inputs():
    def inputs(seed):
        q = [harness.q_cycle(harness.make_rng(seed, "q-sweep/0"))
             for _ in range(3)]
        passes = cli_cold.passes(harness.make_rng(seed, "cli-cold"))
        c = [next(passes) for _ in range(3)]
        return q, c
    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def test_amplitudes_cover_the_strata():
    rng = harness.make_rng(3, "q-sweep")
    amps = harness.stratified_amplitudes(rng, 16)
    b = harness.AMPLITUDE_BOUND
    assert all(-b <= a <= b for a in amps)
    strata = sorted(int((a + b) / (2 * b) * 16) for a in amps)
    assert strata == list(range(16))


def test_worker_count_above_nproc_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(harness, "nproc", lambda: cli_cold.SWEEP_WORKERS - 1)
    argv = ["--workload", "cli-cold", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""


def test_cli_cold_issues_whole_passes():
    runner = cli_cold.Runner(5, {}, None)
    passes = list(runner.whole_passes([], 0.0, cli_cold.MIN_PASSES))
    assert len(passes) == cli_cold.MIN_PASSES
    mix = sorted(map(repr, cli_cold.command_mix()))
    assert all(sorted(map(repr, order)) == mix for order, _ in passes)


# -- host-speed scaling -------------------------------------------------------

def test_bracket_divides_out_the_host_speed():
    # probe times: nominal, then twice nominal (a host at half speed)
    probes = iter([1.0, 1.0, 2.0, 2.0])
    b = harness.Bracketed(lambda: next(probes), 1.0)
    rec = {}
    assert b.time(lambda: 7, rec) == 7
    assert rec["wall_s"] >= 0.0 and rec["scale"] == 1.0
    rec = {}
    b.time(lambda: None, rec)          # probes 1.0 before, 2.0 after
    assert rec["scale"] == pytest.approx(2.0 / 3.0)
    assert rec["seconds"] == pytest.approx(rec["wall_s"] * rec["scale"])
    failed = {}
    with pytest.raises(ZeroDivisionError):
        b.time(lambda: 1 / 0, failed)
    assert failed["scale"] == 0.5
