import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qcurve.cli
import qcurve.nonlinear
from qcurve.cli import (ConfigError, _build_parser, main, parse_config,
                        write_report)
from qcurve.expansion import fit_leading
from qcurve.linear import kernel_element
from qcurve.ucurve import DetParams, u_kernel_element


def run(argv, tmp_path, name):
    code = main(argv + ["--out", str(tmp_path)])
    path = tmp_path / name
    data = json.loads(path.read_text()) if path.exists() else None
    return code, data


# ---------------------------------------------------------------------------
# configuration


def test_parse_defaults():
    cfg = parse_config(["solve"])
    assert cfg.command == "solve"
    assert cfg.n == 5
    assert cfg.r_max == 12.0
    assert cfg.points == 4096
    assert cfg.epsilon == 1e-3
    assert cfg.tol == 1e-10
    assert cfg.format == "json"


def test_parse_overrides():
    cfg = parse_config(["indicial", "--n", "4", "--format", "json"])
    assert cfg.command == "indicial" and cfg.n == 4


def test_parse_rejects_small_dimension(capsys):
    assert main(["solve", "--n", "3"]) == 2
    assert "dimension must be" in capsys.readouterr().err


def test_parse_rejects_degenerate_alpha():
    with pytest.raises(ConfigError):
        parse_config(["ucurve", "--gamma", "0,-12,1"])


def test_parse_rejects_bad_gamma():
    with pytest.raises(ConfigError):
        parse_config(["ucurve", "--gamma", "1,2"])
    with pytest.raises(ConfigError):
        parse_config(["ucurve", "--gamma", "a,b,c"])


@pytest.mark.parametrize("argv", [
    ["kernel", "--n", "5", "--amplitude", "nan"],
    ["sweep", "--amplitudes", "1e-4,inf"],
    ["solve", "--epsilon", "nan"],
    ["solve", "--tol", "inf"],
    ["solve", "--r-max", "nan"],
    ["indicial", "--alpha", "nan"],
    ["ucurve", "--gamma", "1,-inf,1"],
    ["solve", "--target=-inf"],
], ids=["amplitude", "amplitudes", "epsilon", "tol", "r_max", "alpha",
        "gamma", "target"])
def test_parse_rejects_non_finite(argv, capsys):
    """NaN and inf slip through every `<= 0` range check; they must exit 2
    at parse time, before any machinery is built."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "array(" not in err


def test_non_finite_message_names_the_value(capsys):
    assert main(["solve", "--amplitude", "nan"]) == 2
    assert capsys.readouterr().err == \
        "error: amplitude must be finite, got nan\n"
    assert main(["sweep", "--amplitudes", "1e-4,-inf"]) == 2
    assert capsys.readouterr().err == \
        "error: amplitudes must be finite, got (0.0001, -inf)\n"


def test_config_file_rejects_non_finite(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"amplitudes": [1e-4, math.inf]}))
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config(["sweep", "--config", str(cfg_file)])
    cfg_file.write_text(json.dumps({"amplitude": math.nan}))
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config(["solve", "--config", str(cfg_file)])


@pytest.mark.parametrize("argv", [
    ["solve", "--r-max", "3"],
    ["expand", "--r-max", "5"],
    ["kernel", "--n", "4", "--r-max", "10"],
    ["sweep", "--r-max", "9"],
    ["ucurve", "--preset", "D2", "--r-max", "8"],
    ["verify", "asymptotics", "--r-max", "11"],
], ids=["solve", "expand", "kernel-n4", "sweep", "ucurve-D2",
        "verify-asymptotics"])
def test_parse_rejects_short_fit_window(argv):
    """An r_max whose default kernel fit window spans too few oscillation
    periods is a configuration error, found before any machinery."""
    with pytest.raises(ConfigError, match="oscillation periods"):
        parse_config(argv)


def test_parse_fit_window_needs_no_oscillation_in_real_regimes():
    # presets A (alpha = 1/2) and P (alpha = -7/16) have real kernels
    for preset in ("A", "P"):
        assert parse_config(["ucurve", "--preset", preset,
                             "--r-max", "3"]).r_max == 3.0
    assert parse_config(["verify", "bessel", "--r-max", "3"]).r_max == 3.0


@pytest.mark.parametrize("argv", [
    ["kernel", "--points", "32"],
    ["solve", "--points", "63"],
    ["ucurve", "--preset", "A", "--points", "48"],
    ["verify", "asymptotics", "--points", "32"],
])
def test_parse_rejects_too_few_points_for_bands(argv, capsys):
    assert main(argv) == 2
    assert "at least 64 grid points" in capsys.readouterr().err


def test_few_points_allowed_without_bands(tmp_path):
    assert main(["indicial", "--points", "16", "--out", str(tmp_path)]) == 0
    assert parse_config(["verify", "bessel", "--points", "16"]).points == 16


def test_numerical_failure_exits_1_without_report(tmp_path, capsys):
    """The real-regime U kernel fit at r_max = 3 is ill-conditioned: a
    numerical failure of the run (exit 1), not a configuration error."""
    assert main(["ucurve", "--preset", "A", "--r-max", "3",
                 "--out", str(tmp_path)]) == 1
    assert "cannot separate the leading order" in capsys.readouterr().err
    assert not (tmp_path / "ucurve.json").exists()


def test_option_table_builds_parser_and_config_keys(tmp_path):
    """Each command's flags, and the keys its config file may hold, come
    from the one option table."""
    flags = {
        "indicial": {"n", "alpha"},
        "kernel": {"n", "preset", "gamma", "amplitude"},
        "solve": {"n", "amplitude", "epsilon", "tol", "max_iter", "target"},
        "sweep": {"n", "amplitudes", "epsilon", "tol", "max_iter",
                  "workers"},
        "ucurve": {"preset", "gamma", "amplitude", "epsilon", "tol",
                   "max_iter"},
        "expand": {"n", "amplitude", "epsilon", "tol", "max_iter"},
        "verify": {"check", "n"},
    }
    parser = _build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    for command, own in flags.items():
        dests = {a.dest for a in sub.choices[command]._actions} - {"help"}
        assert dests == own | {"r_max", "points", "format", "out", "config"}
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"workers": 2, "max_iter": 7}))
    cfg = parse_config(["sweep", "--config", str(cfg_file)])
    assert cfg.workers == 2 and cfg.max_iter == 7
    for key in ("target", "config"):
        cfg_file.write_text(json.dumps({key: 1.0}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(["sweep", "--config", str(cfg_file)])


def _parse_outcome(parser, argv, capsys):
    """(namespace or None, exit code, stdout, stderr) of one parse."""
    try:
        ns, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        ns, code = None, exc.code
    out = capsys.readouterr()
    return ns, code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], [], ["bogus"], ["sol"], ["--bogus"],
    ["--bogus", "solve"], ["-1", "solve"], ["solve", "--bogus"],
    ["solve", "--n", "x"], ["solve", "--n"], ["solve", "--format", "xml"],
    ["solve", "extra"], ["verify"], ["verify", "nope"],
    ["verify", "bessel", "--n", "4", "--r-max", "9"], ["--", "solve"],
    ["solve", "--", "--n"], ["solve", "--amp", "2e-3", "--tol=1e-9"],
    ["sweep", "--amplitudes", "1e-4,2e-4", "--workers", "2"],
    ["ucurve", "--preset", "P", "--config", "c.json"],
    ["indicial", "--alpha", "0.6"], ["kernel", "--gamma", "1,2,3"],
    ["expand", "--max-iter", "3"]]
    + [[command, "--help"] for command in qcurve.cli._COMMANDS])
def test_lazy_parser_matches_full_parser(argv, capsys, monkeypatch):
    """The parser that gives only the invoked command's subparser its
    arguments parses, helps and fails byte for byte as the one that builds
    them all: namespace, exit code, stdout and stderr."""
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse_outcome(_build_parser(), argv, capsys)
    lazy = _parse_outcome(_build_parser(lazy=True), argv, capsys)
    assert lazy == full
    assert full[2] or full[3] or full[0]


def test_lazy_parser_builds_only_the_invoked_command(monkeypatch):
    built = []
    add_options = qcurve.cli._add_options
    monkeypatch.setattr(qcurve.cli, "_add_options",
                        lambda sp, command: (built.append(command),
                                             add_options(sp, command)))
    assert parse_config(["verify", "bessel"]).check == "bessel"
    assert built == ["verify"]


def test_parse_preset_aliases():
    cfg = parse_config(["ucurve", "--preset", "P"])
    assert cfg.params.tag == "paneitz"
    assert cfg.params.gamma1 == -0.25
    assert cfg.params.gamma2 == -14.0
    cfg = parse_config(["ucurve", "--preset", "conformal_laplacian"])
    assert cfg.params.alpha == 0.5
    with pytest.raises(ConfigError):
        parse_config(["ucurve", "--preset", "Z"])


def test_parse_requires_family_for_ucurve():
    with pytest.raises(ConfigError):
        parse_config(["ucurve"])


def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"points": 1024, "amplitude": 2e-4}))
    cfg = parse_config(["solve", "--n", "4", "--config", str(cfg_file)])
    assert cfg.points == 1024 and cfg.amplitude == 2e-4 and cfg.n == 4
    # explicit flags beat the file
    cfg = parse_config(["solve", "--points", "512",
                        "--config", str(cfg_file)])
    assert cfg.points == 512


def test_config_file_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"bogus": 1}))
    assert main(["solve", "--config", str(cfg_file)]) == 2


def test_config_file_refuses_verify_check(tmp_path, capsys):
    """verify's check is positional and always given on the command line,
    so a "check" entry in its config file is refused, before any work,
    instead of being ignored."""
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"check": "bessel"}))
    assert main(["verify", "covariance", "--config", str(cfg_file),
                 "--out", str(tmp_path)]) == 2
    assert "unknown config keys for verify: check" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_config_file_malformed(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text("{oops")
    assert main(["solve", "--config", str(cfg_file)]) == 2


def test_config_file_command_mismatch(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"command": "sweep"}))
    with pytest.raises(ConfigError):
        parse_config(["solve", "--config", str(cfg_file)])


@pytest.mark.parametrize("value", [1024, "1024"], ids=["number", "text"])
def test_config_file_values_take_the_option_type(value, tmp_path):
    """File values go through the option's type, as flag text does."""
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"points": value, "tol": "1e-9",
                                    "format": "csv", "target": None}))
    cfg = parse_config(["solve", "--config", str(cfg_file)])
    assert cfg.points == 1024 and type(cfg.points) is int
    assert cfg.tol == 1e-9 and cfg.format == "csv" and cfg.target is None


@pytest.mark.parametrize("entry", [
    {"n": 5.5}, {"n": True}, {"points": "many"}, {"tol": [1e-9]},
    {"format": "xml"}, {"max_iter": "1.5"},
], ids=["n-float", "n-bool", "points-text", "tol-list", "format-choice",
        "max_iter-text"])
def test_config_file_rejects_mistyped_values(entry, tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps(entry))
    assert main(["solve", "--config", str(cfg_file),
                 "--out", str(tmp_path)]) == 2
    assert "config key %s" % next(iter(entry)) in capsys.readouterr().err
    assert not (tmp_path / "solve.json").exists()


@pytest.mark.parametrize("amplitudes", [1e-3, [1e-3, "x"], [True], []],
                         ids=["number", "list-text", "list-bool", "empty"])
def test_config_file_rejects_mistyped_amplitudes(amplitudes, tmp_path,
                                                 capsys):
    """A file's amplitudes are a comma string, as the flag takes, or a
    non-empty list of numbers; anything else exits 2 before any work."""
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"amplitudes": amplitudes}))
    assert main(["sweep", "--config", str(cfg_file),
                 "--out", str(tmp_path)]) == 2
    assert "config key amplitudes" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize("r_max", ["2", "1.5"])
def test_verify_covariance_refuses_an_empty_window(r_max, tmp_path, capsys):
    """The comparison window [1, r_max - 1] needs r_max > 2."""
    assert main(["verify", "covariance", "--r-max", r_max,
                 "--out", str(tmp_path)]) == 2
    assert "r_max must exceed 2" in capsys.readouterr().err


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("QCURVE_OUT", str(tmp_path))
    assert main(["indicial", "--n", "4"]) == 0
    assert (tmp_path / "indicial.json").exists()


# ---------------------------------------------------------------------------
# serialization


def test_canonical_json_floats(tmp_path):
    path = tmp_path / "r.json"
    write_report({"b": 1.5, "a": [True, None, 2], "nan": math.nan,
                  "inf": math.inf}, "json", str(path))
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert "1.500000000000e+00" in text
    assert '"nan": null' in text
    assert '"inf": "inf"' in text
    json.loads(text)  # stays valid JSON


def test_csv_schema(tmp_path):
    path = tmp_path / "t.csv"
    write_report((("r", "x", "value"),
                  (np.array([0.0, 1.0]), np.array([1.0, 0.5]),
                   np.array([2.0, 3.0]))), "csv", str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "r,x,value"
    assert lines[1].split(",")[0] == "0.000000000000e+00"
    assert len(lines) == 3


def test_csv_rows_match_per_cell_format(tmp_path):
    """One format string per row writes the bytes of formatting each cell
    by itself, for nan, +-inf, tiny and huge values and a longdouble
    column (each cell rounded to double first)."""
    rng = np.random.default_rng(7)
    r = np.linspace(np.longdouble(0), np.longdouble(12), 257)
    special = np.array([math.nan, math.inf, -math.inf, 5e-324, -1.7e308, -0.0])
    value = rng.standard_normal(257) * 10.0 ** rng.integers(-30, 30, 257)
    value[:special.size] = special
    columns = (r, np.exp(-r), value, [float(i) for i in range(257)])
    header = ("r", "x", "value", "i")
    path = tmp_path / "t.csv"
    write_report((header, columns), "csv", str(path))
    rows = [",".join(header)] + [
        ",".join("%.12e" % float(col[i]) for col in columns)
        for i in range(257)]
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
    lines = path.read_text().split("\n")
    assert ([line.split(",")[2] for line in lines[1:4]]
            == ["nan", "inf", "-inf"])


@pytest.mark.parametrize("rows", [0, 1, qcurve.cli._CSV_BLOCK,
                                  2 * qcurve.cli._CSV_BLOCK + 37])
def test_csv_blocks_match_one_string(rows, tmp_path):
    """Blocks of rows write the bytes of the whole table formatted as one
    string, at block edges and for unequal columns (cut to the shortest)."""
    r = np.linspace(np.longdouble(0), np.longdouble(12), rows)
    columns = (r, np.sin(np.asarray(r, float)), np.arange(rows + 5.0))
    path = tmp_path / "t.csv"
    write_report((("r", "s", "i"), columns), "csv", str(path))
    cells = zip(*(np.asarray(col, float).tolist() for col in columns))
    want = "\n".join(["r,s,i"] + ["%.12e,%.12e,%.12e" % c
                                  for c in cells]) + "\n"
    assert path.read_text() == want


def test_csv_writer_holds_one_block(tmp_path):
    """A 4097-row table of five columns is formatted a block at a time:
    the writer's own allocations stay below a third of the table's text
    (one list of all row strings and their join hold about four times
    it)."""
    import tracemalloc
    r = np.linspace(0.0, 12.0, 4097)
    columns = (r, np.tanh(r), np.sin(r), np.cos(r) * 1e-7, np.exp(-r))
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        write_report((tuple("abcde"), columns), "csv", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 3


# ---------------------------------------------------------------------------
# command execution on small grids


def test_indicial_report(tmp_path):
    code, data = run(["indicial", "--n", "5"], tmp_path, "indicial.json")
    assert code == 0
    roots = {tuple(np.round(z, 6)) for z in (tuple(p) for p in data["roots"])}
    assert (5.0, 0.0) in roots and (-1.0, 0.0) in roots
    beta = math.sqrt(26) / 2.0
    assert any(abs(b - beta) < 1e-6 for _, b in roots)


def test_indicial_u_family(tmp_path):
    code, data = run(["indicial", "--alpha", "0.5"], tmp_path,
                     "indicial.json")
    assert code == 0
    assert data["alpha_tilde_sq"] == pytest.approx(0.25)


def test_kernel_csv(tmp_path):
    code = main(["kernel", "--n", "4", "--points", "1024", "--format", "csv",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "kernel.csv").read_text().strip().split("\n")
    assert lines[0] == "r,x,value"
    assert len(lines) == 1025


def test_kernel_longdouble_rounded_once(tmp_path, grid1024):
    """Every kernel element is kept in longdouble, and the kernel command's
    value column is its profile, amplitude times the unit kernel, rounded
    once to double, at the default amplitude 1e-3, at 0.25 and at 0."""
    kernel = kernel_element(5, grid1024)
    assert kernel.base.values.dtype == np.longdouble
    for tag in ("conformal_laplacian", "spin_laplacian"):
        k = u_kernel_element(DetParams.preset(tag), grid1024)
        assert k.base.values.dtype == np.longdouble
    for amplitude, flags in ((1e-3, []), (0.25, ["--amplitude", "0.25"]),
                             (0.0, ["--amplitude", "0"])):
        assert main(["kernel", "--n", "5", "--points", "1024", "--format",
                     "csv", "--out", str(tmp_path)] + flags) == 0
        lines = (tmp_path / "kernel.csv").read_text().strip().split("\n")[1:]
        want = np.asarray(kernel.base.values * amplitude, float)
        assert [line.split(",")[2] for line in lines] == \
            ["%.12e" % v for v in want]
        report = json.loads((tmp_path / "kernel.json").read_text())
        assert report["amplitude"] == amplitude
        assert report["leading_fit"] == pytest.approx(
            [amplitude * c for c in kernel.unit_fit], rel=1e-12, abs=1e-300)


def test_solve_report_and_exit_codes(tmp_path):
    code, data = run(["solve", "--n", "4", "--points", "1024",
                      "--amplitude", "1e-3"], tmp_path, "solve.json")
    assert code == 0
    assert data["converged"] is True
    assert data["fitted_amplitude"] == pytest.approx(1e-3, abs=1e-9)
    # an amplitude outside the configured smallness bound: diverged report
    # still written, exit code 1
    code, data = run(["solve", "--n", "5", "--points", "512",
                      "--amplitude", "10"], tmp_path, "solve.json")
    assert code == 1
    assert data["converged"] is False
    assert data["message"]


def test_solve_max_iter_exhausted(tmp_path):
    code, data = run(["solve", "--n", "5", "--points", "512",
                      "--max-iter", "1"], tmp_path, "solve.json")
    assert code == 1
    assert data["converged"] is False
    assert data["iterations"] == 1
    assert data["message"]


def test_solve_reports_diagnostics_not_warnings(tmp_path):
    """A non-hyperbolic constant target neither decays nor converges: the
    run exits 1 with a quiet stderr, even with warnings as errors, and the
    report names the target deviation and the right-hand side."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qcurve.cli", "solve", "--n",
         "5", "--target", "13.1", "--points", "1024", "--out",
         str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr == ""
    data = json.loads((tmp_path / "solve.json").read_text())
    assert data["converged"] is False
    assert data["message"] == "no convergence in 50 iterations"
    first, second = data["diagnostics"]
    assert first.startswith("target deviation f - Q_g does not decay")
    assert second == "generalized inverse applied to non-decaying data"


def test_solve_does_not_depend_on_the_blas_thread_count(tmp_path):
    """A solve writes the same solve.json and solve.csv bytes under one and
    under two OpenBLAS threads: the memoized iterates are summed by a
    dgemv that OpenBLAS may split over threads at 1024 points."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(
                       None, [str(src), os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "qcurve.cli", "solve", "--n", "5",
             "--points", "1024", "--format", "csv", "--out", str(out)],
            check=True, env=env)
        written.append([(out / name).read_bytes()
                        for name in ("solve.json", "solve.csv")])
    assert written[0] == written[1] and all(written[0])


def test_solve_csv_columns(tmp_path):
    code = main(["solve", "--n", "4", "--points", "1024", "--format", "csv",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "solve.csv").read_text().strip().split("\n")
    assert lines[0] == "r,x,u,Q,R"
    q0 = float(lines[1].split(",")[3])
    assert q0 == pytest.approx(3.0, abs=1e-5)


def test_sweep_report(tmp_path):
    code, data = run(["sweep", "--n", "4", "--points", "512",
                      "--amplitudes", "5e-4,-5e-4", "--workers", "2"],
                     tmp_path, "sweep.json")
    assert code == 0
    assert len(data["entries"]) == 2
    assert data["entries"][1]["pairwise_distances"][0] > 0


def test_ucurve_at_the_double_root(tmp_path, capsys):
    """alpha = 3/5 (gamma 1, 7.2, 1), where T3's indicial roots meet at
    3/2, parses and solves: no companion-check failure."""
    code, data = run(["ucurve", "--gamma", "1,7.2,1", "--points", "1024"],
                     tmp_path, "ucurve.json")
    assert code == 0, capsys.readouterr().err
    assert data["converged"] and data["params"]["alpha"] == 0.6
    assert data["residual"] < 1e-8


def test_ucurve_report(tmp_path):
    code, data = run(["ucurve", "--preset", "A", "--points", "1024"],
                     tmp_path, "ucurve.json")
    assert code == 0
    assert data["converged"] is True
    assert data["params"]["alpha"] == pytest.approx(0.5)


def test_expand_report(tmp_path):
    code, data = run(["expand", "--n", "4", "--points", "1024"],
                     tmp_path, "expand.json")
    assert code == 0
    assert data["expansion"]["leading_exponent"] == pytest.approx(1.5)
    assert data["scalar_coefficient"]["analytic"] == pytest.approx(60.0)


def test_expand_fits_the_expansion_once(tmp_path, monkeypatch):
    """expand reports the boundary expansion its solve has already fitted."""
    calls = []

    def counting(u, n, *args, **kwargs):
        calls.append(n)
        return fit_leading(u, n, *args, **kwargs)

    monkeypatch.setattr(qcurve.nonlinear, "fit_leading", counting)
    monkeypatch.setattr(qcurve.cli, "fit_leading", counting)
    code, data = run(["expand", "--n", "4", "--points", "1024"],
                     tmp_path, "expand.json")
    assert code == 0 and calls == [4]
    assert data["expansion"]["leading_exponent"] == pytest.approx(1.5)


def test_expand_inadmissible_amplitude(tmp_path):
    """Like solve, expand writes a diverged report and exits 1 for an
    amplitude above the smallness bound."""
    code, data = run(["expand", "--n", "4", "--points", "1024",
                      "--amplitude", "10"], tmp_path, "expand.json")
    assert code == 1
    assert data["converged"] is False
    assert "exceeds" in data["message"]


def test_verify_bessel(tmp_path):
    code, data = run(["verify", "bessel", "--n", "4"], tmp_path,
                     "verify_bessel.json")
    assert code == 0
    assert data["passed"] is True


@pytest.mark.parametrize("command", [
    ["indicial", "--n", "4"],
    ["kernel", "--n", "4", "--points", "1024", "--format", "csv"],
    ["solve", "--n", "4", "--points", "1024", "--format", "csv"],
    ["ucurve", "--preset", "A", "--points", "1024"],
])
def test_determinism(command, tmp_path):
    """Identical configs give byte-identical artifacts."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(command + ["--out", str(out1)]) == 0
    assert main(command + ["--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
