import json
import math

import numpy as np
import pytest

from qcurve.cli import (ConfigError, execute, main, parse_config,
                        write_report)


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
    assert "must be finite" in capsys.readouterr().err


def test_config_file_rejects_non_finite(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"amplitudes": [1e-4, math.inf]}))
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config(["sweep", "--config", str(cfg_file)])
    cfg_file.write_text(json.dumps({"amplitude": math.nan}))
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config(["solve", "--config", str(cfg_file)])


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


def test_config_file_malformed(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text("{oops")
    assert main(["solve", "--config", str(cfg_file)]) == 2


def test_config_file_command_mismatch(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"command": "sweep"}))
    with pytest.raises(ConfigError):
        parse_config(["solve", "--config", str(cfg_file)])


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
