import json
import math

import pytest

from kepdiff import sde
from kepdiff.cli import main
from kepdiff.io import read_json, write_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_point(capsys):
    code, out, _ = run(capsys, "field", "--point", "0.5,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["drift"][1] == pytest.approx(math.sqrt(3), abs=1e-7)
    assert doc["alpha"] == pytest.approx(3.0)
    assert doc["config"]["ecc"] == 0.5


def test_field_origin_exit_code(capsys):
    code, _, err = run(capsys, "field", "--point", "0,0,0")
    assert code == 3
    assert "error" in err


def test_field_check_identities(capsys):
    code, out, _ = run(capsys, "field", "--check-identities", "--n", "2000")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_energy_residual"] < 1e-8
    assert doc["max_orthogonality"] < 1e-8


def test_field_grid_table(capsys, tmp_path):
    out_csv = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "field", "--grid", "8", "--box=-2,1,-1,1",
                       "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "x,y,z,alpha,beta,b_x,b_y,b_z,log_density"
    assert len(lines) == 2 + 64


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    write_json(cfg, {"params": {"lambda": 1.0}, "nonsense": {}})
    code, _, err = run(capsys, "field", "--config", str(cfg),
                       "--point", "0.5,0,0")
    assert code == 2
    assert "config error" in err


def test_unknown_section_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad2.json"
    write_json(cfg, {"sim": {"dt": 1e-3, "walltime": 5}})
    code, _, err = run(capsys, "simulate", "--config", str(cfg), "--seed", "1")
    assert code == 2


def test_spectral_solver_keys_rejected(capsys, tmp_path):
    # the gap solver takes no tuning options, so the config has no keys
    # for them
    cfg = tmp_path / "krylov.json"
    write_json(cfg, {"spectral": {"krylov_m": 40}})
    code, _, err = run(capsys, "field", "--config", str(cfg),
                       "--point", "0.5,0,0")
    assert code == 2
    assert "krylov_m" in err


def test_simulate_requires_seed(capsys, tmp_path):
    cfg = tmp_path / "sim.json"
    write_json(cfg, {"sim": {"dt": 1e-3, "n_steps": 100, "n_paths": 2}})
    code, _, err = run(capsys, "simulate", "--config", str(cfg),
                       "--out-dir", str(tmp_path))
    assert code == 2
    assert "seed" in err


def test_simulate_byte_identical(capsys, tmp_path):
    cfg = tmp_path / "sim.json"
    write_json(cfg, {
        "params": {"ecc": 0.5, "eps": 0.1},
        "sim": {"dt": 1e-3, "n_steps": 400, "n_paths": 8,
                "x0": {"ring": {"radius": 3.0}}, "record_stride": 40},
    })
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    for d in (d1, d2):
        code, _, _ = run(capsys, "simulate", "--config", str(cfg),
                         "--seed", "9", "--out-dir", str(d))
        assert code == 0
    b1 = (d1 / "trajectories.csv").read_bytes()
    b2 = (d2 / "trajectories.csv").read_bytes()
    assert b1 == b2
    j1 = (d1 / "diagnostics.json").read_bytes()
    assert j1 == (d2 / "diagnostics.json").read_bytes()


def test_simulate_trajectory_format(capsys, tmp_path):
    cfg = tmp_path / "sim.json"
    write_json(cfg, {"sim": {"dt": 1e-3, "n_steps": 100, "n_paths": 2,
                             "x0": [0.5, 0.0, 0.0], "record_stride": 50}})
    code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                       "--seed", "3", "--out-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert lines[1] == "path,t,x,y,z,u,v,dist_sigma"
    first = lines[2].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    doc = read_json(tmp_path / "diagnostics.json")
    assert "fraction_converged_final" in doc
    assert doc["config"]["seed"] == 3


def test_simulate_deterministic_period(capsys, tmp_path):
    code, out, _ = run(capsys, "simulate", "--deterministic",
                       "--n-periods", "1", "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["relative_error"] < 1e-3
    assert doc["period"] == pytest.approx(2 * math.pi, rel=1e-3)


def test_measure_widths(capsys, tmp_path):
    code, _, _ = run(capsys, "measure", "--widths", "--bins", "16",
                     "--out-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "widths.csv").read_text().splitlines()
    assert lines[1] == "v,sigma_normal,sigma_z"
    assert len(lines) == 2 + 16


def test_measure_marginal_small(capsys, tmp_path):
    code, out, _ = run(capsys, "measure", "--marginal", "--samples", "12000",
                       "--seed", "4", "--bins", "16",
                       "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] >= 12000
    assert doc["l1"] < 0.5
    lines = (tmp_path / "marginal.csv").read_text().splitlines()
    assert lines[1] == "bin_center,empirical,analytic"


def test_measure_marginal_too_few_samples_rejected_up_front(
        capsys, tmp_path, monkeypatch):
    def no_simulation(cfg):
        raise AssertionError("simulated before checking the sample count")
    monkeypatch.setattr(sde, "simulate_ensemble", no_simulation)
    code, _, err = run(capsys, "measure", "--marginal", "--samples", "100",
                       "--seed", "1", "--out-dir", str(tmp_path))
    assert code == 2
    assert "--samples 100 yields at most 192 post-burn-in samples" in err


def test_measure_requires_mode(capsys):
    code, _, err = run(capsys, "measure")
    assert code == 2


def test_spectral_gap_report(capsys, tmp_path):
    code, out, _ = run(capsys, "spectral", "--gap", "--eps", "0.3",
                       "--n", "120", "--no-autocorr",
                       "--out-dir", str(tmp_path))
    assert code == 0
    doc = read_json(tmp_path / "gap_report.json")
    assert doc["gap"] > 0
    assert doc["eigen_residual"] < 1e-8
    assert doc["params"]["eps"] == 0.3


def test_spectral_scan_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "spectral", "--scan",
                       "--radii", "1,5,20,100", "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert math.isfinite(doc["r1_hat"])
    lines = (tmp_path / "radial_scan.csv").read_text().splitlines()
    assert lines[1] == "r,max_Gu,bound"
    assert len(lines) == 2 + 4


def test_verify_quick(capsys):
    import time
    t0 = time.time()
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    assert time.time() - t0 < 10.0
    assert "[PASS] C1" in out and "[PASS] C6" in out
    assert "4/4 criteria passed" in out


@pytest.mark.parametrize("argv", [
    ("field", "--grid", "3", "--box", "0,1,2"),
    ("field", "--point", "1,a,0"),
    ("spectral", "--scan", "--radii", "1,x"),
    ("measure", "--marginal", "--samples", "abc", "--seed", "1"),
    ("measure", "--marginal", "--samples", "100", "--seed", "1"),
])
def test_malformed_input_exit_code(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert "config error" in err


def test_io_error_exit_code(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code, _, err = run(capsys, "measure", "--widths",
                       "--out-dir", str(blocker / "sub"))
    assert code == 4
    assert "i/o error" in err
