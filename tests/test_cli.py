import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from kepdiff import GAUSS_WIDTH_FACTOR, ConvergenceError, sde, spectral
from kepdiff.cli import build_parser, main
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


@pytest.mark.parametrize("argv", [
    ["field", "--point", "0,0,0"],
    # |x| overflows to inf: a domain error, not NaN or Infinity in the output
    ["field", "--point", "1e200,0.5,0"],
    ["field", "--grid", "2", "--box=1e200,2e200,0,1", "--out", "g.csv"],
    ["spectral", "--scan", "--radii", "1e200"],
], ids=["origin", "point_overflow", "grid_overflow", "scan_overflow"])
def test_field_origin_exit_code(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        code, _, err = run(capsys, *argv)
    assert code == 3
    assert "domain error" in err


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
    # rows run over y within each x, written one grid line per block
    xy = [tuple(map(float, line.split(",")[:2])) for line in lines[2:]]
    assert xy == [(x, y) for x in np.linspace(-2, 1, 8)
                  for y in np.linspace(-1, 1, 8)]


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
    # neither the gap solver nor the scan takes a tuning option, so the
    # config has no spectral section for them
    cfg = tmp_path / "spectral.json"
    out = tmp_path / "out"
    for section in ({"krylov_m": 40}, {"C": 1}):
        write_json(cfg, {"spectral": section})
        code, stdout, err = run(capsys, "spectral", "--scan", "--config",
                                str(cfg), "--out-dir", str(out))
        assert code == 2
        assert "config error: unknown config sections: ['spectral']" in err
        assert stdout == ""
        assert not out.exists()


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
    assert set(doc["z_spread"]) == {"v", "empirical", "gaussian_prediction",
                                    "width_factor"}
    assert doc["z_spread"]["width_factor"] == GAUSS_WIDTH_FACTOR
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
    assert len(doc["eigenvalues"]) == spectral.N_EIGS
    assert "converged" not in doc
    assert doc["params"]["eps"] == 0.3


def test_spectral_gap_unchecked_eigenpair_exit_code(capsys, tmp_path,
                                                    monkeypatch):
    # no planar grid reaches the solver's refusals from the command line
    # (test_spectral covers them), so the solver is made to refuse here
    def refuse(G):
        raise ConvergenceError("gap eigenpair weighted residual 0.134")

    monkeypatch.setattr(spectral, "gap_from_matrix", refuse)
    code, out, err = run(capsys, "spectral", "--gap", "--no-autocorr",
                         "--eps", "0.3", "--n", "120",
                         "--out-dir", str(tmp_path))
    assert code == 3
    assert "domain error" in err and "weighted residual 0.134" in err
    assert out == ""
    assert not (tmp_path / "gap_report.json").exists()


def test_spectral_scan_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "spectral", "--scan",
                       "--radii", "1,5,20,100", "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert math.isfinite(doc["r1_hat"])
    lines = (tmp_path / "radial_scan.csv").read_text().splitlines()
    meta = json.loads(lines[0].removeprefix("# config: "))
    assert meta["C"] == doc["C"]
    assert lines[1] == "r,max_Gu,bound"
    # one row per radius, each (r, max_Gu, bound), bound = -eps^2 C_tilde/2
    rows = [list(map(float, line.split(","))) for line in lines[2:]]
    assert [r for r, _, _ in rows] == [1.0, 5.0, 20.0, 100.0]
    bound = -meta["params"]["eps"] ** 2 * meta["C_tilde"] / 2
    assert [b for _, _, b in rows] == [bound] * 4


@pytest.mark.parametrize("argv, code, message", [
    # a malformed radius is the user's input: a config error, found
    # before the estimate is checked
    (("--ecc", "0.9", "--radii", "0"), 2,
     "config error: radii must be non-empty, finite and positive"),
    # sup |grad ln T| out of range means the estimate fails at these params
    (("--ecc", "0.9"), 3, "domain error: sup |grad ln T| = 94.74 "),
    (("--ecc", "0.75"), 3, "domain error: sup |grad ln T| = 13.71 "),
])
def test_spectral_scan_C_out_of_range(capsys, tmp_path, argv, code, message):
    out = tmp_path / "out"
    got, stdout, err = run(capsys, "spectral", "--scan", "--eps", "0.3",
                           *argv, "--out-dir", str(out))
    assert got == code
    assert err.startswith(message)
    if code == 3:
        assert "mu/(eps^2 lam) = 11.11" in err
    assert stdout == ""
    assert not out.exists()


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
    ("simulate", "--deterministic", "--n-periods", "0"),
    ("simulate", "--deterministic", "--n-periods", "-1"),
    ("field", "--grid", "-2", "--box", "0,1,0,1"),
    ("field", "--check-identities", "--n", "-5"),
    ("measure", "--widths", "--bins", "-3"),
    ("measure", "--marginal", "--bins", "0", "--seed", "1"),
    ("spectral", "--gap", "--no-autocorr", "--config", {"grid": {"dim": 4}}),
    ("simulate", "--seed", "1", "--config", {"sim": {"n_steps": "100"}}),
    ("spectral", "--gap", "--no-autocorr", "--config", {"grid": {"n": "abc"}}),
    ("field", "--point", "0.5,0,0", "--config", {"params": {"ecc": "0.5"}}),
    ("simulate", "--seed", "1", "--config", {"sim": {"x0": ["a", 0, 0]}}),
    ("spectral", "--gap", "--no-autocorr", "--config",
     {"grid": {"excluded": 0.5}}),
    ("field", "--point", "0.5,0,0", "--config", {"grid": {"box": [0, 1, 0, 1]}}),
    ("simulate", "--figure1", "--seed", "0", "--n-paths", "2"),
    ("simulate", "--figure1", "--seed", "0", "--n-steps", "100"),
    ("simulate", "--figure1", "--seed", "0", "--dt", "1e-3"),
    ("simulate", "--figure1", "--seed", "0", "--record-stride", "5"),
    ("simulate", "--figure1", "--seed", "0", "--config",
     {"sim": {"n_paths": 2}}),
    ("simulate", "--deterministic", "--n-steps", "100"),
    ("simulate", "--deterministic", "--figure1", "--seed", "0"),
    ("simulate", "--deterministic", "--config", {"sim": {"dt": 1e-3}}),
    ("field", "--grid", "2", "--box", "0.5,1,0.5,1", "--z", "nan"),
    ("field", "--grid", "2", "--box", "0.5,1,0.5,1", "--z", "inf"),
    ("spectral", "--gap", "--no-autocorr", "--eps", "0.3", "--n", "120",
     "--config", {"grid": {"dim": 2}}),
    ("spectral", "--scan", "--radii", "1,5", "--gap"),
    ("spectral", "--scan", "--radii", "1,5", "--n", "5"),
    ("spectral", "--scan", "--radii", "1,5", "--seed", "3"),
    ("spectral", "--scan", "--radii", "1,5", "--no-autocorr"),
    ("spectral", "--gap", "--no-autocorr", "--eps", "0.3", "--n", "120",
     "--radii", "1,x"),
    ("spectral", "--scan", "--config", {"spectral": {"C": 1}}),
    ("field", "--grid", "2", "--box", "0.5,1,0.5,1", "--point", "1,a,0",
     "--out", "f.csv"),
    ("field", "--check-identities", "--n", "200", "--point", "1,a,0",
     "--grid", "3"),
    ("field", "--point", "0.5,0,0", "--z", "7", "--box", "x",
     "--out", "never.csv"),
    ("measure", "--widths", "--samples", "abc", "--seed", "1"),
    ("measure", "--widths", "--seed", "0"),
    ("simulate", "--seed", "1", "--n-steps", "10", "--n-paths", "2",
     "--n-periods", "0"),
    ("spectral", "--scan", "--radii", ""),
    # more records than numpy can index
    ("measure", "--marginal", "--samples", "1e30", "--seed", "1"),
    ("simulate", "--seed", "1", "--n-steps", str(10 ** 20)),
])
def test_malformed_input_exit_code(capsys, tmp_path, monkeypatch, argv):
    # a dict stands for a config document, passed as its file's path; a
    # relative --out lands in tmp_path.  field, which refuses --out-dir,
    # gets none, so its cases fail on the input they name.
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    for arg in argv:
        if isinstance(arg, dict):
            write_json(cfg, arg)
    argv = [str(cfg) if isinstance(arg, dict) else arg for arg in argv]
    out_dir = () if argv[0] == "field" else ("--out-dir", str(tmp_path))
    code, _, err = run(capsys, *argv, *out_dir)
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("argv, ignored", [
    (("field", "--point", "0.5,0,0"), "--out-dir"),
    (("field", "--grid", "3", "--box", "0,1,0,1", "--out", "g.csv"),
     "--out-dir"),
    (("field", "--check-identities", "--n", "10"), "--out-dir"),
    (("simulate", "--deterministic", "--n-periods", "1", "--seed", "3"),
     "--seed"),
    (("spectral", "--gap", "--no-autocorr", "--eps", "0.3", "--n", "120",
      "--seed", "3"), "--seed"),
])
def test_ignored_flag_refused(capsys, tmp_path, monkeypatch, argv, ignored):
    # a mode that would not read the flag refuses it, before any output
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--out-dir", str(out))
    assert code == 2
    assert "config error" in err and f"ignore {ignored}" in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("measure", "--marginal"),
    ("spectral", "--gap"),
    ("simulate", "--figure1"),
    ("simulate", "--n-steps", "10", "--n-paths", "2"),
    ("simulate", "--deterministic", "--n-periods", "0"),
    ("spectral", "--scan", "--radii", "1,x"),
    ("spectral", "--scan", "--radii", "1,-5"),
    ("spectral", "--gap", "--no-autocorr", "--n", "0"),
    ("measure", "--widths", "--marginal", "--seed", "1", "--samples", "abc"),
    ("measure", "--widths", "--marginal", "--seed", "1", "--samples", "100"),
])
def test_refused_command_leaves_no_out_dir(capsys, tmp_path, argv):
    # every input is checked before the output directory is made
    out = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--out-dir", str(out))
    assert code == 2
    assert "config error" in err
    assert not out.exists()


@pytest.mark.parametrize("content, code, message", [
    (b'{"params": {"ecc": 0.5,}}', 2, "config error"),   # a trailing comma
    (b'{"output": {"prefix": "\xff"}}', 2, "config error"),   # not UTF-8
    (None, 4, "i/o error"),                                  # no such file
], ids=["trailing_comma", "not_utf8", "missing"])
def test_unreadable_config_exit_code(capsys, tmp_path, content, code,
                                     message):
    cfg = tmp_path / "config.json"
    if content is not None:
        cfg.write_bytes(content)
    out = tmp_path / "out"
    got, stdout, err = run(capsys, "simulate", "--seed", "1", "--config",
                           str(cfg), "--out-dir", str(out))
    assert got == code
    assert err.startswith(message) and str(cfg) in err
    assert stdout == ""
    assert not out.exists()


def _strict_json(text):
    """The JSON document in text, refusing NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_outputs_are_strict_json(capsys, tmp_path):
    # no radius past which the bound holds: r1_hat is null
    code, out, _ = run(capsys, "spectral", "--scan", "--radii", "0.1,0.2",
                       "--out-dir", str(tmp_path))
    assert code == 0
    assert _strict_json(out)["r1_hat"] is None
    # every path truncated: no final |z| or areal velocity to average,
    # and no warning
    cfg = tmp_path / "config.json"
    write_json(cfg, {"sim": {"x0": [0, 0, 0]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, "simulate", "--seed", "1", "--n-steps",
                           "20", "--n-paths", "2", "--config", str(cfg),
                           "--out-dir", str(tmp_path))
    assert code == 0
    diag = _strict_json((tmp_path / "diagnostics.json").read_text())
    assert diag["truncated_paths"] == 2
    assert diag["mean_abs_z_final"] is None
    assert diag["areal_velocity_mean"] is None
    assert diag["areal_velocity_rel_spread"] is None
    _strict_json(out)
    # a stride past the last step records the start alone: no interval
    # to take an areal velocity over
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, "simulate", "--seed", "1", "--n-steps",
                           "10", "--n-paths", "2", "--record-stride", "50",
                           "--out-dir", str(tmp_path / "one_record"))
    assert code == 0
    diag = _strict_json(
        (tmp_path / "one_record" / "diagnostics.json").read_text())
    assert diag["areal_velocity_mean"] is None
    assert diag["areal_velocity_rel_spread"] is None


def test_removed_dim_flag_rejected(capsys):
    # model gaps are planar only: argparse refuses --dim as unknown
    with pytest.raises(SystemExit) as exc:
        main(["spectral", "--gap", "--no-autocorr", "--dim", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dim 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("spectral", "--scan", "--C", "1"),
    ("spectral", "--gap", "--no-autocorr", "--eps", "0.3", "--n", "120",
     "--C", "0.5"),
], ids=["scan", "gap"])
def test_removed_C_flag_rejected(capsys, tmp_path, argv):
    # C is always the exact sup |grad ln T|: argparse refuses --C as
    # unknown, before any output directory is made
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --C" in capsys.readouterr().err
    assert not out.exists()


def test_readme_cli_flags_match_parser():
    # README's CLI section names every subcommand's long options and no
    # other, so a removed flag cannot linger there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[A-Za-z][A-Za-z0-9-]*", section))
    subs = next(a for a in build_parser()._actions
                if a.dest == "command").choices
    options = {o for sp in subs.values() for a in sp._actions
               for o in a.option_strings if o.startswith("--")}
    assert named == options - {"--help"}


def test_readme_cli_examples_parse():
    # every example in README's CLI block names flags the parser knows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("kepdiff ")]
    assert lines
    parser = build_parser()
    bad = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            bad.append(line.strip())
    assert not bad, f"README CLI examples that do not parse: {bad}"


def test_io_error_exit_code(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code, _, err = run(capsys, "measure", "--widths",
                       "--out-dir", str(blocker / "sub"))
    assert code == 4
    assert "i/o error" in err
