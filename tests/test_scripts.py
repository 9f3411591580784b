import os
import subprocess
import sys
from pathlib import Path

import pytest

from csv_oracle import trajectory_rows, write_csv_rows
from kepdiff import PhysParams, RingStart, SimConfig, simulate_ensemble
from kepdiff.io import TRAJECTORY_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.name)
def test_script_help(script):
    """Each script imports what it uses from kepdiff and parses --help."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(script), "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage:")


def test_showcase_ensemble_csv_matches_row_writer(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable,
                          str(ROOT / "scripts" / "run_showcase_ensemble.py"),
                          "--seed", "5", "--t-final", "0.2", "--n-paths", "3",
                          "--out-dir", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    p = PhysParams(ecc=0.5, eps=0.1)
    cfg = SimConfig(params=p, dt=1e-3, n_steps=int(0.2 / 1e-3), n_paths=3,
                    seed=5, x0=RingStart(3 * p.a), record_stride=50)
    oracle = tmp_path / "oracle.csv"
    write_csv_rows(oracle, TRAJECTORY_COLUMNS,
                   trajectory_rows(simulate_ensemble(cfg)),
                   metadata=cfg.as_dict())
    got = (tmp_path / "showcase_trajectories.csv").read_bytes()
    assert got == oracle.read_bytes()
    assert got.count(b"\n") == 2 + 3 * 5
