import tracemalloc

import numpy as np
import pytest

from csv_oracle import trajectory_rows, write_csv_rows
from kepdiff import PhysParams, RingStart, SimConfig, simulate_ensemble
from kepdiff.cli import main
from kepdiff.io import (TRAJECTORY_COLUMNS, trajectory_blocks, write_csv,
                        write_json)

SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
           1e16, 1e-5, 0.1 + 0.2, -1.5, 123456789.125]
META = {"params": {"ecc": 0.5, "eps": 0.1}, "seed": 7, "tag": "x"}


def _both(tmp_path, columns, blocks, rows, metadata):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(new, columns, blocks, metadata=metadata)
    write_csv_rows(old, columns, rows, metadata=metadata)
    return new.read_bytes(), old.read_bytes()


@pytest.mark.parametrize("metadata", [None, META], ids=["no_meta", "meta"])
def test_cells_match_row_writer(tmp_path, metadata):
    n = len(SPECIAL)
    floats = np.array(SPECIAL)
    ints = np.arange(n, dtype=np.int64) * -(2 ** 40)
    py_ints = [3 * k - 7 for k in range(n)]
    f32 = np.array(SPECIAL, dtype=np.float32)
    new, old = _both(tmp_path, ["f", "i", "pi", "f32"],
                     [(floats, ints, py_ints, f32)],
                     list(zip(floats, ints, py_ints, f32)), metadata)
    assert new == old
    assert b"\nnan,0,-7,nan\n" in new and b"5e-324" in new


def test_blocks_of_unequal_length_and_empty(tmp_path):
    rng = np.random.default_rng(3)
    sizes = [3, 0, 1, 5, 0]
    blocks = [(np.full(m, k), rng.standard_normal(m) * 10.0 ** k)
              for k, m in enumerate(sizes)]
    rows = [row for b in blocks for row in zip(*b)]
    new, old = _both(tmp_path, ["k", "x"], blocks, rows, META)
    assert new == old
    assert new.count(b"\n") == 2 + sum(sizes)


def test_only_empty_blocks_write_the_header(tmp_path):
    new, old = _both(tmp_path, ["a", "b"], [(np.empty(0), np.empty(0))], [],
                     None)
    assert new == old == b"a,b\n"


def test_text_columns_are_written_as_is(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["s", "x"], [(["0.10", "b"], np.array([1.0, 2.0]))])
    assert path.read_bytes() == b"s,x\n0.10,1.0\nb,2.0\n"


@pytest.mark.parametrize("block", [
    (np.zeros(2),),
    (np.zeros(2), np.zeros(3)),
], ids=["too_few_columns", "unequal_lengths"])
def test_malformed_block_rejected(tmp_path, block):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [block])


def test_simulate_trajectories_match_row_writer(capsys, tmp_path):
    cfg_path = tmp_path / "sim.json"
    write_json(cfg_path, {
        "params": {"ecc": 0.5, "eps": 0.1},
        "sim": {"dt": 1e-3, "n_steps": 400, "n_paths": 5,
                "x0": {"ring": {"radius": 3.0}}, "record_stride": 40},
    })
    assert main(["simulate", "--config", str(cfg_path), "--seed", "9",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    sim = SimConfig(params=PhysParams(ecc=0.5, eps=0.1), dt=1e-3,
                    n_steps=400, n_paths=5, seed=9, x0=RingStart(3.0),
                    record_stride=40)
    old = tmp_path / "oracle.csv"
    write_csv_rows(old, TRAJECTORY_COLUMNS,
                   trajectory_rows(simulate_ensemble(sim)),
                   metadata=sim.as_dict())
    assert (tmp_path / "trajectories.csv").read_bytes() == old.read_bytes()


def test_trajectory_write_memory_is_bounded(tmp_path):
    # 16 paths x 2001 records: the streamed writer holds one path's text
    # at a time, the row writer the whole table
    p = PhysParams(ecc=0.5, eps=0.1)
    ens = simulate_ensemble(SimConfig(params=p, dt=1e-3, n_steps=2000,
                                      n_paths=16, seed=4, x0=RingStart(3.0),
                                      record_stride=1))
    assert ens.pos.shape == (16, 2001, 3)
    peaks = []
    for write in (
            lambda: write_csv(tmp_path / "new.csv", TRAJECTORY_COLUMNS,
                              trajectory_blocks(ens)),
            lambda: write_csv_rows(tmp_path / "old.csv", TRAJECTORY_COLUMNS,
                                   trajectory_rows(ens))):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()
    # the bound separates the two writers
    assert peaks[0] < 8e6 < peaks[1]
