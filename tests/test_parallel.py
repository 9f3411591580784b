import multiprocessing
import os

import numpy as np
import pytest

from kepdiff import (ConvergenceError, PhysParams, SimConfig, io, parallel,
                     sde, simulate_ensemble)
from kepdiff.cli import main


@pytest.fixture
def forks(monkeypatch):
    """A list that gets an entry for every os.fork in the test."""
    calls = []
    real = os.fork

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def no_fork(monkeypatch):
    def refused():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refused)


def _cfg(n_paths, **kw):
    return SimConfig(params=PhysParams(ecc=0.5, eps=0.2), dt=1e-3,
                     n_steps=300, n_paths=n_paths, seed=3, record_stride=10,
                     **kw)


def test_shard_count_rule(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [parallel.shard_count(n) for n in (1, 127, 128, 191, 192, 4096)] \
        == [1, 1, 2, 2, 3, 3]
    assert parallel.shard_ranges(129, 2) == [(0, 64), (64, 129)]


def test_one_cpu_or_no_fork_runs_in_process(monkeypatch, no_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert parallel.shard_count(4096) == 1
    simulate_ensemble(_cfg(128))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert parallel.shard_count(4096) == 1
    simulate_ensemble(_cfg(128))


def test_runs_below_the_threshold_start_no_process(tmp_path, capsys,
                                                   no_fork):
    # perfbench's warm-up sizes, a 4-path ensemble and a 2-path CLI run,
    # and C4's and ensemble_narrow's 64 lanes
    simulate_ensemble(_cfg(4))
    simulate_ensemble(_cfg(64))
    assert main(["simulate", "--seed", "0", "--n-steps", "100",
                 "--n-paths", "2", "--out-dir", str(tmp_path)]) == 0


def test_sharded_run_and_parallel_csv_leave_no_process(monkeypatch,
                                                       tmp_path, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ens = simulate_ensemble(_cfg(128))
    io.write_csv(tmp_path / "t.csv", io.TRAJECTORY_COLUMNS,
                 io.trajectory_blocks(ens))
    # two workers each for the steps, the record coordinates and the text
    assert len(forks) == 6
    assert multiprocessing.active_children() == []
    # the same bytes, in path order, as the text made in this process
    monkeypatch.setattr(io, "shard_count", lambda n: 1)
    io.write_csv(tmp_path / "one.csv", io.TRAJECTORY_COLUMNS,
                 io.trajectory_blocks(ens))
    assert len(forks) == 6
    text = (tmp_path / "t.csv").read_bytes()
    assert text == (tmp_path / "one.csv").read_bytes()
    assert text.count(b"\n") == 1 + 128 * 31


def test_exception_in_a_shard_reaches_the_caller(monkeypatch, forks):
    def failing(pp, X):
        raise ConvergenceError("drift failed in a shard")

    monkeypatch.setattr(sde, "shard_count", lambda n: 2)
    monkeypatch.setattr(sde, "drift_components", failing)
    with pytest.raises(ConvergenceError, match="drift failed in a shard"):
        simulate_ensemble(_cfg(8))
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


def test_malformed_block_in_a_worker_raises(monkeypatch, tmp_path, forks):
    monkeypatch.setattr(io, "shard_count", lambda n: 2)
    blocks = [(np.zeros(2), np.zeros(2))] * 5 + [(np.zeros(2),)]
    with pytest.raises(ValueError):
        io.write_csv(tmp_path / "bad.csv", ["a", "b"], blocks)
    assert len(forks) == 2
    assert multiprocessing.active_children() == []
