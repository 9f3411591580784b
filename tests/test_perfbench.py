from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_warm_up_runs(tmp_path, monkeypatch):
    # the benchmark's setup calls build_generator (drift_fn=None,
    # weight_fn=None, check_resolution=False), SimConfig,
    # gap_from_autocorrelation and cli.main(["simulate", ...]) with its
    # own arguments; a change to any of them fails the benchmark before
    # it measures anything
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    workloads.warm_up(tmp_path)
    assert list(tmp_path.iterdir()) == []   # its output dir is removed
