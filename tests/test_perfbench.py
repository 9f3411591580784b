import contextlib
import json
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


def test_benchmark_gap_matrix_matches_its_reference(monkeypatch):
    # the benchmark's gap_matrix pass against its stored reference: gap
    # > 0, weighted residual < 1e-8 and gap within GAP_REL_TOL, so a
    # solver that converges to the wrong mode fails here, not only there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    result = workloads.gap_pass(0, None, lambda name: contextlib.nullcontext())
    checks = workloads.gap_checks(workloads.gap_summarize(result),
                                  ref["gap_matrix"])
    assert len(checks) == 9
    assert all(ok is True for _, ok in checks), checks


def test_benchmark_proof_checks_pass(monkeypatch):
    # the benchmark's proof_checks pass (C1, C3, C6 and C8): every
    # criterion's flag must be True, as the benchmark checks it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    result = workloads.proof_pass(0, None, lambda name: contextlib.nullcontext())
    checks = workloads.proof_checks(workloads.proof_summarize(result), None)
    assert len(checks) == len(workloads.PROOF_CRITERIA)
    assert all(ok is True for _, ok in checks), checks
