"""The exit criteria, one test each, at their contract tolerances.

Each test prints its PASS/FAIL line so a plain ``pytest -s`` run doubles
as the acceptance report; ``kepdiff verify`` drives the same runners.

Criterion 5 is implemented exactly as stated and is expected red: at
(ecc, eps) = (0.5, 0.1) the stationary cross-section widths make the
demanded |u - e| < 0.15, |z| < 0.2 tube hold ~92% of the mass, below
the 0.95 threshold (analysis and measurement agree; see README's
"Acceptance status" section).  The simulation itself is
regression-guarded by test_sde.test_convergence_fraction_reference.
"""

import pytest

from kepdiff import acceptance


def _run(cid):
    res = acceptance.run_acceptance((cid,), printer=None)[0]
    print()
    print(res.line())
    return res


def test_criterion_1_identity_suite():
    assert _run("C1").passed


def test_criterion_2_kepler_velocity():
    assert _run("C2").passed


def test_criterion_3_tangential_normalisation():
    assert _run("C3").passed


def test_criterion_4_marginal_law():
    assert _run("C4").passed


@pytest.mark.xfail(
    strict=True,
    reason="thresholds demand >= 0.95 but the stationary widths at "
           "(ecc, eps) = (0.5, 0.1) put ~92% of paths in the tube; "
           "kept as stated rather than loosened (see README, Acceptance "
           "status)")
def test_criterion_5_trajectory_convergence():
    assert _run("C5").passed


def test_criterion_6_convergence_chain():
    assert _run("C6").passed


def test_criterion_7_spectral_suite():
    res = _run("C7")
    assert res.passed
    # each production gap prints its residual check, not the roundoff value
    assert res.details.count(" resid<1e-8") == 3


def test_criterion_8_proof_machinery():
    assert _run("C8").passed
