"""The acceptance suite: every exit criterion as a callable check.

Each criterion returns a :class:`CriterionResult`; ``run_acceptance``
executes a selection and prints one PASS/FAIL line per criterion.  The
tolerances are pinned here, straight from the contract, and are not
calibration knobs.

Criterion 5 (the qualitative trajectory-convergence reproduction) is
implemented exactly as specified; measured stationary widths put its
expected pass fraction near 0.92, below the demanded 0.95, so it is
expected to run red.  README's "Acceptance status" section gives the
width analysis; the thresholds are kept as stated rather than loosened.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fields, measure, sde, spectral
from .params import PhysParams
from .quadrature import adaptive_quad
from .specfun import complex_velocity_finite, hermite_ratio

ECCS = (0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    details: str
    #: seconds the criterion took, set by :func:`run_acceptance`
    elapsed: float = math.nan

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.cid} {self.name}: {self.details} ({self.elapsed:.1f}s)"


def _sample_box(p: PhysParams, n):
    """Quasi-random points (Halton, seed 7) in [-4a, 4a]^3 minus the
    origin ball and a tube around the drift jump set."""
    # imported here, its only use: scipy.stats would otherwise be about
    # half of every kepdiff process's import time
    from scipy.stats import qmc
    eng = qmc.Halton(d=3, seed=7)
    pts = (eng.random(3 * n) - 0.5) * 8 * p.a
    r = np.linalg.norm(pts, axis=1)
    keep = r > 0.05 * p.a
    keep &= ~fields.near_jump_set(p, pts, 0.02 * p.a)
    pts = pts[keep]
    if pts.shape[0] < n:
        raise RuntimeError("exclusion carved away too many sample points")
    return pts[:n]


#: C1's bounds on the relative energy residual and on the cosine
#: between grad R and grad S.
IDENTITY_ENERGY_TOL = 1e-9
IDENTITY_ORTH_TOL = 1e-8


def identity_residuals(p: PhysParams, n=10_000):
    """C1's worst energy residual and gradient orthogonality for one p.

    Samples n points with :func:`_sample_box`; the energy residual is
    |Z.Z/2 - mu/|x| - E| / |E| and the orthogonality is the cosine
    between grad R and grad S.
    """
    pts = _sample_box(p, n)
    z = fields.complex_velocity(p, pts)
    r = np.linalg.norm(pts, axis=1)
    en = np.abs(0.5 * np.sum(z * z, axis=1) - p.mu / r - p.energy) / -p.energy
    gr, gs = fields.wave_gradients(p, pts)
    dot = np.abs(np.sum(gr * gs, axis=1))
    mags = np.linalg.norm(gr, axis=1) * np.linalg.norm(gs, axis=1)
    orth = dot / (mags + 1e-300)
    return float(np.max(en)), float(np.max(orth))


def criterion_1():
    """Identity suite: energy residual and gradient orthogonality."""
    worst_en, worst_orth = 0.0, 0.0
    for e in ECCS:
        en, orth = identity_residuals(PhysParams(lam=1.0, mu=1.0, ecc=e,
                                                 eps=0.1))
        worst_en = max(worst_en, en)
        worst_orth = max(worst_orth, orth)
    ok = worst_en < IDENTITY_ENERGY_TOL and worst_orth < IDENTITY_ORTH_TOL
    return CriterionResult(
        "C1", "identity suite", ok,
        f"energy residual {worst_en:.2e} (<1e-9), "
        f"orthogonality {worst_orth:.2e} (<1e-8)")


def criterion_2():
    """Drift speed and tangency on the attracting ellipse."""
    worst_sp, worst_ang = 0.0, 0.0
    vs = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    for e in ECCS:
        p = PhysParams(ecc=e, eps=0.1)
        pts = fields.ellipse_point(p, vs)
        b = fields.drift(p, pts)
        speed = np.linalg.norm(b, axis=1)
        target = fields.kepler_speed(p, vs)
        worst_sp = max(worst_sp, float(np.max(np.abs(speed / target - 1))))
        t = fields.ellipse_tangent(p, vs)
        cross = np.linalg.norm(np.cross(b, t), axis=1)
        ang = np.arcsin(np.clip(cross / speed, 0, 1))
        worst_ang = max(worst_ang, float(np.max(ang)))
    ok = worst_sp < 1e-9 and worst_ang < 1e-9
    return CriterionResult(
        "C2", "Kepler velocity on the ellipse", ok,
        f"speed residual {worst_sp:.2e}, tangency angle {worst_ang:.2e} "
        "(both <1e-9)")


def criterion_3():
    """Tangential factor, angular weight, elliptic normalisation."""
    vs = np.linspace(0, 2 * np.pi, 721)
    worst_ode, worst_tg, worst_norm = 0.0, 0.0, 0.0
    for e in ECCS:
        closed = measure.tangential_factor(e, vs)
        ode = measure.tangential_factor_ode_grid(e, vs)
        worst_ode = max(worst_ode, float(np.max(np.abs(closed - ode))))
        tg = measure.tangential_factor(e, vs) * measure.laplace_weight(e, vs)
        ident = (1 - e * e) * (1 - e * np.cos(vs))
        worst_tg = max(worst_tg, float(np.max(np.abs(tg - ident))))
        quad = adaptive_quad(lambda v: float(measure.laplace_weight(e, v)),
                             0.0, 2 * math.pi, tol=1e-12)
        closed_i = measure.laplace_weight_integral(e)
        worst_norm = max(worst_norm, abs(quad - closed_i) / closed_i)
    ok = worst_ode < 1e-8 and worst_tg < 1e-12 and worst_norm < 1e-8
    return CriterionResult(
        "C3", "tangential factor / weight / normalisation", ok,
        f"ode-closed {worst_ode:.2e} (<1e-8), product identity "
        f"{worst_tg:.2e} (<1e-12), elliptic normalisation {worst_norm:.2e} "
        "(<1e-8)")


def criterion_4():
    """Stationary angular marginal and z-spread at eps = 0.05."""
    p = PhysParams(ecc=0.5, eps=0.05)
    burn = sde.MARGINAL_BURN_IN
    ens = sde.simulate_ensemble(sde.SimConfig.marginal(
        p, seed=11, samples=1_024_000))
    marg = measure.empirical_marginal(ens, bins=64, burn_in=burn)
    l1 = marg.l1_distance(p.ecc)
    ok_l1 = marg.total >= 1_000_000 and l1 < 0.05
    _, emp, pred = measure.z_spread_by_angle(ens, burn_in=burn)
    zdev = float(np.max(np.abs(emp / pred - 1)))
    ok_z = zdev < 0.20
    return CriterionResult(
        "C4", "stationary marginal law", ok_l1 and ok_z,
        f"samples {marg.total}, L1 {l1:.4f} (<0.05), z-spread deviation "
        f"{zdev:.3f} (<0.20, Gaussian convention)")


def criterion_5():
    """Trajectory-convergence reproduction at the stated thresholds."""
    p = PhysParams(ecc=0.5, eps=0.1)
    ens = sde.simulate_ensemble(sde.SimConfig.figure1(p, seed=1))
    frac = float(ens.converged_mask()[:, -1].mean())
    ok = frac >= 0.95
    return CriterionResult(
        "C5", "trajectory convergence (qualitative reproduction)", ok,
        f"converged fraction {frac:.4f} (>=0.95 demanded; stationary-width "
        "analysis predicts ~0.92)")


def criterion_6():
    """Finite-degree convergence chain toward the closed-form fields."""
    p = PhysParams(ecc=0.5, eps=0.1)
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 20:
        q = rng.uniform(-3, 3, 3)
        if np.linalg.norm(q) > 0.5 and abs(q[1]) > 0.3:
            pts.append(q)
    n_grid = (10, 50, 250, 1250)
    monotone = True
    worst_tail = 0.0
    for q in pts:
        zl = fields.complex_velocity(p, q)
        errs = [np.linalg.norm(complex_velocity_finite(p, n, q) - zl)
                for n in n_grid]
        monotone &= all(b < a for a, b in zip(errs, errs[1:]))
        worst_tail = max(worst_tail, errs[-1])
    worst_ratio = 0.0
    for nu in (8.0, 100.0):
        lim = 1 - math.sqrt(1 - 4 / nu)
        q = hermite_ratio(2 * 2000, nu) / math.sqrt(nu / 2)
        worst_ratio = max(worst_ratio, abs(complex(q) - lim))
    ok = monotone and worst_ratio < 1e-3
    return CriterionResult(
        "C6", "finite-degree convergence chain", ok,
        f"errors strictly decreasing at 20 points: {monotone} "
        f"(tail {worst_tail:.2e}); even-degree ratio error {worst_ratio:.2e} "
        "(<1e-3)")


def _neumann_controls():
    eps = 0.2
    checks = []
    g1 = spectral.build_generator(
        PhysParams(eps=eps), spectral.GridSpec(dim=1, box=((0.0, 1.0),), n=400),
        drift_fn=None, weight_fn=None, check_resolution=False)
    r1 = spectral.gap_from_matrix(g1)
    theory = eps ** 2 / 2 * math.pi ** 2
    checks.append(("1d", abs(r1.gap / theory - 1), 0.02))
    g2 = spectral.build_generator(
        PhysParams(eps=eps),
        spectral.GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)), n=200),
        drift_fn=None, weight_fn=None, check_resolution=False)
    r2 = spectral.gap_from_matrix(g2)
    checks.append(("2d", abs(r2.gap / theory - 1), 0.05))
    return checks


def _model_grid(p: PhysParams, n=None):
    if n is None:
        n = {0.3: 160, 0.2: 240, 0.1: 340}.get(round(p.eps, 3))
    return spectral.production_grid_2d(p, n=n)


def criterion_7():
    """Spectral suite: controls, production gaps, estimator agreement."""
    lines = []
    ok = True
    for label, err, tol in _neumann_controls():
        good = err < tol
        ok &= good
        lines.append(f"{label} control {err:.4f} (<{tol})")

    gaps = {}

    def matrix_gap(ecc, eps, n=None):
        # each distinct grid (ecc, eps, n) is built and solved once
        p = PhysParams(ecc=ecc, eps=eps)
        grid = _model_grid(p, n=n)
        key = (ecc, eps, grid.n)
        if key not in gaps:
            gaps[key] = spectral.gap_from_matrix(
                spectral.build_generator(p, grid))
        return gaps[key]

    for eps in (0.3, 0.2, 0.1):
        # gap_from_matrix raises unless the gap is positive and its
        # eigenpair residual is below spectral.EIGEN_RESID_TOL (1e-8)
        res = matrix_gap(0.5, eps)
        lines.append(f"gap(e=0.5,eps={eps})={res.gap:.4f} resid<1e-8")

    g_c = matrix_gap(0.5, 0.3, n=160).gap
    g_f = matrix_gap(0.5, 0.3, n=320).gap
    dbl = abs(g_f / g_c - 1)
    ok &= dbl <= 0.10
    lines.append(f"grid-doubling change {dbl:.3f} (<=0.10)")

    # the four autocorrelation ensembles run as one lane table
    pairs = [(e, eps) for e in (0.3, 0.5) for eps in (0.2, 0.3)]
    ensembles = sde.simulate_ensembles(
        [sde.SimConfig.autocorrelation(PhysParams(ecc=e, eps=eps), seed=21)
         for e, eps in pairs])
    worst_ratio = 1.0
    for (e, eps), ens in zip(pairs, ensembles):
        res = matrix_gap(e, eps)
        ac = spectral.gap_from_autocorrelation(
            ens, burn_in=sde.AUTOCORR_BURN_IN)
        ratio = max(ac.gamma / res.gap, res.gap / ac.gamma)
        worst_ratio = max(worst_ratio, ratio)
    ok &= worst_ratio <= 2.0
    lines.append(f"estimator agreement ratio {worst_ratio:.2f} (<=2)")
    return CriterionResult("C7", "spectral suite", ok, "; ".join(lines))


def criterion_8():
    """Proof-machinery checks around the gap argument."""
    lines = []
    ok = True

    p = PhysParams(ecc=0.5, eps=0.3)
    worst = 0.0
    for v in (0.4, 1.7, 3.4, 5.1):
        pt = fields.ellipse_point(p, v) + np.array([0.05, 0.07, 0.04])
        worst = max(worst, spectral.hamiltonian_residual(p, pt).rel)
    ok &= worst < 1e-6
    lines.append(f"hamiltonian residual {worst:.2e} (<1e-6)")

    res_h = []
    for n in (120, 240):
        g = spectral.build_generator(p, _model_grid(p, n=n))
        res_h.append(spectral.adjoint_residual(g))
    rate = res_h[0] / res_h[1]
    ok &= res_h[1] < res_h[0] and rate > 1.3
    lines.append(f"adjoint residual {res_h[0]:.3f}->{res_h[1]:.3f} "
                 f"(halving ratio {rate:.2f}, first order)")

    a = p.a
    resids = []
    for n in (200, 400, 800):
        grid = spectral.GridSpec(dim=2, box=((-2 * a, 2 * a), (-2 * a, 2 * a)),
                                 n=n)
        resids.append(spectral.dirichlet_form_residual(p, grid).residual)
    ok &= resids[1] < 5e-2 and all(b < a_ for a_, b in zip(resids, resids[1:]))
    lines.append("dirichlet residual " +
                 "->".join(f"{r:.3f}" for r in resids) +
                 " (h=a/100 value <5e-2, decreasing)")

    p_scan = PhysParams(ecc=0.5, eps=0.1)
    scan = spectral.osmotic_radial_scan(p_scan,
                                        spectral.SCAN_RADII * p_scan.a)
    asym = scan.eps_part_max[-1]
    target = -p_scan.mu / p_scan.lam
    half = -p_scan.mu / (2 * p_scan.lam)
    ok_scan = (math.isfinite(scan.r1_hat)
               and abs(asym / target - 1) < 0.05
               and scan.max_gu[-1] <= scan.bound
               and abs(scan.bound / half - 1) < 0.05)
    ok &= ok_scan
    lines.append(f"radial scan r1={scan.r1_hat:.2f}, far-field drift part "
                 f"{asym:.4f} -> -mu/lam (5%), bound {scan.bound:.4f} "
                 "(within 5% of -mu/2lam) held at 100a")
    return CriterionResult("C8", "proof-machinery checks", ok,
                           "; ".join(lines))


QUICK = ("C1", "C2", "C3", "C6")
ALL = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")

_RUNNERS = {
    "C1": criterion_1, "C2": criterion_2, "C3": criterion_3,
    "C4": criterion_4, "C5": criterion_5, "C6": criterion_6,
    "C7": criterion_7, "C8": criterion_8,
}


def run_acceptance(which=ALL, printer=print):
    results = []
    for cid in which:
        t0 = time.time()
        res = _RUNNERS[cid]()
        res.elapsed = time.time() - t0
        results.append(res)
        if printer:
            printer(res.line())
    return results
