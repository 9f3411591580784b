import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import ellipse_average
from kepdiff import (EmpiricalMarginal,
                     InsufficientSamplesError, PhysParams,
                     cross_section_widths, drift, ellipse_point,
                     empirical_marginal, laplace_weight,
                     laplace_weight_integral, log_amplitude,
                     log_invariant_density, log_wave, tangential_factor,
                     tangential_factor_ode_grid, tangential_log_slope)

ECCS = (0.1, 0.3, 0.5, 0.7, 0.9)


# ---------------------------------------------------------------------------
# tangential factor
# ---------------------------------------------------------------------------

def test_tangential_factor_values():
    assert tangential_factor(0.5, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert tangential_factor(0.5, math.pi / 2) == pytest.approx(0.6)


def test_tangential_factor_pi_periodic():
    vs = np.linspace(0, 2 * np.pi, 50)
    np.testing.assert_allclose(tangential_factor(0.5, vs),
                               tangential_factor(0.5, vs + np.pi), rtol=1e-14)


def test_tangential_ode_matches_closed():
    vs = np.linspace(0, 2 * np.pi, 721)
    for e in ECCS:
        ode = tangential_factor_ode_grid(e, vs)
        np.testing.assert_allclose(ode, tangential_factor(e, vs), atol=1e-8)


def test_tangential_ode_scalar_examples():
    def ode(e, v):
        return tangential_factor_ode_grid(e, [0.0, v])[-1]
    assert ode(0.5, math.pi / 2) == pytest.approx(0.6, abs=1e-8)
    # log-slope is odd about pi/2 on [0, pi]: full half-turn integrates to 0
    for e in (0.2, 0.5, 0.8):
        assert ode(e, math.pi) == pytest.approx(1.0, abs=1e-9)
    # circular limit: no variation at all
    assert ode(1e-6, 1.234) == pytest.approx(1.0, abs=1e-10)


def test_log_slope_is_log_derivative():
    e, h = 0.6, 1e-6
    for v in (0.3, 1.1, 2.9, 4.0):
        fd = (math.log(tangential_factor(e, v + h))
              - math.log(tangential_factor(e, v - h))) / (2 * h)
        assert fd == pytest.approx(float(tangential_log_slope(e, v)), abs=1e-8)


# ---------------------------------------------------------------------------
# angular weight and normalisation
# ---------------------------------------------------------------------------

def test_laplace_weight_value():
    assert laplace_weight(0.5, 0.0) == pytest.approx(0.375)  # (1-e)(1-e^2)


def test_product_identity():
    vs = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    for e in ECCS:
        prod = tangential_factor(e, vs) * laplace_weight(e, vs)
        np.testing.assert_allclose(prod, (1 - e * e) * (1 - e * np.cos(vs)),
                                   atol=1e-12)


def test_weight_integral_elliptic_closed_form():
    for e in ECCS:
        num = quad(lambda v: float(laplace_weight(e, v)), 0, 2 * math.pi,
                   epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        assert num == pytest.approx(laplace_weight_integral(e), rel=1e-8)


# ---------------------------------------------------------------------------
# widths and the on-ellipse curvature
# ---------------------------------------------------------------------------

def ridge_hessian(p, v):
    """On-ellipse Hessian entries (R_uu, R_zz) of the log-amplitude in
    (u, v, z) coordinates (test oracle; the v-v entry vanishes there):
        R_uu = -lam (1 + e^2 + 2 e cos v) / (4 e^2 eps^2 (1-e^2))
        R_zz = -mu^2 / (eps^2 lam^3 (1 + e^2 - 2 e cos v))
    """
    v = np.asarray(v, dtype=float)
    e = p.ecc
    r_uu = -p.lam * (1 + e * e + 2 * e * np.cos(v)) \
        / (4 * e * e * p.eps ** 2 * (1 - e * e))
    r_zz = -p.mu ** 2 / (p.eps ** 2 * p.lam ** 3
                         * (1 + e * e - 2 * e * np.cos(v)))
    return r_uu, r_zz


def test_width_values():
    pp = PhysParams(ecc=0.5, eps=0.1)
    _, sz = cross_section_widths(pp, math.pi / 2)
    assert sz == pytest.approx(0.1 * math.sqrt(1.25), abs=1e-13)  # ~0.1118


def test_width_circular_limit():
    pp = PhysParams(lam=1.3, mu=0.7, ecc=1e-8, eps=0.2)
    sn, sz = cross_section_widths(pp, 1.0)
    iso = pp.eps * pp.lam ** 1.5 / pp.mu
    assert sn == pytest.approx(iso, rel=1e-6)
    assert sz == pytest.approx(iso, rel=1e-6)


def test_ridge_hessian_values():
    pp = PhysParams(ecc=0.5, eps=1.0)
    r_uu, r_zz = ridge_hessian(pp, math.pi / 2)
    assert r_uu == pytest.approx(-5.0 / 3.0)
    assert r_zz == pytest.approx(-0.8)


def test_z_width_consistent_with_hessian():
    # sigma_z = eps |R''|^{-1/2} with R'' = eps^2 R_zz the scaled field's
    # curvature
    pp = PhysParams(ecc=0.5, eps=0.1)
    vs = np.linspace(0, 2 * np.pi, 11)
    _, r_zz = ridge_hessian(pp, vs)
    _, sz = cross_section_widths(pp, vs)
    np.testing.assert_allclose(sz, pp.eps / np.sqrt(np.abs(r_zz) * pp.eps ** 2),
                               rtol=1e-12)


def test_normal_width_consistent_with_directional_curvature(p):
    # finite-difference oracle: second derivative of the scaled
    # log-amplitude along the in-plane normal at ellipse points
    e = p.ecc
    h = 1e-4
    for v in (0.0, 0.9, 2.2, math.pi, 4.5):
        c = ellipse_point(p, v)
        n_dir = np.array([math.sqrt(1 - e * e) * math.cos(v), math.sin(v), 0.0])
        n_dir /= np.linalg.norm(n_dir)
        vals = [p.eps ** 2 * log_amplitude(p, c + s * h * n_dir)
                for s in (-1, 0, 1)]
        d2 = (vals[0] - 2 * vals[1] + vals[2]) / h ** 2
        sn, _ = cross_section_widths(p, v)
        assert sn == pytest.approx(p.eps / math.sqrt(abs(d2)), rel=1e-5)


# ---------------------------------------------------------------------------
# expectations on the ellipse (the test oracle in conftest)
# ---------------------------------------------------------------------------

def test_ellipse_average_constant(p):
    assert ellipse_average(p, lambda v: 1.0) == pytest.approx(1.0, abs=1e-12)


def test_ellipse_average_cosine(p):
    assert ellipse_average(p, math.cos) == pytest.approx(-0.25, abs=1e-10)


def test_ellipse_average_radius(p):
    f = lambda v: p.a * (1 - p.ecc * math.cos(v))
    assert ellipse_average(p, f) == pytest.approx(1.125, abs=1e-10)


# ---------------------------------------------------------------------------
# log-density
# ---------------------------------------------------------------------------

def test_log_density_on_ellipse_is_tangential(p):
    base = log_invariant_density(p, ellipse_point(p, 0.0))
    for v in (0.7, 1.9, 3.6, 5.4):
        diff = log_invariant_density(p, ellipse_point(p, v)) - base
        assert diff == pytest.approx(math.log(tangential_factor(p.ecc, v)),
                                     abs=1e-9)


def test_log_density_decreasing_in_z_near_ellipse(p):
    _, sz = cross_section_widths(p, 1.1)
    c = ellipse_point(p, 1.1)
    zs = np.linspace(0, float(sz), 6)
    vals = [log_invariant_density(p, c + np.array([0, 0, z])) for z in zs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_pointwise_adjoint_identity(p_unit):
    # (G* rho)/rho = -lap S for rho = exp(2R), by finite differences of
    # the closed-form fields at unit diffusion scale
    p = p_unit
    pt = np.array([1.2, 0.8, 0.3])
    h = 1e-4

    def rho(q):
        return math.exp(2 * log_amplitude(p, q))

    def brho(q):
        return drift(p, q) * rho(q)

    lap_rho = sum(
        (rho(pt + h * ei) - 2 * rho(pt) + rho(pt - h * ei)) / h ** 2
        for ei in np.eye(3))
    div_brho = sum(
        (brho(pt + h * ei)[k] - brho(pt - h * ei)[k]) / (2 * h)
        for k, ei in enumerate(np.eye(3)))
    adj = 0.5 * p.eps ** 2 * lap_rho - div_brho
    lap_s = sum(
        (np.imag(log_wave(p, pt + h * ei)) - 2 * np.imag(log_wave(p, pt))
         + np.imag(log_wave(p, pt - h * ei))) / h ** 2
        for ei in np.eye(3))
    assert adj / rho(pt) == pytest.approx(-lap_s, rel=5e-4)


def test_laplace_prefactor_brute_force():
    # volume integral of exp(2R/eps^2) against the closed-form
    # asymptotic (2 pi a^3 eps^2 / lam) x elliptic bracket, after
    # peeling the common peak factor
    results = []
    for eps in (0.3, 0.2):
        p = PhysParams(ecc=0.5, eps=eps)
        nx, ny, nz = 180, 180, 90
        xs = np.linspace(-2.4, 1.6, nx)
        ys = np.linspace(-1.9, 1.9, ny)
        zs = np.linspace(-1.0, 1.0, nz)
        X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
        pts = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
        with np.errstate(all="ignore"):
            lr = log_amplitude(p, pts)
        rmax = p.lam / (2 * eps ** 2) * math.log(16 / p.ecc ** 2)
        f = np.exp(np.where(np.isfinite(lr), 2 * (lr - rmax) / 1.0, -np.inf))
        dv = (xs[1] - xs[0]) * (ys[1] - ys[0]) * (zs[1] - zs[0])
        integral = float(f.sum()) * dv
        closed = (2 * math.pi * p.a ** 3 * eps ** 2 / p.lam) \
            * laplace_weight_integral(p.ecc) / 2
        results.append(integral / closed)
    assert abs(results[0] - 1) < 0.15
    assert abs(results[1] - 1) < abs(results[0] - 1)  # tightens as eps drops


# ---------------------------------------------------------------------------
# empirical marginal
# ---------------------------------------------------------------------------

def _exact_sampler(e, n, seed):
    """Inverse-transform samples of (1 - e cos v)/2pi (test oracle)."""
    rng = np.random.default_rng(seed)
    targets = rng.uniform(0, 2 * np.pi - e * 0.0, n)
    # solve v - e sin v = t by Newton
    v = targets.copy()
    for _ in range(50):
        v -= (v - e * np.sin(v) - targets) / (1 - e * np.cos(v))
    return np.mod(v, 2 * np.pi)


def test_marginal_of_exact_sampler():
    e = 0.5
    samples = _exact_sampler(e, 200_000, seed=1)
    m = EmpiricalMarginal.from_samples(samples, bins=64)
    assert m.l1_distance(e) < 0.02
    assert m.probabilities.sum() == pytest.approx(1.0)
    assert np.sum(m.analytic_probs(e)) == pytest.approx(1.0, abs=1e-12)


def test_marginal_density_normalised():
    # the analytic bin masses integrate (1 - e cos v)/(2 pi) over each bin
    m = EmpiricalMarginal.from_samples([0.0], bins=16)
    for e in ECCS:
        probs = m.analytic_probs(e)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        for lo, hi, pr in zip(m.edges[:-1], m.edges[1:], probs):
            mass = quad(lambda v: (1 - e * math.cos(v)) / (2 * math.pi),
                        lo, hi, epsabs=1e-14)[0]
            assert pr == pytest.approx(mass, rel=1e-12)


def test_empirical_marginal_insufficient_samples(p, stationary_ensemble):
    with pytest.raises(InsufficientSamplesError):
        empirical_marginal(stationary_ensemble, bins=32,
                           burn_in=0.999 * stationary_ensemble.times[-1])


def test_empirical_marginal_from_ensemble(p, stationary_ensemble):
    m = empirical_marginal(stationary_ensemble, bins=32, burn_in=20.0)
    assert m.total >= 10_000
    assert m.l1_distance(p.ecc) < 0.15  # modest ensemble, loose bound
    assert m.chi2(p.ecc) > 0


def test_marginal_near_circular_is_uniform():
    from kepdiff import SimConfig, simulate_ensemble
    pp = PhysParams(ecc=0.05, eps=0.1)
    cfg = SimConfig(params=pp, dt=1e-3, n_steps=60_000, n_paths=32, seed=6,
                    record_stride=15, compute_jump_dist=False)
    m = empirical_marginal(simulate_ensemble(cfg), bins=32, burn_in=20.0)
    uniform = np.full(32, 1.0 / 32)
    assert np.sum(np.abs(m.probabilities - uniform)) < 0.08


def test_marginal_l1_shrinks_with_samples():
    e = 0.5
    l1s = []
    for n in (20_000, 80_000, 320_000):
        m = EmpiricalMarginal.from_samples(_exact_sampler(e, n, seed=5),
                                           bins=64)
        l1s.append(m.l1_distance(e))
    # Monte Carlo consistency: non-increasing within ~1/sqrt(N) noise
    for a, b, n in zip(l1s, l1s[1:], (20_000, 80_000)):
        assert b < a + 2.0 * 64 / math.sqrt(n)
    assert l1s[-1] < l1s[0]
