import math

import numpy as np
import pytest

from kepdiff import (ConfigError, ConvergenceError, GridSpec, PhysParams,
                     ResolutionError, SimConfig, SpectralConfig,
                     adjoint_residual, build_generator, default_grid,
                     dirichlet_form_residual, gap_from_autocorrelation,
                     gap_from_matrix, hamiltonian_residual,
                     osmotic_radial_scan, simulate_ensemble,
                     stationary_vector, sup_log_tangential_gradient)
from kepdiff.spectral import _fit_decay, default_bump, production_grid_2d


@pytest.fixture(scope="module")
def model_gen():
    p = PhysParams(ecc=0.5, eps=0.3)
    return p, build_generator(p, production_grid_2d(p, n=120))


@pytest.fixture(scope="module")
def autocorr_ensemble():
    p = PhysParams(ecc=0.5, eps=0.3)
    cfg = SimConfig(params=p, dt=2e-3, n_steps=90_000, n_paths=48, seed=99,
                    record_stride=10, compute_jump_dist=False)
    return p, simulate_ensemble(cfg)


# ---------------------------------------------------------------------------
# grid and assembly
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec(dim=4, box=((0, 1),) * 4, n=8)
    with pytest.raises(ConfigError):
        GridSpec(dim=2, box=((0, 1), (0, 2)), n=10)  # nonuniform spacing
    with pytest.raises(ConfigError):
        GridSpec(dim=2, box=((0, 1), (0, 1)), n=10, excluded=0.2)


def test_resolution_precondition():
    p = PhysParams(ecc=0.5, eps=0.1)
    with pytest.raises(ResolutionError):
        build_generator(p, default_grid(p, dim=2, n=100))


def test_markov_sign_structure(model_gen):
    _, G = model_gen
    Q = G.matrix.tocoo()
    off = Q.data[Q.row != Q.col]
    assert off.min() >= 0.0
    assert G.offdiag_min >= 0.0
    assert G.row_sum_max < 1e-12


def test_zero_drift_symmetric_with_constant_kernel():
    p = PhysParams(eps=0.2)
    G = build_generator(p, GridSpec(dim=2, box=((0, 1), (0, 1)), n=30),
                        drift_fn=None, weight_fn=None, check_resolution=False)
    Q = G.matrix
    assert (Q - Q.T).nnz == 0 or abs((Q - Q.T)).max() < 1e-14
    assert np.max(np.abs(Q @ np.ones(Q.shape[0]))) < 1e-12


def test_three_dimensional_build_supported():
    # the 3d generator is supported behind the resolution gate: the
    # default-box spacing cannot resolve the ridge at production eps
    # (that raises), but the assembly, sign structure and eigen
    # machinery all run on a coarse research grid
    p = PhysParams(ecc=0.5, eps=0.3)
    with pytest.raises(ResolutionError):
        build_generator(p, default_grid(p, dim=3))
    grid = GridSpec(dim=3, box=((-2.0, 2.0),) * 3, n=24, excluded=0.05)
    G = build_generator(p, grid, check_resolution=False)
    assert G.offdiag_min >= 0.0
    assert G.row_sum_max < 1e-12
    assert G.nodes.shape[1] == 3
    res = gap_from_matrix(G)
    assert res.gap > 0


def test_constant_drift_exact_on_linear_ramp():
    p = PhysParams(eps=0.2)
    c = 0.7
    G = build_generator(p, GridSpec(dim=1, box=((0.0, 1.0),), n=50),
                        drift_fn=lambda nodes: np.full((len(nodes), 1), c),
                        weight_fn=None, check_resolution=False)
    f = G.nodes[:, 0].copy()
    out = G.matrix @ f
    interior = G.interior
    np.testing.assert_allclose(out[interior], c, atol=1e-12)


# ---------------------------------------------------------------------------
# eigen machinery
# ---------------------------------------------------------------------------

def test_neumann_gap_1d():
    eps = 0.2
    G = build_generator(PhysParams(eps=eps),
                        GridSpec(dim=1, box=((0.0, 1.0),), n=400),
                        drift_fn=None, weight_fn=None, check_resolution=False)
    res = gap_from_matrix(G)
    theory = eps ** 2 / 2 * math.pi ** 2
    assert abs(res.gap / theory - 1) < 0.02
    assert res.residual_weighted < 1e-8


def test_neumann_gap_2d():
    eps = 0.2
    G = build_generator(PhysParams(eps=eps),
                        GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)), n=200),
                        drift_fn=None, weight_fn=None, check_resolution=False)
    res = gap_from_matrix(G)
    theory = eps ** 2 / 2 * math.pi ** 2
    assert abs(res.gap / theory - 1) < 0.05
    assert res.residual_weighted < 1e-8


def test_model_gap_positive_resolved(model_gen):
    _, G = model_gen
    res = gap_from_matrix(G)
    assert res.converged
    assert res.gap > 0
    assert res.residual_weighted < 1e-8
    # slow mode rotates around the ellipse: conjugate pair
    assert abs(res.eigenvalue.imag) > res.gap


def test_gap_perturbed_eigenvector_not_converged(model_gen, monkeypatch):
    # only the final eigenpair residual may declare convergence
    import scipy.sparse.linalg as spla
    real_eigs = spla.eigs

    def eigs(*args, **kwargs):
        theta, vecs = real_eigs(*args, **kwargs)
        rng = np.random.default_rng(1)
        return theta, vecs + 1e-3 * rng.standard_normal(vecs.shape)

    monkeypatch.setattr(spla, "eigs", eigs)
    _, G = model_gen
    res = gap_from_matrix(G)
    assert res.residual > 1e-8
    assert not res.converged


def test_gap_arpack_no_convergence_raises(model_gen, monkeypatch):
    import scipy.sparse.linalg as spla

    def eigs(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([]),
                                       np.zeros((1, 0)))

    monkeypatch.setattr(spla, "eigs", eigs)
    _, G = model_gen
    with pytest.raises(ConvergenceError):
        gap_from_matrix(G)


def test_gap_one_factorisation(monkeypatch):
    import scipy.sparse.linalg as spla
    real_splu = spla.splu
    calls = []

    def splu(*args, **kwargs):
        calls.append(1)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    p = PhysParams(ecc=0.5, eps=0.3)
    res = gap_from_matrix(build_generator(p, production_grid_2d(p, n=80)))
    assert res.converged
    assert len(calls) == 1


def test_gap_repeatable(model_gen):
    _, G = model_gen
    a, b = gap_from_matrix(G), gap_from_matrix(G)
    assert a.gap == b.gap
    assert a.eigenvalues == b.eigenvalues


def test_reducible_generator_raises():
    # the excluded ball cuts the 1-d box into two disconnected halves
    G = build_generator(PhysParams(eps=0.2),
                        GridSpec(dim=1, box=((-1.0, 1.0),), n=200,
                                 excluded=0.5),
                        drift_fn=None, weight_fn=None, check_resolution=False)
    with pytest.raises(ConvergenceError, match="disconnected"):
        stationary_vector(G)
    with pytest.raises(ConvergenceError, match="disconnected"):
        gap_from_matrix(G)


def test_stationary_vector_sign_checked():
    # a sign-changing solve is reported, not folded back by |.|
    p = PhysParams(ecc=0.5, eps=0.3)
    G = build_generator(p, production_grid_2d(p, n=80))
    lu = G.pinned_lu

    class FlippedLU:
        def solve(self, b, trans="N"):
            x = lu.solve(b, trans=trans)
            x[G.pin] *= -1.0
            return x

    G.pinned_lu = FlippedLU()
    with pytest.raises(ConvergenceError):
        stationary_vector(G)


def test_model_gap_grid_independence():
    p = PhysParams(ecc=0.5, eps=0.3)
    g1 = gap_from_matrix(build_generator(p, production_grid_2d(p, n=120))).gap
    g2 = gap_from_matrix(build_generator(p, production_grid_2d(p, n=240))).gap
    assert abs(g2 / g1 - 1) < 0.10


def test_stationary_vector_converges_to_weight():
    p = PhysParams(ecc=0.5, eps=0.3)
    errs = []
    for n in (120, 240):
        G = build_generator(p, production_grid_2d(p, n=n))
        pi, resid = stationary_vector(G)
        assert resid < 1e-10
        errs.append(float(np.abs(pi - G.weight).sum()))
    assert errs[1] < errs[0]  # first-order approach to the ansatz weight


def test_adjoint_residual_first_order():
    p = PhysParams(ecc=0.5, eps=0.3)
    res = [adjoint_residual(build_generator(p, production_grid_2d(p, n=n),
                                            check_resolution=False))
           for n in (120, 240)]
    assert res[1] < res[0]
    assert res[0] / res[1] > 1.3


# ---------------------------------------------------------------------------
# Dirichlet identity
# ---------------------------------------------------------------------------

def test_dirichlet_residual_decreases():
    p = PhysParams(ecc=0.5, eps=0.3)
    a = p.a
    resids = [dirichlet_form_residual(
        p, GridSpec(dim=2, box=((-2 * a, 2 * a), (-2 * a, 2 * a)), n=n)).residual
        for n in (200, 400)]
    assert resids[1] < resids[0]
    assert resids[1] < 5e-2


def test_dirichlet_constant_function(model_gen):
    p, _ = model_gen
    a = p.a
    grid = GridSpec(dim=2, box=((-2 * a, 2 * a), (-2 * a, 2 * a)), n=100)
    chk = dirichlet_form_residual(p, grid,
                                  f=lambda xy: np.ones(xy.shape[:-1]))
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.residual == 0.0


def test_dirichlet_clipped_ramp_decreases():
    p = PhysParams(ecc=0.5, eps=0.3)
    a = p.a
    bump = default_bump(p, width=0.5 * a)

    def ramp(xy):
        return xy[..., 0] * bump(xy)

    resids = [dirichlet_form_residual(
        p, GridSpec(dim=2, box=((-2 * a, 2 * a), (-2 * a, 2 * a)), n=n),
        f=ramp).residual for n in (200, 400)]
    assert resids[1] < resids[0]


def test_dirichlet_rejects_unsupported_function():
    p = PhysParams(ecc=0.5, eps=0.3)
    grid = GridSpec(dim=2, box=((-1, 1), (-1, 1)), n=50)
    with pytest.raises(ConfigError):
        dirichlet_form_residual(p, grid, f=lambda xy: xy[..., 0])


# ---------------------------------------------------------------------------
# autocovariance estimator
# ---------------------------------------------------------------------------

def test_fit_decay_pure_exponential():
    dt = 0.05
    t = dt * np.arange(200)
    g, osc = _fit_decay(2.0 * np.exp(-0.8 * t), dt)
    assert not osc
    assert g == pytest.approx(0.8, rel=1e-6)


def test_fit_decay_damped_cosine():
    dt = 0.05
    t = dt * np.arange(400)
    g, osc = _fit_decay(1.5 * np.exp(-0.3 * t) * np.cos(1.1 * t), dt)
    assert osc
    assert g == pytest.approx(0.3, rel=1e-6)


def test_fit_decay_rejects_flat():
    with pytest.raises(ConvergenceError):
        _fit_decay(np.zeros(50), 0.1)
    with pytest.raises(ConvergenceError):
        _fit_decay(np.ones(50), 0.1)  # no decay


def test_autocorr_constant_observable_rejected(autocorr_ensemble):
    _, ens = autocorr_ensemble
    with pytest.raises(ConvergenceError):
        gap_from_autocorrelation(ens, observable=lambda u, v, pos:
                                 np.ones_like(u), burn_in=20.0)


def test_autocorr_agrees_with_matrix(model_gen, autocorr_ensemble):
    _, G = model_gen
    mat_gap = gap_from_matrix(G).gap
    _, ens = autocorr_ensemble
    ac = gap_from_autocorrelation(ens, burn_in=20.0)
    assert ac.oscillatory
    ratio = max(ac.gamma / mat_gap, mat_gap / ac.gamma)
    assert ratio < 2.0
    assert ac.ci_low <= ac.gamma <= ac.ci_high


# ---------------------------------------------------------------------------
# radial scan
# ---------------------------------------------------------------------------

def test_spectral_config_bounds():
    p = PhysParams(ecc=0.5, eps=0.1)
    with pytest.raises(ConfigError):
        SpectralConfig(params=p, C=0.0)
    with pytest.raises(ConfigError):
        SpectralConfig(params=p, C=p.mu / (p.eps ** 2 * p.lam) + 1)
    cfg = SpectralConfig(params=p, C=2.0)
    assert cfg.C_tilde == pytest.approx((p.mu - p.eps ** 2 * p.lam * 2.0)
                                        / (p.eps ** 2 * p.lam))


def test_radial_scan_far_field(p):
    cfg = SpectralConfig.from_measurement(p)
    assert cfg.C > sup_log_tangential_gradient(p)
    radii = np.geomspace(0.1, 100.0, 20) * p.a
    scan = osmotic_radial_scan(p, cfg, radii)
    assert math.isfinite(scan.r1_hat)
    assert scan.eps_part_max[-1] == pytest.approx(-p.mu / p.lam, rel=0.05)
    assert scan.max_gu[-1] <= scan.bound
    # small radii (ellipse scale and below) violate the bound
    assert scan.max_gu[0] > scan.bound
    assert scan.r1_hat > p.a


def test_radial_scan_without_tangential_term(p):
    cfg = SpectralConfig.from_measurement(p)
    radii = np.geomspace(1.0, 100.0, 10) * p.a
    with_T = osmotic_radial_scan(p, cfg, radii, include_T=True)
    no_T = osmotic_radial_scan(p, cfg, radii, include_T=False)
    # same far-field asymptote; the tangential term is an O(eps^2 C) dent
    assert no_T.eps_part_max[-1] == with_T.eps_part_max[-1]
    assert abs(no_T.max_gu[-1] - with_T.max_gu[-1]) \
        <= 0.5 * p.eps ** 2 * cfg.C + 1e-12
    assert no_T.max_gu[-1] == pytest.approx(-p.mu / p.lam, rel=0.1)


def test_scan_rows_format(p):
    cfg = SpectralConfig(params=p, C=2.0)
    scan = osmotic_radial_scan(p, cfg, [1.0, 10.0], n_angles=16)
    rows = scan.rows()
    assert len(rows) == 2 and len(rows[0]) == 3
    assert rows[0][2] == scan.bound


# ---------------------------------------------------------------------------
# similarity-transform Hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_identity_near_ellipse():
    p = PhysParams(ecc=0.5, eps=0.3)
    from kepdiff import ellipse_point
    for v in (0.4, 2.0, 3.9):
        pt = ellipse_point(p, v) + np.array([0.06, 0.08, 0.05])
        res = hamiltonian_residual(p, pt)
        assert res.rel < 1e-6
        assert res.rhs != 0.0   # the limiting state is not exactly stationary


def test_hamiltonian_identity_structure_scales():
    # rhs = eps^4 (lap S_eps + ...) with S_eps ~ 1/eps^2: the common
    # value of both sides scales like eps^2 at fixed position (the
    # smallest eps runs into the log-difference roundoff floor, hence
    # the looser identity tolerance there)
    pt = np.array([0.9, 0.55, 0.1])
    vals = []
    for eps in (0.1, 0.2, 0.4):
        p = PhysParams(ecc=0.5, eps=eps)
        res = hamiltonian_residual(p, pt)
        assert res.rel < 2e-4
        vals.append(res.rhs / eps ** 2)
    assert np.std(vals) / abs(np.mean(vals)) < 1e-4


def test_hamiltonian_oscillator_control():
    # exact stationary state: b = -omega x in 1d, psi~ = exp(-omega x^2 / 2 eps^2)
    omega, eps, x = 0.7, 0.4, 0.35
    h = 1e-4

    def psit(q):
        return math.exp(-omega * q * q / (2 * eps ** 2))

    lap = (psit(x + h) - 2 * psit(x) + psit(x - h)) / h ** 2
    val = 0.5 * (-eps ** 4 * lap + eps ** 2 * (-omega) * psit(x)
                 + (omega * x) ** 2 * psit(x))
    assert abs(val) / psit(x) < 1e-6


def test_hamiltonian_branch_guard():
    p = PhysParams(ecc=0.5, eps=0.3)
    from kepdiff import SingularPointError
    with pytest.raises(SingularPointError):
        hamiltonian_residual(p, [0.8, 0.0, 0.0])  # on the cut half-plane
