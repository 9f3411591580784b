import ctypes
import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kepdiff import (ConfigError, ConvergenceError, GridSpec,
                     InsufficientSamplesError, PhysParams, ResolutionError,
                     SimConfig, SingularPointError, adjoint_residual,
                     build_generator, cross_section_widths,
                     dirichlet_form_residual, drift, ellipse_point,
                     gap_from_autocorrelation, gap_from_matrix,
                     hamiltonian_residual, log_wave, osmotic_radial_scan,
                     simulate_ensemble, stationary_vector,
                     sup_grad_log_tangential, tangential_factor,
                     tangential_log_slope, wave_gradients)
from kepdiff import spectral
from kepdiff.fields import eccentric_angle, elliptic_uv
from kepdiff.spectral import (ARPACK_TOL, _fit_decay, _model_drift_nd,
                              _model_weight, _one_blas_thread, default_bump,
                              grad_log_tangential, min_effective_width,
                              production_grid_2d)

from conftest import assert_bitwise_equal, random_points


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
        GridSpec(dim=3, box=((0, 1),) * 3, n=8)  # model gaps are planar
    with pytest.raises(ConfigError):
        GridSpec(dim=2, box=((0, 1), (0, 2)), n=10)  # nonuniform spacing
    with pytest.raises(ConfigError):
        GridSpec(dim=2, box=((0, 1), (0, 1)), n=10, excluded=0.2)
    for n in (0, -4, 2.7):
        with pytest.raises(ConfigError):
            GridSpec(dim=1, box=((0, 1),), n=n)
    with pytest.raises(ConfigError):
        GridSpec(dim=2, box=((0, 1), (0, 1)), n=10, excluded=-0.2)
    with pytest.raises(ConfigError):
        production_grid_2d(PhysParams(), n=120.5)
    # zero width (spacing h = 0) and a reversed axis are refused by name
    for box in (((0, 0), (0, 0)), ((1, 0),), ((0, 1), (0, float("nan")))):
        with pytest.raises(ConfigError, match="box axis"):
            GridSpec(dim=len(box), box=box, n=10)


@pytest.mark.parametrize("box", [(-math.inf, math.inf), (-math.inf, 1.0),
                                 (0.0, math.inf), (-1e308, 1e308)],
                         ids=["both", "lo", "hi", "overflow"])
def test_grid_refuses_infinite_box(box):
    # a non-finite width makes the uniform-spacing test compare
    # inf - inf = NaN, which let such a box through with no node in it
    with pytest.raises(ConfigError, match="box axis 0 needs finite"):
        GridSpec(dim=1, box=(box,), n=10)


@pytest.mark.parametrize("weight_fn", ["model", None])
def test_generator_refuses_grid_without_active_nodes(weight_fn):
    # both cells of the 2-point grid lie in the excluded ball
    grid = GridSpec(dim=1, box=((-1.0, 1.0),), n=2, excluded=0.9)
    with pytest.raises(ResolutionError, match="0 active nodes"):
        build_generator(PhysParams(eps=0.2), grid, drift_fn=None,
                        weight_fn=weight_fn)


@pytest.mark.parametrize("n", [1, 2])
def test_generator_refuses_chain_too_small_for_the_gap(n):
    # the gap solver deflates the constants and needs one more direction:
    # a 1- or 2-node chain is refused before it reaches ARPACK
    with pytest.raises(ResolutionError, match=f"{n} active nodes"):
        gap_from_matrix(build_generator(
            PhysParams(eps=0.2), GridSpec(dim=1, box=((0.0, 1.0),), n=n),
            drift_fn=None, weight_fn=None))
    assert gap_from_matrix(build_generator(
        PhysParams(eps=0.2), GridSpec(dim=1, box=((0.0, 1.0),), n=3),
        drift_fn=None, weight_fn=None)).gap > 0


def test_resolution_precondition():
    # the gate h < w/4 sits between n = 184 (spacing 0.02174 against the
    # 0.02165 it needs) and 185, half the default n: the default spacing
    # is twice as fine as the gate needs
    p = PhysParams(ecc=0.5, eps=0.1)
    with pytest.raises(ResolutionError):
        build_generator(p, production_grid_2d(p, n=184))
    assert build_generator(p, production_grid_2d(p, n=185)).n_nodes == 34_208
    assert production_grid_2d(p).n == 370


@pytest.mark.parametrize("ecc", [0.05, 0.3, 0.5, 0.7, 0.95])
@pytest.mark.parametrize("eps", [0.02, 0.1, 0.7])
def test_min_effective_width_at_the_apsides(ecc, eps):
    # the two apsides give the minimum of 721 angles around the ellipse
    # bit for bit, and the closed form (eps lam^1.5/mu) sqrt(1-e^2)
    p = PhysParams(ecc=ecc, eps=eps)
    sn, _ = cross_section_widths(p, np.linspace(0, 2 * np.pi, 721))
    assert min_effective_width(p) == float(np.min(sn))
    assert min_effective_width(p) == pytest.approx(
        eps * p.lam ** 1.5 / p.mu * math.sqrt(1 - ecc ** 2), rel=1e-14)


def test_markov_sign_structure(model_gen):
    _, G = model_gen
    Q = G.matrix.tocoo()
    off = Q.data[Q.row != Q.col]
    assert off.min() >= 0.0
    row_sums = np.asarray(G.matrix.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums[G.interior])) < 1e-12


def test_zero_drift_symmetric_with_constant_kernel():
    p = PhysParams(eps=0.2)
    G = build_generator(p, GridSpec(dim=2, box=((0, 1), (0, 1)), n=30),
                        drift_fn=None, weight_fn=None, check_resolution=False)
    Q = G.matrix
    assert (Q - Q.T).nnz == 0 or abs((Q - Q.T)).max() < 1e-14
    assert np.max(np.abs(Q @ np.ones(Q.shape[0]))) < 1e-12


def test_weight_fn_other_than_model_or_none_refused():
    with pytest.raises(ConfigError, match="weight_fn"):
        build_generator(PhysParams(eps=0.2),
                        GridSpec(dim=1, box=((0.0, 1.0),), n=50),
                        drift_fn=None, weight_fn=lambda nodes: nodes[:, 0],
                        check_resolution=False)


def test_nan_drift_rejected():
    # NaN < 0 is False, so only a check that every rate is >= 0 sees it
    def drift_fn(nodes):
        b = np.full((len(nodes), 1), 0.3)
        b[len(nodes) // 2] = np.nan
        return b

    with pytest.raises(ResolutionError, match="NaN"):
        build_generator(PhysParams(eps=0.2),
                        GridSpec(dim=1, box=((0.0, 1.0),), n=50),
                        drift_fn=drift_fn, weight_fn=None,
                        check_resolution=False)


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
    assert res.gap > 0
    assert res.residual_weighted < 1e-8
    # slow mode rotates around the ellipse: conjugate pair
    assert abs(res.eigenvalue.imag) > res.gap


def test_gap_perturbed_eigenvector_not_converged(model_gen, monkeypatch):
    # the eigenpair is checked on its own residual, not on ARPACK's word
    import scipy.sparse.linalg as spla
    real_eigs = spla.eigs

    def eigs(*args, **kwargs):
        theta, vecs = real_eigs(*args, **kwargs)
        rng = np.random.default_rng(1)
        return theta, vecs + 1e-3 * rng.standard_normal(vecs.shape)

    monkeypatch.setattr(spla, "eigs", eigs)
    _, G = model_gen
    with pytest.raises(ConvergenceError, match="weighted residual"):
        gap_from_matrix(G)


def test_gap_without_decaying_mode_raises(model_gen, monkeypatch):
    # every slow eigenvalue with Re(lambda) >= 0: no gap to report
    real_eigs = spla.eigs

    def eigs(*args, **kwargs):
        theta, vecs = real_eigs(*args, **kwargs)
        return np.abs(theta.real), vecs

    monkeypatch.setattr(spla, "eigs", eigs)
    _, G = model_gen
    with pytest.raises(ConvergenceError, match="positive real part"):
        gap_from_matrix(G)


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
    gap_from_matrix(build_generator(p, production_grid_2d(p, n=80)))
    assert len(calls) == 1


def test_gap_repeatable(model_gen):
    _, G = model_gen
    a, b = gap_from_matrix(G), gap_from_matrix(G)
    assert a.gap == b.gap
    assert a.eigenvalues == b.eigenvalues


def _reducible_1d():
    # the excluded ball cuts the 1-d box into two disconnected halves
    return build_generator(PhysParams(eps=0.2),
                           GridSpec(dim=1, box=((-1.0, 1.0),), n=200,
                                    excluded=0.5),
                           drift_fn=None, weight_fn=None,
                           check_resolution=False)


def test_reducible_generator_raises():
    G = _reducible_1d()
    with pytest.raises(ConvergenceError, match="disconnected"):
        stationary_vector(G)
    with pytest.raises(ConvergenceError, match="disconnected"):
        gap_from_matrix(G)


def test_reducible_model_grid_named_before_factoring():
    # the origin ball cuts the 1-d model grid into two halves.  SuperLU
    # factors the pinned matrix without complaint and pi passes its
    # check, so only the component count can name the defect.
    p = PhysParams(ecc=0.5, eps=0.3)
    G = build_generator(p, GridSpec(dim=1, box=((-4 * p.a, 4 * p.a),),
                                    n=400, excluded=0.05 * p.a))
    with pytest.raises(ConvergenceError, match="form 2 disconnected"):
        G.pinned_lu


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


def _pinned(G):
    M = G.matrix.tolil(copy=True)
    M[G.pin, :] = 0.0
    M[G.pin, G.pin] = 1.0
    return M.tocsc()


def _default_order_lu(G):
    """Oracle: SuperLU's default-ordering factor of G's pinned matrix."""
    return spla.splu(_pinned(G))


def _pivoting_mmd_lu(G):
    """Oracle: the same minimum-degree order with partial pivoting."""
    return spla.splu(_pinned(G), permc_spec="MMD_AT_PLUS_A")


def _model_n80():
    p = PhysParams(ecc=0.5, eps=0.3)
    return build_generator(p, production_grid_2d(p, n=80))


def _c7_coarse():
    # C7's coarse grid at e = 0.5, eps = 0.3
    p = PhysParams(ecc=0.5, eps=0.3)
    return build_generator(p, production_grid_2d(p, n=160))


def _neumann_2d():
    return build_generator(PhysParams(eps=0.2),
                           GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)), n=200),
                           drift_fn=None, weight_fn=None,
                           check_resolution=False)


@pytest.mark.parametrize("build", [_model_n80, _neumann_2d, _c7_coarse],
                         ids=["model_n80", "neumann_2d", "c7_coarse"])
def test_fill_reducing_order_changes_no_result(build, monkeypatch):
    G = build()
    res = gap_from_matrix(G)
    oracle = dataclasses.replace(G)
    oracle.pinned_lu = _default_order_lu(G)
    assert abs(res.gap / gap_from_matrix(oracle).gap - 1) < 1e-10
    pi, pi_ref = stationary_vector(G)[0], stationary_vector(oracle)[0]
    assert np.abs(pi - pi_ref).sum() < 1e-12
    lu, lu_ref = G.pinned_lu, oracle.pinned_lu
    assert lu.L.nnz + lu.U.nnz < lu_ref.L.nnz + lu_ref.U.nnz

    # the unpivoted factor and the 4-eigenvalue window against a pivoting
    # factor in the same order and a window of 6 at ncv 40
    wide = dataclasses.replace(G)
    wide.pinned_lu = _pivoting_mmd_lu(G)
    monkeypatch.setattr(spectral, "N_EIGS", 6)
    monkeypatch.setattr(spectral, "ARPACK_NCV", 40)
    ref = gap_from_matrix(wide)
    assert abs(res.gap / ref.gap - 1) < 1e-12
    assert abs(res.eigenvalue - ref.eigenvalue) < 1e-12 * abs(ref.eigenvalue)
    assert np.abs(pi - stationary_vector(wide)[0]).sum() < 1e-12


def test_gap_solve_count_on_c7_coarse_grid():
    # 71 solves with 6 eigenvalues at ncv 40
    G = _c7_coarse()
    lu, solves = G.pinned_lu, []

    class CountingLU:
        def solve(self, *args, **kwargs):
            solves.append(1)
            return lu.solve(*args, **kwargs)

    counted = dataclasses.replace(G)
    counted.pinned_lu = CountingLU()
    gap_from_matrix(counted)
    assert len(solves) <= 55


def _shifted_eigenvalues(G, pi, sigma):
    """Eigenvalues of G's matrix near the complex shift sigma that pass
    their own residual check |Q v - lam v| / |v| < 1e-8.

    Complex shift-invert Arnoldi on (Q - sigma I)^-1, with the null
    direction (constants) deflated along pi as in ``gap_from_matrix``.
    """
    Q = G.matrix.tocsc()
    N = Q.shape[0]
    lu = spla.splu((Q - sigma * sp.identity(N, format="csc")).tocsc(),
                   permc_spec="MMD_AT_PLUS_A")

    def proj(x):
        return x - pi @ x

    op = spla.LinearOperator((N, N), matvec=lambda x: proj(lu.solve(proj(x))),
                             dtype=complex)
    v0 = proj(np.random.default_rng(0).standard_normal(N)).astype(complex)
    theta, vecs = spla.eigs(op, k=6, which="LM", v0=v0, tol=ARPACK_TOL)
    lams = sigma + 1.0 / theta
    resid = (np.linalg.norm(Q @ vecs - vecs * lams, axis=0)
             / np.linalg.norm(vecs, axis=0))
    return lams[resid < 1e-8]


def _below(lams, gap):
    """The nonzero eigenvalues with Re(-lambda) under gap."""
    return [lam for lam in lams
            if abs(lam) > 1e-9 and -lam.real < gap * (1 - 1e-9)]


def test_gap_minimality_probe():
    # The 4-eigenvalue window sees only the slowest few |lambda|.  Shifts
    # on the line Re = -gap, at j times the slow pair's frequency, look for
    # a smaller Re(-lambda) elsewhere: no certificate (that would need a
    # bound on |Im lambda| over the strip), but a check that does not
    # rely on the window.
    G = _c7_coarse()
    res = gap_from_matrix(G)
    pi, _ = stationary_vector(G)
    upper = complex(-res.gap, abs(res.eigenvalue.imag))
    with _one_blas_thread():
        found = [_shifted_eigenvalues(G, pi, complex(-res.gap, j * upper.imag))
                 for j in range(4)]
    assert all(lams.size for lams in found)
    kept = np.concatenate(found)
    assert not _below(kept, res.gap)
    # the j = 1 shift sits on the gap pair itself
    assert np.min(np.abs(found[1] - upper)) < 1e-9 * abs(upper)
    # negative control: a gap 1% too large is caught by that pair
    flagged = _below(kept, 1.01 * res.gap)
    assert flagged
    assert min(abs(lam - upper) for lam in flagged) < 1e-9 * abs(upper)


def _openblas_thread_accessors():
    """(get, set) thread-count functions of each OpenBLAS in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line})
    except OSError:
        return []
    names = [(f"{stem}_get_num_threads{sfx}", f"{stem}_set_num_threads{sfx}")
             for stem in ("scipy_openblas", "openblas") for sfx in ("64_", "")]
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        pair = next(((getattr(lib, g), getattr(lib, s)) for g, s in names
                     if hasattr(lib, g) and hasattr(lib, s)), None)
        if pair is not None:
            get, set_ = pair
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found.append(pair)
    return found


@pytest.fixture
def blas_threads():
    """Every OpenBLAS at two threads; yields a reader of the counts."""
    pairs = _openblas_thread_accessors()
    if not pairs:
        pytest.skip("no OpenBLAS thread-count getter is loaded")
    saved = [get() for get, _ in pairs]
    for _, set_ in pairs:
        set_(2)
    try:
        yield lambda: [get() for get, _ in pairs]
    finally:
        for (_, set_), n in zip(pairs, saved):
            set_(n)


def test_solves_run_on_one_blas_thread_and_restore(blas_threads, monkeypatch):
    real_splu = spla.splu
    seen = []

    class RecordingLU:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, *args, **kwargs):
            seen.append(blas_threads())
            return self._lu.solve(*args, **kwargs)

    def splu(*args, **kwargs):
        seen.append(blas_threads())
        return RecordingLU(real_splu(*args, **kwargs))

    monkeypatch.setattr(spla, "splu", splu)
    before = blas_threads()
    G = _model_n80()
    gap_from_matrix(G)
    assert len(seen) > 2
    assert all(counts == [1] * len(before) for counts in seen)
    assert blas_threads() == before
    stationary_vector(G)
    assert blas_threads() == before

    # a reducible generator raises from inside the scope
    R = _reducible_1d()
    for solve in (stationary_vector, gap_from_matrix):
        with pytest.raises(ConvergenceError):
            solve(R)
        assert blas_threads() == before


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
    res = [adjoint_residual(build_generator(p, production_grid_2d(p, n=n)))
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


def _clipped_ramp(p):
    bump = default_bump(p, width=0.5 * p.a)
    return lambda xy: xy[..., 0] * bump(xy)


def test_dirichlet_clipped_ramp_decreases():
    p = PhysParams(ecc=0.5, eps=0.3)
    a = p.a
    ramp = _clipped_ramp(p)
    resids = [dirichlet_form_residual(
        p, GridSpec(dim=2, box=((-2 * a, 2 * a), (-2 * a, 2 * a)), n=n),
        f=ramp).residual for n in (200, 400)]
    assert resids[1] < resids[0]


def test_dirichlet_rejects_unsupported_function():
    p = PhysParams(ecc=0.5, eps=0.3)
    grid = GridSpec(dim=2, box=((-1, 1), (-1, 1)), n=50)
    with pytest.raises(ConfigError):
        dirichlet_form_residual(p, grid, f=lambda xy: xy[..., 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dirichlet_rejects_non_finite_function(bad):
    p = PhysParams(ecc=0.5, eps=0.3)
    a = p.a
    grid = GridSpec(dim=2, box=((-2 * a, 2 * a), (-2 * a, 2 * a)), n=100)
    bump = default_bump(p)

    def f(xy):
        F = bump(xy)
        F[50, 50] = bad
        return F

    with pytest.raises(ConfigError, match="finite"):
        dirichlet_form_residual(p, grid, f=f)


def _dirichlet_full_mesh(p, grid, f):
    """The Dirichlet sums with drift and weight on every interior node."""
    h = grid.h
    pts = np.stack(grid.mesh(), axis=-1)
    F = f(pts)
    C = F[1:-1, 1:-1]
    fx = (F[2:, 1:-1] - F[:-2, 1:-1]) / (2 * h)
    fy = (F[1:-1, 2:] - F[1:-1, :-2]) / (2 * h)
    lap = (F[2:, 1:-1] + F[:-2, 1:-1] + F[1:-1, 2:] + F[1:-1, :-2]
           - 4 * C) / (h * h)
    nodes = pts[1:-1, 1:-1].reshape(-1, 2)
    bx, by = _model_drift_nd(p, nodes, 2).T.reshape(2, *C.shape)
    w = _model_weight(p, nodes, 2).reshape(C.shape)
    Gf = 0.5 * p.eps ** 2 * lap + bx * fx + by * fy
    lhs = -float(np.sum(w * C * Gf))
    rhs = 0.5 * p.eps ** 2 * float(np.sum(w * (fx * fx + fy * fy)))
    return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("which", ["bump", "ramp"])
def test_dirichlet_matches_full_mesh_oracle(which, n):
    # the restriction to the stencils' reach must leave the ratio of the
    # whole-grid sums as it is, to rounding
    p = PhysParams(ecc=0.5, eps=0.3)
    a = p.a
    f = default_bump(p) if which == "bump" else _clipped_ramp(p)
    grid = GridSpec(dim=2, box=((-2 * a, 2 * a), (-2 * a, 2 * a)), n=n)
    lhs, rhs, resid = _dirichlet_full_mesh(p, grid, f)
    chk = dirichlet_form_residual(p, grid, f=f)
    assert chk.residual == pytest.approx(resid, rel=1e-12, abs=0)
    assert chk.lhs / chk.rhs == pytest.approx(lhs / rhs, rel=1e-12, abs=0)


def test_dirichlet_zero_function():
    p = PhysParams(ecc=0.5, eps=0.3)
    a = p.a
    grid = GridSpec(dim=2, box=((-2 * a, 2 * a), (-2 * a, 2 * a)), n=100)
    chk = dirichlet_form_residual(p, grid,
                                  f=lambda xy: np.zeros(xy.shape[:-1]))
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.residual == 0.0


def test_dirichlet_evaluates_only_the_stencil_reach(monkeypatch):
    from kepdiff import spectral
    seen = []
    inner = spectral.log_invariant_density

    def counting(p, pts):
        seen.append(len(pts))
        return inner(p, pts)

    monkeypatch.setattr(spectral, "log_invariant_density", counting)
    p = PhysParams(ecc=0.5, eps=0.3)
    a = p.a
    grid = GridSpec(dim=2, box=((-2 * a, 2 * a), (-2 * a, 2 * a)), n=400)
    dirichlet_form_residual(p, grid)
    assert 0 < sum(seen) <= 0.05 * 398 ** 2


def test_dirichlet_sides_independent_of_the_box():
    # same spacing and lattice, so the same nodes carry f; lhs and rhs are
    # averages over those nodes and do not see the empty part of the box
    p = PhysParams(ecc=0.5, eps=0.3)
    a = p.a
    small = dirichlet_form_residual(
        p, GridSpec(dim=2, box=((-2 * a, 2 * a), (-2 * a, 2 * a)), n=200))
    large = dirichlet_form_residual(
        p, GridSpec(dim=2, box=((-3 * a, 3 * a), (-3 * a, 3 * a)), n=300))
    assert large.lhs == pytest.approx(small.lhs, rel=1e-12, abs=0)
    assert large.rhs == pytest.approx(small.rhs, rel=1e-12, abs=0)


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
    # cos(v) is constant when v is: the zero-variance guard refuses it
    _, ens = autocorr_ensemble
    flat = dataclasses.replace(ens, v=np.zeros_like(ens.v))
    with pytest.raises(ConvergenceError, match="constant observable"):
        gap_from_autocorrelation(flat, burn_in=20.0)


def test_autocorr_one_path_refused():
    # the bootstrap resamples paths, so one path is too few
    cfg = SimConfig(params=PhysParams(ecc=0.5, eps=0.3), dt=1e-3,
                    n_steps=400, n_paths=1, seed=0, record_stride=20)
    with pytest.raises(InsufficientSamplesError, match="got 1"):
        gap_from_autocorrelation(simulate_ensemble(cfg), burn_in=0.0)


@pytest.mark.parametrize("burn_in", [0.4, 0.5])
def test_autocorr_burn_in_past_the_records_refused(burn_in):
    # 400 steps recorded every 20 end at t = 0.4: at most one record
    # from 0.4 on, none from 0.5; no lag window, so a typed error before
    # any FFT and no empty-slice warning
    cfg = SimConfig(params=PhysParams(ecc=0.5, eps=0.3), dt=1e-3,
                    n_steps=400, n_paths=4, seed=0, record_stride=20)
    ens = simulate_ensemble(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InsufficientSamplesError, match="lag window"):
            gap_from_autocorrelation(ens, burn_in=burn_in)


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

def _log_T(p, x, y):
    return np.log(tangential_factor(p.ecc, elliptic_uv(p, x, y)[1]))


@pytest.mark.parametrize("ecc", [0.1, 0.5, 0.9])
def test_grad_log_tangential_matches_richardson_differences(ecc):
    # an independent oracle: Richardson-extrapolated central differences
    # of ln T(v(x, y)), at points well away from the segment u = 1
    p = PhysParams(ecc=ecc, eps=0.1)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3 * p.a, 3 * p.a, size=(40, 3))
    pts = pts[np.abs(pts[:, 1]) > 0.3 * p.a]
    g = grad_log_tangential(p, pts)
    h = 1e-3 * p.a
    x, y = pts[:, 0], pts[:, 1]

    def central(step):
        return np.stack([
            (_log_T(p, x + step, y) - _log_T(p, x - step, y)) / (2 * step),
            (_log_T(p, x, y + step) - _log_T(p, x, y - step)) / (2 * step)],
            axis=1)

    oracle = (4 * central(h / 2) - central(h)) / 3
    scale = np.linalg.norm(oracle, axis=1, keepdims=True)
    assert np.all(g[:, 2] == 0.0)
    assert np.max(np.abs(g[:, :2] - oracle) / scale) < 1e-6


def test_grad_log_tangential_batch_independent():
    # a point's gradient does not depend on the points passed with it
    p = PhysParams(ecc=0.9, eps=0.1)
    pt = np.array([[-0.05 * p.a, 0.01 * p.a, 0.3 * p.a]])
    alone = grad_log_tangential(p, pt)[0]
    beside = grad_log_tangential(p, np.vstack([pt, [[100 * p.a, 1.0, 0.0]]]))
    np.testing.assert_allclose(beside[0], alone, rtol=1e-12, atol=0)


@pytest.mark.parametrize("ecc", [0.1, 0.5, 0.9])
def test_grad_log_tangential_across_the_segment(ecc):
    # ln T is smooth across the interior of the segment u = 1 (y = 0,
    # -4ae/(1+e) < x < 0) since T(2 pi - v) = T(v): on it and beside it
    # the gradient is the chain-rule limit (T'/T (v0) dv0/dx, 0) with
    # cos v0 = 1 + x (1+e)/(2ae)
    p = PhysParams(ecc=ecc, eps=0.1)
    x = np.repeat(np.array([-0.1, -0.5, -0.9]) * 4 * p.a * ecc / (1 + ecc),
                  5)
    y = np.tile([-1e-9, -1e-12, 0.0, 1e-12, 1e-9], 3) * p.a
    v0 = np.arccos(1 + x * (1 + ecc) / (2 * p.a * ecc))
    gx = tangential_log_slope(ecc, v0) * -(1 + ecc) \
        / (2 * p.a * ecc * np.sin(v0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g = grad_log_tangential(p, np.stack([x, y, np.full_like(x, 0.4)],
                                            axis=1))
    np.testing.assert_allclose(g[:, 0], gx, rtol=0, atol=1e-6)
    np.testing.assert_allclose(g[:, 1:], 0.0, rtol=0, atol=1e-6)


@pytest.mark.parametrize("xy", [(0.0, 0.0), (-1.5, 0.0)])
def test_grad_log_tangential_refuses_the_segment(xy):
    # the segment's ends, at any z: the z-axis (nu = 0) and, at e = 0.6,
    # the second focus (-1.5a, 0), where nu = 4 and w = pi exactly although
    # np.sin(w) is 1.2e-16; no inf or NaN, and no warning
    p = PhysParams(ecc=0.6, eps=0.1)
    pt = [[xy[0] * p.a, xy[1] * p.a, 0.7], [1.0, 1.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularPointError, match="segment"):
            grad_log_tangential(p, pt)


def test_radial_scan_C_bounds(p):
    # C is the exact sup |grad ln T|, not an input: a smaller one would
    # make the bound certify nothing
    with pytest.raises(TypeError, match="'C'"):
        osmotic_radial_scan(p, [1.0, 10.0], C=2.0)
    scan = osmotic_radial_scan(p, [1.0, 10.0])
    assert scan.C == sup_grad_log_tangential(p)
    assert scan.C < p.mu / (p.eps ** 2 * p.lam)
    assert scan.C_tilde == pytest.approx((p.mu - p.eps ** 2 * p.lam * scan.C)
                                         / (p.eps ** 2 * p.lam))
    assert scan.bound == -p.eps ** 2 * scan.C_tilde / 2


def test_scan_rows_format(p):
    scan = osmotic_radial_scan(p, [1.0, 10.0])
    # the scan CSV's rows are (r, max_Gu, bound): one radius and one
    # maximum per row, the same bound on each
    assert scan.radii.tolist() == [1.0, 10.0]
    assert scan.max_gu.shape == scan.radii.shape
    assert np.all(np.isfinite(scan.max_gu))
    assert math.isfinite(scan.bound)


def test_radial_scan_measured_C_out_of_range():
    # at eps = 0.3, sup |grad ln T| exceeds mu/(eps^2 lam) = 11.11 at
    # e = 0.9 and already at e = 0.75: the estimate fails, a domain error
    # naming both numbers
    for ecc, sup in ((0.9, r"94\.74"), (0.75, r"13\.71")):
        p = PhysParams(ecc=ecc, eps=0.3)
        with pytest.raises(ConvergenceError,
                           match=rf"sup \|grad ln T\| = {sup} .* = 11\.11"):
            osmotic_radial_scan(p, [1.0, 10.0])


def test_radial_scan_checks_radii_before_measuring():
    # at (0.9, 0.3) C is out of range, so a ConvergenceError here would
    # mean C was taken before the radii were checked
    p = PhysParams(ecc=0.9, eps=0.3)
    for radii in ([1.0, -2.0], [], [math.nan], [math.inf], [1.0, math.nan]):
        with pytest.raises(ConfigError, match="radii"):
            osmotic_radial_scan(p, radii)


@pytest.mark.parametrize("ecc", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
def test_sup_grad_log_tangential_closed_form(ecc, lam, mu):
    # an independent oracle: |grad ln T| on a plane sweep (the points
    # grad_log_tangential refuses left out) never exceeds the closed
    # form, and a zoom toward the segment's end (-4ae/(1+e), 0) meets it
    p = PhysParams(lam=lam, mu=mu, ecc=ecc, eps=0.1)
    a = p.a
    sup = sup_grad_log_tangential(p)
    assert sup == 2 * ecc / (a * (1 - ecc) ** 2 * (1 + ecc))

    def norms(x, y):
        w = eccentric_angle(p, x, y)
        keep = (w != 0) & (w != np.pi)
        pts = np.stack([x[keep], y[keep], np.zeros(np.count_nonzero(keep))],
                       axis=1)
        return np.linalg.norm(grad_log_tangential(p, pts), axis=1)

    X, Y = np.meshgrid(*[np.linspace(-3, 3, 401) * a] * 2)
    sweep = norms(X.ravel(), Y.ravel())
    D, PH = np.meshgrid(np.geomspace(1e-10, 1e-1, 46) * a,
                        np.linspace(0, 2 * np.pi, 72, endpoint=False))
    zoom = norms(-4 * a * ecc / (1 + ecc) + (D * np.cos(PH)).ravel(),
                 (D * np.sin(PH)).ravel())
    assert max(sweep.max(), zoom.max()) <= sup * (1 + 1e-12)
    assert zoom.max() == pytest.approx(sup, rel=1e-6)


def test_radial_scan_far_field(p):
    radii = np.geomspace(0.1, 100.0, 20) * p.a
    scan = osmotic_radial_scan(p, radii)
    assert scan.C == sup_grad_log_tangential(p)
    assert math.isfinite(scan.r1_hat)
    assert scan.eps_part_max[-1] == pytest.approx(-p.mu / p.lam, rel=0.05)
    assert scan.max_gu[-1] <= scan.bound
    # small radii (ellipse scale and below) violate the bound
    assert scan.max_gu[0] > scan.bound
    assert scan.r1_hat > p.a
    # r1_hat is the radius after the last one that fails the bound
    k = scan.radii.tolist().index(scan.r1_hat)
    assert scan.max_gu[k - 1] > scan.bound
    assert np.all(scan.max_gu[k:] <= scan.bound)
    # no radius fails: the bound holds from the first one scanned
    assert osmotic_radial_scan(p, [50 * p.a, 100 * p.a]).r1_hat == 50 * p.a


def test_radial_scan_without_tangential_term(p):
    # eps_part_max is G_u |x| without the tangential term: the same
    # far-field asymptote, and the term is an O(eps^2 C) dent past 2a
    radii = np.geomspace(1.0, 100.0, 10) * p.a
    scan = osmotic_radial_scan(p, radii)
    assert abs(scan.eps_part_max[-1] - scan.max_gu[-1]) \
        <= 0.5 * p.eps ** 2 * scan.C + 1e-12
    assert scan.eps_part_max[-1] == pytest.approx(-p.mu / p.lam, rel=0.1)


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


def test_hamiltonian_stencil_batch_equals_single_points():
    # the residual evaluates its 7-point stencil (the centre, then +-h
    # along each axis) in one call per field; each row must come out as
    # a call on that point alone gives it.  The point goes in as a
    # one-row batch: a bare (3,) point runs numpy's scalar arithmetic,
    # whose complex products may round differently from the array loops
    p = PhysParams(ecc=0.5, eps=0.3)
    centres = np.concatenate([
        ellipse_point(p, np.array([0.4, 1.7, 3.4, 5.1])) + [0.05, 0.07, 0.04],
        random_points(8, seed=59)])
    k = np.arange(3)
    for centre in centres:
        for h in (0.05, 1e-3):
            S = np.tile(centre, (7, 1))
            S[1 + 2 * k, k] += h
            S[2 + 2 * k, k] -= h
            b, lw = drift(p, S), log_wave(p, S)
            gr, gs = wave_gradients(p, S)
            for i in range(7):
                q = S[i:i + 1]
                assert_bitwise_equal(b[i], drift(p, q)[0])
                assert_bitwise_equal(lw[i], log_wave(p, q)[0])
                gr_q, gs_q = wave_gradients(p, q)
                assert_bitwise_equal(gr[i], gr_q[0])
                assert_bitwise_equal(gs[i], gs_q[0])


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
    # within 4h of the cut, h = sqrt(0.006) eps^2 lam/(2 mu) = 0.0035 a
    with pytest.raises(SingularPointError, match="no admissible step"):
        hamiltonian_residual(p, [0.8, 0.01, 0.0])
    # as close to y = 0 in the cut-free far-left region still evaluates
    assert hamiltonian_residual(p, [-2.0, 0.005, 0.0]).rel < 1e-6
