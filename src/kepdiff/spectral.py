"""Generator discretisation and spectral-gap estimation.

The generator G = (eps^2/2) Lap + b . grad is discretised on a bounded
grid with an excluded origin ball: central second differences for the
diffusion part and first-order upwind differences for the drift, which
makes the matrix the generator of a Markov jump chain (all off-diagonal
rates nonnegative, zero interior row sums).  Each generator is factorised
once: an LU of the matrix with one row pinned to the identity row gives
the stationary law from a single transposed solve and the inverse
generator for ARPACK's implicitly restarted Arnoldi.  The LU orders its
columns by multiple minimum degree on A^T + A (Liu 1985), which on these
5-point grid matrices leaves about half the fill of SuperLU's default
COLAMD, and eliminates on the diagonal without pivoting, which the
M-matrix sign structure of the pinned generator makes stable (the
argument of Grassmann, Taksar & Heyman 1985).  The factorisation and
every solve run with each loaded OpenBLAS limited to one thread: the
sparse work is memory-bound, and extra BLAS threads only contend for the
cores.  The spectral gap is estimated two independent ways: from the
matrix (the slow eigenvalues of that deflated inverse) and from the decay
of stationary autocovariances of simulated ensembles.

The module also carries the numeric checks used around the gap argument:
the Dirichlet-form identity, the adjoint (stationarity) residual of the
density ansatz, the radial scan of the osmotic generator applied to |x|,
and the similarity-transform Hamiltonian residual.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .fields import (drift, drift_components, eccentric_angle, ellipse_point,
                     in_jump_set, jump_interval, radius, wave_gradients)
from .measure import (cross_section_widths, log_invariant_density,
                      tangential_log_slope)
from .params import (ConfigError, ConvergenceError, InsufficientSamplesError,
                     PhysParams, ResolutionError, SingularPointError)
from .sde import TrajectoryEnsemble
from .specfun import log_wave


#: Stationary-vector check: pi residual |pi Q|_1 bound relative to
#: max|Q_ii|, and the roundoff floor for negative entries relative to max pi.
PI_TOL = 1e-12
#: Slow eigenvalues ARPACK resolves, its Krylov dimension and its tolerance.
#: A window of 4 (two conjugate pairs) converges in about 50 solves on
#: C7's grids, where 6 at ncv 40 took 71 for the same gaps.  It sees only
#: the slowest few |lambda|; that no eigenvalue outside it has a smaller
#: Re(-lambda) is checked by the complex-shift minimality probe in the
#: tests, not here.
N_EIGS = 4
ARPACK_NCV = 20
ARPACK_TOL = 1e-10
#: Bound on the gap eigenpair's residual |Q f - lam f| / |f| in the
#: weight-induced norm; a larger one raises ConvergenceError.
EIGEN_RESID_TOL = 1e-8
#: Path-bootstrap resamples behind the autocovariance gap's interval.
AUTOCORR_N_BOOT = 200
#: Default radii of the radial scan, in units of a.
SCAN_RADII = np.geomspace(0.1, 100.0, 25)
#: OpenBLAS thread-count accessors: numpy's ILP64 build suffixes its
#: symbols with 64_, scipy's LP64 build does not.
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{stem}_get_num_threads{sfx}", f"{stem}_set_num_threads{sfx}")
    for stem in ("scipy_openblas", "openblas") for sfx in ("64_", ""))


@cache
def _openblas_thread_accessors():
    """(get, set) thread-count functions of every OpenBLAS in this process.

    Libraries are found from the process's memory map; one without a
    matching get/set pair is skipped.  Empty where there is no map or no
    OpenBLAS.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Limit every loaded OpenBLAS to one thread; restore each count on exit."""
    saved = []
    try:
        for get, set_ in _openblas_thread_accessors():
            saved.append((set_, get()))
            set_(1)
        yield
    finally:
        for set_, n in reversed(saved):
            set_(n)


# ---------------------------------------------------------------------------
# grid and matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centred grid on a box with an excluded origin ball.

    dim is 1 (control problems) or 2 (the z = 0 restriction, on which
    every model gap is computed).  n is points per axis; spacing must
    come out equal on all axes.  The boundary is reflecting: transitions
    leaving the box or entering the excluded ball are simply dropped.
    """

    dim: int
    box: tuple
    n: int
    excluded: float = 0.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError("dim must be 1 or 2")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if len(box) != self.dim:
            raise ConfigError("box must give one (lo, hi) pair per axis")
        object.__setattr__(self, "box", box)
        for axis, (lo, hi) in enumerate(box):
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ConfigError(
                    f"box axis {axis} needs finite lo < hi, got ({lo}, {hi})")
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ConfigError(f"n must be an integer >= 1, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        hs = [(hi - lo) / self.n for lo, hi in box]
        if max(hs) - min(hs) > 1e-12 * max(hs):
            raise ConfigError(f"grid spacing must be uniform, got {hs}")
        if not self.excluded >= 0:
            raise ConfigError(f"excluded must be >= 0, got {self.excluded}")
        if self.excluded > 0:
            for (lo, hi) in box:
                if not (lo < -self.excluded and hi > self.excluded):
                    raise ConfigError("excluded ball must lie inside the box")

    @property
    def h(self):
        lo, hi = self.box[0]
        return (hi - lo) / self.n

    def axes(self):
        return [lo + (np.arange(self.n) + 0.5) * self.h
                for lo, _ in self.box]

    def mesh(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def as_dict(self):
        return {"dim": self.dim, "box": [list(b) for b in self.box],
                "n": [self.n] * self.dim, "excluded": self.excluded}


def production_grid_2d(p: PhysParams, n=None) -> GridSpec:
    """Grid for the z = 0 restriction sized to the stationary support.

    This is the grid of every model gap: ``kepdiff spectral --gap``
    (each point of README's gap curve is one such run) and criterion 7.
    The ridge lives on the ellipse (x in [-a(1+e), a(1-e)], |y| up to
    a sqrt(1-e^2)) with O(eps) cross-sections; a box clearing it by
    many widths keeps the matrix small at volcano-resolving spacing.  n
    defaults to spacing w/8, with w the narrowest ridge width: twice as
    fine as the h < w/4 resolution check needs (at ecc 0.5, eps 0.1 the
    default n is 370, and the check needs n >= 185).
    """
    a = p.a
    box = ((-2.6 * a, 1.4 * a), (-2.0 * a, 2.0 * a))
    if n is None:
        wmin = min_effective_width(p)
        n = int(math.ceil(4.0 * a / (wmin / 8.0)))
    return GridSpec(dim=2, box=box, n=n, excluded=0.05 * a)


def min_effective_width(p: PhysParams) -> float:
    """The narrowest normal cross-section width of the ridge around the
    ellipse, the length a model grid's spacing must resolve.

    sigma_n is smallest at the apsides v = 0 and v = pi, where it equals
    (eps lam^{3/2}/mu) sqrt(1-e^2); it is evaluated at those two angles.
    """
    sn, _ = cross_section_widths(p, np.array([0.0, np.pi]))
    return float(np.min(sn))


@dataclass
class GeneratorMatrix:
    """Sparse discrete generator plus a normalised weight on its nodes.

    matrix rows follow the active-node ordering in ``nodes``.  For the
    model, ``weight`` is the closed-form density ansatz at the z = 0
    nodes, normalised: not the chain's stationary law (the pi of
    :func:`stationary_vector`), and without the sigma_z cross-section
    factor that integrating the density over z would bring.  It picks
    the pinned row and weights the norm of the gap's eigen-residual.
    ``model_weight`` records whether ``build_generator`` chose that
    ansatz or a uniform weight; the weight itself is computed on first
    read, so a caller that never reads it (the adjoint check) never pays
    for the ansatz.
    """

    matrix: sp.csr_matrix
    model_weight: bool
    nodes: np.ndarray          # (N, dim)
    grid: GridSpec
    params: PhysParams
    interior: np.ndarray       # mask: nodes with a full stencil

    @property
    def n_nodes(self):
        return self.matrix.shape[0]

    @cached_property
    def weight(self):
        """The normalised weight on the nodes, computed once."""
        if not self.model_weight:
            return np.full(self.n_nodes, 1.0 / self.n_nodes)
        return _model_weight(self.params, self.nodes)

    @property
    def pin(self):
        """Node whose row the pinned factorisation replaces (weight mode)."""
        return int(np.argmax(self.weight))

    @cached_property
    def pinned_lu(self):
        """SuperLU factor of the matrix with row ``pin`` set to e_pin^T.

        The pinned matrix is nonsingular exactly when the chain is
        irreducible.  SuperLU need not notice a reducible one (the 1-d
        model grid, cut in two by the origin ball, factors without
        complaint), so the strongly connected components of the jump
        graph are counted first: more than one, or a singular factor,
        raises ConvergenceError.  Columns are ordered by multiple minimum
        degree on A^T + A, about half the fill of the default COLAMD on
        5-point grids (6.4M against 12.4M L+U nonzeros at eps = 0.1).

        Elimination runs on the diagonal in that symmetric order, without
        pivoting.  No row swap is needed: ``build_generator`` refuses
        every negative rate, and the strongly connected check above runs
        before the factorisation.  Together these make the pinned matrix,
        with every row except ``pin`` negated, a nonsingular M-matrix
        (nonpositive off-diagonal, zero row sums but in the identity row
        ``pin``, which every node reaches).  Elimination on such a matrix,
        in any symmetric order, leaves M-matrix Schur complements with
        positive pivots and no element growth; the negated rows flip only
        signs in the factors.  This is the stability argument of the GTH
        algorithm (Grassmann, Taksar & Heyman 1985).  SuperLU would still
        swap rows at an exactly zero diagonal, and an exactly singular
        factor still raises ConvergenceError.  Computed once, inside the
        one-BLAS-thread scope of ``stationary_vector``, and shared with
        ``gap_from_matrix``.
        """
        n_comp, _ = connected_components(self.matrix, directed=True,
                                         connection="strong")
        if n_comp > 1:
            raise ConvergenceError(
                f"generator is reducible: the active nodes form {n_comp} "
                "disconnected components, so the stationary law is not "
                "unique")
        C, pin = self.matrix.tocoo(), self.pin
        keep = C.row != pin
        rows = np.concatenate([C.row[keep], [pin]])
        cols = np.concatenate([C.col[keep], [pin]])
        vals = np.concatenate([C.data[keep], [1.0]])
        M = sp.csc_matrix((vals, (rows, cols)), shape=C.shape)
        try:
            return spla.splu(M, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0,
                             options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise ConvergenceError(
                "the pinned generator is singular although its jump graph "
                "is strongly connected") from exc


def _lift(nodes):
    """(..., dim) nodes as (..., 3) points, the missing coordinates zero."""
    pts = np.zeros(nodes.shape[:-1] + (3,))
    pts[..., :nodes.shape[-1]] = nodes
    return pts


def _model_drift_nd(p: PhysParams, nodes):
    with np.errstate(all="ignore"):
        B = drift_components(p, _lift(nodes).T)
    return np.nan_to_num(B[:nodes.shape[1]]).T


def _model_weight(p: PhysParams, nodes):
    with np.errstate(all="ignore"):
        lw = log_invariant_density(p, _lift(nodes))
    lw = np.where(np.isfinite(lw), lw, -np.inf)
    lw -= np.max(lw)
    w = np.exp(lw)
    return w / w.sum()


def _active(grid: GridSpec, mesh):
    """Mask of the mesh nodes outside the excluded ball: the active nodes."""
    return sum(m * m for m in mesh) > grid.excluded ** 2


def build_generator(p: PhysParams, grid: GridSpec, drift_fn="model",
                    weight_fn="model", check_resolution=True) -> GeneratorMatrix:
    """Assemble the upwind discrete generator on the active nodes.

    drift_fn is "model" (the model drift) or None (zero drift, for the
    Neumann control problems); weight_fn is "model" (the invariant
    density at the nodes) or None (uniform weight).  Any other value
    raises ConfigError.  Raises ResolutionError when the spacing cannot
    resolve the ridge and the model drift is in use, when fewer than 3
    nodes are active (the gap solver deflates one direction and needs
    one more to work in), and when a jump rate is negative or not a
    number, which would void the M-matrix argument of ``pinned_lu``.
    """
    for name, value in (("drift_fn", drift_fn), ("weight_fn", weight_fn)):
        if value not in ("model", None):
            raise ConfigError(
                f"{name} must be 'model' or None, got {value!r}")
    h = grid.h
    if check_resolution and drift_fn == "model":
        wmin = min_effective_width(p)
        if not h < wmin / 4:
            raise ResolutionError(
                f"grid spacing {h:.4g} does not resolve the stationary "
                f"ridge (need < {wmin / 4:.4g})")

    mesh = grid.mesh()
    active = _active(grid, mesh)
    N = int(active.sum())
    if N < 3:
        raise ResolutionError(
            f"the grid has {N} active nodes; a generator needs at least 3")
    nodes = np.stack([m[active] for m in mesh], axis=1)

    if drift_fn is None:
        b = np.zeros((N, grid.dim))
    else:
        b = _model_drift_nd(p, nodes)

    D = p.eps ** 2 / (2 * h * h)
    flat, = np.nonzero(active.ravel())
    # node number of each flat grid index; the extra last entry (-1)
    # stands for "outside the box" and for the excluded ball
    index = np.full(active.size + 1, -1, dtype=np.int64)
    index[flat] = np.arange(N)
    nbr = np.empty((2 * grid.dim, N), dtype=np.int64)
    rates = np.empty((2 * grid.dim, N))
    for axis in range(grid.dim):
        stride = grid.n ** (grid.dim - 1 - axis)
        pos = flat // stride % grid.n
        for k, sgn in enumerate((+1, -1), start=2 * axis):
            inside = (pos + sgn >= 0) & (pos + sgn < grid.n)
            nbr[k] = index[np.where(inside, flat + sgn * stride, -1)]
            # upwind: the jump rate toward +axis carries max(b, 0)/h
            rates[k] = D + np.maximum(sgn * b[:, axis], 0.0) / h
    if not (rates >= 0).all():
        raise ResolutionError(
            "negative or NaN jump rate; the discrete generator "
            "would lose its Markov sign structure")
    has = nbr >= 0
    rates[~has] = 0.0  # reflecting: drop lost jumps
    interior = has.all(axis=0)
    Q = sp.csr_matrix((np.concatenate([rates[has], -rates.sum(axis=0)]),
                       (np.concatenate([np.nonzero(has)[1], np.arange(N)]),
                        np.concatenate([nbr[has], np.arange(N)]))),
                      shape=(N, N))

    return GeneratorMatrix(matrix=Q, model_weight=weight_fn is not None,
                           nodes=nodes, grid=grid, params=p, interior=interior)


# ---------------------------------------------------------------------------
# eigen machinery
# ---------------------------------------------------------------------------

@_one_blas_thread()
def stationary_vector(G: GeneratorMatrix):
    """Left null vector of the generator (the chain's stationary law).

    With M the pinned matrix (row ``pin`` of Q replaced by the identity
    row), M^T pi = pi_pin (e_pin - Q[pin, :]^T), so one transposed solve
    on ``G.pinned_lu`` gives pi exactly, up to normalisation.  A second
    solve against that system's residual (one step of iterative
    refinement) removes the roundoff the minimum-degree order leaves: on
    the 200 x 200 Neumann control pi is 1.6e-14 in L1 from the exact law,
    against 2.4e-12 unrefined (and 1.6e-13 unrefined under COLAMD with
    partial pivoting).  Returns the probability vector and its residual
    |pi Q|_1.  Raises ConvergenceError when pi has a negative entry beyond
    roundoff or its residual exceeds PI_TOL * max|Q_ii|.
    """
    Q, pin, lu = G.matrix, G.pin, G.pinned_lu
    rhs = -Q[pin].toarray().ravel()
    rhs[pin] += 1.0
    pi = lu.solve(rhs, trans="T")
    # the pinned system's residual, from M^T x = Q^T x + x_pin rhs
    pi += lu.solve((1.0 - pi[pin]) * rhs - Q.T @ pi, trans="T")
    pi /= pi.sum()
    resid = float(np.abs(Q.T @ pi).sum())
    bound = PI_TOL * float(np.abs(Q.diagonal()).max())
    if pi.min() < -PI_TOL * pi.max() or not resid <= bound:
        raise ConvergenceError(
            f"stationary vector failed its check: min entry {pi.min():.3g}, "
            f"residual {resid:.3g} (bound {bound:.3g})")
    return pi, resid


@dataclass
class GapResult:
    gap: float
    eigenvalue: complex
    residual_weighted: float   # |G f - lam f| / |f| in the weight norm
    eigenvalues: list          # slow spectrum found (complex, sorted by Re)
    pi_residual: float

    def as_dict(self):
        return {"gap": self.gap,
                "eigenvalue": [self.eigenvalue.real, self.eigenvalue.imag],
                "eigen_residual": self.residual_weighted,
                "eigenvalues": [[l.real, l.imag] for l in self.eigenvalues],
                "pi_residual": self.pi_residual}


@_one_blas_thread()
def gap_from_matrix(G: GeneratorMatrix) -> GapResult:
    """Spectral gap of -G: smallest real part over the nonzero spectrum.

    The known null direction (constants) is deflated by projecting along
    the stationary vector, and solves on ``G.pinned_lu`` apply the
    inverse generator on the complement.  ARPACK's implicitly restarted
    Arnoldi (``scipy.sparse.linalg.eigs``, fixed start vector) finds the
    N_EIGS = 4 largest-magnitude eigenvalues of that inverse, i.e. the
    slow cluster, in about 50 solves on C7's grids.  Slow eigenvalues
    come in complex pairs when the slow mode rotates around the ellipse;
    the gap is the smallest positive Re(-lambda) in that window.  That no
    eigenvalue outside the window lies lower is not checked here; the
    complex-shift minimality probe in the tests checks it on C7's coarse
    grid.  Raises ConvergenceError when ARPACK does not converge,
    when no slow eigenvalue has a positive Re(-lambda), or when the gap
    eigenpair's weighted residual is not below EIGEN_RESID_TOL.
    """
    Q = G.matrix
    N = Q.shape[0]
    pi, pi_resid = stationary_vector(G)
    lu, pin = G.pinned_lu, G.pin

    def proj(x):
        return x - pi @ x

    def apply_inv(x):
        y = proj(x)
        y[pin] = 0.0
        return proj(lu.solve(y))

    op = spla.LinearOperator((N, N), matvec=apply_inv, dtype=float)
    v0 = proj(np.random.default_rng(0).standard_normal(N))
    try:
        theta, vecs = spla.eigs(op, k=min(N_EIGS, N - 2), which="LM", v0=v0,
                                ncv=min(ARPACK_NCV, N), tol=ARPACK_TOL)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"ARPACK did not converge on the slow spectrum: {exc}") from exc
    lams = 1.0 / theta
    lams_srt = sorted(lams.tolist(), key=lambda l: -l.real)

    # gap candidate: smallest positive real part of -lambda
    re = -lams.real
    cand = np.where(re > 1e-12)[0]
    if cand.size == 0:
        raise ConvergenceError(
            "no slow eigenvalue has a positive real part of -lambda: "
            f"{lams_srt}")
    kbest = cand[np.argmin(re[cand])]
    lam = complex(lams[kbest])
    vec = proj(vecs[:, kbest])
    vec /= np.linalg.norm(vec)
    r = Q @ vec - lam * vec
    wsq = G.weight
    nw = math.sqrt(float(np.sum(wsq * np.abs(vec) ** 2)))
    resid_w = math.sqrt(float(np.sum(wsq * np.abs(r) ** 2))) / max(nw, 1e-300)
    if not resid_w < EIGEN_RESID_TOL:
        raise ConvergenceError(
            f"gap eigenpair lambda = {lam:.6g} failed its check: weighted "
            f"residual {resid_w:.3g} (bound {EIGEN_RESID_TOL:g})")
    return GapResult(gap=float(-lam.real), eigenvalue=lam,
                     residual_weighted=resid_w, eigenvalues=lams_srt,
                     pi_residual=pi_resid)


def adjoint_residual(G: GeneratorMatrix):
    """Stationarity defect of the density ansatz under the discrete adjoint.

    Computes |Q^T rho + lapS rho|_1 / |lapS rho|_1 over safely interior
    nodes, with rho = exp(2 R / eps^2) (no tangential factor) and lapS
    the scaled phase Laplacian from central differences of the
    closed-form gradient.  That gradient is evaluated once, on the mesh
    grown by one ring of nodes, at the points the active nodes' stencils
    reach; the differences are slices of it.  First-order upwinding makes
    this O(h).
    """
    p, grid = G.params, G.grid
    h, dim = grid.h, grid.dim
    pts = _lift(G.nodes)
    with np.errstate(all="ignore"):
        lw = 2.0 * np.real(log_wave(p, pts))
    lw = np.where(np.isfinite(lw), lw, -np.inf)
    rho = np.exp(lw - np.nanmax(lw))

    # scaled phase Laplacian: divergence of eps^2 grad S by central FD.
    # The ring mesh's inner block is the grid's mesh.  The gradient is
    # evaluated only where an active node's stencil reaches, so the inner
    # part of the excluded ball, which may hold the origin, is left out.
    ring = np.meshgrid(*(lo + (np.arange(-1, grid.n + 1) + 0.5) * h
                         for lo, _ in grid.box), indexing="ij")
    inner = (slice(1, -1),) * dim
    up, down = slice(2, None), slice(None, -2)

    def shifted(axis, s):
        return inner[:axis] + (s,) + inner[axis + 1:]

    active = _active(grid, [m[inner] for m in ring])
    reach = np.zeros(ring[0].shape, dtype=bool)
    for axis in range(dim):
        for s in (up, down):
            reach[shifted(axis, s)] |= active
    with np.errstate(all="ignore"):
        gs = wave_gradients(
            p, _lift(np.stack([m[reach] for m in ring], axis=-1)))[1] \
            * p.eps ** 2
    lap_s = np.zeros(G.n_nodes)
    for axis in range(dim):
        ga = np.zeros(reach.shape)
        ga[reach] = gs[:, axis]
        for sgn, s in ((+1, up), (-1, down)):
            lap_s += sgn * np.nan_to_num(ga[shifted(axis, s)][active]) / (2 * h)

    # keep nodes whose FD stencil does not straddle the phase jump set
    x = pts[:, 0]
    y = pts[:, 1]
    z = pts[:, 2]
    near_jump = (np.abs(y) <= 1.5 * h) & in_jump_set(p, x, z, pad=2 * h)
    r = radius(pts)
    mask = G.interior & ~near_jump & (r > grid.excluded + 2 * h) \
        & np.isfinite(lap_s)
    resid = np.abs(G.matrix.T @ rho + lap_s * rho)
    denom = np.abs(lap_s * rho)
    return float(resid[mask].sum() / denom[mask].sum())


# ---------------------------------------------------------------------------
# autocovariance gap estimator
# ---------------------------------------------------------------------------

@dataclass
class AutocorrGap:
    gamma: float
    ci_low: float
    ci_high: float
    oscillatory: bool
    n_lags: int

    def as_dict(self):
        return {"autocorr_gap": self.gamma,
                "autocorr_ci": [self.ci_low, self.ci_high],
                "oscillatory": self.oscillatory, "n_lags": self.n_lags}


def _acov_per_path(obs, n_lags):
    xc = obs - obs.mean()           # global stationary mean
    n = xc.shape[1]
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    F = np.fft.rfft(xc, nfft, axis=1)
    ac = np.fft.irfft(F * np.conj(F), nfft, axis=1)[:, :n_lags].real
    return ac / (n - np.arange(n_lags))


def _fit_decay(C, dt):
    """Decay rate of C(t) ~ A exp(-gamma t) (times a rotation if present).

    Oscillatory autocovariances are fitted by two-step linear prediction
    (the root modulus gives the envelope decay); monotone ones by
    log-linear least squares.
    """
    c0 = C[0]
    if not c0 > 0:
        raise ConvergenceError("autocovariance vanishes; fit rejected")
    if np.any(C < 0):
        M = np.stack([C[1:-1], C[:-2]], axis=1)
        coef, *_ = np.linalg.lstsq(M, C[2:], rcond=None)
        roots = np.roots([1.0, -coef[0], -coef[1]])
        rmod = float(np.max(np.abs(roots)))
        if not 0 < rmod < 1:
            raise ConvergenceError(
                f"linear-prediction root off the unit disc ({rmod}); "
                "autocovariance is not a clean decay")
        return -math.log(rmod) / dt, True
    keep = C > 0.02 * c0
    k = int(np.argmin(keep)) if not keep.all() else len(C)
    if k < 3:
        raise ConvergenceError("autocovariance too short for a decay fit")
    t = dt * np.arange(k)
    A = np.stack([np.ones(k), t], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.log(C[:k]), rcond=None)
    if sol[1] >= 0:
        raise ConvergenceError("autocovariance does not decay")
    return -float(sol[1]), False


def gap_from_autocorrelation(ens: TrajectoryEnsemble, *,
                             burn_in) -> AutocorrGap:
    """Relaxation rate from stationary ensemble autocovariances.

    The observable is cos(v) of the records from time burn_in on, on the
    non-truncated paths.  The ensemble-averaged autocovariance over the
    lag window (twelve time units lam^3/mu^2, at most 0.4 of the
    post-burn-in span) is fitted for its exponential decay rate; the
    error bar is a path bootstrap with a fixed seed.  Raises
    InsufficientSamplesError when fewer than two paths, or fewer than
    three records past burn_in (no lag window), are left.
    """
    p = ens.config.params
    lag_window = min(12.0 * p.lam ** 3 / p.mu ** 2,
                     0.4 * (ens.times[-1] - burn_in))
    _, v, _ = ens.stationary_samples(burn_in)
    obs = np.cos(v)
    if obs.shape[0] < 2:
        raise InsufficientSamplesError(
            f"the autocovariance needs at least 2 non-truncated paths, "
            f"got {obs.shape[0]}")
    dt = ens.record_dt
    n_lags = max(int(lag_window / dt), 8)
    n_lags = min(n_lags, obs.shape[1] - 2)
    if n_lags < 1:
        raise InsufficientSamplesError(
            f"{obs.shape[1]} records from burn_in {burn_in} on leave no "
            "autocovariance lag window (3 are needed)")
    if float(np.var(obs)) < 1e-300:
        raise ConvergenceError("constant observable; autocovariance is zero")
    ac = _acov_per_path(obs, n_lags)
    gamma, osc = _fit_decay(ac.mean(axis=0), dt)
    rng = np.random.default_rng(0)
    boots = []
    n_paths = ac.shape[0]
    for _ in range(AUTOCORR_N_BOOT):
        pick = rng.integers(0, n_paths, n_paths)
        try:
            g, _ = _fit_decay(ac[pick].mean(axis=0), dt)
            boots.append(g)
        except ConvergenceError:
            continue
    if boots:
        lo, hi = np.percentile(boots, [2.5, 97.5])
    else:
        lo = hi = gamma
    return AutocorrGap(gamma=float(gamma), ci_low=float(lo), ci_high=float(hi),
                       oscillatory=osc, n_lags=n_lags)


# ---------------------------------------------------------------------------
# Dirichlet-form identity
# ---------------------------------------------------------------------------

def default_bump(p: PhysParams, width=None):
    """Smooth compactly supported bump centred at the perihelion point.

    f = (1 - |x - c|^2 / W^2)^3 inside the disc of radius W and +0.0
    outside it and on its rim; the cube is taken on the support only.
    """
    c = ellipse_point(p, 0.0)
    W = width if width is not None else 0.4 * p.a

    def f(pts):
        dd = (pts - c[: pts.shape[-1]]) ** 2
        d2 = dd[..., 0] + dd[..., 1]
        if dd.shape[-1] == 3:
            d2 = d2 + dd[..., 2]
        t = 1.0 - d2 / W ** 2
        out = np.zeros(t.shape)
        on = t > 0
        out[on] = t[on] ** 3
        return out

    return f


@dataclass
class DirichletCheck:
    lhs: float     # -<f, G f>, ansatz normalised on the kept nodes K
    rhs: float     # (eps^2/2) <|grad f|^2>, same weight
    residual: float  # |lhs - rhs| / max(|lhs|, |rhs|), free of that scale


def dirichlet_form_residual(p: PhysParams, grid: GridSpec, f=None) -> DirichletCheck:
    """Residual of -int f G f dpi = (eps^2/2) int |grad f|^2 dpi.

    Both sides are grid quadratures against the density ansatz at the
    z = 0 nodes, which stands in for pi.  The generator acts here through
    second-order central stencils (the identity is a continuum statement;
    upwinding would pollute it at first order).  Both integrands vanish
    off K, the interior nodes where f or its central gradient is nonzero,
    so the drift and the ansatz are evaluated on K alone and the ansatz
    is normalised on K: lhs and rhs are averages conditioned on K, and
    the residual, a ratio, is that of the whole-grid sums.  f must be
    finite on the grid; f = 0 gives zeros.  The residual decreases under
    grid refinement down to the floor set by the ansatz density being
    invariant only through the leading order.

    f is evaluated and checked on the whole mesh, as it may be any
    function.  The stencils then run on the bounding box of f's support
    grown by two nodes and clipped to the mesh.  A margin of one would not
    do: a node one step outside the support has f = 0 but a nonzero
    central gradient, so it belongs to K and must lie in the crop's
    interior.  With two, K, its order and every stencil value are those
    of the whole mesh, so lhs, rhs and the residual keep their bits.
    """
    if grid.dim != 2:
        raise ConfigError("the Dirichlet check runs on the 2d restriction")
    if f is None:
        f = default_bump(p)
    h = grid.h
    pts = np.stack(grid.mesh(), axis=-1)
    F = f(pts)
    if not np.all(np.isfinite(F)):
        raise ConfigError("test function must be finite on the grid")
    edge = max(np.max(np.abs(F[0])), np.max(np.abs(F[-1])),
               np.max(np.abs(F[:, 0])), np.max(np.abs(F[:, -1])))
    if edge != 0 and np.ptp(F) != 0:
        raise ConfigError("test function must be supported inside the grid")
    # crop to f's support grown by two nodes (see above)
    support = [np.flatnonzero(F.any(axis=1 - axis)) for axis in range(2)]
    if support[0].size == 0:
        return DirichletCheck(lhs=0.0, rhs=0.0, residual=0.0)
    crop = tuple(slice(max(i[0] - 2, 0), i[-1] + 3) for i in support)
    F, pts = F[crop], pts[crop]
    # interior-only stencils; the outer ring never contributes for
    # compactly supported f and drops out exactly for constants
    C = F[1:-1, 1:-1]
    fx = (F[2:, 1:-1] - F[:-2, 1:-1]) / (2 * h)
    fy = (F[1:-1, 2:] - F[1:-1, :-2]) / (2 * h)
    lap = (F[2:, 1:-1] + F[:-2, 1:-1] + F[1:-1, 2:] + F[1:-1, :-2]
           - 4 * C) / (h * h)
    keep = (C != 0) | (fx != 0) | (fy != 0)
    if not keep.any():
        return DirichletCheck(lhs=0.0, rhs=0.0, residual=0.0)
    C, fx, fy, lap = C[keep], fx[keep], fy[keep], lap[keep]
    nodes = pts[1:-1, 1:-1][keep]
    bx, by = _model_drift_nd(p, nodes).T
    w = _model_weight(p, nodes)
    Gf = 0.5 * p.eps ** 2 * lap + bx * fx + by * fy
    lhs = -float(np.sum(w * C * Gf))
    rhs = 0.5 * p.eps ** 2 * float(np.sum(w * (fx * fx + fy * fy)))
    resid = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return DirichletCheck(lhs=lhs, rhs=rhs, residual=resid)


# ---------------------------------------------------------------------------
# radial scan of the osmotic generator
# ---------------------------------------------------------------------------

def grad_log_tangential(p: PhysParams, pts):
    """Gradient of ln T(v(x, y)) in closed form; the z-component is zero.

    cos w = 1 - nu/2 for w = :func:`fields.eccentric_angle`, so
    grad v = Re(grad nu / (2 sin w)) and grad ln T = (d ln T/dv) grad v.
    As T(2 pi - v) = T(v), ln T is smooth across the planar segment u = 1;
    raises SingularPointError at its ends w = 0 (the z-axis) and w = pi
    (the line through the second focus), where sin w vanishes.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    x, y = pts[:, 0], pts[:, 1]
    w = eccentric_angle(p, x, y)
    if np.any((w == 0) | (w == np.pi)):
        raise SingularPointError(
            "grad ln T at an end of the planar segment u = 1 (the z-axis "
            "or the line through the second focus)")
    rho = np.hypot(x, y)
    two_a_sin = 2 * p.a * np.sin(w)
    slope = tangential_log_slope(p.ecc, w.real)
    gx = slope * np.real((x / rho - 1 / p.ecc) / two_a_sin)
    gy = slope * np.real((y / rho - 1j * p.axis_ratio / p.ecc) / two_a_sin)
    return np.stack([gx, gy, np.zeros_like(gx)], axis=1)


def _sphere_mesh(radii, n_angles):
    """Cell-centred (polar x azimuth) meshes, shape (len(radii), n^2, 3)."""
    th = (np.arange(n_angles) + 0.5) * np.pi / n_angles          # polar
    ph = (np.arange(n_angles) + 0.5) * 2 * np.pi / n_angles      # azimuth
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    r = np.reshape(radii, (-1, 1, 1))
    return np.stack([r * np.sin(TH) * np.cos(PH),
                     r * np.sin(TH) * np.sin(PH),
                     r * np.cos(TH)], axis=-1).reshape(len(radii), -1, 3)


def sup_grad_log_tangential(p: PhysParams):
    """sup |grad ln T| = 2e / (a (1 - e)^2 (1 + e)), over all of space.

    grad ln T does not depend on z, so its sup outside any ball is its
    sup over the plane.  On the segment u = 1, cos v = 1 + x (1+e)/(2ae)
    and |grad ln T| = |d ln T/dv| (1+e)/(2ae |sin v|) = 2e (1+e) |cos v|
    / (a (1 - e^2)^2 + 4a e^2 sin^2 v), which tends to the sup at the
    ends v = 0, pi; :func:`grad_log_tangential` refuses the ends, so no
    point attains it.  A plane sweep in the tests finds no larger value.
    """
    e = p.ecc
    return 2 * e / (p.a * (1 - e) ** 2 * (1 + e))


@dataclass
class RadialScan:
    radii: np.ndarray
    max_gu: np.ndarray          # max over angles of G_u |x|
    eps_part_max: np.ndarray    # max over angles of (eps^2/r)(1 + grad R . x)
    bound: float                # -eps^2 C_tilde / 2
    r1_hat: float               # smallest radius past which max_gu <= bound
    C: float                    # the exact sup |grad ln T|
    C_tilde: float              # (mu - eps^2 lam C) / (eps^2 lam)


def osmotic_radial_scan(p: PhysParams, radii) -> RadialScan:
    """Scan G_u |x| = (eps^2/2|x|)(2 + 2 grad R . x + grad ln T . x).

    Evaluates the osmotic generator applied to the radius on a 48 x 48
    (polar x azimuth) cell-centred mesh of each sphere, all spheres in
    one batch.  Reports the per-radius maximum of G_u |x| and,
    separately, of its drift part (eps^2/r)(1 + grad R . x), whose
    large-radius limit is -mu/lam; and r1_hat, the scanned radius after
    the last one whose maximum exceeds -eps^2 C_tilde/2 (radii[0] if
    none does, inf if the largest does).

    C is the exact sup |grad ln T|, :func:`sup_grad_log_tangential`, and
    C_tilde = (mu - eps^2 lam C)/(eps^2 lam) must be positive, so C <
    mu/(eps^2 lam); otherwise the estimate fails at these params, and
    that raises ConvergenceError.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii.size == 0 or not np.all(np.isfinite(radii) & (radii > 0)):
        raise ConfigError("radii must be non-empty, finite and positive")
    e2 = p.eps ** 2
    c_max = p.mu / (e2 * p.lam)
    C = sup_grad_log_tangential(p)
    if not C < c_max:
        raise ConvergenceError(
            f"sup |grad ln T| = {C:.4g} is not below mu/(eps^2 lam) = "
            f"{c_max:.4g}: the radial drift estimate fails here")
    C_tilde = (p.mu - e2 * p.lam * C) / (e2 * p.lam)
    pts = _sphere_mesh(radii, 48)
    r = radii[:, None]
    grad_r, _ = wave_gradients(p, pts)
    part = (e2 / r) * (1.0 + np.sum(grad_r * pts, axis=-1))
    gT = grad_log_tangential(p, pts).reshape(pts.shape)
    gu = part + (e2 / (2 * r)) * np.sum(gT * pts, axis=-1)
    max_gu = np.max(gu, axis=1)
    eps_part = np.max(part, axis=1)
    bound = -e2 * C_tilde / 2
    # r1_hat: the radius after the last one that fails the bound
    fails = np.flatnonzero(~(max_gu <= bound))
    k = fails[-1] + 1 if fails.size else 0
    r1_hat = float(radii[k]) if k < radii.size else math.inf
    return RadialScan(radii=radii, max_gu=max_gu, eps_part_max=eps_part,
                      bound=bound, r1_hat=r1_hat, C=C, C_tilde=C_tilde)


# ---------------------------------------------------------------------------
# similarity-transform Hamiltonian residual
# ---------------------------------------------------------------------------

@dataclass
class HamiltonianResidual:
    lhs: float
    rhs: float
    rel: float


def hamiltonian_residual(p: PhysParams, pt) -> HamiltonianResidual:
    """Residual identity of the similarity-transformed Hamiltonian.

    lhs: (1/2)(-eps^4 Lap + eps^2 div b + |b|^2) applied to
    exp(R_eps - S_eps) at the point (Laplacian by finite differences of
    the exponential, normalised to 1 at the centre), divided by the
    exponential.  rhs: eps^4 (Lap S_eps + 2 grad R_eps . grad S_eps)
    from closed-form gradients (Laplacian by finite differences).  The
    two agree to O(h^2); the common value quantifies how far the
    limiting state is from an exact stationary one (for which both
    vanish).

    One step h = sqrt(0.006) ell, with ell = eps^2 lam/(2 mu) the
    variation scale of ln psi~; both sides are Richardson-extrapolated
    from the stencils at h/2 and h/4.  The stencil must not straddle
    the phase branch cuts at y = 0, of which only the far-left part is
    cut-free: a point with |y| <= 4h and x >= left(z) - 4h, where
    left(z) is the left end of the jump interval, raises
    SingularPointError.
    """
    pt = np.asarray(pt, dtype=float).reshape(3)
    h = math.sqrt(0.006) * 0.5 * p.eps ** 2 * p.lam / p.mu
    x, y, z = pt
    if not (abs(y) > 4 * h or x < jump_interval(p, z)[0] - 4 * h):
        raise SingularPointError(
            "no admissible step: point too close to the phase branch cut")
    l2, r2 = _lhs_rhs(p, pt, h / 2)
    l4, r4 = _lhs_rhs(p, pt, h / 4)
    lhs = (4 * l4 - l2) / 3          # Richardson-extrapolated
    rhs = (4 * r4 - r2) / 3
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return HamiltonianResidual(lhs=float(lhs), rhs=float(rhs), rel=float(rel))


def _lhs_rhs(p: PhysParams, pt, h):
    # the centre, then +h and -h along each axis, evaluated as one batch
    k = np.arange(3)
    S = np.tile(pt, (7, 1))
    S[1 + 2 * k, k] += h
    S[2 + 2 * k, k] -= h
    lw = log_wave(p, S)
    lw = lw.real - lw.imag           # ln psi~ = R_eps - S_eps
    lap_g = (np.sum(np.exp(lw[1:] - lw[0])) - 6.0) / (h * h)
    b = drift(p, S)
    gr, gs = wave_gradients(p, S)
    div_b = lap_s = 0.0
    for axis in range(3):
        div_b += (b[1 + 2 * axis, axis] - b[2 + 2 * axis, axis]) / (2 * h)
        lap_s += (gs[1 + 2 * axis, axis] - gs[2 + 2 * axis, axis]) / (2 * h)
    lhs = 0.5 * (-p.eps ** 4 * lap_g + p.eps ** 2 * div_b
                 + float(np.dot(b[0], b[0])))
    rhs = p.eps ** 4 * (lap_s + 2.0 * float(np.dot(gr[0], gs[0])))
    return lhs, rhs
