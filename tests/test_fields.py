import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from kepdiff import (BranchPointWarning, PhysParams, SingularPointError,
                     alpha_beta, complex_velocity, drift, drift_root,
                     ellipse_point, ellipse_tangent, jump_distance_many,
                     jump_interval, in_jump_set, kepler_speed,
                     nodal_coordinate, wave_gradients)
from kepdiff.fields import (JUMP_MESH, drift_components, field_report,
                            near_jump_set)
from kepdiff.sde import default_drift_cap

from conftest import (assert_bitwise_equal, near_jump_set_points,
                      random_points)

SQ3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# nodal coordinate
# ---------------------------------------------------------------------------

def test_nodal_coordinate_perihelion(p):
    assert nodal_coordinate(p, [0.5, 0.0, 0.0]) == pytest.approx(-0.5 + 0j)


def test_nodal_coordinate_aphelion(p):
    assert nodal_coordinate(p, [-1.5, 0.0, 0.0]) == pytest.approx(4.5 + 0j)


def test_nodal_coordinate_on_axis(p):
    # x = y = 0 kills both subtracted terms
    assert nodal_coordinate(p, [0.0, 0.0, 1.0]) == pytest.approx(1.0 + 0j)


def test_nodal_coordinate_origin_raises(p):
    with pytest.raises(SingularPointError):
        nodal_coordinate(p, [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# alpha, beta
# ---------------------------------------------------------------------------

def test_alpha_beta_perihelion(p):
    al, be = alpha_beta(p, [0.5, 0.0, 0.0])
    assert al == pytest.approx(3.0, abs=1e-12)          # (1+e)/(1-e)
    assert be == pytest.approx(0.0, abs=1e-12)


def test_alpha_beta_aphelion(p):
    al, be = alpha_beta(p, [-1.5, 0.0, 0.0])
    assert al == pytest.approx(1.0 / 3.0, abs=1e-12)    # (1-e)/(1+e)
    assert be == pytest.approx(0.0, abs=1e-12)


def test_alpha_beta_matches_principal_root(p):
    pts = random_points(200, seed=5)
    al, be = alpha_beta(p, pts)
    w, _, _ = drift_root(p, pts)
    np.testing.assert_allclose(al, w.real, atol=1e-11)
    np.testing.assert_allclose(be, w.imag, atol=1e-11)


def test_alpha_beta_limits_at_infinity(p):
    rng = np.random.default_rng(12)
    dirs = rng.standard_normal((100, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    R = 1e4 * p.a
    al, be = alpha_beta(p, R * dirs)
    assert np.all(np.abs(al - 1) < 1e-3)
    assert np.all(np.abs(be) < 1e-3)
    # monotone tail along each ray
    radii = [1e2, 1e3, 1e4]
    devs = np.stack([np.abs(alpha_beta(p, r * dirs)[0] - 1) for r in radii])
    assert np.all(devs[1] < devs[0]) and np.all(devs[2] < devs[1])


def test_alpha_beta_focal_ray_raises(p):
    # e|x| = x with y = 0: the cone x = e|z|/sqrt(1-e^2)
    z = 1.0
    x = p.ecc * z / math.sqrt(1 - p.ecc ** 2)
    with pytest.raises(SingularPointError):
        alpha_beta(p, [x, 0.0, z])


def test_alpha_vanishes_on_jump_set(p):
    left, right = jump_interval(p, 0.0)
    xs = np.linspace(left + 0.05, right - 0.05, 7)
    pts = np.stack([xs, np.zeros(7), np.zeros(7)], axis=1)
    # principal root: exactly imaginary on the set
    assert np.max(drift_root(p, pts)[0].real) == 0.0
    # radical route: cancellation dust only
    al, _ = alpha_beta(p, pts)
    assert np.all(al < 1e-5)


@pytest.mark.parametrize("ecc", [0.1, 0.5, 0.9])
def test_alpha_beta_near_jump_set(ecc):
    # alpha^2 = t1 + t2 cancels here; the stable root keeps both parts
    pp = PhysParams(ecc=ecc)
    pts = near_jump_set_points(pp, 2000, seed=31, log_y_min=-12.0)
    al, be = alpha_beta(pp, pts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchPointWarning)
        w, _, _ = drift_root(pp, pts)
    np.testing.assert_allclose(al + 1j * be, w, rtol=1e-10, atol=0)


def test_branch_point_warning(p):
    left, _ = jump_interval(p, 0.0)
    with pytest.warns(BranchPointWarning):
        drift_root(p, [left, 0.0, 0.0])


# ---------------------------------------------------------------------------
# complex velocity and the energy identity
# ---------------------------------------------------------------------------

def test_complex_velocity_perihelion(p):
    z = complex_velocity(p, [0.5, 0.0, 0.0])
    np.testing.assert_allclose(z, [0.0, SQ3, 0.0], atol=1e-12)


def test_complex_velocity_aphelion(p):
    z = complex_velocity(p, [-1.5, 0.0, 0.0])
    np.testing.assert_allclose(z, [0.0, -1.0 / SQ3, 0.0], atol=1e-12)


def test_energy_identity(p):
    pts = random_points(500, seed=9)
    z = complex_velocity(p, pts)
    r = np.linalg.norm(pts, axis=1)
    level = p.mu ** 2 / (2 * p.lam ** 2)
    resid = np.abs(0.5 * np.sum(z * z, axis=1) - p.mu / r + level) / level
    assert np.max(resid) < 1e-10


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-4, 4), y=st.floats(-4, 4), z=st.floats(-4, 4),
       e=st.floats(0.05, 0.95))
def test_energy_identity_property(x, y, z, e):
    pt = np.array([x, y, z])
    if np.linalg.norm(pt) < 0.3 or abs(y) < 0.05:
        return
    pp = PhysParams(ecc=e)
    zv = complex_velocity(pp, pt)
    level = pp.mu ** 2 / (2 * pp.lam ** 2)
    resid = abs(0.5 * np.sum(zv * zv) - pp.mu / np.linalg.norm(pt) + level)
    assert resid / level < 1e-9


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_grad_amplitude_vanishes_on_ellipse(p):
    vs = np.linspace(0, 2 * np.pi, 17)
    gr, _ = wave_gradients(p, ellipse_point(p, vs))
    assert np.max(np.abs(gr)) < 1e-10


def test_grad_phase_perihelion(p_unit):
    # the closed-form radical route fixes the sign: +sqrt(3) along y
    _, gs = wave_gradients(p_unit, [0.5, 0.0, 0.0])
    np.testing.assert_allclose(gs, [0.0, SQ3, 0.0], atol=1e-12)


def test_gradients_orthogonal(p):
    pts = random_points(300, seed=3)
    gr, gs = wave_gradients(p, pts)
    cosang = np.abs(np.sum(gr * gs, axis=1)) \
        / (np.linalg.norm(gr, axis=1) * np.linalg.norm(gs, axis=1) + 1e-300)
    assert np.max(cosang) < 1e-9


def test_gradients_reconstruct_complex_velocity(p):
    pts = random_points(200, seed=8)
    gr, gs = wave_gradients(p, pts)
    z = complex_velocity(p, pts)
    recon = p.eps ** 2 * (gs - 1j * gr)
    np.testing.assert_allclose(recon, z, atol=1e-10)


def test_z_partial_derivative_zero_iff_midplane(p):
    # d(log amplitude)/dz = 0 exactly on z = 0, nonzero off it
    pts0 = random_points(50, seed=4)
    pts0[:, 2] = 0.0
    gr0, _ = wave_gradients(p, pts0)
    assert np.max(np.abs(gr0[:, 2])) < 1e-12
    pts1 = random_points(50, seed=4)
    pts1[:, 2] = np.where(np.abs(pts1[:, 2]) < 0.1, 0.3, pts1[:, 2])
    gr1, _ = wave_gradients(p, pts1)
    assert np.all(np.abs(gr1[:, 2]) > 1e-8)


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------

def test_drift_perihelion(p):
    np.testing.assert_allclose(drift(p, [0.5, 0.0, 0.0]), [0.0, SQ3, 0.0],
                               atol=1e-12)


def test_drift_aphelion(p):
    np.testing.assert_allclose(drift(p, [-1.5, 0.0, 0.0]),
                               [0.0, -1.0 / SQ3, 0.0], atol=1e-12)


def test_drift_z_component_vanishes_in_plane(p):
    pts = random_points(100, seed=11)
    pts[:, 2] = 0.0
    assert np.max(np.abs(drift(p, pts)[:, 2])) == 0.0


def test_drift_equals_velocity_parts(p):
    pts = random_points(200, seed=13)
    z = complex_velocity(p, pts)
    np.testing.assert_allclose(drift(p, pts), z.real - z.imag, atol=1e-10)


@pytest.mark.parametrize("ecc", [0.1, 0.5, 0.9])
def test_drift_equals_velocity_parts_near_jump_set(ecc):
    pp = PhysParams(ecc=ecc)
    pts = near_jump_set_points(pp, 2000, seed=37, log_y_min=-8.0)
    z = complex_velocity(pp, pts)
    np.testing.assert_allclose(drift(pp, pts), z.real - z.imag, rtol=0,
                               atol=1e-12)


def _nodal_unstacked(p, x, y, z):
    """|x| and nu as the drift kernel computed them before it took
    stacked coordinates."""
    e = p.ecc
    r = np.sqrt(x * x + y * y + z * z)
    return r, (p.mu / p.lam ** 2) * (
        r - x / e - 1j * y * np.sqrt(1 - e * e) / e)


def _drift_components_unstacked(p, x, y, z):
    """The drift kernel as it stood before it took stacked coordinates:
    three coordinate arguments in, three components out."""
    e = p.ecc
    sq = np.sqrt(1 - e * e)
    r, nu = _nodal_unstacked(p, x, y, z)
    w = np.sqrt(1 - 4 / nu)
    alpha, beta = w.real, w.imag
    k = p.mu / (2 * p.lam)
    s = (alpha + beta + 1) / r
    return (k * ((alpha + beta - 1) / e - s * x),
            k * ((alpha - beta - 1) * sq / e - s * y),
            -k * s * z)


@pytest.mark.parametrize("ecc", [0.1, 0.5, 0.9])
def test_drift_components_matches_unstacked_kernel(ecc):
    # bit for bit: generic points, points 1e-16..1e-2 off the jump set,
    # and the origin and the focal ray, where the NaN/inf pattern must
    # match as well
    pp = PhysParams(lam=1.3, mu=0.7, ecc=ecc, eps=0.2)
    z_ray = np.array([0.5, 1.0, 3.0])
    singular = np.stack([ecc * z_ray / math.sqrt(1 - ecc ** 2),
                         np.zeros(3), z_ray], axis=1)
    pts = np.concatenate([random_points(500, seed=41),
                          near_jump_set_points(pp, 500, seed=43,
                                               log_y_min=-16.0),
                          np.zeros((1, 3)), singular])
    with np.errstate(all="ignore"):
        got = drift_components(pp, pts.T)
        want = _drift_components_unstacked(pp, *pts.T)
    assert got.shape == pts.T.shape
    np.testing.assert_array_equal(got, np.stack(want))
    assert not np.all(np.isfinite(got[:, -4:]))
    # a single (3,) point of numpy scalars, as the orbit integrator passes
    for pt in pts[[0, 700, -1]]:
        with np.errstate(all="ignore"):
            got = drift_components(pp, np.array([pt[0], pt[1], 0.0]))
            want = _drift_components_unstacked(pp, pt[0], pt[1], 0.0)
        assert got.shape == (3,)
        np.testing.assert_array_equal(got, want)
    # the checked evaluators hand back the same |x|, nu and root, bit for
    # bit, wherever they are defined (all but the last four points)
    ok = pts[:-4]
    r, nu = _nodal_unstacked(pp, *ok.T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchPointWarning)
        root = drift_root(pp, ok)
    assert_bitwise_equal(nodal_coordinate(pp, ok), nu)
    for got, want in zip(root, (np.sqrt(1 - 4 / nu), nu, r)):
        assert_bitwise_equal(got, want)


def test_drift_focal_ray_raises(p):
    z = 1.0
    x = p.ecc * z / math.sqrt(1 - p.ecc ** 2)
    with pytest.raises(SingularPointError):
        drift(p, [x, 0.0, z])


#: Near the focal cone nu = 0 the drift grows like 2 / sqrt|nu|, so
#: |nu| >= NU_FLOOR keeps |b| near 63, below the eps-0.1 cap of 100.
NU_FLOOR = 1e-3


def test_drift_capped_near_jump_set_only_at_origin_and_focal_cone(p):
    # a mesh over the jump set and its surroundings (the planar interval
    # widened by 5 percent on each side, with points crowding its right
    # edge, the cone, and |y| up to 0.1 a): outside the ball r <= 0.1 a
    # and wherever |nu| >= NU_FLOOR the drift stays below the cap
    cap = default_drift_cap(p)
    a = p.a
    zs = np.linspace(-3, 3, 121) * a
    left, right = jump_interval(p, zs)
    t = np.concatenate([np.linspace(-0.05, 1.05, 111),
                        1 - np.geomspace(1e-6, 1e-2, 25)])
    ys = np.array([0.0, 1e-4, -1e-4, 1e-3, -1e-3, 1e-2, 0.1]) * a
    X = left[:, None] + t * (right - left)[:, None]
    pts = np.stack(np.broadcast_arrays(
        X[:, :, None], ys, zs[:, None, None]), axis=-1).reshape(-1, 3)
    pts = pts[np.linalg.norm(pts, axis=1) > 0.1 * a]
    nu = np.abs(nodal_coordinate(p, pts))
    with np.errstate(all="ignore"):
        b = np.linalg.norm(drift_components(p, pts.T), axis=0)
    clear = nu >= NU_FLOOR
    assert np.count_nonzero(clear) > 80_000
    assert np.min(nu[clear]) < 1.5 * NU_FLOOR   # the floor is reached
    assert np.max(b[clear]) < cap
    # the cap is exceeded right next to the cone, x = e|z|/sqrt(1-e^2)
    zc = np.array([-2.0, -1.0, 1.0, 2.0]) * a
    _, xc = jump_interval(p, zc)
    for dx, dy in ((1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4)):
        near = np.stack([xc + dx * a, np.full(4, dy * a), zc])
        assert np.all(np.linalg.norm(drift_components(p, near), axis=0) > cap)


def test_drift_kepler_speed_and_tangency(p):
    vs = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    pts = ellipse_point(p, vs)
    b = drift(p, pts)
    speed = np.linalg.norm(b, axis=1)
    np.testing.assert_allclose(speed, kepler_speed(p, vs), rtol=1e-12)
    t = ellipse_tangent(p, vs)
    # drift points along +v around the ellipse
    np.testing.assert_allclose(np.sum(b * t, axis=1), speed, rtol=1e-12)


def test_restriction_to_plane_matches_planar_formula(p):
    # in-plane velocity equals the planar two-component expression built
    # from the same nodal coordinate; out-of-plane component vanishes
    pts = random_points(100, seed=17)
    pts[:, 2] = 0.0
    z3 = complex_velocity(p, pts)
    nu = nodal_coordinate(p, pts)
    w = np.sqrt(1 - 4 / nu)
    e = p.ecc
    rp = np.hypot(pts[:, 0], pts[:, 1])
    z2 = (1j * p.mu / (2 * p.lam)) * (1 + w)[:, None] \
        * pts[:, :2] / rp[:, None] \
        + (p.mu / (2 * p.lam * e)) * (1 - w)[:, None] \
        * np.array([1j, -math.sqrt(1 - e * e)])
    np.testing.assert_allclose(z3[:, :2], z2, atol=1e-12)
    assert np.max(np.abs(z3[:, 2])) == 0.0


def test_field_sample_bundle(p):
    d = field_report(p, [0.5, 0.0, 0.0])
    assert d["alpha"] == pytest.approx(3.0)
    assert set(d) == {"nu", "alpha", "beta", "z", "grad_r", "grad_s", "drift"}
    assert d["drift"][1] == pytest.approx(SQ3)


# ---------------------------------------------------------------------------
# jump set
# ---------------------------------------------------------------------------

def test_jump_interval_midplane(p):
    left, right = jump_interval(p, 0.0)
    assert left == pytest.approx(-4.0 / 3.0)    # -4 a e / (1 + e)
    assert right == pytest.approx(0.0)


def jump_distance(p, pt):
    """Distance from one point to (the closure of) the jump set (test
    oracle, zero inside the set).

    A scan of 4001 heights on both boundary curves, then Brent's bounded
    minimiser on each curve between the scan minimum's neighbours.
    """
    x, y, z = map(float, pt)
    if in_jump_set(p, x, z):
        return abs(y)
    span = max(4 * p.a, 2 * abs(z) + 4 * p.a)
    zs = np.linspace(z - span, z + span, 4001)
    left, right = jump_interval(p, zs)
    d2 = np.minimum((x - left) ** 2 + (z - zs) ** 2,
                    (x - right) ** 2 + (z - zs) ** 2)
    k = int(np.argmin(d2))
    bounds = (zs[max(k - 2, 0)], zs[min(k + 2, zs.size - 1)])
    best = d2[k]
    for side in (0, 1):
        res = minimize_scalar(
            lambda t: (x - jump_interval(p, t)[side]) ** 2 + (z - t) ** 2,
            bounds=bounds, method="bounded", options={"xatol": 1e-12})
        best = min(best, res.fun)
    return float(np.hypot(np.sqrt(best), y))


def test_jump_distance_inside(p):
    assert jump_distance(p, [-0.1, 0.0, 0.0]) == 0.0


def test_jump_distance_off_plane(p):
    assert jump_distance(p, [-0.1, 0.2, 0.0]) == pytest.approx(0.2)


def test_jump_distance_brute_force(p):
    # oracle: dense mesh over the set itself
    zs = np.linspace(-30, 30, 20001)
    left, right = jump_interval(p, zs)
    for q in ([0.9, 0.4, 0.3], [-2.5, -0.3, 1.0], [0.5, 0.1, 8.0]):
        best = np.inf
        for t in np.linspace(0, 1, 9):
            xs = left + t * (right - left)
            d = np.sqrt((q[0] - xs) ** 2 + q[1] ** 2 + (q[2] - zs) ** 2)
            best = min(best, d.min())
        assert jump_distance(p, q) == pytest.approx(best, abs=2e-5)
    many = jump_distance_many(p, np.array([[0.9, 0.4, 0.3]]))
    assert many[0] == pytest.approx(jump_distance(p, [0.9, 0.4, 0.3]),
                                    abs=1e-3)


def _jump_distance_all_pairs(p, pts):
    """All-pairs nearest-vertex search over the same boundary polyline.

    Oracle for the k-d tree in jump_distance_many: the full (points x
    vertices) squared-distance matrix, built in chunks of 2**22 entries.
    """
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    zmax = max(2.0 * float(np.max(np.abs(z), initial=0.0)), 8 * p.a)
    zs = np.linspace(-zmax, zmax, JUMP_MESH)
    left, right = jump_interval(p, zs)
    bx = np.concatenate([left, right])
    bz = np.concatenate([zs, zs])
    xf, zf = x.ravel(), z.ravel()
    plane2 = np.empty(xf.shape)
    step = 2 ** 22 // bx.size
    for k in range(0, xf.size, step):
        sl = slice(k, k + step)
        d2 = (xf[sl, None] - bx) ** 2 + (zf[sl, None] - bz) ** 2
        plane2[sl] = np.min(d2, axis=-1)
    plane = np.where(in_jump_set(p, x, z), 0.0,
                     np.sqrt(plane2).reshape(x.shape))
    return np.sqrt(plane * plane + y * y)


def test_jump_distance_many_matches_all_pairs(p):
    rng = np.random.default_rng(41)
    # more points than one 1024-point chunk of the oracle
    near = rng.uniform(-4 * p.a, 4 * p.a, (3000, 3))
    # |z| beyond 4a widens the polyline's z-range
    wide = rng.uniform(-4 * p.a, 4 * p.a, (500, 3))
    wide[:, 2] = rng.choice([-1, 1], 500) * rng.uniform(4 * p.a, 30 * p.a, 500)
    # points in the set (y = 0) and just above it
    zs = rng.uniform(-6 * p.a, 6 * p.a, 400)
    left, right = jump_interval(p, zs)
    xs = left + rng.uniform(0, 1, 400) * (right - left)
    ys = np.where(np.arange(400) % 2 == 0, 0.0, rng.uniform(-1e-3, 1e-3, 400))
    inside = np.stack([xs, ys, zs], axis=1)
    assert np.all(in_jump_set(p, xs, zs))
    for pts in (near, wide, inside, np.concatenate([near, wide, inside])):
        np.testing.assert_array_equal(jump_distance_many(p, pts),
                                      _jump_distance_all_pairs(p, pts))


def test_jump_interval_never_empty(p):
    # the planar interval stays nonempty at every height; its width tends
    # to 4 a e/(1-e^2)
    zs = np.geomspace(0.1, 1e4, 50)
    left, right = jump_interval(p, zs)
    assert np.all(right > left)
    width_inf = 4 * p.a * p.ecc / (1 - p.ecc ** 2)
    assert (right[-1] - left[-1]) == pytest.approx(width_inf, rel=1e-3)


def test_near_jump_set_is_conservative(p):
    pts = random_points(400, seed=23, min_y=0.0)
    tol = 0.02
    flagged = near_jump_set(p, pts, tol)
    dist = jump_distance_many(p, pts)
    assert not np.any((dist <= tol) & ~flagged)
