import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kepdiff import (BranchPointWarning, ConfigError, NodeError, PhysParams,
                     SingularPointError, complex_velocity,
                     complex_velocity_finite, drift_root, hermite_ratio,
                     jump_interval, laguerre_ratio, log_amplitude, log_wave,
                     nodal_coordinate, wave_gradients)
from kepdiff.fields import radius

from conftest import (assert_bitwise_equal, near_jump_set_points,
                      random_points)


# ---------------------------------------------------------------------------
# logarithmic ratios against the value recurrences
# ---------------------------------------------------------------------------

def _laguerre_direct(n, z):
    """Unscaled value recurrence, test oracle for laguerre_ratio."""
    L0, L1 = 1.0 + 0j, 1.0 - z
    D0, D1 = 0.0 + 0j, -1.0 + 0j
    if n == 0:
        return L0, D0
    for k in range(1, n):
        L0, L1 = L1, ((2 * k + 1 - z) * L1 - k * L0) / (k + 1)
        D0, D1 = D1, ((2 * k + 1 - z) * D1 - L0 - k * D0) / (k + 1)
    return L1, D1


def _hermite_direct(m, z):
    H0, H1 = 1.0 + 0j, 2 * z
    if m == 0:
        return H0, 0.0 + 0j
    for k in range(1, m):
        H0, H1 = H1, 2 * z * H1 - 2 * k * H0
    return H1, 2 * m * H0


def _hermite_arg(m, nu):
    """The point at which hermite_ratio(m, nu) evaluates H_m."""
    return complex(math.sqrt(m + 1) * np.sqrt(complex(nu) / 2))


def test_laguerre_base_cases():
    for z in (0.3, 2.0 + 1.5j, -4.0):
        assert laguerre_ratio(0, z) == 0.0
        assert laguerre_ratio(1, z) == pytest.approx(-1 / (1 - z))
    assert laguerre_ratio(2, 1.0) == pytest.approx(2.0)  # L_2 = -1/2
    assert laguerre_ratio(2, 3.0) == pytest.approx(-2.0)  # L_2 = -1/2
    assert laguerre_ratio(20, 0.0) == -20.0  # L_n(0) = 1, L'_n(0) = -n


def test_laguerre_steps_over_lower_degree_zero():
    # L_1(1) = 0 is not a node of L_3: L_3(1) = -2/3, L'_3(1) = -1/2
    assert laguerre_ratio(3, 1.0) == pytest.approx(0.75)
    v, d = _laguerre_direct(12, 1.0)
    assert laguerre_ratio(12, 1.0) == pytest.approx(d / v, rel=1e-12)
    with pytest.raises(NodeError):
        laguerre_ratio(1, 1.0)


def test_laguerre_negative_degree_raises():
    with pytest.raises(ConfigError):
        laguerre_ratio(-1, 0.0)


def test_hermite_negative_degree_raises():
    with pytest.raises(ConfigError):
        hermite_ratio(-1, 8.0)


@pytest.mark.parametrize("n,z,tol", [
    (1000, -50.0 + 3.0j, 1e-12),   # values near 1e182, ratio near -4
    (300, 40.0 - 25.0j, 1e-12),
    # small |z|: the oracle itself keeps only 11-12 digits here, while a
    # final division by z would lose 8.9e-9 (at 1e-6j) and 3e-4 (at 1e-10)
    (200, 1e-6j, 1e-10),
    (1000, 1e-10, 1e-10),
], ids=["values_1e182", "complex", "small_z", "tiny_z"])
def test_laguerre_ratio_matches_direct(n, z, tol):
    v, d = _laguerre_direct(n, z)
    assert np.isfinite(abs(v)) and np.isfinite(abs(d))
    assert abs(laguerre_ratio(n, z) - d / v) <= tol * abs(d / v)


def test_hermite_base_cases():
    for nu in (8.0, 0.7, 1.0 - 2.0j):
        # H_1 = 2z at z = sqrt(2) sqrt(nu/2)
        assert hermite_ratio(1, nu) == pytest.approx(
            1 / (2 * cmath.sqrt(nu / 2)))
    # H_2 = 4z^2 - 2 at z^2 = 12: 8z / (sqrt(3) 46)
    assert hermite_ratio(2, 8.0) == pytest.approx(8 / 23)
    assert hermite_ratio(2, 0.0) == 0  # H'_2(0) = 0, H_2(0) = -2


@pytest.mark.parametrize("m", [2, 4, 10])
def test_hermite_even_degree_at_zero(m):
    # H_k(0) = 0 for every odd k < m is stepped over: H'_m(0) = 0
    assert hermite_ratio(m, 0.0) == 0
    with pytest.raises(NodeError):
        hermite_ratio(m + 1, 0.0)


@pytest.mark.parametrize("m,nu", [
    (100, 5000 / 101),      # z = 50: H_100 near 1e200
    (150, 3.0 + 1.0j),
    (200, 0.5 - 2.0j),
], ids=["z50", "complex", "complex_200"])
def test_hermite_ratio_matches_direct(m, nu):
    v, d = _hermite_direct(m, _hermite_arg(m, nu))
    want = d / (math.sqrt(m + 1) * v)
    assert abs(hermite_ratio(m, nu) - want) <= 1e-12 * abs(want)


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 50),
       re=st.floats(0.1, 3), im=st.floats(-3, 3))
def test_hermite_recurrence_identity(m, re, im):
    # H_{m+1} = 2z H_m - H'_m in ratio form, with rho_k = H'_k / H_k:
    # rho_{m+1} (2z - rho_m) = 2(m+1); Re z > 0 keeps the principal
    # root of nu = 2z^2/(k+1) at z
    z = complex(re, im)
    rho = [math.sqrt(k + 1) * hermite_ratio(k, 2 * z * z / (k + 1))
           for k in (m, m + 1)]
    assert abs(rho[1] * (2 * z - rho[0]) - 2 * (m + 1)) <= 1e-9 * max(
        2 * (m + 1), abs(rho[1]) * (2 * abs(z) + abs(rho[0])))
    nu = 2 * z * z / (m + 1)
    v, d = _hermite_direct(m, _hermite_arg(m, nu))
    assert abs(rho[0] - d / v) <= 1e-9 * max(1.0, abs(d / v))


# ---------------------------------------------------------------------------
# scaled Hermite ratio
# ---------------------------------------------------------------------------

def test_hermite_ratio_degree_zero():
    for nu in (3.0, 8.0, 1.0 + 1.0j):
        assert hermite_ratio(0, nu) == 0.0


@pytest.mark.parametrize("nu,limit", [
    (8.0, 1 - math.sqrt(0.5)),          # ~0.2928932
    (100.0, 1 - math.sqrt(0.96)),       # ~0.0202041
])
def test_hermite_ratio_limit(nu, limit):
    q = hermite_ratio(2 * 2000, nu) / cmath.sqrt(nu / 2)
    assert abs(q - limit) < 1e-3


def test_hermite_ratio_error_decreasing():
    for nu in (6.0, 8.0, 20.0, 100.0):
        limit = 1 - math.sqrt(1 - 4 / nu)
        errs = [abs(hermite_ratio(2 * n, nu) / cmath.sqrt(nu / 2) - limit)
                for n in (50, 200, 800, 2000)]
        assert all(b < a for a, b in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# finite-degree complex velocity
# ---------------------------------------------------------------------------

def test_finite_velocity_degree_one(p):
    # degree-zero polynomial: the ratio term vanishes
    pt = np.array([0.8, 0.6, -0.4])
    z = complex_velocity_finite(p, 1, pt)
    expect = 1j * p.mu / p.lam * pt / np.linalg.norm(pt)
    np.testing.assert_allclose(z, expect, atol=1e-14)


def test_finite_velocity_plane_component(p):
    pts = random_points(20, seed=31)
    pts[:, 2] = 0.0
    for n in (1, 7, 40):
        z = complex_velocity_finite(p, n, pts)
        assert np.max(np.abs(z[:, 2])) == 0.0


def test_finite_velocity_converges(p):
    pt = np.array([-1.5, 0.0, 0.0])
    zl = complex_velocity(p, pt)
    errs = [np.linalg.norm(complex_velocity_finite(p, n, pt) - zl)
            for n in (10, 50, 250, 1250)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_finite_velocity_node_error(p):
    # nu = 1/2 at x = -1/6 puts the degree-1 polynomial at its zero
    with pytest.raises(NodeError):
        complex_velocity_finite(p, 2, [-1.0 / 6.0, 0.0, 0.0])


def test_laguerre_ratio_limit(p):
    rho = laguerre_ratio(499, 500 * 4.5)
    assert abs(rho - (1 - math.sqrt(1 - 4 / 4.5)) / 2) < 5e-3


# ---------------------------------------------------------------------------
# limiting wave function
# ---------------------------------------------------------------------------

def test_log_amplitude_constant_on_ellipse():
    from kepdiff import ellipse_point
    for e in (0.3, 0.5, 0.8):
        for eps in (0.3, 1.0):
            pp = PhysParams(ecc=e, eps=eps)
            target = pp.lam / (2 * eps ** 2) * math.log(16 / e ** 2)
            vs = np.linspace(0, 2 * np.pi, 37)
            vals = log_amplitude(pp, ellipse_point(pp, vs))
            np.testing.assert_allclose(vals, target, rtol=1e-12)


def test_log_amplitude_showcase_value(p_unit):
    val = log_amplitude(p_unit, [0.5, 0.0, 0.0])
    assert val == pytest.approx(0.5 * math.log(64), rel=1e-13)  # ~2.0794


def test_log_wave_gradient_reconstructs_velocity(p):
    # grad log psi = grad R + i grad S = i Z / eps^2 (finite differences)
    pts = random_points(100, seed=37, min_y=0.2)
    h = 1e-6
    for pt in pts[:25]:
        g = np.zeros(3, complex)
        for k in range(3):
            dp = np.zeros(3)
            dp[k] = h
            g[k] = (log_wave(p, pt + dp) - log_wave(p, pt - dp)) / (2 * h)
        z = complex_velocity(p, pt)
        np.testing.assert_allclose(g, 1j * z / p.eps ** 2,
                                   rtol=1e-6, atol=1e-5)


def test_log_wave_gradients_match_closed_form(p):
    pts = random_points(10, seed=41, min_y=0.2)
    h = 1e-6
    for pt in pts:
        gr, gs = wave_gradients(p, pt)
        for k in range(3):
            dp = np.zeros(3)
            dp[k] = h
            fd = (log_wave(p, pt + dp) - log_wave(p, pt - dp)) / (2 * h)
            assert fd.real == pytest.approx(gr[k], rel=1e-6, abs=1e-5)
            assert fd.imag == pytest.approx(gs[k], rel=1e-6, abs=1e-5)


@pytest.mark.parametrize("f", [log_wave, log_amplitude])
def test_log_wave_singular_points(p, f):
    # the drift root's own policy and messages: errors at the origin and
    # on the focal ray (nu = 0), a warning at the branch point nu = 4
    focal = [p.ecc / math.sqrt(1 - p.ecc ** 2), 0.0, 1.0]
    for pt, msg in (([0.0, 0.0, 0.0], "field evaluation at the origin"),
                    (focal, r"nodal coordinate vanished \(focal ray\)")):
        with pytest.raises(SingularPointError, match=msg):
            f(p, pt)
    left, _ = jump_interval(p, 0.0)
    with pytest.warns(BranchPointWarning, match="branch point of the drift"):
        f(p, [left, 0.0, 0.0])


def _log_wave_formula(p, pt):
    """log_wave written out from separate nu, |x| and root evaluations."""
    w = drift_root(p, pt)[0]
    nu = nodal_coordinate(p, pt)
    ie2 = 1.0 / p.eps ** 2
    return (p.lam * ie2) * np.log(nu) \
        + (2 * p.lam * ie2) * np.log(1 + w) \
        - (p.mu * ie2 / p.lam) * radius(pt) \
        + (p.lam * ie2 / 2) * nu * (1 - w)


def _complex_velocity_formula(p, pt):
    """complex_velocity written out with its own |x| evaluation."""
    w = drift_root(p, pt)[0]
    e = p.ecc
    unit = pt / radius(pt)[..., None]
    fixed = np.array([1j, -np.sqrt(1 - e * e), 0.0])
    return (1j * p.mu / (2 * p.lam)) * (1 + w)[..., None] * unit \
        + (p.mu / (2 * p.lam * e)) * (1 - w)[..., None] * fixed


@pytest.mark.parametrize("ecc", [0.1, 0.5, 0.9])
def test_wave_fields_reuse_root_nu_and_radius_bitwise(ecc):
    # taking nu and |x| from drift_root changes no bit against evaluating
    # them separately, on generic points and 1e-16..1e-2 off the jump set
    pp = PhysParams(lam=1.3, mu=0.7, ecc=ecc, eps=0.2)
    pts = np.concatenate([random_points(500, seed=47),
                          near_jump_set_points(pp, 500, seed=53,
                                               log_y_min=-16.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchPointWarning)
        assert_bitwise_equal(log_wave(pp, pts), _log_wave_formula(pp, pts))
        assert_bitwise_equal(complex_velocity(pp, pts),
                             _complex_velocity_formula(pp, pts))
