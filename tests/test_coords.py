import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kepdiff import (PhysParams, SingularPointError, ellipse_point,
                     from_elliptic, to_elliptic)
from kepdiff.fields import elliptic_uv


# ---------------------------------------------------------------------------
# bisection oracle for u
# ---------------------------------------------------------------------------

def _second_focus_x(p, u):
    """x-coordinate of the second focus of the u-ellipse: -4 a e u/(e+u)."""
    return -4 * p.a * p.ecc * u / (p.ecc + u)


def _u_bisect(p, x, y, n_iter=200):
    """Solve the defocal identity |x| + |x - F(u)| = 2 s(u) for u.

    s(u) = 2 a e/(e+u) is the semimajor axis of the u-ellipse and F(u)
    its second focus.  G(u) = r + r'(u) - 2 s(u) increases from -inf at
    u -> -e to >= 0 at u = 1, so bisection is safe; 200 halvings take
    the bracket down to adjacent floats.
    """
    e, a = p.ecc, p.a
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    lo = np.full_like(r, -e * (1 - 1e-14))
    hi = np.ones_like(r)

    def G(u):
        s = 2 * a * e / (e + u)
        return r + np.hypot(x - _second_focus_x(p, u), y) - 2 * s

    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        neg = G(mid) < 0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def test_forward_map_perihelion(p):
    pt = from_elliptic(p, (p.ecc, 0.0, 0.0))
    np.testing.assert_allclose(pt, [0.5, 0.0, 0.0], atol=1e-14)


def test_forward_map_quarter_turn(p):
    pt = from_elliptic(p, (p.ecc, math.pi / 2, 0.0))
    np.testing.assert_allclose(pt, [-0.5, math.sqrt(0.75), 0.0], atol=1e-14)


def test_ellipse_is_u_equals_e_curve(p):
    vs = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    for v in vs:
        u, v_back, _ = to_elliptic(p, ellipse_point(p, v))
        assert u == pytest.approx(p.ecc, abs=1e-11)
        assert v_back == pytest.approx(v, abs=1e-10) or \
            v_back == pytest.approx(v + 2 * np.pi, abs=1e-10)


def test_round_trip_bulk(p):
    rng = np.random.default_rng(42)
    n = 10_000
    u = rng.uniform(-p.ecc + 1e-3, 1.0 - 1e-6, n)
    v = rng.uniform(0.0, 2 * np.pi, n)
    z = rng.uniform(-2.0, 2.0, n)
    pts = from_elliptic(p, (u, v, z))
    u2, v2, z2 = to_elliptic(p, pts)
    assert np.max(np.abs(u2 - u)) < 1e-10
    dv = np.abs(np.mod(v2 - v + np.pi, 2 * np.pi) - np.pi)
    # angle resolution degrades only where the u-ellipse degenerates
    assert np.max(dv * (1 - u)) < 1e-9
    pts2 = from_elliptic(p, (u2, v2, z2))
    assert np.max(np.abs(pts2 - pts)) < 1e-10


@settings(max_examples=80, deadline=None)
@given(u=st.floats(-0.45, 0.999), v=st.floats(0.0, 2 * math.pi - 1e-9),
       z=st.floats(-3.0, 3.0))
def test_round_trip_property(u, v, z):
    pp = PhysParams(ecc=0.5)
    pt = from_elliptic(pp, (u, v, z))
    if np.hypot(pt[0], pt[1]) < 1e-6:
        return
    back = from_elliptic(pp, to_elliptic(pp, pt))
    assert np.max(np.abs(back - pt)) < 1e-9


@st.composite
def _planar_points(draw):
    """(e, x, y): a bulk point from 1e-3 a to 1e3 a, a point within
    1e-16..1e-2 of the u = 1 segment, or a far point (u -> -e)."""
    e = draw(st.floats(0.05, 0.95))
    pp = PhysParams(ecc=e)
    kind = draw(st.sampled_from(["bulk", "segment", "far"]))
    if kind == "segment":
        # the u = 1 ellipse degenerates to the segment from the origin
        # to its second focus, -4 a e/(1+e) <= x <= 0
        x = draw(st.floats(_second_focus_x(pp, 1.0), 0.0))
        y = draw(st.sampled_from([-1.0, 1.0])) \
            * 10.0 ** draw(st.floats(-16.0, -2.0))
        return e, x, y
    log_r = draw(st.floats(-3.0, 3.0) if kind == "bulk"
                 else st.floats(2.0, 3.0))
    th = draw(st.floats(0.0, 2 * math.pi))
    r = pp.a * 10.0 ** log_r
    return e, r * math.cos(th), r * math.sin(th)


@settings(max_examples=300, deadline=None)
@given(_planar_points())
def test_closed_form_u_matches_bisection(point):
    e, x, y = point
    pp = PhysParams(ecc=e)
    u, _ = elliptic_uv(pp, np.array([x]), np.array([y]))
    assert -e < u[0] <= 1.0
    assert abs(u[0] - _u_bisect(pp, x, y)) <= 1e-12


def test_closed_form_u_at_planar_origin(p):
    u, v = elliptic_uv(p, np.zeros(1), np.zeros(1))
    assert (u[0], v[0]) == (1.0, 0.0)


@pytest.mark.parametrize("ecc", [0.1, 0.5, 0.9])
def test_v_beside_the_segment(ecc):
    # on u = 1, from_elliptic reads x = 2 a e (cos v - 1)/(1 + e) and
    # y = 0: v is known from x alone, and 2 pi - v on the side y < 0
    pp = PhysParams(ecc=ecc)
    ends = _second_focus_x(pp, 1.0)
    x = np.repeat(np.array([0.1, 0.5, 0.9]) * ends, 5)
    y = np.tile([-1e-10, -1e-14, 0.0, 1e-14, 1e-10], 3) * pp.a
    v0 = np.arccos(1 + x * (1 + ecc) / (2 * pp.a * ecc))
    _, v = elliptic_uv(pp, x, y)
    np.testing.assert_allclose(v, np.where(y < 0, 2 * np.pi - v0, v0),
                               rtol=0, atol=1e-9)


def test_u_out_of_range_raises(p):
    with pytest.raises(SingularPointError):
        from_elliptic(p, (-0.6, 0.0, 0.0))
    with pytest.raises(SingularPointError):
        from_elliptic(p, (1.2, 0.0, 0.0))


def test_inverse_at_planar_origin_raises(p):
    with pytest.raises(SingularPointError):
        to_elliptic(p, [0.0, 0.0, 1.0])


def test_returns_triple_for_single_point(p):
    # a single point gives the batch of that one point, as 0-d values
    pt = [0.5, 0.3, -0.2]
    single = to_elliptic(p, pt)
    batch = to_elliptic(p, [pt])
    assert all(np.ndim(c) == 0 for c in single)
    assert [float(c) for c in single] == [float(c[0]) for c in batch]
    assert -p.ecc < single[0] <= 1.0


def test_second_focus_formula(p):
    # the u-ellipse through (u, v) has foci at the origin and at
    # (-4 a e u/(e+u), 0): the defocal identity closes with this focus
    # and fails with the (1+e) denominator variant
    for u in (0.1, 0.37, 0.8):
        s = 2 * p.a * p.ecc / (p.ecc + u)
        v = 1.234
        x = s * (math.cos(v) - u)
        y = s * math.sqrt(1 - u * u) * math.sin(v)
        fx = _second_focus_x(p, u)
        assert fx == pytest.approx(-4 * p.a * p.ecc * u / (p.ecc + u))
        lhs = math.hypot(x, y) + math.hypot(x - fx, y)
        assert lhs == pytest.approx(2 * s, abs=1e-12)
        fx_bad = -4 * p.a * p.ecc * u / (1 + p.ecc)
        lhs_bad = math.hypot(x, y) + math.hypot(x - fx_bad, y)
        assert abs(lhs_bad - 2 * s) > 1e-3
