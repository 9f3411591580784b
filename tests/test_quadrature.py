import math

import numpy as np
import pytest

from conftest import assert_bitwise_equal
from kepdiff import ConvergenceError, measure, quadrature
from kepdiff.acceptance import ECCS
from kepdiff.quadrature import MAX_DEPTH, TOL, adaptive_quad

C3_GRID = np.linspace(0, 2 * np.pi, 721)


def _simpson(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(a, fa, m, fm, flm)
    right = _simpson(m, fm, b, fb, frm)
    err = left + right - whole
    if abs(err) <= 15.0 * tol or (b - a) < 1e-14:
        return left + right + err / 15.0
    if depth <= 0:
        raise ConvergenceError("adaptive quadrature hit max depth")
    half = 0.5 * tol
    return (_adapt(f, a, fa, m, fm, lm, flm, left, half, depth - 1)
            + _adapt(f, m, fm, b, fb, rm, frm, right, half, depth - 1))


def depth_first_quad(f, a, b):
    """The depth-first recursion over scalars (test oracle), forward
    intervals only."""
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(a, fa, b, fb, fm)
    return _adapt(f, a, fa, b, fb, m, fm, whole, TOL, MAX_DEPTH)


class CountingIntegrand:
    """Wraps a vectorised integrand and counts its calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.f(*args)


def test_cubic_is_exact():
    # Simpson is exact on cubics; the Richardson term is then rounding
    def cubic(x):
        return x ** 3 - 2 * x + 1
    for a, b in [(0.0, 2.0), (-1.0, 3.0), (0.25, 0.5)]:
        exact = (b ** 4 - a ** 4) / 4 - (b ** 2 - a ** 2) + (b - a)
        assert adaptive_quad(cubic, a, b) == pytest.approx(exact, abs=1e-15)


def test_empty_interval_is_zero_without_calling_f():
    f = CountingIntegrand(np.sin)
    assert adaptive_quad(f, 1.5, 1.5) == 0.0
    assert_bitwise_equal(adaptive_quad(f, [0.0, 2.0], [0.0, 2.0]),
                         np.zeros(2))
    assert f.calls == 0


def test_scalar_ends_return_float_and_arrays_broadcast():
    assert type(adaptive_quad(np.cos, 0, 1)) is float
    assert type(adaptive_quad(np.cos, np.float64(0.0), 1.0)) is float
    b = np.linspace(0.5, 3.0, 6).reshape(2, 3)
    got = adaptive_quad(np.cos, 0.0, b)
    assert got.shape == (2, 3)
    np.testing.assert_allclose(got, np.sin(b), atol=1e-12)


def test_batch_equals_one_interval_at_a_time():
    rng = np.random.default_rng(3)
    lo = rng.uniform(-3, 3, 40)
    hi = lo + rng.uniform(0, 4, 40)
    hi[:5] = lo[:5]  # empty intervals ride along in the batch

    def f(v):
        return measure.laplace_weight(0.7, v)
    batch = adaptive_quad(f, lo, hi)
    assert_bitwise_equal(batch, np.array([adaptive_quad(f, x, y)
                                          for x, y in zip(lo, hi)]))


@pytest.mark.parametrize("e", ECCS)
def test_bitwise_equal_to_depth_first_recursion_on_c3_integrands(e):
    # the ODE grid of C3 and its full-turn normalisation integral
    segs = [depth_first_quad(
                lambda t: float(measure.tangential_log_slope(e, t)), lo, hi)
            for lo, hi in zip([0.0, *C3_GRID[:-1].tolist()],
                              C3_GRID.tolist())]
    assert_bitwise_equal(measure.tangential_factor_ode_grid(e, C3_GRID),
                         np.exp(np.cumsum(segs)))
    want = depth_first_quad(lambda v: float(measure.laplace_weight(e, v)),
                            0.0, 2 * math.pi)
    got = adaptive_quad(lambda v: measure.laplace_weight(e, v),
                        0.0, 2 * math.pi)
    assert got.hex() == want.hex()


def test_empty_grid_gives_empty_array():
    got = measure.tangential_factor_ode_grid(0.5, [])
    assert got.shape == (0,) and got.dtype == np.float64


@pytest.mark.parametrize("f, a, b, exact", [
    (np.sin, math.pi, 0.0, -2.0),
    (np.exp, 1.0, 0.0, 1.0 - math.e),
    (np.cos, 2.0, -1.0, -math.sin(2.0) - math.sin(1.0)),
], ids=["sin", "exp", "cos"])
def test_reversed_interval_is_adapted(f, a, b, exact):
    assert adaptive_quad(f, a, b) == pytest.approx(exact, abs=1e-12)
    assert adaptive_quad(f, [b, a], [a, b]) == pytest.approx(
        [-exact, exact], abs=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_integrand_raises(value):
    f = CountingIntegrand(lambda x: np.full(x.shape, value))
    with pytest.raises(ConvergenceError, match="non-finite"):
        adaptive_quad(f, 0.0, 1.0)
    assert f.calls == 1


def test_non_finite_value_inside_the_interval_raises():
    # finite at the first nodes, NaN at x = 3/8, the second level's node
    def f(x):
        return np.where(x == 0.375, math.nan, np.sin(10 * x))
    with pytest.raises(ConvergenceError, match="non-finite"):
        adaptive_quad(f, 0.0, 1.0)


def test_unresolved_jump_raises_at_max_depth():
    # a jump on an interval so wide that halving it MAX_DEPTH times keeps
    # the width above the floor: the error never falls below 15 tol
    f = CountingIntegrand(lambda x: (x > 1e6 / 3).astype(float))
    with pytest.raises(ConvergenceError, match="max depth"):
        adaptive_quad(f, 0.0, 1e6)
    assert f.calls == MAX_DEPTH + 2


def test_everywhere_unresolved_integrand_raises(monkeypatch):
    # an integrand that hashes the bits of x is noise at every scale: it
    # fails the tolerance almost everywhere, so the levels keep doubling
    # until the bisection cap
    monkeypatch.setattr(quadrature, "MAX_BISECTIONS", 1000)
    f = CountingIntegrand(lambda x: (
        (x.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
        >> np.uint64(61)).astype(float))
    with pytest.raises(ConvergenceError, match="1000 bisections"):
        adaptive_quad(f, 0.0, 1.0)
    assert f.calls < MAX_DEPTH


@pytest.mark.parametrize("n", [1, 720, 5000])
def test_one_call_of_f_per_level_whatever_the_batch(n):
    f = CountingIntegrand(np.sqrt)  # steep at 0: deep bisection there
    lo = np.linspace(0.0, 1.0, n + 1)
    got = adaptive_quad(f, lo[:-1], lo[1:])
    assert np.sum(got) == pytest.approx(2 / 3, abs=1e-11)
    assert f.calls <= MAX_DEPTH + 2


@pytest.mark.parametrize("e", [0.1, 0.9])
def test_ode_grid_is_one_quadrature(monkeypatch, e):
    slope = CountingIntegrand(measure.tangential_log_slope)
    monkeypatch.setattr(measure, "tangential_log_slope", slope)
    measure.tangential_factor_ode_grid(e, C3_GRID)
    assert 1 < slope.calls <= MAX_DEPTH + 2
