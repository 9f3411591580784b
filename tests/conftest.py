import math

import numpy as np
import pytest
from scipy.integrate import quad

from kepdiff import PhysParams, SimConfig, jump_interval, simulate_ensemble


@pytest.fixture(scope="session")
def p():
    """Showcase parameters."""
    return PhysParams(lam=1.0, mu=1.0, ecc=0.5, eps=0.1)


@pytest.fixture(scope="session")
def p_unit():
    """Unit diffusion scale: gradients coincide with the scaled fields."""
    return PhysParams(lam=1.0, mu=1.0, ecc=0.5, eps=1.0)


@pytest.fixture(scope="session")
def stationary_ensemble(p):
    """One medium ensemble shared by the statistics tests (seeded)."""
    cfg = SimConfig(params=p, dt=1e-3, n_steps=60_000, n_paths=64, seed=2024,
                    record_stride=10)
    return simulate_ensemble(cfg)


def random_points(n, seed, lo=-4.0, hi=4.0, min_r=0.3, min_y=0.05):
    """Seeded generic points avoiding the origin ball and the y = 0 plane."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        q = rng.uniform(lo, hi, 3)
        if np.linalg.norm(q) > min_r and abs(q[1]) > min_y:
            out.append(q)
    return np.array(out)


def near_jump_set_points(p, n, seed, log_y_min):
    """Points a distance 10^log_y_min..1e-2 off the jump set in y."""
    rng = np.random.default_rng(seed)
    z = rng.choice([0.0, 0.7], n)
    left, right = jump_interval(p, z)
    x = rng.uniform(left, right)
    y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(log_y_min, -2.0, n)
    return np.stack([x, y, z], axis=1)


def assert_bitwise_equal(got, want):
    """Equal dtype, shape and bytes: signed zeros and NaN payloads too."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def ellipse_average(p, f):
    """Small-noise stationary expectation of f(v) on the ellipse,
    (1/2 pi) int f(v) (1 - e cos v) dv (test oracle)."""
    val, _ = quad(lambda v: f(v) * (1 - p.ecc * math.cos(v)), 0.0,
                  2 * math.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val / (2 * math.pi)
