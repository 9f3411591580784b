"""Polynomial ratios and the limiting wave function.

Logarithmic derivatives of Laguerre and Hermite polynomials at complex
argument by forward ratio recurrences (Gautschi 1967), which need no
overflow rescaling: the scaled Hermite ratio whose even-degree limit
reproduces the drift root, the finite-degree complex velocity used for
convergence checks against the closed form, and the limiting wave
function in logarithmic form.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import as_points, drift_root, nodal_coordinate, radius
from .params import ConfigError, NodeError, PhysParams

#: A ratio raises NodeError at a node: when the polynomial's value is
#: exactly zero, or the ratio is not finite or exceeds this modulus.  An
#: exact zero of a lower degree (z = 1 for L_1, z = 0 for H_1) is not a
#: node: the recurrence steps over it by two degrees.
_NODE_RATIO = 1e12


def hermite_ratio(m: int, nu: complex) -> complex:
    """Scaled logarithmic Hermite ratio H'_m / (sqrt(m+1) H_m).

    Evaluated at z = sqrt(m+1) sqrt(nu/2) (principal roots).  With
    q_k = H_k / H_{k-1}: q_1 = 2z, q_{k+1} = 2z - 2k / q_k, and
    H'_m = 2m H_{m-1} makes the ratio 2m / (sqrt(m+1) q_m).  An exact
    zero H_k = 0 is stepped over: H_{k+2} = 2z H_{k+1}, so q_{k+2} = 2z,
    and H'_m = 0 when k = m - 1.  For even degrees the quantity divided
    by sqrt(nu/2) converges to 1 - sqrt(1 - 4/nu), the planar drift-root
    limit.
    """
    if m < 0:
        raise ConfigError("polynomial degree must be >= 0")
    if m == 0:
        return 0j
    r = math.sqrt(m + 1)
    z = complex(r * np.sqrt(complex(nu) / 2))
    try:
        q, k = 2 * z, 1
        while k < m:
            q, k = (2 * z - 2 * k / q, k + 1) if q else (2 * z, k + 2)
        rho = 2 * m / (r * q) if k == m else 0j     # k > m: H_{m-1} = 0
        if abs(rho) <= _NODE_RATIO:
            return rho
    except (ZeroDivisionError, OverflowError):
        pass
    raise NodeError(f"Hermite polynomial at a node (degree {m}, z = {z})")


def laguerre_ratio(n_minus_1: int, z: complex) -> complex:
    """L'_n(z) / L_n(z) for n = n_minus_1, guarded against nodes.

    z L'_n = n (L_n - L_{n-1}) makes the ratio -n s_n / q_n, with
    q_k = L_k / L_{k-1} = 1 - z s_k, s_1 = 1 and
    s_{k+1} = (1 + k s_k / q_k) / (k + 1): the three-term recurrence
    divided by L_k.  Running on s_k = (1 - q_k) / z rather than on q_k
    keeps z out of every denominator, so small |z| loses no digits and
    z = 0 gives -n exactly.  An exact zero L_k = 0 (z != 0, as
    L_k(0) = 1) is stepped over: (k+2) L_{k+2} = (2k+3-z) L_{k+1}, and
    z L'_n = n L_n when k = n - 1.
    """
    n = n_minus_1
    if n < 0:
        raise ConfigError("polynomial degree must be >= 0")
    if n == 0:
        return 0j
    z = complex(z)
    try:
        s, k = 1.0 + 0j, 1
        while k < n:
            q = 1 - z * s
            s, k = ((1 + k * s / q) / (k + 1), k + 1) if q else \
                ((z - k - 1) / ((k + 2) * z), k + 2)
        rho = -n * s / (1 - z * s) if k == n else n / z   # k > n: L_{n-1} = 0
        if abs(rho) <= _NODE_RATIO:
            return rho
    except (ZeroDivisionError, OverflowError):
        pass
    raise NodeError(f"Laguerre polynomial at a node (degree {n}, z = {z})")


def complex_velocity_finite(p: PhysParams, n: int, pt):
    """Finite-degree complex velocity, diffusion scale eps^2 = lam/n.

    Z_n = (i mu/lam)(1 - rho) x/|x| + (mu/lam e) rho (i, -sqrt(1-e^2), 0)
    with rho the logarithmic Laguerre ratio at n times the nodal
    coordinate.  Converges to the closed-form field as n grows.
    """
    if n < 1:
        raise ConfigError("degree must be >= 1")
    pt = as_points(pt)
    nu = nodal_coordinate(p, pt)
    rho = np.array([laguerre_ratio(n - 1, n * nv)
                    for nv in np.ravel(nu)]).reshape(nu.shape)
    unit = pt / radius(pt)[..., None]
    fixed = np.array([1j, -p.axis_ratio, 0.0])
    return (1j * p.mu / p.lam) * (1 - rho)[..., None] * unit \
        + (p.mu / (p.lam * p.ecc)) * rho[..., None] * fixed


def log_wave(p: PhysParams, pt):
    """Logarithm of the limiting wave function (principal branches).

    log psi = (lam/eps^2) log nu + (2 lam/eps^2) log(1 + w)
              - mu |x| / (lam eps^2) + (lam nu / 2 eps^2)(1 - w),
    with w = sqrt(1 - 4/nu), nu and |x| all from one
    :func:`~kepdiff.fields.drift_root` call and its singular-point checks.
    The real part is the log-amplitude R; on the attracting ellipse it
    equals (lam/2 eps^2) ln(16/e^2) with no extra constant.  The
    imaginary part (the phase S) jumps across the branch cuts in the
    y = 0 plane; only its gradient is contract-bearing.
    """
    w, nu, r = drift_root(p, pt)
    ie2 = 1.0 / p.eps ** 2
    return (p.lam * ie2) * np.log(nu) \
        + (2 * p.lam * ie2) * np.log(1 + w) \
        - (p.mu * ie2 / p.lam) * r \
        + (p.lam * ie2 / 2) * nu * (1 - w)


def log_amplitude(p: PhysParams, pt):
    """Log-amplitude R of the limiting state (real part of log_wave)."""
    return np.real(log_wave(p, pt))
