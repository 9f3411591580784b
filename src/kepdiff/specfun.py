"""Polynomial machinery and the limiting wave function.

Laguerre and Hermite evaluation at complex argument with overflow-safe
joint rescaling, the scaled Hermite logarithmic ratio whose even-degree
limit reproduces the drift root, the finite-degree complex velocity used
for convergence checks against the closed form, and the limiting wave
function in logarithmic form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import as_points, drift_root, nodal_coordinate, radius
from .params import ConfigError, NodeError, PhysParams

#: Rescale the recurrence pair by 2**-512 whenever it exceeds this.
_SCALE_LIMIT = 2.0 ** 512
_SCALE_SHIFT = 512


@dataclass(frozen=True)
class PolyEval:
    """Value/derivative pair of a polynomial, jointly rescaled.

    The true value is ``value * 2**exponent`` (same for the derivative);
    ratios of the pair need no unscaling, and exponent > 0 exactly when
    the recurrence was rescaled.
    """

    value: complex
    derivative: complex
    exponent: int = 0


def laguerre(n: int, z: complex) -> PolyEval:
    """Laguerre polynomial and derivative by the three-term recurrence.

    (k+1) L_{k+1}(z) = (2k+1-z) L_k(z) - k L_{k-1}(z), differentiated for
    the derivative pair; the four running values share one power-of-two
    exponent against overflow.
    """
    if n < 0:
        raise ConfigError("polynomial degree must be >= 0")
    z = complex(z)
    if n == 0:
        return PolyEval(1.0 + 0j, 0.0 + 0j)
    L0, L1 = 1.0 + 0j, 1.0 - z
    D0, D1 = 0.0 + 0j, -1.0 + 0j
    ex = 0
    for k in range(1, n):
        Lp = ((2 * k + 1 - z) * L1 - k * L0) / (k + 1)
        Dp = ((2 * k + 1 - z) * D1 - L1 - k * D0) / (k + 1)
        L0, L1, D0, D1 = L1, Lp, D1, Dp
        m = max(abs(L0), abs(L1), abs(D0), abs(D1))
        if m > _SCALE_LIMIT:
            s = 2.0 ** -_SCALE_SHIFT
            L0 *= s; L1 *= s; D0 *= s; D1 *= s
            ex += _SCALE_SHIFT
    return PolyEval(L1, D1, ex)


def hermite(m: int, z: complex) -> PolyEval:
    """Hermite polynomial and derivative, H'_m = 2 m H_{m-1}, rescaled."""
    if m < 0:
        raise ConfigError("polynomial degree must be >= 0")
    z = complex(z)
    if m == 0:
        return PolyEval(1.0 + 0j, 0.0 + 0j)
    H0, H1 = 1.0 + 0j, 2 * z
    ex = 0
    for k in range(1, m):
        Hp = 2 * z * H1 - 2 * k * H0
        H0, H1 = H1, Hp
        mx = max(abs(H0), abs(H1))
        if mx > _SCALE_LIMIT:
            s = 2.0 ** -_SCALE_SHIFT
            H0 *= s; H1 *= s
            ex += _SCALE_SHIFT
    return PolyEval(H1, 2 * m * H0, ex)


def hermite_ratio(m: int, nu: complex) -> complex:
    """Scaled logarithmic Hermite ratio H'_m / (sqrt(m+1) H_m).

    Evaluated at sqrt(m+1) sqrt(nu/2) (principal roots).  For even
    degrees the quantity divided by sqrt(nu/2) converges to
    1 - sqrt(1 - 4/nu), the planar drift-root limit.
    """
    arg = np.sqrt(m + 1) * np.sqrt(complex(nu) / 2)
    pe = hermite(m, arg)
    if abs(pe.value) < 1e-300 * max(1.0, abs(pe.derivative)):
        raise NodeError(f"Hermite value underflowed at degree {m}")
    return pe.derivative / (np.sqrt(m + 1) * pe.value)


def laguerre_ratio(n_minus_1: int, z: complex) -> complex:
    """L'_{n-1}(z) / L_{n-1}(z), guarded against nodes."""
    pe = laguerre(n_minus_1, z)
    if abs(pe.value) < 1e-12 * max(1.0, abs(pe.derivative)):
        raise NodeError(
            f"Laguerre value at a node (degree {n_minus_1}, z = {z})")
    return pe.derivative / pe.value


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
    e = p.ecc
    unit = pt / radius(pt)[..., None]
    fixed = np.array([1j, -np.sqrt(1 - e * e), 0.0])
    return (1j * p.mu / p.lam) * (1 - rho)[..., None] * unit \
        + (p.mu / (p.lam * e)) * rho[..., None] * fixed


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
