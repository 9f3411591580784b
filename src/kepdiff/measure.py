"""The invariant measure of the limiting diffusion.

The stationary density has the form (tangential factor) * exp(2 R / eps^2)
with R the scaled log-amplitude: a ridge of constant height over the
attracting ellipse with Gaussian cross-sections of width O(eps).  This
module carries the closed form and the ODE form of the tangential
factor, the angular weight produced by the two-fold Laplace reduction of
volume integrals, the cross-section widths, the log-density used by the
spectral module, and the empirical angular marginal extracted from
simulated ensembles.

Width conventions.  The effective widths returned by
:func:`cross_section_widths` are eps |R''|^{-1/2} in the scaled field;
the standard deviation of the corresponding Gaussian cross-section is
smaller by sqrt(2).  The package freezes GAUSS_WIDTH_FACTOR = 1/sqrt(2)
once; the empirical fit in the test suite confirms the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipe

from .fields import to_elliptic
from .params import ConfigError, InsufficientSamplesError, PhysParams
from .quadrature import adaptive_quad
from .specfun import log_amplitude

#: Ratio of the Gaussian standard deviation of a cross-section to the
#: effective width eps |R''|^{-1/2}.  Frozen; see module docstring.
GAUSS_WIDTH_FACTOR = 1.0 / math.sqrt(2.0)

#: Eccentric-angle windows of :func:`z_spread_by_angle`, and the fewest
#: samples a window needs to be reported.
Z_SPREAD_WINDOWS = 8
Z_SPREAD_MIN_COUNT = 200

#: Fewest post-burn-in samples :func:`empirical_marginal` accepts.
MIN_MARGINAL_SAMPLES = 10_000


def _check_ecc(e):
    if not 0 < e < 1:
        raise ConfigError(f"eccentricity must lie in (0,1), got {e}")


def tangential_factor(e, v):
    """Closed-form tangential modulation T(v) = (1-e^2)/sqrt(1+e^4-2e^2 cos 2v).

    Positive, pi-periodic in v, equal to 1 at v = 0.
    """
    _check_ecc(e)
    v = np.asarray(v, dtype=float)
    return (1 - e * e) / np.sqrt(1 + e ** 4 - 2 * e * e * np.cos(2 * v))


def tangential_log_slope(e, v):
    """d ln T / dv = -2 e^2 sin 2v / (1 + e^4 - 2 e^2 cos 2v)."""
    v = np.asarray(v, dtype=float)
    return -2 * e * e * np.sin(2 * v) / (1 + e ** 4 - 2 * e * e * np.cos(2 * v))


def tangential_factor_ode_grid(e, vs):
    """T on a non-decreasing grid by integrating the log-slope from 0
    with T(0) = 1: one batched quadrature over all grid segments.

    Independent of the closed form; matches it to 1e-8 or better.
    """
    _check_ecc(e)
    vs = np.asarray(vs, dtype=float)
    if np.any(np.diff(vs) < 0):
        raise ConfigError("grid must be non-decreasing")
    segs = adaptive_quad(lambda t: tangential_log_slope(e, t),
                         np.concatenate([[0.0], vs[:-1]]), vs)
    return np.exp(np.cumsum(segs))


def laplace_weight(e, v):
    """Angular weight g(v) = (1 - e cos v) sqrt(1 + e^4 - 2 e^2 cos 2v).

    Appears when the two transverse directions of a volume integral are
    reduced by Laplace's method; T(v) g(v) = (1-e^2)(1 - e cos v).
    """
    _check_ecc(e)
    v = np.asarray(v, dtype=float)
    return (1 - e * np.cos(v)) * np.sqrt(1 + e ** 4 - 2 * e * e * np.cos(2 * v))


def laplace_weight_integral(e):
    """Closed form of the full-turn integral of g:
    2 [(1-e^2) E(-xi_-^2) + (1+e^2) E(xi_+^2)], xi_pm = 2e/(1 pm e^2),
    with E the complete elliptic integral of the second kind in the
    parameter convention (``scipy.special.ellipe``)."""
    _check_ecc(e)
    xi_m = 2 * e / (1 - e * e)
    xi_p = 2 * e / (1 + e * e)
    return 2 * ((1 - e * e) * ellipe(-xi_m ** 2)
                + (1 + e * e) * ellipe(xi_p ** 2))


def cross_section_widths(p: PhysParams, v):
    """Effective widths of the stationary ridge at eccentric angle v.

    Returns (sigma_normal, sigma_z):
        sigma_normal = (eps lam^{3/2}/mu)
                       sqrt((1-e cos v)(1+e^2+2e cos v)/(1+e cos v))
        sigma_z      = (eps lam^{3/2}/mu) sqrt(1+e^2-2e cos v)
    These are the eps |R''|^{-1/2} widths; multiply by
    GAUSS_WIDTH_FACTOR for the Gaussian standard deviation.
    """
    v = np.asarray(v, dtype=float)
    e = p.ecc
    pre = p.eps * p.lam ** 1.5 / p.mu
    cn = np.cos(v)
    sigma_n = pre * np.sqrt((1 - e * cn) * (1 + e * e + 2 * e * cn)
                            / (1 + e * cn))
    sigma_z = pre * np.sqrt(1 + e * e - 2 * e * cn)
    return sigma_n, sigma_z


def log_invariant_density(p: PhysParams, pt):
    """log of the (unnormalised) stationary density ansatz at a point.

    2 R_eps(x) + ln T(v(x)) where R_eps is the log-amplitude and the
    tangential factor is extended off the ellipse as a function of the
    cylindrical eccentric-angle coordinate alone (constant in u and z).
    """
    _, v, _ = to_elliptic(p, pt)
    return 2.0 * log_amplitude(p, pt) + np.log(tangential_factor(p.ecc, v))


# ---------------------------------------------------------------------------
# empirical angular marginal
# ---------------------------------------------------------------------------

@dataclass
class EmpiricalMarginal:
    """Histogram of the eccentric angle."""

    edges: np.ndarray
    counts: np.ndarray
    total: int

    @classmethod
    def from_samples(cls, v, bins):
        v = np.mod(np.asarray(v, dtype=float).ravel(), 2 * np.pi)
        edges = np.linspace(0.0, 2 * np.pi, bins + 1)
        counts, _ = np.histogram(v, bins=edges)
        return cls(edges=edges, counts=counts.astype(np.int64), total=v.size)

    @property
    def centers(self):
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def probabilities(self):
        return self.counts / max(self.total, 1)

    def analytic_probs(self, e):
        """Exact bin masses of (1 - e cos v)/(2 pi)."""
        lo, hi = self.edges[:-1], self.edges[1:]
        return ((hi - lo) - e * (np.sin(hi) - np.sin(lo))) / (2 * np.pi)

    def l1_distance(self, e):
        return float(np.sum(np.abs(self.probabilities - self.analytic_probs(e))))

    def chi2(self, e):
        exp = self.total * self.analytic_probs(e)
        return float(np.sum((self.counts - exp) ** 2 / exp))


def empirical_marginal(ens, bins: int, burn_in: float) -> EmpiricalMarginal:
    """Angular marginal of an ensemble's post-burn-in samples.

    Truncated paths are excluded.  Requires at least
    MIN_MARGINAL_SAMPLES post-burn-in samples.
    """
    _, v, _ = ens.stationary_samples(burn_in)
    if v.size < MIN_MARGINAL_SAMPLES:
        raise InsufficientSamplesError(
            f"need >= {MIN_MARGINAL_SAMPLES} post-burn-in samples, "
            f"have {v.size}")
    return EmpiricalMarginal.from_samples(v, bins)


def z_spread_by_angle(ens, burn_in: float):
    """Empirical z standard deviation in eccentric-angle windows.

    Returns (window centers, empirical std, predicted Gaussian std).
    The prediction applies GAUSS_WIDTH_FACTOR to the effective width at
    the ensemble's params.
    """
    p = ens.config.params
    _, v, pos = ens.stationary_samples(burn_in)
    v, z = v.ravel(), pos[..., 2].ravel()
    edges = np.linspace(0.0, 2 * np.pi, Z_SPREAD_WINDOWS + 1)
    centers, emp, pred = [], [], []
    for k in range(Z_SPREAD_WINDOWS):
        sel = (v >= edges[k]) & (v < edges[k + 1])
        if sel.sum() < Z_SPREAD_MIN_COUNT:
            continue
        c = 0.5 * (edges[k] + edges[k + 1])
        centers.append(c)
        emp.append(float(np.std(z[sel])))
        pred.append(float(cross_section_widths(p, c)[1] * GAUSS_WIDTH_FACTOR))
    return np.array(centers), np.array(emp), np.array(pred)
