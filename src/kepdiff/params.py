"""Physical configuration and shared error types.

All field and measure routines are parametrised by four positive numbers:
an angular-momentum scale, a force constant, the orbit eccentricity and a
diffusion scale.  The semimajor axis of the attracting ellipse is derived
from the first two.  Nothing in the package keeps global state; every
operation takes an explicit :class:`PhysParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class KepdiffError(Exception):
    """Base class for package errors."""


class ConfigError(KepdiffError, ValueError):
    """Invalid physical parameters or run configuration."""


class SingularPointError(KepdiffError, ValueError):
    """Field evaluation requested at a singular point (origin, focal ray,
    or a coordinate degeneracy)."""


class ConvergenceError(KepdiffError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class ResolutionError(KepdiffError, ValueError):
    """Grid too coarse for the requested discretisation."""


class NodeError(KepdiffError, ValueError):
    """Polynomial evaluation hit a node (value underflowed to zero)."""


class InsufficientSamplesError(KepdiffError, ValueError):
    """Not enough post-burn-in samples for the requested statistic."""


class BranchPointWarning(UserWarning):
    """Evaluation close to the square-root branch point of the drift root."""


@dataclass(frozen=True)
class PhysParams:
    """Physical configuration of the diffusion.

    Attributes
    ----------
    lam : angular-momentum scale (> 0)
    mu : force constant (> 0)
    ecc : eccentricity of the attracting ellipse, in (0, 1)
    eps : diffusion scale, in (0, 1]
    """

    lam: float = 1.0
    mu: float = 1.0
    ecc: float = 0.5
    eps: float = 0.1

    def __post_init__(self):
        if not self.lam > 0:
            raise ConfigError(f"lam must be positive, got {self.lam}")
        if not self.mu > 0:
            raise ConfigError(f"mu must be positive, got {self.mu}")
        if not 0 < self.ecc < 1:
            raise ConfigError(f"ecc must lie in (0, 1), got {self.ecc}")
        if not 0 < self.eps <= 1:
            raise ConfigError(f"eps must lie in (0, 1], got {self.eps}")

    @property
    def a(self) -> float:
        """Semimajor axis of the attracting ellipse, lam**2 / mu."""
        return self.lam ** 2 / self.mu

    @property
    def axis_ratio(self) -> float:
        """Minor over major axis of the attracting ellipse, sqrt(1 - ecc**2)."""
        return math.sqrt(1 - self.ecc * self.ecc)

    @property
    def nodal_scale(self) -> float:
        """Factor mu / lam**2 of the nodal coordinate nu."""
        return self.mu / self.lam ** 2

    @property
    def drift_scale(self) -> float:
        """Factor mu / (2 lam) of the drift components."""
        return self.mu / (2 * self.lam)

    @property
    def energy(self) -> float:
        """Conserved energy level, -mu**2 / (2 lam**2)."""
        return -self.mu ** 2 / (2 * self.lam ** 2)

    @property
    def orbital_period(self) -> float:
        """Period of the deterministic orbit on the ellipse (third law)."""
        return 2 * math.pi * self.lam ** 3 / self.mu ** 2

    def as_dict(self) -> dict:
        return {"lambda": self.lam, "mu": self.mu, "ecc": self.ecc,
                "eps": self.eps, "a": self.a}
