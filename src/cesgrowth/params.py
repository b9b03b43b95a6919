"""Parameter and state records for the two-sector CES economy."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

# Cobb-Douglas limit is excluded: |psi| below this raises instead of
# taking the sigma = 1 limit.
PSI_FLOOR = 1e-9


def _all(ok) -> bool:
    """ok itself, or whether every element holds when it is an array."""
    return ok.all() if isinstance(ok, np.ndarray) else ok


@dataclass(frozen=True)
class ModelParams:
    """Structural parameters of the two-sector economy.

    Sector 1 (goods) is CES in (kv, hu) with efficiency A1, distribution
    alpha1 and substitution parameter psi1; sector 2 (education) is CES in
    (k(1-v), h(1-u)). eps is the inverse intertemporal elasticity of
    substitution and rho the time-preference rate.
    """

    A1: float
    A2: float
    alpha1: float
    alpha2: float
    psi1: float
    psi2: float
    delta_k: float
    delta_h: float
    eps: float
    rho: float

    def __post_init__(self):
        # Each field is a float or, for a whole family of economies, an array;
        # an array is valid when every element is.
        for name in ("alpha1", "alpha2"):
            alpha = getattr(self, name)
            if not _all((0.0 < alpha) & (alpha < 1.0)):
                raise ParameterError(f"{name} must be in (0,1), got {alpha}")
        for name, psi in (("psi1", self.psi1), ("psi2", self.psi2)):
            if not _all(psi < 1.0):
                raise ParameterError(f"{name} must be < 1, got {psi}")
            if not _all(abs(psi) > PSI_FLOOR):
                raise ParameterError(
                    f"{name} too close to 0 (Cobb-Douglas limit not supported)"
                )
        if not _all((0.0 < self.A1) & (self.A1 < math.inf)):
            raise ParameterError(f"A1 must be positive and finite, got {self.A1}")
        # A2 = 0 (no education output) is admitted at construction; only the
        # BGP solver requires A2 > 0.
        if not _all((0.0 <= self.A2) & (self.A2 < math.inf)):
            raise ParameterError(f"A2 must be non-negative and finite, got {self.A2}")
        for name, delta in (("delta_k", self.delta_k), ("delta_h", self.delta_h)):
            if not 0.0 <= delta < math.inf:
                raise ParameterError(f"{name} must be non-negative and finite, got {delta}")
        if not 0.0 < self.rho < math.inf:
            raise ParameterError(f"rho must be positive and finite, got {self.rho}")
        if not 1.0 < self.eps < math.inf:
            raise ParameterError(
                f"eps must be finite and exceed 1 (transversality requirement), got {self.eps}"
            )
        for name, val in (("sigma1", self.sigma1), ("sigma2", self.sigma2)):
            if not _all(np.isfinite(val) & (val > 0.0)):
                raise ParameterError(f"derived {name} must be positive finite")

    @property
    def sigma1(self) -> float:
        return 1.0 / (1.0 - self.psi1)

    @property
    def sigma2(self) -> float:
        return 1.0 / (1.0 - self.psi2)

    @property
    def theta(self) -> float:
        """theta = alpha1 (1 - alpha2) / (alpha2 (1 - alpha1))."""
        return self.alpha1 * (1.0 - self.alpha2) / (self.alpha2 * (1.0 - self.alpha1))

    def with_psi(self, psi1: float, psi2: float) -> "ModelParams":
        return replace(self, psi1=psi1, psi2=psi2)


@dataclass(frozen=True)
class ReducedState:
    """Stationary coordinates (z = k/h, q = c/k, u, v) of the BGP system."""

    z: float
    q: float
    u: float
    v: float

    def __post_init__(self):
        if not self.z > 0.0:
            raise ParameterError(f"z must be positive, got {self.z}")
        if not self.q > 0.0:
            raise ParameterError(f"q must be positive, got {self.q}")
        for name, frac in (("u", self.u), ("v", self.v)):
            if not (0.0 < frac < 1.0):
                raise ParameterError(f"{name} must be strictly inside (0,1), got {frac}")

    def as_array(self) -> np.ndarray:
        return np.array([self.z, self.q, self.u, self.v], dtype=float)

    @staticmethod
    def from_array(x) -> "ReducedState":
        z, q, u, v = (float(t) for t in x)
        return ReducedState(z=z, q=q, u=u, v=v)


@dataclass(frozen=True)
class LevelState:
    """Level variables (k, h, c) plus sectoral allocations (u, v)."""

    k: float
    h: float
    c: float
    u: float
    v: float

    def __post_init__(self):
        if not self.k > 0.0:
            raise ParameterError(f"k must be positive, got {self.k}")
        if not self.h > 0.0:
            raise ParameterError(f"h must be positive, got {self.h}")
        if self.c < 0.0:
            raise ParameterError(f"c must be non-negative, got {self.c}")
        for name, frac in (("u", self.u), ("v", self.v)):
            if not (0.0 < frac < 1.0):
                raise ParameterError(f"{name} must be strictly inside (0,1), got {frac}")
