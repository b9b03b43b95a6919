"""Parameter and state records for the two-sector CES economy."""

import math
import operator
from functools import cached_property
from typing import NamedTuple

from .errors import ParameterError

# Cobb-Douglas limit is excluded: |psi| below this raises instead of
# taking the sigma = 1 limit.
PSI_FLOOR = 1e-9


def is_array(x) -> bool:
    """Whether x is an array, told without importing numpy: an array has
    ndim >= 1, numpy scalars have ndim 0 and Python numbers no ndim."""
    return getattr(x, "ndim", 0) > 0


def _all(ok) -> bool:
    """ok itself, or whether every element holds when it is an array."""
    return ok.all() if is_array(ok) else ok


def _as_float(x):
    """x as a Python float when it is a 0-d number; anything else as given."""
    if type(x) is float or is_array(x) or not hasattr(x, "__float__"):
        return x
    return float(x)


class Checked:
    """Base of a record that validates every instance it builds.

    A record is a NamedTuple of its fields, subclassed by one that also
    derives from Checked and defines _check, which raises ParameterError.
    The constructor, _make and so _replace all go through _check: the
    plain NamedTuple's _make and _replace build through tuple.__new__ and
    would skip it. Assigning any attribute raises AttributeError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: "
                             f"{type(self).__name__} is immutable")


class _ModelParamsFields(NamedTuple):
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


class ModelParams(Checked, _ModelParamsFields):
    """Structural parameters of the two-sector economy.

    Sector 1 (goods) is CES in (kv, hu) with efficiency A1, distribution
    alpha1 and substitution parameter psi1; sector 2 (education) is CES in
    (k(1-v), h(1-u)). eps is the inverse intertemporal elasticity of
    substitution and rho the time-preference rate.

    Unlike the other records it has an instance __dict__, which holds the
    cached kernel constants theta and s2_terms. A field given as a 0-d
    number (a numpy scalar, say) is stored as a Python float, so the
    kernel runs in float arithmetic; an array is stored as given.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if set(map(type, self)) == {float}:
            return self
        fields = list(map(_as_float, self))
        if all(map(operator.is_, fields, self)):  # floats and arrays only
            return self
        return super().__new__(cls, *fields)

    def _check(self):
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
            if not _all((0.0 < val) & (val < math.inf)):
                raise ParameterError(f"derived {name} must be positive finite")

    @property
    def sigma1(self) -> float:
        return 1.0 / (1.0 - self.psi1)

    @property
    def sigma2(self) -> float:
        return 1.0 / (1.0 - self.psi2)

    # Per-economy constants of the kernel, computed on first use: the
    # record is immutable, so they never go stale.
    @cached_property
    def theta(self) -> float:
        """theta = alpha1 (1 - alpha2) / (alpha2 (1 - alpha1))."""
        return self.alpha1 * (1.0 - self.alpha2) / (self.alpha2 * (1.0 - self.alpha1))

    @cached_property
    def s2_terms(self) -> tuple:
        """(alpha2 theta^{-psi2/(1-psi2)}, psi2 (1-psi1)/(1-psi2)): the factor
        and the exponent of w in the education share term S2."""
        psi1, psi2 = self.psi1, self.psi2
        return (
            self.alpha2 * self.theta ** (-psi2 / (1.0 - psi2)),
            psi2 * (1.0 - psi1) / (1.0 - psi2),
        )

    def with_psi(self, psi1: float, psi2: float) -> "ModelParams":
        return self._replace(psi1=psi1, psi2=psi2)


class _ReducedStateFields(NamedTuple):
    z: float
    q: float
    u: float
    v: float


class ReducedState(Checked, _ReducedStateFields):
    """Stationary coordinates (z = k/h, q = c/k, u, v) of the BGP system."""

    __slots__ = ()

    def _check(self):
        if not self.z > 0.0:
            raise ParameterError(f"z must be positive, got {self.z}")
        if not self.q > 0.0:
            raise ParameterError(f"q must be positive, got {self.q}")
        for name, frac in (("u", self.u), ("v", self.v)):
            if not (0.0 < frac < 1.0):
                raise ParameterError(f"{name} must be strictly inside (0,1), got {frac}")

    def as_array(self):
        """(z, q, u, v) as a numpy array."""
        import numpy as np

        return np.array([self.z, self.q, self.u, self.v], dtype=float)

    @staticmethod
    def from_array(x) -> "ReducedState":
        z, q, u, v = (float(t) for t in x)
        return ReducedState(z=z, q=q, u=u, v=v)


class _LevelStateFields(NamedTuple):
    k: float
    h: float
    c: float
    u: float
    v: float


class LevelState(Checked, _LevelStateFields):
    """Level variables (k, h, c) plus sectoral allocations (u, v)."""

    __slots__ = ()

    def _check(self):
        if not self.k > 0.0:
            raise ParameterError(f"k must be positive, got {self.k}")
        if not self.h > 0.0:
            raise ParameterError(f"h must be positive, got {self.h}")
        if self.c < 0.0:
            raise ParameterError(f"c must be non-negative, got {self.c}")
        for name, frac in (("u", self.u), ("v", self.v)):
            if not (0.0 < frac < 1.0):
                raise ParameterError(f"{name} must be strictly inside (0,1), got {frac}")
