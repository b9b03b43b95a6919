"""Reduced 4-D dynamics, Jacobian, eigenvalues and saddle-path classification."""

from dataclasses import dataclass

import numpy as np

from .core import UV_GAP_FLOOR, aux_from_wuv
from .errors import NoConvergenceError, ParameterError, SingularStateError
from .params import ModelParams, ReducedState
from .steady import SteadyState, steady_state

# Eigenvalues this close to zero (real part) count as structurally zero.
TOL_ZERO = 1e-3


def rhs_reduced(state: ReducedState, params: ModelParams) -> np.ndarray:
    """Time derivatives (zdot, qdot, udot, vdot) of the stationary coordinates."""
    return rhs_reduced_values(state.z, state.q, state.u, state.v, params)


def rhs_reduced_values(
    z: float, q: float, u: float, v: float, params: ModelParams
) -> np.ndarray:
    """rhs_reduced on raw coordinates, without the (0,1) box restriction.

    The reduced equations only involve powers of w = (v/u) z and the
    allocations linearly, so they extend smoothly past u = 1 or v = 1;
    the stable manifold can traverse that region. Complex coordinates,
    as jacobian_fd passes them, run the same code.
    """
    if abs(u - v) < UV_GAP_FLOOR:
        raise SingularStateError(f"u - v = {u - v} too small", state=(z, q, u, v))
    if u == 0.0 or (v / u * z).real <= 0.0:
        raise SingularStateError(f"w = (v/u) z not positive at u={u}, v={v}, z={z}",
                                 state=(z, q, u, v))
    bun = aux_from_wuv(v / u * z, u, v, params)
    if bun.singular:
        raise SingularStateError(f"R = {bun.R} vanishes", state=(z, q, u, v))

    zdot = -(bun.D + q) * z
    qdot = (
        q
        - params.A1 * bun.H / params.eps
        - (params.rho - (params.eps - 1.0) * params.delta_k) / params.eps
    ) * q
    udot = (bun.D + q + bun.G2 * bun.Q * bun.P / bun.R) * u * (1.0 - u) / (u - v)
    vdot = (bun.D + q + bun.G1 * bun.Q * bun.P / bun.R) * v * (1.0 - v) / (u - v)
    return np.array([zdot, qdot, udot, vdot])


def jacobian_fd(state: ReducedState, params: ModelParams) -> np.ndarray:
    """Complex-step Jacobian of rhs_reduced.

    Column i is Im rhs(x + i h e_i) / h with h = 1e-20 (Squire & Trapp,
    SIAM Review 40, 1998): no subtraction, so the error is at rounding
    level and independent of h, from one rhs evaluation per column.
    """
    h = 1e-20
    x = state.as_array().tolist()
    jac = np.empty((4, 4))
    for i in range(4):
        xi = list(x)
        xi[i] += h * 1j
        jac[:, i] = rhs_reduced_values(*xi, params).imag / h
    return jac


def eigen4(matrix) -> np.ndarray:
    """Eigenvalues of a real 4x4 matrix, sorted by (real, imag) ascending.

    Backed by LAPACK's Hessenberg-reduction + shifted-QR driver; a failed
    iteration surfaces as NoConvergenceError.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (4, 4):
        raise ParameterError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ParameterError("matrix entries must be finite")
    try:
        ev = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


@dataclass(frozen=True)
class StabilityReport:
    """Jacobian, spectrum and classification at the steady state."""

    steady: SteadyState
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    n_stable: int
    n_zero: int
    classification: str


def classify(eigenvalues: np.ndarray) -> tuple[int, int, str]:
    re = np.real(eigenvalues)
    n_stable = int(np.sum(re < -TOL_ZERO))
    n_zero = int(np.sum(np.abs(re) <= TOL_ZERO))
    if n_stable == 1:
        label = "saddle_path"
    elif n_stable == len(re):
        label = "sink"
    elif n_stable == 0:
        label = "source"
    else:
        label = "degenerate"
    return n_stable, n_zero, label


def stability_report(params: ModelParams) -> StabilityReport:
    """Solve the BGP, linearize around it and classify the local dynamics."""
    ss = steady_state(params)
    state = ReducedState(z=ss.z_star, q=ss.q_star, u=ss.u_star, v=ss.v_star)
    jac = jacobian_fd(state, params)
    ev = eigen4(jac)
    n_stable, n_zero, label = classify(ev)
    return StabilityReport(
        steady=ss,
        jacobian=jac,
        eigenvalues=ev,
        n_stable=n_stable,
        n_zero=n_zero,
        classification=label,
    )
