"""Reduced 4-D dynamics, Jacobian, eigenvalues and saddle-path classification."""

import cmath
import math
from dataclasses import dataclass

from .core import UV_GAP_FLOOR, aux_from_wuv
from .errors import ParameterError, SingularStateError
from .params import ModelParams, ReducedState
from .steady import SteadyState, steady_state

# Eigenvalues this close to zero (real part) count as structurally zero.
TOL_ZERO = 1e-3
# Cap on the Newton steps that polish each root in eigen4.
MAX_POLISH_STEPS = 8


def rhs_reduced(state: ReducedState, params: ModelParams) -> tuple:
    """Time derivatives (zdot, qdot, udot, vdot) of the stationary coordinates."""
    return rhs_reduced_values(state.z, state.q, state.u, state.v, params)


def rhs_reduced_values(
    z: float, q: float, u: float, v: float, params: ModelParams
) -> tuple:
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
    return zdot, qdot, udot, vdot


def jacobian_fd(state: ReducedState, params: ModelParams) -> tuple:
    """Complex-step Jacobian of rhs_reduced, as four rows of floats.

    Column i is Im rhs(x + i h e_i) / h with h = 1e-20 (Squire & Trapp,
    SIAM Review 40, 1998): no subtraction, so the error is at rounding
    level and independent of h, from one rhs evaluation per column.
    """
    h = 1e-20
    x = [float(state.z), float(state.q), float(state.u), float(state.v)]
    columns = []
    for i in range(4):
        xi = list(x)
        xi[i] += h * 1j
        columns.append([f.imag / h for f in rhs_reduced_values(*xi, params)])
    return tuple(zip(*columns))


def _roots2(b: float, c: float) -> list:
    """Roots of x^2 + b x + c: two floats, or a complex pair."""
    disc = b * b - 4.0 * c
    if disc < 0.0:
        x = complex(-0.5 * b, 0.5 * math.sqrt(-disc))
        return [x, x.conjugate()]
    t = -0.5 * (b + math.copysign(math.sqrt(disc), b))  # no cancellation
    return [t, c / t] if t else [0.0, 0.0]


def _largest_root3(b: float, c: float, d: float) -> float:
    """Largest real root of y^3 + b y^2 + c y + d, polished by Newton steps."""
    p = c - b * b / 3.0
    q = (2.0 * b * b / 27.0 - c / 3.0) * b + d
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc > 0.0:  # one real root (Cardano)
        a = -0.5 * q - math.copysign(math.sqrt(disc), q)
        a = math.copysign(abs(a) ** (1.0 / 3.0), a)
        t = a - p / (3.0 * a)
    elif p < 0.0:  # three real roots (Viete)
        r = math.sqrt(-p / 3.0)
        t = 2.0 * r * math.cos(math.acos(max(-1.0, min(1.0, 1.5 * q / (p * r)))) / 3.0)
    else:
        t = 0.0
    y = t - b / 3.0
    for _ in range(MAX_POLISH_STEPS):
        df = (3.0 * y + 2.0 * b) * y + c
        if not df:
            break
        step = (((y + b) * y + c) * y + d) / df
        y -= step
        if abs(step) <= 1e-16 * abs(y):
            break
    return y


def _polish(t, p: float, q: float, r: float):
    """Newton steps on t^4 + p t^2 + q t + r from t, while they shrink |f|;
    a float stays a float and a complex number stays complex."""
    f = ((t * t + p) * t + q) * t + r
    for _ in range(MAX_POLISH_STEPS):
        df = (4.0 * t * t + 2.0 * p) * t + q
        if not (f and df):
            break
        t_new = t - f / df
        f_new = ((t_new * t_new + p) * t_new + q) * t_new + r
        if not abs(f_new) < abs(f):
            break
        t, f = t_new, f_new
    return t


def eigen4(matrix) -> tuple:
    """Eigenvalues of a real 4x4 matrix as complex numbers, sorted by (real, imag).

    The matrix is scaled by a power of two, which is exact, so that no
    coefficient overflows, and shifted by a quarter of its trace. The
    shifted matrix's characteristic polynomial t^4 + p t^2 + q t + r comes
    from its principal minors: p is the sum of the 2x2 ones, -q that of
    the 3x3 ones and r the determinant; the t^3 term is minus the trace,
    zero up to rounding. Ferrari's method splits the quartic into two real
    quadratics through the largest root of its resolvent cubic, and Newton
    steps on the quartic polish each root. A real eigenvalue comes back
    with imaginary part +0.0, and complex ones as exact conjugate pairs.

    A simple eigenvalue is then as accurate as the rounded coefficients
    allow; an eigenvalue of multiplicity m only to about 1e-16^(1/m)
    relative, as on any route through the characteristic polynomial.
    """
    try:
        lengths = list(map(len, matrix))
        flat = [float(x) for row in matrix for x in row]
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"expected a 4x4 matrix of numbers: {exc}") from None
    if lengths != [4, 4, 4, 4]:
        raise ParameterError(f"expected a 4x4 matrix, got rows of lengths {lengths}")
    if not all(map(math.isfinite, flat)):
        raise ParameterError("matrix entries must be finite")
    scale = 2.0 ** math.frexp(max(map(abs, flat)))[1]
    (a00, a01, a02, a03, a10, a11, a12, a13,
     a20, a21, a22, a23, a30, a31, a32, a33) = [x / scale for x in flat]
    # The shift removes the cancellation a spectrum far from zero would
    # bring to the coefficients.
    shift = 0.25 * (a00 + a11 + a22 + a33)
    a00, a11, a22, a33 = a00 - shift, a11 - shift, a22 - shift, a33 - shift
    # 2x2 minors of rows (0, 1) and of rows (2, 3), by their column pair.
    m01, m02, m03 = a00 * a11 - a01 * a10, a00 * a12 - a02 * a10, a00 * a13 - a03 * a10
    m12, m13, m23 = a01 * a12 - a02 * a11, a01 * a13 - a03 * a11, a02 * a13 - a03 * a12
    n01, n02, n03 = a20 * a31 - a21 * a30, a20 * a32 - a22 * a30, a20 * a33 - a23 * a30
    n12, n13, n23 = a21 * a32 - a22 * a31, a21 * a33 - a23 * a31, a22 * a33 - a23 * a32
    p = (m01 + n23 + (a00 * a22 - a02 * a20) + (a00 * a33 - a03 * a30)
         + (a11 * a22 - a12 * a21) + (a11 * a33 - a13 * a31))
    q = -(a22 * m01 - a21 * m02 + a20 * m12 + a33 * m01 - a31 * m03 + a30 * m13
          + a00 * n23 - a02 * n03 + a03 * n02 + a11 * n23 - a12 * n13 + a13 * n12)
    r = m01 * n23 - m02 * n13 + m03 * n12 + m12 * n03 - m13 * n02 + m23 * n01
    # The quartic is (t^2 + s t + m - q/(2s)) (t^2 - s t + m + q/(2s)) with
    # s^2 = y and m = (y + p)/2, y a root of y^3 + 2p y^2 + (p^2 - 4r) y - q^2.
    y = _largest_root3(2.0 * p, p * p - 4.0 * r, -q * q)
    if y > 0.0:
        s, m = math.sqrt(y), 0.5 * (y + p)
        ts = _roots2(s, m - 0.5 * q / s) + _roots2(-s, m + 0.5 * q / s)
    else:  # q = 0: a quadratic in t^2
        ts = [sign * cmath.sqrt(t2) for t2 in _roots2(p, r) for sign in (1.0, -1.0)]
    roots = []
    for t in ts:
        if not t.imag:
            roots.append(complex((shift + _polish(t.real, p, q, r)) * scale, 0.0))
        elif t.imag > 0.0:
            x = (shift + _polish(t, p, q, r)) * scale
            roots += [x, x.conjugate()]
    return tuple(sorted(roots, key=lambda x: (x.real, x.imag)))


@dataclass(frozen=True)
class StabilityReport:
    """Jacobian (four rows), spectrum and classification at the steady state."""

    steady: SteadyState
    jacobian: tuple
    eigenvalues: tuple
    n_stable: int
    n_zero: int
    classification: str


def classify(eigenvalues) -> tuple[int, int, str]:
    re = [x.real for x in eigenvalues]
    n_stable = len([x for x in re if x < -TOL_ZERO])
    n_zero = len([x for x in re if -TOL_ZERO <= x <= TOL_ZERO])
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
