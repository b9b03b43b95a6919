"""An independent model of the two-sector CES economy, used to check cesgrowth.

It is written from the model description in the repository README and the
planner's first-order conditions, and never imports cesgrowth. Every
function works elementwise on numpy arrays or Python floats, real or
complex, so one call checks a whole batch of results, and the Jacobian of
the reduced system comes from a complex step, which has no step-size error.

Notation: in sector i a CES technology y = A H [alpha x^psi + 1 - alpha]^(1/psi)
with x = K/H, the ratio of physical to human capital used there. The goods
sector uses x1 = w = kv/(hu); the education sector x2 = k(1-v)/(h(1-u)).
"""

import math
from typing import NamedTuple

import numpy as np

PARAM_NAMES = (
    "A1", "A2", "alpha1", "alpha2", "psi1", "psi2",
    "delta_k", "delta_h", "eps", "rho",
)


class Economy(NamedTuple):
    """Structural parameters; each field is a float or an array of one shape."""

    A1: object
    A2: object
    alpha1: object
    alpha2: object
    psi1: object
    psi2: object
    delta_k: object
    delta_h: object
    eps: object
    rho: object


def economy_of(mapping) -> Economy:
    """Economy from a mapping of parameter names to values."""
    return Economy(**{name: mapping[name] for name in PARAM_NAMES})


def stack(economies) -> Economy:
    """One Economy of arrays from a sequence of scalar Economies."""
    return Economy(*(np.array(col, dtype=float) for col in zip(*economies)))


def take(e: Economy, index) -> Economy:
    """The members of an array Economy selected by index."""
    return Economy(*(np.asarray(f)[index] for f in e))


# --- one CES technology, per unit of human capital -------------------------

def _bundle(alpha, psi, x):
    return alpha * x**psi + 1.0 - alpha


def intensive_output(A, alpha, psi, x):
    """y / H = A [alpha x^psi + 1 - alpha]^(1/psi)."""
    return A * _bundle(alpha, psi, x) ** (1.0 / psi)


def marginal_product_k(A, alpha, psi, x):
    """dy/dK = A alpha x^(psi-1) [..]^(1/psi - 1)."""
    return A * alpha * x ** (psi - 1.0) * _bundle(alpha, psi, x) ** (1.0 / psi - 1.0)


def marginal_product_h(A, alpha, psi, x):
    """dy/dH = A (1 - alpha) [..]^(1/psi - 1)."""
    return A * (1.0 - alpha) * _bundle(alpha, psi, x) ** (1.0 / psi - 1.0)


def capital_share(alpha, psi, x):
    """K dy/dK / y = alpha x^psi / [alpha x^psi + 1 - alpha]."""
    return alpha * x**psi / _bundle(alpha, psi, x)


def mrs(alpha, psi, x):
    """Marginal rate of substitution dy/dH / dy/dK = (1-alpha)/alpha x^(1-psi)."""
    return (1.0 - alpha) / alpha * x ** (1.0 - psi)


def education_ratio(e: Economy, w):
    """x2 at which both sectors' marginal rates of substitution are equal."""
    m = mrs(e.alpha1, e.psi1, w)
    return (m * e.alpha2 / (1.0 - e.alpha2)) ** (1.0 / (1.0 - e.psi2))


def gap(e: Economy, w):
    """Net return on physical capital in goods minus that on human capital in education.

    Zero on the balanced growth path, where both capitals earn the same.
    """
    x2 = education_ratio(e, w)
    return (
        marginal_product_k(e.A1, e.alpha1, e.psi1, w) - e.delta_k
        - (marginal_product_h(e.A2, e.alpha2, e.psi2, x2) - e.delta_h)
    )


def gap_slope(e: Economy, w):
    """d gap / d ln w, by a complex step."""
    h = 1e-30
    return np.imag(gap(e, w * np.exp(1j * h))) / h


def balanced_path(e: Economy, w) -> dict:
    """Starred quantities in closed form at a root w of the gap.

    r from the Euler equation, u from human capital growing at r, v from
    the two sectors' capital ratios, q from physical capital growing at r.
    """
    x2 = education_ratio(e, w)
    r = (marginal_product_k(e.A1, e.alpha1, e.psi1, w) - e.delta_k - e.rho) / e.eps
    u = 1.0 - (r + e.delta_h) / intensive_output(e.A2, e.alpha2, e.psi2, x2)
    tau = w / x2
    v = tau * u / (1.0 + (tau - 1.0) * u)
    z = w * u / v
    q = intensive_output(e.A1, e.alpha1, e.psi1, w) * u / z - e.delta_k - r
    return {
        "w_star": w,
        "z_star": z,
        "q_star": q,
        "u_star": u,
        "v_star": v,
        "r_star": r,
        "tau0": tau,
        "pi1k": capital_share(e.alpha1, e.psi1, w),
        "pi2k": capital_share(e.alpha2, e.psi2, x2),
        "tvc_margin": e.rho + (e.eps - 1.0) * r,
    }


def admissible(bp: dict):
    """True where a balanced path has 0 < u*, v* < 1 and a positive transversality margin."""
    u, v = bp["u_star"], bp["v_star"]
    return (u > 0.0) & (u < 1.0) & (v > 0.0) & (v < 1.0) & (bp["tvc_margin"] > 0.0)


# The scan for the gap's roots: SCAN_POINTS on a log grid over
# [SCAN_LO, SCAN_HI], then BISECTIONS halvings of the bracket in ln w.
SCAN_LO, SCAN_HI, SCAN_POINTS = 1e-30, 1e30, 241
BISECTIONS = 80


def scan_roots(e: Economy):
    """Roots of the gap by a log-grid scan for sign changes, then bisection.

    Returns (w, n_sign_changes). w is nan where the scan finds no sign
    change; where it finds several, w is the first.
    """
    grid = np.exp(np.linspace(math.log(SCAN_LO), math.log(SCAN_HI), SCAN_POINTS))
    shape = np.shape(e.A1)
    with np.errstate(all="ignore"):
        vals = np.stack([gap(e, np.full(shape, g)) for g in grid], axis=-1)
    sign = np.sign(vals)
    changes = (sign[..., :-1] * sign[..., 1:]) < 0
    count = changes.sum(axis=-1)
    first = np.argmax(changes, axis=-1)
    a = grid[first]
    b = grid[first + 1]
    fa = np.take_along_axis(vals, first[..., None], axis=-1)[..., 0]
    with np.errstate(all="ignore"):
        for _ in range(BISECTIONS):
            mid = np.sqrt(a * b)
            fm = gap(e, mid)
            left = np.sign(fm) == np.sign(fa)
            a = np.where(left, mid, a)
            fa = np.where(left, fm, fa)
            b = np.where(left, b, mid)
    w = np.where(count > 0, np.sqrt(a * b), np.nan)
    return w, count


def root_offset(e: Economy, w):
    """Relative distance from w to the gap's root, by one Newton step in ln w."""
    return gap(e, w) / gap_slope(e, w)


# --- reduced dynamics in (z, q, u, v) --------------------------------------

def reduced_rhs(e: Economy, z, q, u, v):
    """(zdot, qdot, udot, vdot) from the planner's conditions.

    The relative price of human capital p = mu/lambda equals MPK1/MPK2, a
    function of w alone, and grows at the net-return gap. So
    wdot/w = gap / (d ln p / d ln w) = gap / ((1-psi1)(pi1 - pi2)), and x2
    moves with w through the equal-rate condition. u and v then follow
    from differentiating w = zv/u and x2 = z(1-v)/(1-u).
    """
    w = z * v / u
    x2 = education_ratio(e, w)
    k_growth = intensive_output(e.A1, e.alpha1, e.psi1, w) * u / z - q - e.delta_k
    h_growth = intensive_output(e.A2, e.alpha2, e.psi2, x2) * (1.0 - u) - e.delta_h
    c_growth = (marginal_product_k(e.A1, e.alpha1, e.psi1, w) - e.delta_k - e.rho) / e.eps
    z_rate = k_growth - h_growth
    q_rate = c_growth - k_growth
    pi1 = capital_share(e.alpha1, e.psi1, w)
    pi2 = capital_share(e.alpha2, e.psi2, x2)
    w_rate = gap(e, w) / ((1.0 - e.psi1) * (pi1 - pi2))
    x2_rate = (1.0 - e.psi1) / (1.0 - e.psi2) * w_rate
    e1 = w_rate - z_rate
    e2 = x2_rate - z_rate
    u_rate = (e2 * (1.0 - v) + e1 * v) * (1.0 - u) / (u - v)
    v_rate = u_rate + e1
    return z * z_rate, q * q_rate, u * u_rate, v * v_rate


def reduced_rhs_array(e: Economy, x):
    """reduced_rhs on states stacked along the last axis, shape (..., 4)."""
    return np.stack(reduced_rhs(e, x[..., 0], x[..., 1], x[..., 2], x[..., 3]), axis=-1)


def jacobian(e: Economy, x):
    """Jacobian of reduced_rhs at states x of shape (..., 4), by complex step."""
    x = np.asarray(x, dtype=float)
    h = 1e-30
    cols = []
    for j in range(4):
        xc = x.astype(complex)
        xc[..., j] += 1j * h
        with np.errstate(all="ignore"):
            cols.append(np.imag(reduced_rhs_array(e, xc)) / h)
    return np.stack(cols, axis=-1)


def capital_growth(e: Economy, z, q, u, v):
    """kdot/k = y1/k - c/k - delta_k along a path."""
    w = z * v / u
    return intensive_output(e.A1, e.alpha1, e.psi1, w) * u / z - q - e.delta_k


def capital_growth_slope(e: Economy, x):
    """d/dt of capital_growth along the dynamics at states x of shape (..., 4), by complex step."""
    x = np.asarray(x, dtype=float)
    h = 1e-30
    with np.errstate(all="ignore"):
        xc = x + 1j * h * reduced_rhs_array(e, x)
        return np.imag(capital_growth(e, xc[..., 0], xc[..., 1], xc[..., 2], xc[..., 3])) / h


RK4_SUBSTEPS = 4


def rk4_steps(e: Economy, x0, dt):
    """Integrate reduced_rhs from states x0 over times dt, all in one batch.

    x0 has shape (n, 4) and dt shape (n,); the fields of e broadcast over n.
    Each interval takes RK4_SUBSTEPS classical Runge-Kutta steps.
    """
    x = np.asarray(x0, dtype=float)
    h = (np.asarray(dt, dtype=float) / RK4_SUBSTEPS)[:, None]
    for _ in range(RK4_SUBSTEPS):
        k1 = reduced_rhs_array(e, x)
        k2 = reduced_rhs_array(e, x + 0.5 * h * k1)
        k3 = reduced_rhs_array(e, x + 0.5 * h * k2)
        k4 = reduced_rhs_array(e, x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


# --- normalized CES families -------------------------------------------------

def psi_of_sigma(sigma):
    return (sigma - 1.0) / sigma


class Anchor(NamedTuple):
    """The point every member of a normalized family passes through."""

    x1: float
    x2: float
    m: float
    y1: float
    y2: float
    h_goods: float
    h_education: float


def anchor_at(e: Economy, k, h, u, v) -> Anchor:
    """Anchor a family at the input point (k, h, u, v) of economy e.

    The common marginal rate of substitution is the goods sector's.
    """
    x1 = k * v / (h * u)
    x2 = k * (1.0 - v) / (h * (1.0 - u))
    return Anchor(
        x1=x1,
        x2=x2,
        m=mrs(e.alpha1, e.psi1, x1),
        y1=h * u * intensive_output(e.A1, e.alpha1, e.psi1, x1),
        y2=h * (1.0 - u) * intensive_output(e.A2, e.alpha2, e.psi2, x2),
        h_goods=h * u,
        h_education=h * (1.0 - u),
    )


def member_technology(anchor: Anchor, sector: int, sigma):
    """(A, alpha, psi) of the member whose MRS and output at the anchor match it."""
    psi = psi_of_sigma(sigma)
    x = anchor.x1 if sector == 1 else anchor.x2
    y = anchor.y1 if sector == 1 else anchor.y2
    labour = anchor.h_goods if sector == 1 else anchor.h_education
    # (1 - alpha)/alpha x^(1-psi) = m
    alpha = x ** (1.0 - psi) / (x ** (1.0 - psi) + anchor.m)
    A = y / (labour * _bundle(alpha, psi, x) ** (1.0 / psi))
    return A, alpha, psi


def member(template: Economy, anchor: Anchor, sigma1, sigma2) -> Economy:
    """Family member at (sigma1, sigma2); preferences and depreciation from template."""
    A1, alpha1, psi1 = member_technology(anchor, 1, sigma1)
    A2, alpha2, psi2 = member_technology(anchor, 2, sigma2)
    return template._replace(
        A1=A1, alpha1=alpha1, psi1=psi1, A2=A2, alpha2=alpha2, psi2=psi2
    )


def outputs_at(e: Economy, k, h, u, v):
    """(y1, y2) at an input point."""
    x1 = k * v / (h * u)
    x2 = k * (1.0 - v) / (h * (1.0 - u))
    return (
        h * u * intensive_output(e.A1, e.alpha1, e.psi1, x1),
        h * (1.0 - u) * intensive_output(e.A2, e.alpha2, e.psi2, x2),
    )
