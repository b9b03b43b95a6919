"""Normalized CES families and comparative statics in the elasticities.

A Baseline anchors a one-parameter family of CES technologies per sector:
every member shares the baseline input point, baseline output and marginal
rate of substitution, so that differences across members isolate the
elasticity of substitution.
"""

import math
from dataclasses import dataclass, replace

from .core import tau_of, y1_of, y2_of
from .errors import BaselineMismatchError, MrsMismatchError, ParameterError
from .params import ModelParams, is_array
from .steady import steady_state

MRS_MATCH_RTOL = 1e-6

# Elasticity grids stay clear of sigma = 1 (psi = 0).
SIGMA_GUARD = 1e-3


def _any(bad) -> bool:
    """bad itself, or whether any element holds when it is an array."""
    return bad.any() if is_array(bad) else bad


def _first(sigma, bad):
    """The first sigma that bad flags: sigma itself when it is a float."""
    return sigma[bad][0] if is_array(bad) else sigma


def psi_of_sigma(sigma):
    """psi = (sigma - 1) / sigma of a float, or of each element of an array."""
    bad = sigma <= 0.0
    if _any(bad):
        raise ParameterError(f"sigma must be positive, got {_first(sigma, bad)}")
    bad = abs(sigma - 1.0) < SIGMA_GUARD
    if _any(bad):
        raise ParameterError(
            f"sigma = {_first(sigma, bad)} is inside the unit guard band "
            "(Cobb-Douglas excluded)"
        )
    return (sigma - 1.0) / sigma


@dataclass(frozen=True)
class Baseline:
    """Normalization anchor: common point, outputs and MRS of the family."""

    w_bar: float
    tau_bar: float
    m: float
    y1_bar: float
    y2_bar: float
    k_bar: float
    h_bar: float
    u_bar: float
    v_bar: float

    def __post_init__(self):
        for name in ("w_bar", "tau_bar", "m", "y1_bar", "y2_bar", "k_bar", "h_bar"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be positive")
        for name in ("u_bar", "v_bar"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ParameterError(f"{name} must be in (0,1)")
        tau = tau_of(self.u_bar, self.v_bar)
        if abs(tau - self.tau_bar) > 1e-12 * max(1.0, abs(tau)):
            raise ParameterError(
                f"tau_bar {self.tau_bar} inconsistent with allocations (expect {tau})"
            )
        w = self.k_bar * self.v_bar / (self.h_bar * self.u_bar)
        if abs(w - self.w_bar) > 1e-12 * max(1.0, abs(w)):
            raise ParameterError(
                f"w_bar {self.w_bar} inconsistent with stocks (expect {w})"
            )

    def effective_ratio(self, sector: int) -> float:
        """Baseline input ratio of a sector: w_bar, or w_bar/tau_bar."""
        _check_sector(sector)
        return self.w_bar if sector == 1 else self.w_bar / self.tau_bar


def _check_sector(sector: int):
    if sector not in (1, 2):
        raise ParameterError(f"sector must be 1 or 2, got {sector}")


def _mrs(alpha: float, psi: float, x: float) -> float:
    """A CES sector's marginal rate of substitution at input ratio x."""
    return (1.0 - alpha) / alpha * x ** (1.0 - psi)


def mrs_from_params(params: ModelParams, w_bar: float, tau_bar: float) -> tuple:
    """Sectoral marginal rates of substitution (m1, m2) at the baseline point.

    m1 is taken at the goods-sector ratio w_bar, m2 at the education-sector
    ratio w_bar/tau_bar. Interior optimality requires m1 = m2.
    """
    if w_bar <= 0.0 or tau_bar <= 0.0:
        raise ParameterError("w_bar and tau_bar must be positive")
    m1 = _mrs(params.alpha1, params.psi1, w_bar)
    m2 = _mrs(params.alpha2, params.psi2, w_bar / tau_bar)
    if abs(m1 - m2) > MRS_MATCH_RTOL * max(abs(m1), abs(m2)):
        raise MrsMismatchError(
            f"sectoral marginal rates disagree: m1={m1}, m2={m2}", m1=m1, m2=m2
        )
    return m1, m2


def baseline_from_point(
    params: ModelParams,
    k: float,
    h: float,
    u: float,
    v: float,
    require_mrs_match: bool = False,
) -> Baseline:
    """Anchor a family at an arbitrary interior point of one economy.

    m is taken from sector 1. Away from an interior optimum the sectoral
    rates differ; pass require_mrs_match=True to reject such points.
    """
    if k <= 0.0 or h <= 0.0:
        raise ParameterError("k and h must be positive")
    tau = tau_of(u, v)
    w = k * v / (h * u)
    if require_mrs_match:
        m, _ = mrs_from_params(params, w, tau)
    else:
        m = _mrs(params.alpha1, params.psi1, w)
    return Baseline(
        w_bar=w,
        tau_bar=tau,
        m=m,
        y1_bar=y1_of(k, h, u, v, params),
        y2_bar=y2_of(k, h, u, v, params),
        k_bar=k,
        h_bar=h,
        u_bar=u,
        v_bar=v,
    )


def baseline_from_steady_state(params: ModelParams, k_bar: float = 1.0) -> Baseline:
    """Anchor a family at an economy's own balanced growth path.

    Only ratios matter downstream; k_bar fixes the level scale.
    """
    ss = steady_state(params)
    return baseline_from_point(
        params,
        k=k_bar,
        h=k_bar / ss.z_star,
        u=ss.u_star,
        v=ss.v_star,
        require_mrs_match=True,
    )


def family_parameters(sigma, baseline: Baseline, sector: int) -> tuple:
    """(psi, alpha, A) of a sector's normalized family at sigma, unchecked.

    sigma is a float or an array, read elementwise, with no element inside
    the sigma = 1 guard band. alpha = x^{1-psi} / (x^{1-psi} + m) and
    A = scale ((x^{1-psi} + m) / (x + m))^{1/psi}, with x the baseline
    input ratio. A member whose powers overflow holds inf or nan in an
    array; a float raises OverflowError.
    """
    psi = (sigma - 1.0) / sigma
    x = baseline.effective_ratio(sector)
    if sector == 1:
        scale = baseline.y1_bar / (baseline.h_bar * baseline.u_bar)
    else:
        scale = baseline.y2_bar / (baseline.h_bar * (1.0 - baseline.u_bar))
    num = x ** (1.0 - psi)
    alpha = num / (num + baseline.m)
    A = scale * ((num + baseline.m) / (x + baseline.m)) ** (1.0 / psi)
    return psi, alpha, A


def _checked_family(sigma, baseline: Baseline, sector: int) -> tuple:
    """family_parameters, with a ParameterError naming the first sigma that
    lies outside the family's domain or whose parameters are not finite."""
    psi_of_sigma(sigma)
    try:
        psi, alpha, A = family_parameters(sigma, baseline, sector)
    except OverflowError:
        psi, alpha, A = math.nan, math.nan, math.nan
    finite = (abs(alpha) < math.inf) & (abs(A) < math.inf)
    bad = ~finite if is_array(finite) else not finite
    if _any(bad):
        raise ParameterError(
            f"normalized sector-{sector} parameters overflow at sigma = "
            f"{_first(sigma, bad)}"
        )
    return psi, alpha, A


def alpha_of_sigma(sigma, baseline: Baseline, sector: int):
    """Normalized distribution parameter: x^{1-psi} / (x^{1-psi} + m)."""
    return _checked_family(sigma, baseline, sector)[1]


def A_of_sigma(sigma, baseline: Baseline, sector: int):
    """Normalized efficiency parameter of the requested sector."""
    return _checked_family(sigma, baseline, sector)[2]


def normalized_params(
    sigma1, sigma2, baseline: Baseline, template: ModelParams
) -> ModelParams:
    """Member of the normalized family at (sigma1, sigma2).

    Preferences and depreciation come from the template; technologies are
    regenerated from the baseline. sigma1 and sigma2 are floats or arrays;
    with arrays the record holds one economy per element.
    """
    psi1, alpha1, A1 = _checked_family(sigma1, baseline, 1)
    psi2, alpha2, A2 = _checked_family(sigma2, baseline, 2)
    return replace(
        template, A1=A1, A2=A2, alpha1=alpha1, alpha2=alpha2, psi1=psi1, psi2=psi2
    )


def _current_ratio(sector: int, w: float, tau: float | None) -> float:
    _check_sector(sector)
    if w <= 0.0:
        raise ParameterError(f"w must be positive, got {w}")
    if sector == 1:
        return w
    if tau is None or tau <= 0.0:
        raise ParameterError("sector 2 requires a positive tau")
    return w / tau


def share_pi(
    sigma: float, baseline: Baseline, sector: int, w: float, tau: float | None = None
) -> float:
    """Physical-capital share pi = x_bar^{1-psi} x^psi / (x_bar^{1-psi} x^psi + m)."""
    psi = psi_of_sigma(sigma)
    x_bar = baseline.effective_ratio(sector)
    x = _current_ratio(sector, w, tau)
    num = x_bar ** (1.0 - psi) * x ** psi
    return num / (num + baseline.m)


def share_pi_bar(baseline: Baseline, sector: int) -> float:
    """Baseline share x_bar / (x_bar + m); independent of sigma."""
    x_bar = baseline.effective_ratio(sector)
    return x_bar / (x_bar + baseline.m)


def normalized_y(
    sigma: float,
    baseline: Baseline,
    sector: int,
    k: float,
    h: float,
    u: float,
    v: float,
) -> float:
    """Sector output of the family member at (k, h, u, v).

    Share form: y1 = y1_bar * (hu)/(h_bar u_bar) * (w/w_bar)
    * (pi_bar/pi)^{1/psi}; the sector-2 analogue carries tau_bar/tau.
    Numerically identical to the direct CES evaluation with the
    normalized (alpha, A).
    """
    psi = psi_of_sigma(sigma)
    _check_sector(sector)
    if k <= 0.0 or h <= 0.0:
        raise ParameterError("k and h must be positive")
    w = k * v / (h * u)
    tau = tau_of(u, v)
    pi = share_pi(sigma, baseline, sector, w, tau)
    pi_bar = share_pi_bar(baseline, sector)
    if sector == 1:
        return (
            baseline.y1_bar
            * (h * u)
            / (baseline.h_bar * baseline.u_bar)
            * (w / baseline.w_bar)
            * (pi_bar / pi) ** (1.0 / psi)
        )
    return (
        baseline.y2_bar
        * (h * (1.0 - u))
        / (baseline.h_bar * (1.0 - baseline.u_bar))
        * (w / baseline.w_bar)
        * (baseline.tau_bar / tau)
        * (pi_bar / pi) ** (1.0 / psi)
    )


def identity_wwb(
    sigma: float, baseline: Baseline, sector: int, w: float, tau: float | None = None
) -> float:
    """Residual of (x/x_bar)^psi = pi(1-pi_bar) / (pi_bar(1-pi)); zero identically."""
    psi = psi_of_sigma(sigma)
    x_bar = baseline.effective_ratio(sector)
    x = _current_ratio(sector, w, tau)
    pi = share_pi(sigma, baseline, sector, w, tau)
    pi_bar = share_pi_bar(baseline, sector)
    lhs = (x / x_bar) ** psi
    rhs = pi * (1.0 - pi_bar) / (pi_bar * (1.0 - pi))
    return lhs - rhs


def dpi_dpsi(
    sigma: float, baseline: Baseline, sector: int, w: float, tau: float | None = None
) -> float:
    """d pi / d psi = pi (1 - pi) ln(x / x_bar)."""
    pi = share_pi(sigma, baseline, sector, w, tau)
    x_bar = baseline.effective_ratio(sector)
    x = _current_ratio(sector, w, tau)
    return pi * (1.0 - pi) * math.log(x / x_bar)


def dy_dpsi(
    sigma: float,
    baseline: Baseline,
    sector: int,
    k: float,
    h: float,
    u: float,
    v: float,
) -> float:
    """d y / d psi = -(1/psi^2) y [pi ln(pi_bar/pi) + (1-pi) ln((1-pi_bar)/(1-pi))].

    Strictly positive whenever pi differs from pi_bar (log concavity).
    """
    psi = psi_of_sigma(sigma)
    w = k * v / (h * u)
    tau = tau_of(u, v)
    y = normalized_y(sigma, baseline, sector, k, h, u, v)
    pi = share_pi(sigma, baseline, sector, w, tau)
    pi_bar = share_pi_bar(baseline, sector)
    bracket = pi * math.log(pi_bar / pi) + (1.0 - pi) * math.log(
        (1.0 - pi_bar) / (1.0 - pi)
    )
    return -y * bracket / psi**2


def r_star_closed_form(
    sigma1: float, baseline: Baseline, params: ModelParams, pi1_star: float
) -> float:
    """r*(sigma1) = (1/eps)[y1_bar/(k_bar v_bar) pi1_bar (pi1_bar/pi1*)^{(1-psi1)/psi1} - rho - dk]."""
    psi = psi_of_sigma(sigma1)
    pi_bar = share_pi_bar(baseline, 1)
    scale = baseline.y1_bar / (baseline.k_bar * baseline.v_bar)
    return (
        scale * pi_bar * (pi_bar / pi1_star) ** ((1.0 - psi) / psi)
        - params.rho
        - params.delta_k
    ) / params.eps


def steady_share_pi1(sigma1: float, baseline: Baseline, params: ModelParams) -> float:
    """Steady-state sector-1 share of the family member at sigma1.

    Sector 2 stays at the template's own sigma2 (normalized); the member
    economy's BGP is solved and its w* plugged into the share formula.
    """
    member = normalized_params(sigma1, params.sigma2, baseline, params)
    ss = steady_state(member)
    return share_pi(sigma1, baseline, 1, ss.w_star)


def r_star_of_sigma(sigma1: float, baseline: Baseline, params: ModelParams) -> float:
    """Common growth rate of the family member at sigma1, in share form."""
    return r_star_closed_form(
        sigma1, baseline, params, steady_share_pi1(sigma1, baseline, params)
    )


def dr_dpsi(sigma1: float, baseline: Baseline, params: ModelParams) -> float:
    """d r*/d psi1 of the share-form growth rate at the member's own share."""
    pi1 = steady_share_pi1(sigma1, baseline, params)
    return dr_dpsi_at(sigma1, baseline, params, pi1)


def dr_dpsi_at(
    sigma1: float, baseline: Baseline, params: ModelParams, pi1_star: float
) -> float:
    """Closed form of d r*/d psi1, evaluated at the share pi1_star.

    Total derivative at a fixed input ratio: the share's own psi
    dependence is folded in through the share identity.
    """
    psi = psi_of_sigma(sigma1)
    pi_bar = share_pi_bar(baseline, 1)
    scale = baseline.y1_bar / (baseline.k_bar * baseline.v_bar)
    brace = (1.0 - (1.0 - psi) * (1.0 - pi1_star)) * math.log(pi_bar / pi1_star) + (
        1.0 - psi
    ) * (1.0 - pi1_star) * math.log((1.0 - pi_bar) / (1.0 - pi1_star))
    return (
        -scale
        * pi_bar
        / (params.eps * psi**2)
        * (pi_bar / pi1_star) ** ((1.0 - psi) / psi)
        * brace
    )


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    value_a: float
    value_b: float
    dominant: str  # "A", "B" or "="


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple

    def row(self, name: str) -> ComparisonRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


_NON_TECH_FIELDS = ("A1", "A2", "alpha1", "alpha2", "delta_k", "delta_h", "eps", "rho")


def compare_economies(
    params_a: ModelParams,
    params_b: ModelParams,
    baseline: Baseline | None = None,
) -> ComparisonTable:
    """Side-by-side steady states of two economies differing only in (sigma1, sigma2).

    Outputs y1*, y2* use the baseline's h_bar as the common human-capital
    level (h_bar = 1 when no baseline is given); levels then differ only
    through z* and the allocations.
    """
    for name in _NON_TECH_FIELDS:
        if getattr(params_a, name) != getattr(params_b, name):
            raise BaselineMismatchError(
                f"economies differ in {name}: "
                f"{getattr(params_a, name)} vs {getattr(params_b, name)}"
            )
    h_bar = baseline.h_bar if baseline is not None else 1.0
    rows = []
    ss_a = steady_state(params_a)
    ss_b = steady_state(params_b)
    for name in ("w_star", "z_star", "u_star", "v_star", "q_star", "r_star",
                 "pi1k", "pi2k"):
        rows.append(_row(name, getattr(ss_a, name), getattr(ss_b, name)))
    ya = y1_of(ss_a.z_star * h_bar, h_bar, ss_a.u_star, ss_a.v_star, params_a)
    yb = y1_of(ss_b.z_star * h_bar, h_bar, ss_b.u_star, ss_b.v_star, params_b)
    rows.append(_row("y1_star", ya, yb))
    # On the balanced path (1 - u*) Y2(w*) = r* + delta_h, so y2* needs no 1 - u*.
    rows.append(_row("y2_star", h_bar * (ss_a.r_star + params_a.delta_h),
                     h_bar * (ss_b.r_star + params_b.delta_h)))
    return ComparisonTable(rows=tuple(rows))


def _row(name: str, a: float, b: float) -> ComparisonRow:
    if abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0):
        flag = "="
    else:
        flag = "A" if a > b else "B"
    return ComparisonRow(name=name, value_a=a, value_b=b, dominant=flag)
