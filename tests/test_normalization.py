"""Normalized CES families, identities and comparative statics."""

import numpy as np
import pytest

from cesgrowth import (
    BaselineMismatchError,
    MrsMismatchError,
    ParameterError,
    baseline_from_point,
    baseline_from_steady_state,
    compare_economies,
    mrs_from_params,
    normalized_params,
    steady_state,
    y1_of,
    y2_of,
)
from cesgrowth.normalization import family_parameters, psi_of_sigma

from oracles import (
    comparison_row,
    dpi_dpsi,
    dy_dpsi,
    identity_wwb,
    normalized_y,
    r_star_of_sigma,
    share_pi,
    share_pi_bar,
)


@pytest.fixture
def base_case1(params_case1):
    return baseline_from_steady_state(params_case1, k_bar=1.0)


def test_psi_of_sigma():
    assert psi_of_sigma(2.0) == pytest.approx(0.5)
    assert psi_of_sigma(0.5) == pytest.approx(-1.0)
    with pytest.raises(ParameterError):
        psi_of_sigma(1.0)
    with pytest.raises(ParameterError):
        psi_of_sigma(-2.0)


def test_mrs_match_at_steady_state(params_case1):
    ss = steady_state(params_case1)
    m1, m2 = mrs_from_params(params_case1, ss.w_star, ss.tau0)
    assert m1 == pytest.approx(m2, rel=1e-9)


def test_mrs_mismatch_raised(params_case1):
    """Away from an interior optimum the sectoral rates differ."""
    with pytest.raises(MrsMismatchError):
        mrs_from_params(params_case1, 2.0, 5.0)


def test_family_fixed_point(params_case1, base_case1):
    """The generating economy is itself the family member at its own sigmas."""
    member = normalized_params(
        params_case1.sigma1, params_case1.sigma2, base_case1, params_case1
    )
    assert member.A1 == pytest.approx(params_case1.A1, rel=1e-9)
    assert member.A2 == pytest.approx(params_case1.A2, rel=1e-9)
    assert member.alpha1 == pytest.approx(params_case1.alpha1, rel=1e-9)
    assert member.alpha2 == pytest.approx(params_case1.alpha2, rel=1e-9)


def test_members_share_baseline_output(params_case1, base_case1):
    """Every member produces the baseline outputs at the baseline point."""
    b = base_case1
    for s1 in (0.6, 0.85, 1.2, 1.8):
        for s2 in (0.7, 1.3):
            member = normalized_params(s1, s2, b, params_case1)
            y1 = y1_of(b.k_bar, b.h_bar, b.u_bar, b.v_bar, member)
            y2 = y2_of(b.k_bar, b.h_bar, b.u_bar, b.v_bar, member)
            assert y1 == pytest.approx(b.y1_bar, rel=1e-10)
            assert y2 == pytest.approx(b.y2_bar, rel=1e-10)


def test_share_form_equals_direct_evaluation(params_case1, base_case1, rng):
    """normalized_y (share form) against the CES formula with member params."""
    b = base_case1
    for _ in range(40):
        s1 = rng.uniform(0.4, 2.5)
        if abs(s1 - 1.0) < 0.05:
            continue
        member = normalized_params(s1, params_case1.sigma2, b, params_case1)
        k = rng.uniform(0.3, 4.0)
        h = rng.uniform(0.3, 4.0)
        u = rng.uniform(0.3, 0.95)
        v = rng.uniform(0.1, 0.95)
        share = normalized_y(s1, b, 1, k, h, u, v)
        direct = y1_of(k, h, u, v, member)
        assert share == pytest.approx(direct, rel=1e-9)


def test_share_form_sector2(params_case1, base_case1, rng):
    b = base_case1
    for _ in range(40):
        s2 = rng.uniform(0.4, 2.5)
        if abs(s2 - 1.0) < 0.05:
            continue
        member = normalized_params(params_case1.sigma1, s2, b, params_case1)
        k = rng.uniform(0.3, 4.0)
        h = rng.uniform(0.3, 4.0)
        u = rng.uniform(0.3, 0.95)
        v = rng.uniform(0.1, 0.95)
        share = normalized_y(s2, b, 2, k, h, u, v)
        direct = y2_of(k, h, u, v, member)
        assert share == pytest.approx(direct, rel=1e-9)


def test_share_identity_residual(base_case1, rng):
    for _ in range(100):
        sigma = rng.uniform(0.3, 3.0)
        if abs(sigma - 1.0) < 0.05:
            continue
        w = rng.uniform(0.2, 40.0)
        tau = rng.uniform(0.2, 4.0)
        for sector, t in ((1, None), (2, tau)):
            assert abs(identity_wwb(sigma, base_case1, sector, w, t)) < 1e-12


def test_share_derivative_against_fd(base_case1):
    sigma = 1.4
    w = 7.0
    analytic = dpi_dpsi(sigma, base_case1, 1, w)
    eps = 1e-6
    psi = psi_of_sigma(sigma)

    def pi_at(psi_val):
        return share_pi(1.0 / (1.0 - psi_val), base_case1, 1, w)

    fd = (pi_at(psi + eps) - pi_at(psi - eps)) / (2 * eps)
    assert analytic == pytest.approx(fd, rel=1e-8)


def test_output_derivative_positive_off_baseline(params_case1, base_case1):
    """Output strictly increases in psi whenever the input mix differs
    from the baseline mix, on either side of sigma = 1."""
    b = base_case1
    k, h, u, v = 2.0 * b.k_bar, b.h_bar, b.u_bar, b.v_bar
    for sigma in (0.6, 0.9, 1.2, 1.9):
        assert dy_dpsi(sigma, b, 1, k, h, u, v) > 0.0
        assert dy_dpsi(sigma, b, 2, k, h, u, v) > 0.0


def test_growth_rate_sigma_invariant_under_own_baseline(params_case1, base_case1):
    """Anchored at the economy's own balanced path, the whole steady state
    is invariant in sigma: every member shares marginal products at the
    anchor, which is each member's own balanced path."""
    r_ref = steady_state(params_case1).r_star
    for s1 in (0.7, 1.1, 1.6):
        assert r_star_of_sigma(s1, base_case1, params_case1) == pytest.approx(
            r_ref, rel=1e-8
        )


def test_growth_rate_increases_off_optimum_baseline(params_case1):
    """Anchored off the balanced path, growth rises with sigma1."""
    b = baseline_from_point(params_case1, k=5.5, h=1.0, u=0.60, v=0.50)
    rs = [r_star_of_sigma(s1, b, params_case1) for s1 in (1.05, 1.2, 1.35)]
    assert rs[0] < rs[1] < rs[2]


def test_share_pi_bar_between_zero_and_one(base_case1):
    for sector in (1, 2):
        assert 0.0 < share_pi_bar(base_case1, sector) < 1.0


def test_alpha_A_positive(params_case1, base_case1):
    for sigma in (0.5, 0.8, 1.3, 2.2):
        member = normalized_params(sigma, sigma, base_case1, params_case1)
        assert 0.0 < member.alpha1 < 1.0 and 0.0 < member.alpha2 < 1.0
        assert member.A1 > 0.0 and member.A2 > 0.0


def test_family_of_an_array_equals_the_family_of_each_float(params_case1, base_case1):
    sigma = np.array([0.5, 0.8, 1.3, 2.2])
    member = normalized_params(sigma, sigma[::-1], base_case1, params_case1)
    for i, (s1, s2) in enumerate(zip(sigma, sigma[::-1])):
        single = normalized_params(float(s1), float(s2), base_case1, params_case1)
        for name in ("A1", "A2", "alpha1", "alpha2", "psi1", "psi2"):
            assert getattr(member, name)[i] == pytest.approx(
                getattr(single, name), rel=1e-14
            )
    assert np.array_equal(psi_of_sigma(sigma), (sigma - 1.0) / sigma)
    assert np.array_equal(member.alpha1, family_parameters(sigma, base_case1, 1)[1])
    assert np.array_equal(member.A2, family_parameters(sigma[::-1], base_case1, 2)[2])


@pytest.mark.parametrize("sigma", [1.0005, -2.0])
def test_array_outside_the_domain_names_its_sigma(sigma):
    with pytest.raises(ParameterError, match=f"{sigma}"):
        psi_of_sigma(np.array([0.5, sigma, 2.0]))


@pytest.mark.parametrize("sector", [1, 2])
def test_overflowing_family_parameter_names_sigma(params_case1, sector):
    """At sigma = 0.002 the power x^{1-psi} = x^500 overflows a double."""
    base = baseline_from_point(params_case1, 5.5, 1.0, 0.6, 0.5)
    sigmas = (0.002, 2.0) if sector == 1 else (2.0, 0.002)
    with pytest.raises(ParameterError, match="overflow at sigma = 0.002$"):
        normalized_params(*sigmas, base, params_case1)
    with np.errstate(all="ignore"), pytest.raises(
        ParameterError, match="overflow at sigma = 0.002$"
    ):
        normalized_params(*(np.array([2.0, s]) for s in sigmas), base, params_case1)


def test_compare_economies_dominance(params_case1):
    """Higher elasticities dominate on every starred quantity."""
    e2 = params_case1._replace(psi1=0.20, psi2=-0.15)
    rows = compare_economies(params_case1, e2)
    for name in ("r_star", "u_star", "v_star", "pi1k", "pi2k", "y1_star", "y2_star"):
        assert comparison_row(rows, name).dominant == "A"


def test_compare_y2_star_is_exact_where_u_star_is_near_one(params_case1):
    """y2* = r* + delta_h at h = 1 on the balanced path. The README family's
    member at sigma1 = sigma2 = 54.5 has u* and v* one or two ulps below 1,
    where the 1 - u* inside y2_of is rounding noise (0.434 for 0.198)."""
    base = baseline_from_point(params_case1, 5.5, 1.0, 0.6, 0.5)
    member = normalized_params(54.5, 54.5, base, params_case1)
    ss = steady_state(member)
    assert 1.0 - ss.u_star < 1e-15
    y2 = comparison_row(compare_economies(member, member), "y2_star").value_a
    assert y2 == pytest.approx(ss.r_star + member.delta_h, rel=1e-15)


def test_compare_economies_rejects_preference_mismatch(params_case1):
    other = params_case1._replace(rho=0.07)
    with pytest.raises(BaselineMismatchError):
        compare_economies(params_case1, other)
