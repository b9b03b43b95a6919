"""Technology primitives and auxiliary scalars.

The main checks are dual-route: each reduced-form expression is compared
against a direct evaluation of the CES technologies at matching inputs.
"""

import math

import numpy as np
import pytest

from cesgrowth import ParameterError, tau_of, y1_of, y2_of
from cesgrowth.core import aux_from_wuv, sector_rates
from cesgrowth.stability import rhs_reduced_values
from cesgrowth.steady import gap_P

from conftest import CASE_PSI, bench_params
from oracles import (
    AuxBundle,
    State,
    aux_of,
    consumption_terms,
    costate_ratio,
    p1_of,
    p2_of,
    powz,
    rhs_full,
    w_of,
)


def random_interior_state(rng):
    u = rng.uniform(0.15, 0.95)
    v = rng.uniform(0.05, 0.95)
    while abs(u - v) < 0.02:
        v = rng.uniform(0.05, 0.95)
    return State(z=rng.uniform(0.5, 20.0), q=rng.uniform(0.05, 0.5), u=u, v=v)


def test_powz_matches_float_power(rng):
    for _ in range(200):
        base = rng.uniform(1e-6, 1e6)
        expo = rng.uniform(-8.0, 8.0)
        assert powz(base, expo) == pytest.approx(base**expo, rel=1e-13)


def test_powz_rejects_nonpositive_base():
    with pytest.raises(ValueError):
        powz(-1.0, 0.5)


@pytest.mark.parametrize("w", [0.0, -1.0, -1.0 + 1e-20j])
def test_kernel_entry_points_reject_nonpositive_w(w):
    p = bench_params(0.25, -0.10)
    for call in (sector_rates, gap_P, p1_of, p2_of, costate_ratio):
        with pytest.raises(ParameterError):
            call(w, p)
    with pytest.raises(ParameterError):
        aux_from_wuv(w, 0.6, 0.5, p)
    with pytest.raises(ParameterError):
        sector_rates(np.array([1.0, w.real]), p)


def test_w_and_tau():
    s = State(z=10.0, q=0.2, u=0.8, v=0.5)
    assert w_of(s) == pytest.approx(0.5 / 0.8 * 10.0)
    assert tau_of(0.8, 0.5) == pytest.approx(0.5 * 0.2 / (0.8 * 0.5))
    with pytest.raises(ParameterError):
        tau_of(1.2, 0.5)


def test_theta():
    p = bench_params(0.25, -0.10)
    assert p.theta == pytest.approx(0.6 * 0.2 / (0.8 * 0.4))
    with pytest.raises(ParameterError):
        p._replace(alpha1=0.0)


def test_share_term_constants_keep_the_expression(rng):
    """S2 from params.rate_terms is bit-identical to the written-out
    alpha2 theta^{-psi2/(1-psi2)} w^{psi2(1-psi1)/(1-psi2)}, for one economy
    and for a family."""
    for psi1, psi2 in CASE_PSI.values():
        one = bench_params(psi1, psi2)
        family = one._replace(psi1=np.full(20, psi1), psi2=np.full(20, psi2))
        for p, w in ((one, 3.7), (one, 1.0 + 1e-20j), (family, rng.uniform(0.1, 50.0, 20))):
            expected = (p.alpha2 * p.theta ** (-p.psi2 / (1.0 - p.psi2))
                        * w ** (p.psi2 * (1.0 - p.psi1) / (1.0 - p.psi2)))
            assert np.array_equal(sector_rates(w, p)[3], expected)


def _written_out_aux(w, u, v, p):
    """The auxiliary scalars read field by field, in the kernel's order of
    evaluation, as rhs_reduced_values read them before the kernel's tuple."""
    p1, p2, s1, s2, y1, mpk, y2, _, gap = sector_rates(w, p)
    t = (1.0 - p.alpha2) * s1 - (1.0 - p.alpha1) * s2
    return (
        (1.0 - u) * y2 - v / w * y1 + p.delta_k - p.delta_h,
        gap,
        t,
        (p.psi1 - p.psi2) * u + 1.0 - p.psi1,
        (p.psi1 - p.psi2) * v + 1.0 - p.psi1,
        p1 * p2,
        (1.0 - p.psi1) * (1.0 - p.psi2) * t,
        (mpk - p.rho - p.delta_k) / p.eps + p.delta_k - v / w * y1,
    )


def test_aux_kernel_is_bit_identical_on_floats_complex_steps_and_families(rng):
    """aux_from_wuv equals the written-out scalars, and so does its named
    view in the oracles, bit for bit; rhs_reduced_values keeps its order of evaluation."""
    for psi1, psi2 in CASE_PSI.values():
        one = bench_params(psi1, psi2)
        family = one._replace(psi1=np.full(20, psi1), psi2=np.full(20, psi2))
        for p, w, u, v in ((one, 7.3, 0.6, 0.5), (one, 7.3 + 1e-20j, 1.3, 1.5),
                           (one, 7.3, 0.6 + 1e-20j, 0.5),
                           (family, rng.uniform(0.1, 50.0, 20), 0.6, 0.5)):
            kernel = aux_from_wuv(w, u, v, p)
            for got in (kernel, AuxBundle(*kernel)):
                assert all(map(np.array_equal, got, _written_out_aux(w, u, v, p)))
    p = bench_params(*CASE_PSI[1])
    for _ in range(50):
        state = random_interior_state(rng)
        steps = ((state.z + 1e-20j, *state[1:]), (*state[:3], state.v + 1e-20j))
        for z, q, u, v in (state, *steps):
            d, gap, _, g1, g2, pq, r, x = _written_out_aux(v / u * z, u, v, p)
            assert rhs_reduced_values(z, q, u, v, p) == (
                -(d + q) * z,
                (x + q) * q,
                (d + q + g2 * pq * gap / r) * u * (1.0 - u) / (u - v),
                (d + q + g1 * pq * gap / r) * v * (1.0 - v) / (u - v),
            )


def test_rate_terms_of_a_family_are_those_of_its_members(rng):
    """ModelParams.rate_terms of a family, read element by element, is that
    of each member built from floats. The S2 factor alone may differ, by
    up to two ulps: numpy's power and the C library's pow each round to
    within an ulp, but not alike."""
    technology = ("A1", "A2", "alpha1", "alpha2", "psi1", "psi2")
    base = bench_params(*CASE_PSI[1])
    family = base._replace(
        A1=rng.uniform(0.5, 2.0, 200), A2=rng.uniform(0.1, 0.5, 200),
        alpha1=rng.uniform(0.05, 0.95, 200), alpha2=rng.uniform(0.05, 0.95, 200),
        psi1=rng.uniform(-3.0, 0.99, 200), psi2=rng.uniform(-3.0, 0.99, 200),
    )
    terms = family.rate_terms
    assert len(terms) == 12
    for i in range(200):
        member = base._replace(**{k: float(getattr(family, k)[i]) for k in technology})
        expected = member.rate_terms
        for j, (entry, one) in enumerate(zip(terms, expected)):
            got = entry[i] if np.ndim(entry) else entry
            assert type(one) is float
            if j == 7:  # S2 factor: alpha2 theta^{-psi2/(1-psi2)}
                assert abs(got - one) <= 2.0 * math.ulp(one)
            else:
                assert got == one, (i, j)
    one = bench_params(0.25, -0.10)
    assert one.rate_terms[:7] + one.rate_terms[9:] == (
        0.6, 1.0 - 0.6, 1.0 - 0.8, 0.25, -0.10, 1.0 / 0.25, 1.0 / -0.10, 1.05, 0.20, 0.06 - 0.05)


def test_y1_reduces_to_p1(rng):
    """y1(k,h,u,v) = A1 h u P1(w)^{1/psi1} with w = kv/(hu)."""
    p = bench_params(0.25, -0.10)
    for _ in range(50):
        s = random_interior_state(rng)
        h = rng.uniform(0.2, 5.0)
        k = s.z * h
        w = w_of(s)
        direct = y1_of(k, h, s.u, s.v, p)
        reduced = p.A1 * h * s.u * powz(p1_of(w, p), 1.0 / p.psi1)
        assert direct == pytest.approx(reduced, rel=1e-12)


def optimal_tau_point(rng, p):
    """(w, k, h, u, v) with tau(u, v) = tau0(w), or None if v leaves (0, 1)."""
    u = rng.uniform(0.3, 0.9)
    w = rng.uniform(0.5, 30.0)
    tau0 = powz(w, (p.psi1 - p.psi2) / (1.0 - p.psi2)) * powz(
        p.theta, 1.0 / (1.0 - p.psi2)
    )
    v = tau0 * u / (1.0 + (tau0 - 1.0) * u)
    if not 0.0 < v < 1.0:
        return None
    h = rng.uniform(0.2, 5.0)
    return w, w * u / v * h, h, u, v


def test_y2_reduces_to_p2_at_optimal_tau(rng):
    """P2 folds in the interior-optimum ratio tau0 = w^{(psi1-psi2)/(1-psi2)} theta^{1/(1-psi2)}.

    When the allocations satisfy tau(u, v) = tau0(w), the direct CES
    evaluation of y2 agrees with A2 h (1-u) P2(w)^{1/psi2}.
    """
    p = bench_params(0.25, -0.10)
    for _ in range(50):
        point = optimal_tau_point(rng, p)
        if point is None:
            continue
        w, k, h, u, v = point
        direct = y2_of(k, h, u, v, p)
        reduced = p.A2 * h * (1.0 - u) * powz(p2_of(w, p), 1.0 / p.psi2)
        assert direct == pytest.approx(reduced, rel=1e-10)


def kernel_cases(repeats=25):
    """Every benchmark case's parameters, repeats times each."""
    for case in sorted(CASE_PSI):
        yield from [bench_params(*CASE_PSI[case])] * repeats


def test_kernel_goods_output_matches_y1(rng):
    """sector_rates' output per unit hu, times hu, is the direct y1."""
    for p in kernel_cases():
        s = random_interior_state(rng)
        h = rng.uniform(0.2, 5.0)
        y1 = sector_rates(w_of(s), p)[4]
        assert y1 * h * s.u == pytest.approx(y1_of(s.z * h, h, s.u, s.v, p), rel=1e-12)


def test_kernel_goods_mpk_matches_y1_derivative(rng):
    """Goods MPK = (d y1 / d k) / v, by central difference of the direct y1."""
    for p in kernel_cases():
        s = random_interior_state(rng)
        h = rng.uniform(0.2, 5.0)
        k = s.z * h
        dk = 1e-6 * k
        y1_up, y1_down = (y1_of(k + d, h, s.u, s.v, p) for d in (dk, -dk))
        dy1_dk = (y1_up - y1_down) / (2 * dk)
        mpk = sector_rates(w_of(s), p)[5]
        assert mpk == pytest.approx(dy1_dk / s.v, rel=1e-7)


def test_kernel_education_mph_matches_y2_derivative(rng):
    """Education MPH = (d y2 / d h) / (1-u) at the tau0 allocation.

    The gap P is then MPK - MPH - (delta_k - delta_h).
    """
    checked = 0
    for p in kernel_cases(repeats=50):
        point = optimal_tau_point(rng, p)
        if point is None:
            continue
        w, k, h, u, v = point
        dh = 1e-6 * h
        y2_up, y2_down = (y2_of(k, h + d, u, v, p) for d in (dh, -dh))
        dy2_dh = (y2_up - y2_down) / (2 * dh)
        *_, mpk, _, mph, gap = sector_rates(w, p)
        assert mph == pytest.approx(dy2_dh / (1.0 - u), rel=1e-7)
        assert gap == pytest.approx(mpk - mph - (p.delta_k - p.delta_h), rel=1e-12)
        checked += 1
    assert checked >= 10


def test_aux_bundle_definitions(rng):
    p = bench_params(-0.10, -0.15)
    s = random_interior_state(rng)
    w = w_of(s)
    bun = aux_of(s, p)
    p1 = p1_of(w, p)
    p2 = p2_of(w, p)
    assert bun.Q == pytest.approx(p1 * p2, rel=1e-14)
    assert bun.R == pytest.approx(
        (1.0 - p.psi1) * (1.0 - p.psi2) * bun.T, rel=1e-14
    )
    assert bun.G1 == pytest.approx((p.psi1 - p.psi2) * s.u + 1.0 - p.psi1)
    assert bun.G2 == pytest.approx((p.psi1 - p.psi2) * s.v + 1.0 - p.psi1)


def test_consumption_rate_matches_its_a1_h_form(rng):
    """X = (MPK - rho - delta_k)/eps + delta_k - (v/w) Y1, consumption
    growth less capital growth without -c/k, equals the A1 H/eps form of
    the consumption equation it replaced, to 1e-13 of the largest of its
    terms, over the five cases, random interior states and states past the
    corner u, v > 1."""
    for psi1, psi2 in CASE_PSI.values():
        p = bench_params(psi1, psi2)
        states = [random_interior_state(rng) for _ in range(40)]
        states += [State(12.0, 0.2, 1.3, 1.5), State(3.0, 0.1, 2.5, 0.4)]
        for s in states:
            w = w_of(s)
            y1, mpk = sector_rates(w, p)[4:6]
            scale = max(mpk / p.eps, (p.rho + p.delta_k) / p.eps, p.delta_k, s.v / w * y1)
            form = sum(consumption_terms(w, s.u, s.v, p))
            assert abs(aux_of(s, p).X - form) <= 1e-13 * scale


def test_aux_bundle_is_immutable():
    bun = AuxBundle(*aux_from_wuv(12.0, 0.6, 0.5, bench_params(0.25, -0.10)))
    with pytest.raises(AttributeError):
        bun.P = 0.0


def test_aux_extends_outside_unit_box():
    p = bench_params(0.25, -0.10)
    bun = AuxBundle(*aux_from_wuv(12.0, 1.3, 1.5, p))
    assert all(
        math.isfinite(x)
        for x in (bun.D, bun.P, bun.T, bun.G1, bun.G2, bun.Q, bun.R, bun.X)
    )


def test_growth_gap_sign_flips_across_root():
    """D + q and the consumption equation both vanish on the balanced path."""
    from cesgrowth import steady_state

    p = bench_params(0.25, -0.10)
    ss = steady_state(p)
    bun = aux_of(State(ss.z_star, ss.q_star, ss.u_star, ss.v_star), p)
    assert bun.D + ss.q_star == pytest.approx(0.0, abs=1e-10)
    assert bun.X + ss.q_star == pytest.approx(0.0, abs=1e-10)
    assert bun.P == pytest.approx(0.0, abs=1e-10)


def test_rhs_full_consistent_with_reduced(rng):
    """zdot/z = kdot/k - hdot/h and qdot/q = cdot/c - kdot/k, route by route."""
    p = bench_params(0.25, -0.10)
    for _ in range(25):
        s = random_interior_state(rng)
        h = rng.uniform(0.2, 3.0)
        k = s.z * h
        c = s.q * k
        full = rhs_full((k, h, c, s.u, s.v), p)
        red = rhs_reduced_values(*s, p)
        k_growth = full[0] / k
        h_growth = full[1] / h
        c_growth = full[2] / c
        assert red[0] == pytest.approx(s.z * (k_growth - h_growth), rel=1e-9, abs=1e-11)
        assert red[1] == pytest.approx(s.q * (c_growth - k_growth), rel=1e-9, abs=1e-11)
        assert red[2] == pytest.approx(full[3], rel=1e-9, abs=1e-11)
        assert red[3] == pytest.approx(full[4], rel=1e-9, abs=1e-11)


def test_costate_ratio_positive(rng):
    p = bench_params(0.15, 0.10)
    for _ in range(20):
        w = rng.uniform(0.2, 50.0)
        assert costate_ratio(w, p) > 0.0
