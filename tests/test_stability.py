"""Jacobian, eigenvalue and classification checks."""

import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cesgrowth import (
    CesGrowthError,
    ModelParams,
    NoBracketError,
    SingularStateError,
    baseline_from_point,
    eigen4,
    jacobian_fd,
    normalized_params,
    saddle_path,
    stability_report,
    steady_state,
)
from cesgrowth.core import aux_from_wuv, sector_rates
from cesgrowth.stability import classify, g_curvature, plane_terms, rhs_reduced_values
from cesgrowth.steady import closed_forms, gap_P

from conftest import CASE_PSI, SLOW_SADDLE, STIFF_POOL, U_STAR_NEAR_ONE, bench_params
from oracles import lambda_w_of

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.model import PARAM_NAMES  # noqa: E402
from perfbench.workloads import POOL_SEED, POOL_SIZE, draw_economies  # noqa: E402

# Reference spectra per case, ascending by real part.
CASE_EV = {
    1: (-12.788, 0.0014, 0.173, 12.963),
    2: (-1.907, 0.000, 0.157, 2.064),
    3: (-2.104, 0.000, 0.174, 2.278),
    4: (-1.699, 0.000, 0.173, 1.872),
    5: (-1.615, 0.000, 0.158, 1.773),
}


def _spread(ev, reference) -> float:
    """Largest |ev - reference| over max(1, |lambda|max), both sorted by (real, imag)."""
    ev, reference = np.asarray(ev), np.asarray(reference)
    return np.max(np.abs(ev - reference)) / max(1.0, np.max(np.abs(reference)))


def _mpmath_eigenvalues(jac):
    """Eigenvalues of the float matrix jac in 50-digit arithmetic, sorted by (real, imag)."""
    with mpmath.workdps(50):
        ev = mpmath.eig(mpmath.matrix([list(row) for row in jac]), left=False, right=False)
        return sorted((complex(e) for e in ev), key=lambda e: (e.real, e.imag))


@pytest.mark.parametrize("case", sorted(CASE_PSI))
def test_eigen4_matches_mpmath_on_paper_cases(case):
    """The split's spectrum against the 4-D Jacobian's, in 50 digits."""
    rep = stability_report(bench_params(*CASE_PSI[case]))
    assert _spread(rep.eigenvalues, _mpmath_eigenvalues(rep.jacobian)) <= 1e-13


@pytest.mark.parametrize("index", sorted(STIFF_POOL))
def test_eigen4_matches_mpmath_on_stiff_economies(index):
    rep = stability_report(ModelParams(**STIFF_POOL[index]))
    assert _spread(rep.eigenvalues, _mpmath_eigenvalues(rep.jacobian)) <= 1e-8


def _assert_spectrum_format(ev):
    """Four complex numbers sorted by (real, imag): one exact 0j for the
    structural zero, and real roots, each with imaginary part +0.0."""
    assert len(ev) == 4 and all(type(e) is complex for e in ev)
    assert list(ev) == sorted(ev, key=lambda e: (e.real, e.imag))
    zeros = [e for e in ev if not e]
    assert zeros == [0j]
    assert math.copysign(1.0, zeros[0].real) == 1.0
    assert all(math.copysign(1.0, e.imag) == 1.0 for e in ev)


def test_eigen4_matches_lapack_on_economy_scan_pool():
    """The benchmark's economy_scan pool: every solvable economy's spectrum
    agrees with LAPACK's on the 4-D Jacobian, classify labels both alike,
    and eigen4 gives the report's spectrum in its format."""
    pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
    solved = 0
    for i in range(POOL_SIZE):
        params = ModelParams(**{n: float(getattr(pool, n)[i]) for n in PARAM_NAMES})
        try:
            rep = stability_report(params)
        except CesGrowthError:
            continue
        solved += 1
        ev = eigen4(rep.steady, params)
        assert ev == rep.eigenvalues, i
        _assert_spectrum_format(ev)
        lapack = np.linalg.eigvals(np.array(rep.jacobian)).astype(complex)
        lapack = lapack[np.lexsort((lapack.imag, lapack.real))]
        assert _spread(rep.eigenvalues, lapack) <= 1e-8, i
        assert classify(rep.eigenvalues) == classify(lapack), i
    assert solved == 2995


def test_g_slopes_match_50_digit_differences_on_transverse_pool_economies():
    """On the first 60 economies of the economy_scan pool with tau0* > 1,
    where w moves along the saddle path: g'(w*), eigen4's stable root
    lambda_w, and g''(w*) from g_curvature agree with mpmath.diff of
    plane_terms' g at the 50-digit root of gap_P to 1e-13 and 1e-12
    relative (measured 5.9e-15 and 5.0e-13; the central difference of
    complex-step slopes that g_curvature replaced missed g'' by up to
    1.04e-5 on them)."""
    pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
    checked = 0
    for i in range(POOL_SIZE):
        params = ModelParams(**{n: float(getattr(pool, n)[i]) for n in PARAM_NAMES})
        try:
            ss = steady_state(params)
        except CesGrowthError:
            continue
        if ss.tau0 < 1.0:
            continue
        lam = eigen4(ss, params)[0]
        g2 = g_curvature(ss.w_star, sector_rates(ss.w_star, params), params)
        with mpmath.workdps(50):
            w = mpmath.findroot(lambda w: gap_P(w, params), mpmath.mpf(ss.w_star))
            d1, d2 = (mpmath.diff(lambda w: plane_terms(w, params)[4], w, k) for k in (1, 2))
        assert lam.imag == 0.0 and abs(lam.real - d1) <= 1e-13 * abs(d1), i
        assert abs(g2 - d2) <= 1e-12 * abs(d2), i
        checked += 1
        if checked == 60:
            break
    assert checked == 60


def test_every_pool_economy_keeps_its_label():
    """classify labels each of the 2 995 solvable economies of the
    economy_scan pool a saddle_path, the labels the complex-step spectrum
    gave them; the other five raise NoBracketError."""
    pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
    unsolved = []
    for i in range(POOL_SIZE):
        params = ModelParams(**{n: float(getattr(pool, n)[i]) for n in PARAM_NAMES})
        try:
            rep = stability_report(params)
        except NoBracketError:
            unsolved.append(i)
            continue
        assert rep.classification == "saddle_path", i
    assert unsolved == [444, 1363, 1771, 2355, 2724]


# SLOW_SADDLE's wider draw (its comment in conftest.py): one column of
# 20 000 per field, in this order, from default_rng(3).
WIDE_DRAW = {
    "A1": (0.2, 5.0), "A2": (0.01, 2.0), "alpha1": (0.05, 0.95), "alpha2": (0.05, 0.95),
    "psi1": (-3.0, 0.9), "psi2": (-3.0, 0.9), "delta_k": (0.0, 0.2), "delta_h": (0.0, 0.2),
    "eps": (1.01, 6.0), "rho": (0.001, 0.2),
}


def test_lambda_w_takes_the_sign_of_one_less_tau0():
    """sign lambda_w = sign(1 - tau0*), the factor-intensity ranking, on
    every economy of the wider draw that solves, with no exception; the
    draw covers both halves, 10 072 economies with tau0* < 1 and 8 830 with
    tau0* > 1. lambda_w is read from eigen4's spectrum, the real root that
    matches oracles.lambda_w_of, the closed form -(MPK (1 - alpha1) P2 +
    MPH S2 P1)/T, to 1e-14 relative (measured 5.8e-16; the spectrum's
    other roots lie at least 0.58 |lambda_w| away).

    eigen4's theorem on the same draw: the spectrum is exactly {0,
    lambda_w, theta, lambda_J}, with theta the balanced path's tvc_margin
    itself and lambda_J within 1e-11 relative of J2's determinant over
    theta, -b z* q*/theta (measured 3.5e-12, at economy 7867, where q* =
    4.5e-5 cancels; eigen4's -b (z* + p) meets 50 digits there to the
    last bit); sign lambda_J = sign(tau0* - 1), so classify finds one
    stable root."""
    rng = np.random.default_rng(3)
    columns = {name: rng.uniform(lo, hi, 20_000) for name, (lo, hi) in WIDE_DRAW.items()}
    halves = [0, 0]
    for i in range(20_000):
        params = ModelParams(**{name: float(col[i]) for name, col in columns.items()})
        try:
            ss = steady_state(params)
        except CesGrowthError:
            continue
        ev = eigen4(ss, params)
        closed = lambda_w_of(ss.w_star, params)
        lam_w = min(ev, key=lambda x: abs(x - closed))
        assert lam_w.imag == 0.0 and abs(lam_w.real - closed) <= 1e-14 * abs(closed), i
        rest = list(ev)
        for root in (0j, lam_w, complex(ss.tvc_margin, 0.0)):
            rest.remove(root)
        (lam_j,) = rest
        det = -plane_terms(ss.w_star, params)[1] * ss.z_star * ss.q_star / ss.tvc_margin
        assert lam_j.imag == 0.0 and abs(lam_j.real - det) <= 1e-11 * abs(det), i
        lam_w, lam_j = lam_w.real, lam_j.real
        assert lam_w and (lam_w > 0.0) == (ss.tau0 < 1.0), i
        assert lam_j and (lam_j > 0.0) == (ss.tau0 > 1.0), i
        assert classify(ev) == (1, "saddle_path"), i
        halves[ss.tau0 < 1.0] += 1
    assert halves == [8830, 10072]


# The wider draw's domain with |psi| >= 1e-3, outside the band
# |sigma - 1| < 1e-3 that normalization.SIGMA_GUARD rejects: below it the
# float kernel loses about 1/|psi| ulps (P^(1/psi)), whatever the spectrum's
# route; at psi2 = 1.7e-8 that moves w* and every root off the 50-digit
# split by about 6e-10.
WIDE_ECONOMY = st.fixed_dictionaries({
    name: st.floats(lo, hi).filter(lambda x: abs(x) >= 1e-3) if name.startswith("psi")
    else st.floats(lo, hi) for name, (lo, hi) in WIDE_DRAW.items()})


@pytest.mark.parametrize("plane", [True, False], ids=["tau0_below_1", "tau0_above_1"])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(WIDE_ECONOMY)
def test_closed_form_spectrum_matches_the_50_digit_split(plane, fields):
    """On both halves of the wider draw's domain: eigen4's closed forms
    agree with _split_mpmath, which takes g'(w*) and J2 by mpmath.diff of
    the package's equations and J2's pair by mpmath.eig, to 1e-12 of
    max(1, |lambda|max). Where tau0* = 1, as with equal shares and
    elasticities, there is no spectrum: plane_terms raises
    SingularStateError."""
    try:
        params = ModelParams(**fields)
        ss = steady_state(params)
    except CesGrowthError:
        assume(False)
    assume((ss.tau0 < 1.0) == plane)
    if ss.tau0 == 1.0:
        with pytest.raises(SingularStateError):
            eigen4(ss, params)
        return
    assert _spread(eigen4(ss, params), _split_mpmath(params)[1]) <= 1e-12


@pytest.mark.parametrize("gap, root", [(1e-2, -284.0), (1e-4, -2.84e4), (1e-8, -2.84e8)])
@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["tau0_below_1", "tau0_above_1"])
def test_the_stable_root_has_a_pole_where_tau0_crosses_one(gap, root, side):
    """The README family, baseline_from_point(case 1, 5.5, 1, 0.6, 0.5)
    with sigma1 varied, crosses tau0* = 1 at sigma1 = 1.5496252670942552.
    The stable root grows like 1/|tau0* - 1| on both sides: -284, -2.84e4
    and -2.84e8 to 3 digits at |sigma1 - sigma1_hat| = 1e-2, 1e-4 and
    1e-8. Where tau0* < 1 it is lambda_J = gamma Y2 z* q*/(w* theta),
    gamma = tau0*/(tau0* - 1), whose pole is explicit; where tau0* > 1
    it is lambda_w, oracles.lambda_w_of."""
    template = bench_params(*CASE_PSI[1])
    base = baseline_from_point(template, 5.5, 1.0, 0.6, 0.5)
    params = normalized_params(1.5496252670942552 + side * gap, 1.0 / 1.1, base, template)
    ss = steady_state(params)
    assert (ss.tau0 < 1.0) == (side < 0.0)
    lam = eigen4(ss, params)[0]
    assert lam.imag == 0.0 and float(f"{lam.real:.3g}") == root
    if ss.tau0 < 1.0:
        y2 = sector_rates(ss.w_star, params)[6]
        closed = (ss.tau0 / (ss.tau0 - 1.0) * y2 * ss.z_star * ss.q_star
                  / (ss.w_star * ss.tvc_margin))
    else:
        closed = lambda_w_of(ss.w_star, params)
    assert abs(lam.real - closed) <= 1e-12 * abs(closed)


def _split_mpmath(params, dps=50):
    """(lambda_w, spectrum): g'(w*) and the split's spectrum, 0, g'(w*) and
    spec(J2), sorted by (real, imag) as complex numbers, in dps-digit
    arithmetic from the package's own equations: w* by mpmath.findroot of
    gap_P, g'(w*) and J2 by mpmath.diff, J2's pair by mpmath.eig."""
    with mpmath.workdps(dps):
        w = mpmath.findroot(lambda w: gap_P(w, params), mpmath.mpf(steady_state(params).w_star))
        star = closed_forms(w, params)
        _, one_less_alpha1, one_less_alpha2, psi1, *_ = params.rate_terms

        def g(w):
            p1, p2, s1, s2, *_, gap = sector_rates(w, params)
            return w * p1 * p2 * gap / ((1 - psi1) * (one_less_alpha2 * s1
                                                      - one_less_alpha1 * s2))

        def plane(z, q):
            u = (star.tau0 * z / w - 1) / (star.tau0 - 1)
            v = (star.tau0 - w / z) / (star.tau0 - 1)
            return rhs_reduced_values(z, q, u, v, params)[:2]

        x = (star.z_star, star.q_star)
        j2 = mpmath.matrix(2, 2)
        for j in range(2):
            for i in range(2):
                j2[i, j] = mpmath.diff(
                    lambda h: plane(*[c + h if k == j else c for k, c in enumerate(x)])[i], 0)
        lam_w = mpmath.diff(g, w)
        ev = [0, lam_w] + list(mpmath.eig(j2, left=False, right=False))
        return float(lam_w), sorted((complex(e) for e in ev), key=lambda e: (e.real, e.imag))


def _pool_economy(index: int) -> ModelParams:
    pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
    return ModelParams(**{n: float(getattr(pool, n)[index]) for n in PARAM_NAMES})


@pytest.mark.parametrize("params", [ModelParams(**U_STAR_NEAR_ONE),
                                    *(ModelParams(**STIFF_POOL[i]) for i in sorted(STIFF_POOL)),
                                    _pool_economy(10)],
                         ids=["u_star_near_one", *(f"stiff{i}" for i in sorted(STIFF_POOL)),
                              "pool10"])
def test_closed_forms_zero_the_rhs_in_50_digits(params):
    """At a 50-digit root w* of gap_P, closed_forms' x* is a zero of
    rhs_reduced_values in 50-digit arithmetic: each coordinate's rate
    |xdot_i/x_i| is below 1e-30 (measured at most 1.4e-38). Both write
    the consumption equation from the same growth rates, so nothing but
    the arithmetic's rounding parts them; with q* written from A1 H/eps
    and float constants the rates read 1e-18 to 1.5e-14."""
    with mpmath.workdps(50):
        w = mpmath.findroot(lambda w: gap_P(w, params), mpmath.mpf(steady_state(params).w_star))
        star = closed_forms(w, params)
        x = (star.z_star, star.q_star, star.u_star, star.v_star)
        rates = [abs(d / c) for d, c in zip(rhs_reduced_values(*x, params), x)]
    assert max(rates) < 1e-30


def test_slow_saddles_stable_root_is_g_prime():
    """SLOW_SADDLE's stable root is lambda_w = g'(w*), isolated from J2's
    close pair (0.3440, 0.3441): within 1e-11 relative of its 50-digit
    value (measured 7.5e-14; 1.1e-12 by a complex step of gap_P, and 4.3e-10
    by the 4x4 quartic route)."""
    params = ModelParams(**SLOW_SADDLE)
    lam = stability_report(params).eigenvalues[0]
    lam_w, _ = _split_mpmath(params)
    assert lam.imag == 0.0
    assert abs(lam.real - lam_w) <= 1e-11 * abs(lam_w)


def test_spectrum_where_u_star_is_within_rounding_of_one(params_u_star_near_one):
    """u* = 1 - 3.2e-15: tau0* < 1, so lambda_w > 0, and J2 is a saddle.
    The spectrum agrees with the 50-digit split to 1e-12 of |lambda|max
    (measured 4e-16). J2's pair, theta and -b (z* + p), reads no value of
    zdot at x*, which holds (1 - u) Y2 with Y2 about 8e13, whose rounding
    there would move J2 by 6e-4."""
    rep = stability_report(params_u_star_near_one)
    assert 1.0 - rep.steady.u_star < 1e-14
    assert rep.steady.tau0 < 1.0
    assert rep.classification == "saddle_path"
    lam_w, reference = _split_mpmath(params_u_star_near_one)
    assert lam_w > 0.0
    assert _spread(rep.eigenvalues, reference) <= 1e-12


def test_classify_labels():
    assert classify(np.array([-2.0, 0.0, 0.1, 3.0]))[1] == "saddle_path"
    assert classify(np.array([-2.0, -1.0, -0.1, -3.0]))[1] == "sink"
    assert classify(np.array([2.0, 1.0, 0.1, 3.0]))[1] == "source"
    assert classify(np.array([-2.0, -1.0, 0.1, 3.0]))[1] == "degenerate"
    n_stable, _ = classify(np.array([-2.0, 1e-5, 0.1, 3.0]))
    assert n_stable == 1


def test_three_stable_roots_and_the_zero_make_a_sink():
    """The structural zero is never counted, however close to zero the
    stable roots lie."""
    assert classify((-3.0, -2.0, -1e-4, 1e-15)) == (3, "sink")
    assert classify((-3.0, -2.0, -1e-15, 1e-4)) == (2, "degenerate")
    assert classify((complex(-1.0, -0.5), complex(-1.0, 0.5), -1e-4, -1e-15)) == (3, "sink")


def test_a_real_part_of_exactly_zero_is_not_stable():
    """With two real parts of exactly 0.0, one is the structural zero and
    the other does not count as stable; -0.0 is no more stable than 0.0."""
    assert classify((-1.0, 0.0, 0.0, 2.0)) == (1, "saddle_path")
    assert classify((0.0, 0.0, 1.0, 2.0)) == (0, "source")
    assert classify((-0.0, 0.0, 1.0, 2.0)) == (0, "source")
    assert classify((0.0, -0.0, 1.0, 2.0)) == (0, "source")
    assert classify((-3.0, -2.0, -0.0, 0.0)) == (2, "degenerate")
    assert classify((-2.0, complex(0.0, -1.0), complex(0.0, 1.0), 3.0)) == (1, "saddle_path")


def test_a_slow_stable_root_is_not_taken_for_the_zero():
    """SLOW_SADDLE's stable root lies within 1e-3 of zero, and its spectrum
    is still a saddle's, by eigen4 and by LAPACK alike."""
    rep = stability_report(ModelParams(**SLOW_SADDLE))
    assert (rep.n_stable, rep.classification) == (1, "saddle_path")
    assert rep.eigenvalues[0].real == pytest.approx(-1.164e-4, rel=1e-3)
    assert classify(np.linalg.eigvals(np.array(rep.jacobian))) == (1, "saddle_path")


def _zero_economies():
    return ([pytest.param(bench_params(*CASE_PSI[c]), id=f"case{c}") for c in sorted(CASE_PSI)]
            + [pytest.param(ModelParams(**STIFF_POOL[i]), id=f"stiff{i}")
               for i in sorted(STIFF_POOL)])


@pytest.mark.parametrize("params", _zero_economies())
def test_the_structural_zero_comes_from_the_efficiency_condition(params):
    """F = ln tau - ln tau0(w), the static efficiency condition, is
    conserved by the flow, so grad F is a left null vector of J at x*:
    grad F = (-a/z, 0, a/u - 1/u - 1/(1-u), 1/v + 1/(1-v) - a/v) with
    a = (psi1 - psi2)/(1 - psi2), from tau0 proportional to w^a and
    w = v z / u. The eigenvalue classify drops is that zero."""
    rep = stability_report(params)
    z, u, v = rep.steady.z_star, rep.steady.u_star, rep.steady.v_star
    a = (params.psi1 - params.psi2) / (1.0 - params.psi2)
    grad = np.array([-a / z, 0.0, a / u - 1.0 / u - 1.0 / (1.0 - u),
                     1.0 / v + 1.0 / (1.0 - v) - a / v])
    jac = np.array(rep.jacobian)
    assert np.linalg.norm(grad @ jac) <= 1e-13 * np.linalg.norm(grad) * np.linalg.norm(jac)
    assert min(rep.eigenvalues, key=lambda x: abs(x.real)) == 0j


@pytest.mark.parametrize("params", _zero_economies())
def test_spectrum_matches_the_50_digit_split(params):
    """Within 1e-12 of max(1, |lambda|max) of the same split in 50 digits
    (measured at most 2.3e-13, on stiff economy 35)."""
    assert _spread(stability_report(params).eigenvalues, _split_mpmath(params)[1]) <= 1e-12


def _mpmath_jacobian(x, params):
    """Central differences (h = 1e-15) of rhs_reduced_values in 40-digit arithmetic."""
    with mpmath.workdps(40):
        h = mpmath.mpf("1e-15")
        jac = np.empty((4, 4))
        for i in range(4):
            xp = [mpmath.mpf(c) for c in x]
            xm = list(xp)
            xp[i] += h
            xm[i] -= h
            diff = zip(rhs_reduced_values(*xp, params), rhs_reduced_values(*xm, params))
            jac[:, i] = [float((a - b) / (2 * h)) for a, b in diff]
    return jac


# Economies whose Jacobian is checked at x* beyond the paper cases.
JACOBIAN_ECONOMIES = dict({f"stiff{i}": STIFF_POOL[i] for i in sorted(STIFF_POOL)},
                          u_star_near_one=U_STAR_NEAR_ONE, slow_saddle=SLOW_SADDLE)


@pytest.mark.parametrize("point", sorted(CASE_PSI) + ["readme_start", "case1_from_0.9z"]
                         + list(JACOBIAN_ECONOMIES))
def test_jacobian_fd_matches_high_precision_differences(point):
    """At each case's x*, at two states past the corner u = v = 1, where
    the reduced equations still hold: the first rows of case 1's saddle
    paths from the README start z0 = 5.5, about (5.5, 0.303, 4.12, 7.90),
    and from z0 = 0.9 z*, about (9.65, 0.248, 1.55, 1.69); and at the x*
    of the stiff pool economies and of U_STAR_NEAR_ONE (measured at most
    3.8e-12 elementwise). At SLOW_SADDLE's x* one entry cancels to 5.2e-8
    of its size, in complex steps as in closed form, so it is held to
    1e-13 of max|J| instead (measured 6.8e-16)."""
    if point in JACOBIAN_ECONOMIES:
        params = ModelParams(**JACOBIAN_ECONOMIES[point])
    else:
        params = bench_params(*CASE_PSI[point if point in CASE_PSI else 1])
    ss = steady_state(params)
    z0 = {"readme_start": 5.5, "case1_from_0.9z": 0.9 * ss.z_star}.get(point)
    if z0 is None:
        x = (ss.z_star, ss.q_star, ss.u_star, ss.v_star)
    else:
        x = saddle_path(params, z0).state_rows[0]
        assert min(x[2], x[3]) > 1.0
    reference = _mpmath_jacobian(x, params)
    jac = np.array(jacobian_fd(*x, params))
    if point == "slow_saddle":
        assert np.max(np.abs(jac - reference)) <= 1e-13 * np.max(np.abs(reference))
    else:
        np.testing.assert_allclose(jac, reference, rtol=1e-10)


@pytest.mark.parametrize("index", sorted(STIFF_POOL))
def test_stiff_economy_structural_zero(index):
    """A stiff economy keeps its zero eigenvalue at zero and its saddle label."""
    rep = stability_report(ModelParams(**STIFF_POOL[index]))
    assert rep.classification == "saddle_path"
    assert np.sum(np.abs(np.asarray(rep.eigenvalues).real) <= 1e-6) == 1


@pytest.mark.parametrize("case", sorted(CASE_PSI))
def test_case_spectra_and_classification(case):
    p = bench_params(*CASE_PSI[case])
    rep = stability_report(p)
    assert rep.classification == "saddle_path"
    assert rep.n_stable == 1
    ev = np.asarray(rep.eigenvalues)
    assert np.max(np.abs(ev.imag)) < 1e-8
    for computed, target in zip(ev.real, CASE_EV[case]):
        if abs(target) >= 1.0:
            assert computed == pytest.approx(target, rel=0.02)
        elif abs(target) >= 0.01:
            assert computed == pytest.approx(target, abs=0.05)
        else:
            assert abs(computed) <= 0.01


def test_rhs_vanishes_at_steady_state(params_any_case):
    ss = steady_state(params_any_case)
    x = (ss.z_star, ss.q_star, ss.u_star, ss.v_star)
    assert np.linalg.norm(rhs_reduced_values(*x, params_any_case)) < 1e-8


def test_rhs_singular_guards(params_case1):
    with pytest.raises(SingularStateError):
        rhs_reduced_values(10.0, 0.2, 0.7, 0.7, params_case1)
    with pytest.raises(SingularStateError):
        rhs_reduced_values(10.0, 0.2, 0.7, -0.1, params_case1)


def _r_vanishes(params):
    """A state with u = 0.4, v = 0.6 and w = (v/u) z at tau0(w) = 1, where
    T = (1 - alpha2) S1 - (1 - alpha1) S2 and so R vanish."""
    alpha1, one_less_alpha1, one_less_alpha2, psi1, _, _, _, s2_factor, e, *_ = params.rate_terms
    w = (one_less_alpha1 * s2_factor / (one_less_alpha2 * alpha1)) ** (1.0 / (psi1 - e))
    return (w * 0.4 / 0.6, 0.2, 0.4, 0.6)


@pytest.mark.parametrize("guard", ["u = v", "w < 0", "w = 0", "R = 0"])
def test_jacobian_raises_the_rhs_guards(guard, params_case1):
    """jacobian_fd raises rhs_reduced_values' SingularStateError, with the
    same message and state, at each of its three guards."""
    x = {"u = v": (10.0, 0.2, 0.7, 0.7), "w < 0": (10.0, 0.2, 0.7, -0.1),
         "w = 0": (10.0, 0.2, 0.0, 0.5)}.get(guard) or _r_vanishes(params_case1)
    raised = []
    for f in (rhs_reduced_values, jacobian_fd):
        with pytest.raises(SingularStateError) as exc:
            f(*x, params_case1)
        raised.append((str(exc.value), exc.value.state))
    assert raised[0] == raised[1]
    assert raised[0][0].startswith({"u = v": "u - v", "R = 0": "R ="}.get(guard, "w ="))


def _identical_sectors(alpha: float, psi: float) -> ModelParams:
    return ModelParams(A1=1.0, A2=0.2, alpha1=alpha, alpha2=alpha, psi1=psi, psi2=psi,
                       delta_k=0.05, delta_h=0.05, eps=2.0, rho=0.05)


def test_r_guard_is_relative_to_the_share_terms():
    """Where the sectors are identical (alpha1 = alpha2, psi1 = psi2), T =
    (1 - alpha2) S1 - (1 - alpha1) S2 vanishes at every state and R is the
    rounding of T's terms. At w = 1e14, u = 0.6, v = 0.5 of the economy
    below, R reads 1.9e-13 where S1 = 364, past a floor of 1e-14 on |R|;
    the floor on |T| is R_FLOOR times (1 - alpha2) S1 + (1 - alpha1) S2, so
    rhs_reduced_values and jacobian_fd both raise there, with the same
    message and state, and at each w of 1e3, 1e8 and 1e14 for 1 000 draws
    of alpha ~ U(0.05, 0.95) and psi ~ U(-3, 0.9)."""
    x = (1e14 * 0.6 / 0.5, 0.1, 0.6, 0.5)
    params = _identical_sectors(0.12561380922414633, 0.2473121758482515)
    assert 1e-14 < abs(aux_from_wuv(1e14, 0.6, 0.5, params)[6]) < 1e-12
    raised = []
    for f in (rhs_reduced_values, jacobian_fd):
        with pytest.raises(SingularStateError) as exc:
            f(*x, params)
        raised.append((str(exc.value), exc.value.state))
    assert raised[0] == raised[1] and raised[0][0].startswith("R =")
    rng = np.random.default_rng(0)
    for alpha, psi in zip(rng.uniform(0.05, 0.95, 1000), rng.uniform(-3.0, 0.9, 1000)):
        params = _identical_sectors(float(alpha), float(psi))
        for w in (1e3, 1e8, 1e14):
            for f in (rhs_reduced_values, jacobian_fd):
                with pytest.raises(SingularStateError):
                    f(w * 0.6 / 0.5, 0.1, 0.6, 0.5, params)
