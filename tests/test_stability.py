"""Jacobian, eigenvalue and classification checks."""

import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesgrowth import (
    CesGrowthError,
    ModelParams,
    ParameterError,
    SingularStateError,
    eigen4,
    jacobian_fd,
    saddle_path,
    stability_report,
    steady_state,
)
from cesgrowth.stability import classify, rhs_reduced_values

from conftest import CASE_PSI, SLOW_SADDLE, STIFF_POOL, bench_params

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


def test_eigen4_diagonal():
    ev = eigen4(np.diag([4.0, -1.0, 2.5, 0.0]))
    assert np.allclose(ev, [-1.0, 0.0, 2.5, 4.0])


def test_eigen4_complex_pair():
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = 1.0, -1.0  # rotation block: eigenvalues +-i
    m[2, 2], m[3, 3] = 3.0, -2.0
    ev = eigen4(m)
    assert ev[0] == pytest.approx(-2.0)
    assert ev[3] == pytest.approx(3.0)
    assert sorted(np.asarray(ev[1:3]).imag) == pytest.approx([-1.0, 1.0])


def test_eigen4_quartic_in_t_squared():
    """{-3, 3, -2i, 2i} has no odd terms once centred: a quadratic in t^2."""
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = 2.0, -2.0
    m[2, 2], m[3, 3] = 3.0, -3.0
    assert eigen4(m) == (-3.0 + 0j, -2j, 2j, 3.0 + 0j)


def test_eigen4_similarity_invariance(rng):
    """Spectrum is invariant under random similarity transforms."""
    d = np.diag([-3.0, -0.5, 1.2, 7.0])
    for _ in range(10):
        s = rng.normal(size=(4, 4))
        while abs(np.linalg.det(s)) < 1e-3:
            s = rng.normal(size=(4, 4))
        ev = eigen4(s @ d @ np.linalg.inv(s))
        assert np.allclose(np.asarray(ev).real, [-3.0, -0.5, 1.2, 7.0], atol=1e-8)


def test_eigen4_input_validation():
    with pytest.raises(ParameterError):
        eigen4(np.eye(3))
    bad = np.eye(4)
    bad[0, 0] = np.nan
    with pytest.raises(ParameterError):
        eigen4(bad)


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
    jac = stability_report(bench_params(*CASE_PSI[case])).jacobian
    assert _spread(eigen4(jac), _mpmath_eigenvalues(jac)) <= 1e-13


@pytest.mark.parametrize("index", sorted(STIFF_POOL))
def test_eigen4_matches_mpmath_on_stiff_economies(index):
    jac = stability_report(ModelParams(**STIFF_POOL[index])).jacobian
    assert _spread(eigen4(jac), _mpmath_eigenvalues(jac)) <= 1e-8


def test_eigen4_matches_lapack_on_economy_scan_pool():
    """The benchmark's economy_scan pool: every solvable economy's spectrum
    agrees with LAPACK's, and classify labels both alike."""
    pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
    solved = 0
    for i in range(POOL_SIZE):
        params = ModelParams(**{n: float(getattr(pool, n)[i]) for n in PARAM_NAMES})
        try:
            rep = stability_report(params)
        except CesGrowthError:
            continue
        solved += 1
        lapack = np.linalg.eigvals(np.array(rep.jacobian)).astype(complex)
        lapack = lapack[np.lexsort((lapack.imag, lapack.real))]
        assert _spread(rep.eigenvalues, lapack) <= 1e-8, i
        assert classify(rep.eigenvalues) == classify(lapack), i
    assert solved == 2995


def _separated_spectrum(draw):
    """(eigenvalues, matrix): a real 4x4 S D S^-1 whose eigenvalues lie at
    least 0.5 apart, with zero, one or two complex-conjugate pairs, around
    a centre up to 1 000 from zero."""
    n_pairs = draw(st.integers(0, 2))
    centre = draw(st.integers(-1000, 1000))
    grid = st.integers(-20, 20).map(lambda k: centre + k / 2)
    centres = draw(st.lists(grid, min_size=4 - n_pairs, max_size=4 - n_pairs,
                            unique=True))
    reals, pairs = centres[:4 - 2 * n_pairs], centres[4 - 2 * n_pairs:]
    imags = [draw(st.integers(1, 20)) / 4 + 0.25 for _ in pairs]
    blocks = [np.array([[x]]) for x in reals]
    blocks += [np.array([[a, b], [-b, a]]) for a, b in zip(pairs, imags)]
    d = np.zeros((4, 4))
    at = 0
    for block in blocks:
        n = len(block)
        d[at:at + n, at:at + n] = block
        at += n
    # |0.2 R| <= 0.8 in norm, so S is invertible with condition number at most 9.
    r = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16)))
    s = np.eye(4) + 0.2 * r.reshape(4, 4)
    ev = reals + [complex(a, sign * b) for a, b in zip(pairs, imags) for sign in (1, -1)]
    return sorted(ev, key=lambda e: (complex(e).real, complex(e).imag)), s @ d @ np.linalg.inv(s)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_eigen4_on_separated_spectra(data):
    """Sorted by (real, imag); a real eigenvalue has imaginary part +0.0 and
    complex ones come in exact conjugate pairs."""
    expected, matrix = _separated_spectrum(data.draw)
    ev = eigen4(matrix)
    assert all(isinstance(e, complex) for e in ev)
    assert list(ev) == sorted(ev, key=lambda e: (e.real, e.imag))
    assert _spread(ev, expected) <= 1e-12
    for e, x in zip(ev, expected):
        if isinstance(x, complex):
            assert e.imag and e.conjugate() in ev
        else:
            assert math.copysign(1.0, e.imag) == 1.0 and e.imag == 0.0


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
    dropped = min(rep.eigenvalues, key=lambda x: abs(x.real))
    assert abs(dropped) <= 1e-10 * max(map(abs, rep.eigenvalues))


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


@pytest.mark.parametrize("point", sorted(CASE_PSI) + ["readme_start", "case1_from_0.9z"])
def test_jacobian_fd_matches_high_precision_differences(point):
    """At each case's x*, and at two states past the corner u = v = 1, where
    the reduced equations still hold: the first rows of case 1's saddle
    paths from the README start z0 = 5.5, about (5.5, 0.303, 4.12, 7.90),
    and from z0 = 0.9 z*, about (9.65, 0.248, 1.55, 1.69)."""
    params = bench_params(*CASE_PSI[point if point in CASE_PSI else 1])
    ss = steady_state(params)
    z0 = {"readme_start": 5.5, "case1_from_0.9z": 0.9 * ss.z_star}.get(point)
    if z0 is None:
        x = (ss.z_star, ss.q_star, ss.u_star, ss.v_star)
    else:
        x = saddle_path(params, z0).state_rows[0]
        assert min(x[2], x[3]) > 1.0
    reference = _mpmath_jacobian(x, params)
    np.testing.assert_allclose(jacobian_fd(*x, params), reference, rtol=1e-10)


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
