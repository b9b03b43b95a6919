"""Jacobian, eigenvalue and classification checks."""

import mpmath
import numpy as np
import pytest

from cesgrowth import (
    ModelParams,
    ParameterError,
    ReducedState,
    SingularStateError,
    eigen4,
    jacobian_fd,
    stability_report,
    steady_state,
)
from cesgrowth.stability import classify, rhs_reduced, rhs_reduced_values

from conftest import CASE_PSI, STIFF_POOL, bench_params

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
    assert sorted(ev[1:3].imag) == pytest.approx([-1.0, 1.0])


def test_eigen4_similarity_invariance(rng):
    """Spectrum is invariant under random similarity transforms."""
    d = np.diag([-3.0, -0.5, 1.2, 7.0])
    for _ in range(10):
        s = rng.normal(size=(4, 4))
        while abs(np.linalg.det(s)) < 1e-3:
            s = rng.normal(size=(4, 4))
        ev = eigen4(s @ d @ np.linalg.inv(s))
        assert np.allclose(ev.real, [-3.0, -0.5, 1.2, 7.0], atol=1e-8)


def test_eigen4_input_validation():
    with pytest.raises(ParameterError):
        eigen4(np.eye(3))
    bad = np.eye(4)
    bad[0, 0] = np.nan
    with pytest.raises(ParameterError):
        eigen4(bad)


def test_classify_labels():
    assert classify(np.array([-2.0, 0.0, 0.1, 3.0]))[2] == "saddle_path"
    assert classify(np.array([-2.0, -1.0, -0.1, -3.0]))[2] == "sink"
    assert classify(np.array([2.0, 1.0, 0.1, 3.0]))[2] == "source"
    assert classify(np.array([-2.0, -1.0, 0.1, 3.0]))[2] == "degenerate"
    n_stable, n_zero, _ = classify(np.array([-2.0, 1e-5, 0.1, 3.0]))
    assert n_stable == 1 and n_zero == 1


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
            diff = rhs_reduced_values(*xp, params) - rhs_reduced_values(*xm, params)
            jac[:, i] = [float(d / (2 * h)) for d in diff]
    return jac


def test_jacobian_fd_matches_high_precision_differences(params_any_case):
    ss = steady_state(params_any_case)
    s = ReducedState(z=ss.z_star, q=ss.q_star, u=ss.u_star, v=ss.v_star)
    reference = _mpmath_jacobian(s.as_array().tolist(), params_any_case)
    np.testing.assert_allclose(jacobian_fd(s, params_any_case), reference, rtol=1e-10)


@pytest.mark.parametrize("index", sorted(STIFF_POOL))
def test_stiff_economy_structural_zero(index):
    """A stiff economy keeps its zero eigenvalue at zero and its saddle label."""
    rep = stability_report(ModelParams(**STIFF_POOL[index]))
    assert rep.classification == "saddle_path"
    assert np.sum(np.abs(rep.eigenvalues.real) <= 1e-6) == 1


@pytest.mark.parametrize("case", sorted(CASE_PSI))
def test_case_spectra_and_classification(case):
    p = bench_params(*CASE_PSI[case])
    rep = stability_report(p)
    assert rep.classification == "saddle_path"
    assert rep.n_stable == 1
    ev = rep.eigenvalues
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
    s = ReducedState(z=ss.z_star, q=ss.q_star, u=ss.u_star, v=ss.v_star)
    assert np.linalg.norm(rhs_reduced(s, params_any_case)) < 1e-8


def test_rhs_singular_guards(params_case1):
    with pytest.raises(SingularStateError):
        rhs_reduced_values(10.0, 0.2, 0.7, 0.7, params_case1)
    with pytest.raises(SingularStateError):
        rhs_reduced_values(10.0, 0.2, 0.7, -0.1, params_case1)
