"""The independent model against the paper's tables and against its own identities."""

import numpy as np
import pytest

from perfbench import model as M
from perfbench import paper


def case(c):
    return M.economy_of(paper.case_params(*paper.CASE_PSI[c]))


def steady(e):
    w, roots = M.scan_roots(e)
    assert roots == 1
    return M.balanced_path(e, w)


@pytest.mark.parametrize("c", sorted(paper.CASE_PSI))
def test_balanced_path_matches_the_paper(c):
    bp = steady(case(c))
    got = (bp["z_star"], bp["u_star"], bp["v_star"], bp["q_star"])
    assert np.allclose(got, paper.CASE_TARGETS[c], rtol=0, atol=0.01)


@pytest.mark.parametrize("c", sorted(paper.CASE_PSI))
def test_spectrum_matches_the_paper(c):
    e = case(c)
    bp = steady(e)
    x = np.array([bp["z_star"], bp["q_star"], bp["u_star"], bp["v_star"]])
    ev = np.sort(np.linalg.eigvals(M.jacobian(e, x)).real)
    assert all(paper.eigenvalue_matches(g, t) for g, t in zip(ev, paper.CASE_EV[c]))


def test_two_economy_tables():
    for psis, fields in paper.TWO_ECONOMY.items():
        bp = steady(M.economy_of(paper.case_params(*psis)))
        for name, (value, tol) in fields.items():
            assert abs(bp[name] - value) <= tol, (psis, name)


@pytest.mark.parametrize("c", sorted(paper.CASE_PSI))
def test_balanced_path_is_a_fixed_point(c):
    e = case(c)
    bp = steady(e)
    rhs = M.reduced_rhs(e, bp["z_star"], bp["q_star"], bp["u_star"], bp["v_star"])
    assert np.max(np.abs(rhs)) < 1e-12


def test_complex_step_jacobian_matches_central_differences():
    e = case(1)
    x = np.array([9.0, 0.25, 0.85, 0.8])
    jac = M.jacobian(e, x)
    fd = np.empty((4, 4))
    for j in range(4):
        h = 1e-6 * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fd[:, j] = (M.reduced_rhs_array(e, xp) - M.reduced_rhs_array(e, xm)) / (2 * h)
    assert np.allclose(jac, fd, rtol=1e-6, atol=1e-8)


def test_family_members_pass_through_the_anchor():
    e = case(1)
    ini = paper.README_INITIAL
    anchor = M.anchor_at(e, ini["k0"], ini["h0"], ini["u0"], ini["v0"])
    for sigma in (0.5, 0.9, 1.1, 2.0):
        member = M.member(e, anchor, sigma, sigma)
        y1, y2 = M.outputs_at(member, ini["k0"], ini["h0"], ini["u0"], ini["v0"])
        assert y1 == pytest.approx(anchor.y1, rel=1e-12)
        assert y2 == pytest.approx(anchor.y2, rel=1e-12)
        assert M.mrs(member.alpha1, member.psi1, anchor.x1) == pytest.approx(anchor.m, rel=1e-12)
        assert M.mrs(member.alpha2, member.psi2, anchor.x2) == pytest.approx(anchor.m, rel=1e-12)


def test_batched_and_scalar_evaluations_agree():
    econ = M.stack([case(c) for c in sorted(paper.CASE_PSI)])
    w, roots = M.scan_roots(econ)
    assert np.all(roots == 1)
    for i, c in enumerate(sorted(paper.CASE_PSI)):
        assert w[i] == pytest.approx(steady(case(c))["w_star"], rel=1e-14)


def test_model_agrees_with_the_program_off_the_balanced_path():
    from cesgrowth import ModelParams
    from cesgrowth.stability import rhs_reduced_values

    rng = np.random.default_rng(7)
    for c in sorted(paper.CASE_PSI):
        params = ModelParams(**paper.case_params(*paper.CASE_PSI[c]))
        for _ in range(20):
            z, q = rng.uniform(2.0, 15.0), rng.uniform(0.1, 0.5)
            u, v = rng.uniform(0.3, 0.95), rng.uniform(0.3, 0.95)
            if abs(u - v) < 0.05:
                continue
            got = rhs_reduced_values(z, q, u, v, params)
            ref = np.array(M.reduced_rhs(case(c), z, q, u, v))
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-12)
