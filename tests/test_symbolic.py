"""Symbolic certificate of the paper's identity.

With L = 1/2 eta_dot^T W^T J W eta_dot, the Euler-Lagrange operator on L
equals W^T times the Newton-Euler torque balance, for every inertia and
attitude: the revised model maps the body torque through W^T.  The
literature model, which applies the torque unmapped, is off by
(W^T - I) tau, whose roll row vanishes.  The attitude terms the E-L
kernels use, J_R and C eta_dot, are derived from L here as well and pinned
against the package.  sympy is an optional test dependency, so the module
is skipped where it is not installed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotordyn import fast
from rotordyn.kinematics import w_matrix
from rotordyn.models import QuadParams, coriolis_matrix, rotated_inertia

sp = pytest.importorskip("sympy")

t = sp.Symbol("t")
jx, jy, jz = sp.symbols("jx jy jz", positive=True)
phi, theta, psi = (sp.Function(name)(t) for name in ("phi", "theta", "psi"))
ETA = sp.Matrix([phi, theta, psi])


def w_symbolic(eta):
    """W(eta) of the 321 sequence: omega (body frame) = W eta_dot."""
    f, th = eta[0], eta[1]
    return sp.Matrix([[1, 0, -sp.sin(th)],
                      [0, sp.cos(f), sp.sin(f) * sp.cos(th)],
                      [0, -sp.sin(f), sp.cos(f) * sp.cos(th)]])


def test_lagrangian_equals_w_transpose_of_newton_euler():
    w = w_symbolic(ETA)
    j = sp.diag(jx, jy, jz)
    eta_dot = ETA.diff(t)
    omega = w * eta_dot
    lagrangian = (eta_dot.T * w.T * j * w * eta_dot)[0] / 2
    euler_lagrange = sp.Matrix([
        lagrangian.diff(v.diff(t)).diff(t) - lagrangian.diff(v) for v in ETA])
    newton_euler = j * omega.diff(t) + omega.cross(j * omega)
    residual = (euler_lagrange - w.T * newton_euler).applyfunc(
        lambda e: sp.trigsimp(sp.expand(e)))
    assert residual == sp.zeros(3, 1)


def test_literature_residual_has_zero_roll_row():
    tau = sp.Matrix(sp.symbols("tau_x tau_y tau_z"))
    residual = ((w_symbolic(ETA).T - sp.eye(3)) * tau).applyfunc(sp.expand)
    assert residual[0] == 0
    assert residual[1] != 0 and residual[2] != 0


def test_symbolic_w_matches_kinematics():
    angles = sp.symbols("phi theta psi")
    w_num = sp.lambdify(angles, w_symbolic(angles), "numpy")
    rng = np.random.default_rng(0)
    etas = rng.uniform(-np.pi, np.pi, (200, 3))
    etas[:, 1] /= 2
    for eta in etas:
        np.testing.assert_allclose(w_num(*eta), w_matrix(eta),
                                   rtol=0, atol=1e-15)


def attitude_terms_symbolic():
    """J_R = W^T J W and C eta_dot from L = 1/2 eta_dot^T J_R eta_dot, with
    eta and eta_dot as plain symbols.  C eta_dot is the E-L operator at
    eta_ddot = 0: d/dt dL/d eta_dot then keeps only its eta-dependence."""
    eta = sp.Matrix(sp.symbols("phi theta psi"))
    eta_dot = sp.Matrix(sp.symbols("phid thetad psid"))
    w = w_symbolic(eta)
    jr = (w.T * sp.diag(jx, jy, jz) * w).applyfunc(sp.expand)
    lagrangian = (eta_dot.T * jr * eta_dot)[0] / 2
    c_etad = sp.Matrix([
        sum(lagrangian.diff(vd).diff(v) * v_dot
            for v, v_dot in zip(eta, eta_dot)) - lagrangian.diff(q)
        for vd, q in zip(eta_dot, eta)])
    return (*eta, *eta_dot, jx, jy, jz), jr, c_etad


SYMBOLS, JR, C_ETAD = attitude_terms_symbolic()
JR_NUM = sp.lambdify(SYMBOLS, JR, "numpy")
C_ETAD_NUM = sp.lambdify(SYMBOLS, C_ETAD, "numpy")


def test_rotated_inertia_roll_row_is_exact_for_321():
    assert sp.simplify(JR[0, 0] - jx) == 0
    assert sp.simplify(JR[0, 1]) == 0


def _between(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(eta=st.tuples(_between(-math.pi, math.pi), _between(-1.5, 1.5),
                     _between(-math.pi, math.pi)),
       eta_dot=st.tuples(*[_between(-10.0, 10.0)] * 3),
       inertia=st.tuples(*[_between(1e-4, 1.0)] * 3))
def test_attitude_terms_match_the_lagrangian(eta, eta_dot, inertia):
    params = QuadParams(jx=inertia[0], jy=inertia[1], jz=inertia[2])
    args = (*eta, *eta_dot, *inertia)
    jr_want = JR_NUM(*args).astype(float)
    c_want = C_ETAD_NUM(*args).astype(float).ravel()
    # 1e-12 of the scale of each term: max J for J_R, max J |eta_dot|^2
    # for C eta_dot, whose entries can cancel to near zero
    jr_tol = 1e-12 * max(inertia)
    c_tol = jr_tol * max(1.0, sum(v * v for v in eta_dot))

    phi, theta = eta[0], eta[1]
    (a11, a12, a13, a22, a23, a33), c_fast = fast._attitude_terms(
        math.sin(phi), math.cos(phi), math.sin(theta), math.cos(theta),
        eta_dot, params)
    jr_fast = [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]
    for got in (jr_fast, rotated_inertia(np.array(eta), params)):
        np.testing.assert_allclose(got, jr_want, rtol=1e-12, atol=jr_tol)
    c_generic = coriolis_matrix(np.array(eta), np.array(eta_dot),
                                params) @ np.array(eta_dot)
    for got in (c_fast, c_generic):
        np.testing.assert_allclose(got, c_want, rtol=1e-12, atol=c_tol)
