"""Symbolic certificate of the paper's identity.

With L = 1/2 eta_dot^T W^T J W eta_dot, the Euler-Lagrange operator on L
equals W^T times the Newton-Euler torque balance, for every inertia and
attitude: the revised model maps the body torque through W^T.  The
literature model, which applies the torque unmapped, is off by
(W^T - I) tau, whose roll row vanishes.  sympy is an optional test
dependency, so the module is skipped where it is not installed.
"""

import numpy as np
import pytest

from rotordyn.kinematics import w_matrix

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
