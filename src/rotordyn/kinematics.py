"""Tait-Bryan 321 (ZYX) Euler-angle attitude kinematics.

Elementary rotations, the skew operator, and the map W(eta) between
Euler-angle rates and body-frame angular velocity, together with its
inverse, analytic partial derivatives, and the stacked skew structure
Sigma(W^-1) used by the equivalence checks.

eta = (phi, theta, psi), so the body->inertial rotation is
R = R3(psi) @ R2(theta) @ R1(phi) and omega = W(eta) @ eta_dot with omega
in the body frame.  Built from elementary rotations, this is the spec the
closed-form ``fast`` kernels are pinned to.
"""

from __future__ import annotations

import math

import numpy as np

SINGULARITY_TOL = 1e-6

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


class SingularConfiguration(Exception):
    """Raised when W(eta) is (near-)singular, i.e. close to gimbal lock."""


def skew(a) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector: skew(a) @ b == cross(a, b)."""
    a1, a2, a3 = a
    return np.array([[0.0, -a3, a2],
                     [a3, 0.0, -a1],
                     [-a2, a1, 0.0]])


def elem_rotation(axis: int, angle: float) -> np.ndarray:
    """Rotation by `angle` about coordinate axis 1, 2 or 3."""
    c = math.cos(angle)
    s = math.sin(angle)
    if axis == 1:
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == 2:
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if axis == 3:
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError(f"axis must be 1, 2 or 3, got {axis}")


def rotation(eta) -> np.ndarray:
    """Body->inertial rotation matrix R3(psi) @ R2(theta) @ R1(phi)."""
    return (elem_rotation(3, eta[2])
            @ elem_rotation(2, eta[1])
            @ elem_rotation(1, eta[0]))


def w_matrix(eta) -> np.ndarray:
    """Map W(eta) with omega = W(eta) @ eta_dot (omega in the body frame).

    Columns are the body-frame directions of the three elementary rotation
    rates: [e1, R1(-phi) e2, R1(-phi) R2(-theta) e3].
    """
    r1 = elem_rotation(1, -eta[0])
    return np.column_stack((E1, r1 @ E2,
                            r1 @ (elem_rotation(2, -eta[1]) @ E3)))


def _det3(m) -> float:
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def _inv3(m, det: float) -> np.ndarray:
    out = np.empty((3, 3))
    out[0, 0] = m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    out[0, 1] = m[0, 2] * m[2, 1] - m[0, 1] * m[2, 2]
    out[0, 2] = m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1]
    out[1, 0] = m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2]
    out[1, 1] = m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
    out[1, 2] = m[0, 2] * m[1, 0] - m[0, 0] * m[1, 2]
    out[2, 0] = m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]
    out[2, 1] = m[0, 1] * m[2, 0] - m[0, 0] * m[2, 1]
    out[2, 2] = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    out /= det
    return out


def w_inverse(eta) -> np.ndarray:
    """Inverse map, eta_dot = w_inverse(eta) @ omega.

    Raises SingularConfiguration when |det W| <= SINGULARITY_TOL.
    """
    w = w_matrix(eta)
    det = _det3(w)
    if abs(det) <= SINGULARITY_TOL:
        raise SingularConfiguration(
            f"|det W| = {abs(det):.3e} <= {SINGULARITY_TOL:.1e} "
            f"at eta = {tuple(eta)}")
    return _inv3(w, det)


def w_partials(eta) -> np.ndarray:
    """Analytic partials dW/d(eta_k), shape (3, 3, 3), index k first.

    Uses d/dalpha R_a(alpha) = skew(e_a) @ R_a(alpha); W never depends on
    the yaw psi = eta[2].
    """
    r1 = elem_rotation(1, -eta[0])
    r2 = elem_rotation(2, -eta[1])
    s1 = skew(E1)
    col2 = r1 @ E2
    col3 = r1 @ (r2 @ E3)

    out = np.zeros((3, 3, 3))
    # d/d phi: both r1-dependent columns pick up -skew(e1) on the left of r1
    out[0, :, 1] = -(s1 @ col2)
    out[0, :, 2] = -(s1 @ col3)
    # d/d theta: only the last column depends on r2
    out[1, :, 2] = -(r1 @ (skew(E2) @ (r2 @ E3)))
    return out


def w_dot(eta, eta_dot) -> np.ndarray:
    """Analytic time derivative of W along eta(t) with rate eta_dot."""
    dw = w_partials(eta)
    return dw[0] * eta_dot[0] + dw[1] * eta_dot[1] + dw[2] * eta_dot[2]


def w_inverse_partials(eta) -> np.ndarray:
    """Analytic partials d(W^-1)/d(eta_k), shape (3, 3, 3), via
    d(W^-1) = -W^-1 dW W^-1."""
    winv = w_inverse(eta)
    dw = w_partials(eta)
    return np.stack([-winv @ dw[k] @ winv for k in range(3)])


def w_inverse_dot(eta, eta_dot) -> np.ndarray:
    """Analytic time derivative of W^-1 along eta(t)."""
    dwi = w_inverse_partials(eta)
    return dwi[0] * eta_dot[0] + dwi[1] * eta_dot[1] + dwi[2] * eta_dot[2]


def row_jacobians(eta) -> np.ndarray:
    """Jacobians P_i of the rows of W^-1, shape (3, 3, 3).

    P[i][j, k] = d (W^-1)[i, j] / d eta_k, i.e. the Jacobian of row i of
    W^-1 viewed as a column vector.
    """
    dwi = w_inverse_partials(eta)
    # dwi[k][i, j] -> P[i][j, k]
    return np.transpose(dwi, (1, 2, 0))


def sigma_w_inv(eta):
    """The three stacked blocks of Sigma(W^-1).

    Block i is P_i @ W^-1 minus its transpose, which collapses to the
    skew-symmetric matrix of row i of W^-1.
    """
    winv = w_inverse(eta)
    p = row_jacobians(eta)
    blocks = []
    for i in range(3):
        m = p[i] @ winv
        blocks.append(m - m.T)
    return tuple(blocks)
