"""Euler-angle attitude kinematics.

Elementary rotations, the skew operator, and the map W(eta) between
Euler-angle rates and body-frame angular velocity, together with its
inverse, analytic partial derivatives, and the stacked skew structure
Sigma(W^-1) used by the equivalence checks.

Conventions: the default sequence is Tait-Bryan 321.  eta = (phi, theta,
psi) with phi the innermost rotation, so the body->inertial rotation is
R = R3(psi) @ R2(theta) @ R1(phi) and omega = W(eta) @ eta_dot with omega
in the body frame.  For a general sequence (a, b, c) the angles pair with
the axes outermost-first: eta[2] about axis a, eta[1] about b, eta[0]
about c.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SEQUENCE = (3, 2, 1)
SINGULARITY_TOL = 1e-6

_AXES = (np.array([1.0, 0.0, 0.0]),
         np.array([0.0, 1.0, 0.0]),
         np.array([0.0, 0.0, 1.0]))

E3 = _AXES[2]


class SingularConfiguration(Exception):
    """Raised when W(eta) is (near-)singular, i.e. close to gimbal lock."""


def _check_sequence(seq):
    if len(seq) != 3 or any(a not in (1, 2, 3) for a in seq):
        raise ValueError(f"sequence axes must be in {{1,2,3}}: {seq}")
    if seq[0] == seq[1] or seq[1] == seq[2]:
        raise ValueError(f"consecutive sequence axes must differ: {seq}")


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


def rotation(eta, seq=DEFAULT_SEQUENCE) -> np.ndarray:
    """Body->inertial rotation matrix for Euler angles `eta`."""
    _check_sequence(seq)
    return (elem_rotation(seq[0], eta[2])
            @ elem_rotation(seq[1], eta[1])
            @ elem_rotation(seq[2], eta[0]))


def w_matrix(eta, seq=DEFAULT_SEQUENCE) -> np.ndarray:
    """Map W(eta) with omega = W(eta) @ eta_dot (omega in the body frame).

    Columns are the body-frame directions of the three elementary rotation
    rates: [e_c, Rc(-eta0) e_b, Rc(-eta0) Rb(-eta1) e_a] for seq (a, b, c).
    """
    _check_sequence(seq)
    a, b, c = seq
    rc = elem_rotation(c, -eta[0])
    col1 = _AXES[c - 1]
    col2 = rc @ _AXES[b - 1]
    col3 = rc @ (elem_rotation(b, -eta[1]) @ _AXES[a - 1])
    return np.column_stack((col1, col2, col3))


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


def w_det(eta, seq=DEFAULT_SEQUENCE) -> float:
    """det W(eta); zero exactly at the gimbal-lock configurations."""
    return _det3(w_matrix(eta, seq))


def w_inverse(eta, seq=DEFAULT_SEQUENCE) -> np.ndarray:
    """Inverse map, eta_dot = w_inverse(eta) @ omega.

    Raises SingularConfiguration when |det W| <= SINGULARITY_TOL.
    """
    w = w_matrix(eta, seq)
    det = _det3(w)
    if abs(det) <= SINGULARITY_TOL:
        raise SingularConfiguration(
            f"|det W| = {abs(det):.3e} <= {SINGULARITY_TOL:.1e} "
            f"at eta = {tuple(eta)}")
    return _inv3(w, det)


def w_partials(eta, seq=DEFAULT_SEQUENCE) -> np.ndarray:
    """Analytic partials dW/d(eta_k), shape (3, 3, 3), index k first.

    Uses d/dalpha R_a(alpha) = skew(e_a) @ R_a(alpha); W never depends on
    the outermost angle eta[2].
    """
    _check_sequence(seq)
    a, b, c = seq
    ea, eb, ec = _AXES[a - 1], _AXES[b - 1], _AXES[c - 1]
    rc = elem_rotation(c, -eta[0])
    rb = elem_rotation(b, -eta[1])
    sc = skew(ec)
    col2 = rc @ eb
    col3 = rc @ (rb @ ea)

    out = np.zeros((3, 3, 3))
    # d/d eta0: both rc-dependent columns pick up -skew(e_c) on the left of rc
    out[0, :, 1] = -(sc @ col2)
    out[0, :, 2] = -(sc @ col3)
    # d/d eta1: only the outermost column depends on rb
    out[1, :, 2] = -(rc @ (skew(eb) @ (rb @ ea)))
    return out


def w_dot(eta, eta_dot, seq=DEFAULT_SEQUENCE) -> np.ndarray:
    """Analytic time derivative of W along eta(t) with rate eta_dot."""
    dw = w_partials(eta, seq)
    return dw[0] * eta_dot[0] + dw[1] * eta_dot[1] + dw[2] * eta_dot[2]


def w_inverse_partials(eta, seq=DEFAULT_SEQUENCE) -> np.ndarray:
    """Analytic partials d(W^-1)/d(eta_k), shape (3, 3, 3), via
    d(W^-1) = -W^-1 dW W^-1."""
    winv = w_inverse(eta, seq)
    dw = w_partials(eta, seq)
    return np.stack([-winv @ dw[k] @ winv for k in range(3)])


def w_inverse_dot(eta, eta_dot, seq=DEFAULT_SEQUENCE) -> np.ndarray:
    """Analytic time derivative of W^-1 along eta(t)."""
    dwi = w_inverse_partials(eta, seq)
    return dwi[0] * eta_dot[0] + dwi[1] * eta_dot[1] + dwi[2] * eta_dot[2]


def row_jacobians(eta, seq=DEFAULT_SEQUENCE) -> np.ndarray:
    """Jacobians P_i of the rows of W^-1, shape (3, 3, 3).

    P[i][j, k] = d (W^-1)[i, j] / d eta_k, i.e. the Jacobian of row i of
    W^-1 viewed as a column vector.
    """
    dwi = w_inverse_partials(eta, seq)
    # dwi[k][i, j] -> P[i][j, k]
    return np.transpose(dwi, (1, 2, 0))


def sigma_w_inv(eta, seq=DEFAULT_SEQUENCE):
    """The three stacked blocks of Sigma(W^-1).

    Block i is P_i @ W^-1 minus its transpose, which collapses to the
    skew-symmetric matrix of row i of W^-1.
    """
    winv = w_inverse(eta, seq)
    p = row_jacobians(eta, seq)
    blocks = []
    for i in range(3):
        m = p[i] @ winv
        blocks.append(m - m.T)
    return tuple(blocks)
