"""Tait-Bryan 321 (ZYX) Euler-angle attitude kinematics.

Elementary rotations, the skew operator, and the map W(eta) between
Euler-angle rates and body-frame angular velocity, together with its
inverse and the analytic partial derivatives of W.

eta = (phi, theta, psi), so the body->inertial rotation is
R = R3(psi) @ R2(theta) @ R1(phi) and omega = W(eta) @ eta_dot with omega
in the body frame.  Built from elementary rotations, this is the spec the
closed-form ``fast`` kernels are pinned to.  Every function broadcasts over
leading axes: eta of shape (..., 3) gives matrices of shape (..., 3, 3).
Complex input gives complex output, for complex-step derivatives; real
input is computed in float64.
"""

from __future__ import annotations

import numpy as np

SINGULARITY_TOL = 1e-6

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

# (i, j) spanning the plane of the rotation about each axis: R[i, j] = -s
_PLANES = {1: (1, 2), 2: (2, 0), 3: (0, 1)}


class SingularConfiguration(Exception):
    """Raised when W(eta) is (near-)singular, i.e. close to gimbal lock."""


def _arr(x) -> np.ndarray:
    """x as a float64 array, or a complex128 one if x is complex."""
    x = np.asarray(x)
    return x.astype(complex if np.iscomplexobj(x) else float, copy=False)


def matvec(m, v) -> np.ndarray:
    """m @ v for stacks of matrices (..., 3, 3) and vectors (..., 3)."""
    return (m @ _arr(v)[..., None])[..., 0]


def skew(a) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector: skew(a) @ b == cross(a, b)."""
    a = _arr(a)
    out = np.zeros(a.shape + (3,), a.dtype)
    out[..., [2, 0, 1], [1, 2, 0]] = a
    out[..., [1, 2, 0], [2, 0, 1]] = -a
    return out


_S1, _S2 = skew(E1), skew(E2)


def elem_rotation(axis: int, angle) -> np.ndarray:
    """Rotation by `angle` about coordinate axis 1, 2 or 3."""
    if axis not in _PLANES:
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    angle = _arr(angle)
    s = np.sin(angle)
    i, j = _PLANES[axis]
    out = np.zeros(angle.shape + (3, 3), angle.dtype)
    out[..., axis - 1, axis - 1] = 1.0
    out[..., i, i] = out[..., j, j] = np.cos(angle)
    out[..., i, j], out[..., j, i] = -s, s
    return out


def rotation(eta) -> np.ndarray:
    """Body->inertial rotation matrix R3(psi) @ R2(theta) @ R1(phi)."""
    eta = _arr(eta)
    return (elem_rotation(3, eta[..., 2])
            @ elem_rotation(2, eta[..., 1])
            @ elem_rotation(1, eta[..., 0]))


def w_matrix(eta) -> np.ndarray:
    """Map W(eta) with omega = W(eta) @ eta_dot (omega in the body frame).

    Columns are the body-frame directions of the three elementary rotation
    rates: [e1, R1(-phi) e2, R1(-phi) R2(-theta) e3].
    """
    eta = _arr(eta)
    w = elem_rotation(1, -eta[..., 0])   # columns 0, 1: e1 = R1 e1 and R1 e2
    w[..., :, 2] = matvec(w, elem_rotation(2, -eta[..., 1])[..., :, 2])
    w[..., :, 1] += 0.0   # each -0.0 (sin(-0.0)) to +0.0, as R1 @ e2 gives it
    return w


def _det_adjugate(m):
    """Determinant and adjugate of matrices (..., 3, 3), by cofactors."""
    (a, b, c), (d, e, f), (g, h, i) = m.transpose(-2, -1, *range(m.ndim - 2))
    adj = np.empty(m.shape, m.dtype)
    adj[..., 0, 0] = e * i - f * h
    adj[..., 0, 1] = c * h - b * i
    adj[..., 0, 2] = b * f - c * e
    adj[..., 1, 0] = f * g - d * i
    adj[..., 1, 1] = a * i - c * g
    adj[..., 1, 2] = c * d - a * f
    adj[..., 2, 0] = d * h - e * g
    adj[..., 2, 1] = b * g - a * h
    adj[..., 2, 2] = a * e - b * d
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g), adj


def w_inverse(eta) -> np.ndarray:
    """Inverse map, eta_dot = w_inverse(eta) @ omega.

    Raises SingularConfiguration when |det W| <= SINGULARITY_TOL, naming
    the first such eta of a batch and its index.
    """
    eta = _arr(eta)
    det, adj = _det_adjugate(w_matrix(eta))
    locked = np.abs(det) <= SINGULARITY_TOL
    if locked.any():
        idx = tuple(np.argwhere(locked)[0].tolist())
        where = f" (batch index {idx[0] if len(idx) == 1 else idx})" if idx else ""
        raise SingularConfiguration(
            f"|det W| = {abs(det[idx]):.3e} <= {SINGULARITY_TOL:.1e} "
            f"at eta = {tuple(eta[idx].tolist())}{where}")
    return adj / np.asarray(det)[..., None, None]


def w_partials(eta) -> np.ndarray:
    """Analytic partials dW/d(eta_k), shape (..., 3, 3, 3) with k first.

    Uses d/dalpha R_a(alpha) = skew(e_a) @ R_a(alpha); W never depends on
    the yaw psi = eta[2].
    """
    eta = _arr(eta)
    r1 = elem_rotation(1, -eta[..., 0])
    r2e3 = elem_rotation(2, -eta[..., 1])[..., :, 2]
    out = np.zeros(eta.shape + (3, 3), eta.dtype)
    # d/d phi: both r1-dependent columns pick up -skew(e1) on the left of r1
    out[..., 0, :, 1] = -matvec(_S1, r1[..., :, 1])
    out[..., 0, :, 2] = -matvec(_S1, matvec(r1, r2e3))
    # d/d theta: only the last column depends on r2
    out[..., 1, :, 2] = -matvec(r1, matvec(_S2, r2e3))
    return out


def w_dot(eta, eta_dot) -> np.ndarray:
    """Analytic time derivative of W along eta(t) with rate eta_dot."""
    dw, rate = w_partials(eta), _arr(eta_dot)[..., None, None]
    return (dw[..., 0, :, :] * rate[..., 0, :, :]
            + dw[..., 1, :, :] * rate[..., 1, :, :]
            + dw[..., 2, :, :] * rate[..., 2, :, :])
