"""Quadrotor rigid-body dynamics models.

Three formulations of the same vehicle over a shared parameter set:

* Newton-Euler (``ne_derivative``), state (p, eta, v, omega) with v and
  omega in the body frame.
* The Euler-Lagrange model as commonly written in the literature
  (``el_lit_derivative``), state (p, eta, p_dot, eta_dot), generalized
  torque M.
* The revised Euler-Lagrange model (``rel_derivative``), identical except
  the generalized torque is W^T M, which restores exact equivalence with
  the Newton-Euler attitude dynamics.

State vectors are flat length-12 arrays, sliced by ``P`` and ``ETA``
(both layouts), ``V`` and ``OMEGA`` (Newton-Euler) and ``PDOT`` and
``ETADOT`` (Euler-Lagrange).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kinematics import (
    E3,
    matvec,
    rotation,
    skew,
    w_dot,
    w_inverse,
    w_matrix,
    w_partials,
)

P = slice(0, 3)
ETA = slice(3, 6)
PDOT = slice(6, 9)
ETADOT = slice(9, 12)
V = slice(6, 9)
OMEGA = slice(9, 12)

HOVER_ROTOR_SPEED = 476.05  # rad/s, matches the rotor-input regime used in the experiments


@dataclass(frozen=True)
class QuadParams:
    """Physical parameters of the quadrotor."""

    mass: float = 0.468          # kg
    jx: float = 4.856e-3         # kg m^2
    jy: float = 4.856e-3
    jz: float = 8.801e-3
    gravity: float = 9.81        # m/s^2
    arm: float = 0.225           # m, rotor arm length
    thrust_coeff: float = 0.0    # N s^2/rad^2; 0 means "calibrate for hover"
    drag_coeff: float = 1.14e-7  # N m s^2/rad^2
    rotor_inertia: float = 3.357e-5  # kg m^2
    gyro_enabled: bool = True

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError(f"parameters must be finite: {self}")
        if self.mass <= 0 or self.jx <= 0 or self.jy <= 0 or self.jz <= 0:
            raise ValueError("mass and inertia diagonal must be positive")
        if self.arm <= 0 or self.drag_coeff <= 0 or self.thrust_coeff < 0:
            raise ValueError("arm, drag_coeff must be positive, thrust_coeff >= 0")
        if self.rotor_inertia < 0:
            raise ValueError("rotor_inertia must be nonnegative")
        if self.thrust_coeff == 0.0:
            # hover at HOVER_ROTOR_SPEED on four rotors
            k = self.mass * self.gravity / (4.0 * HOVER_ROTOR_SPEED ** 2)
            object.__setattr__(self, "thrust_coeff", k)

    @property
    def inertia(self) -> np.ndarray:
        return np.diag([self.jx, self.jy, self.jz])

    @property
    def inertia_inv(self) -> np.ndarray:
        return np.diag([1.0 / self.jx, 1.0 / self.jy, 1.0 / self.jz])

    def with_gyro(self, enabled: bool) -> "QuadParams":
        return replace(self, gyro_enabled=enabled)


def mixer(u, params: QuadParams):
    """Rotor speeds -> (thrust, body torque) for a plus-configured frame.

    Rotor 1 on +x, 2 on +y, 3 on -x, 4 on -y; rotors 1 and 3 spin
    opposite to 2 and 4.  Returns Python floats: ``(thrust, (tx, ty, tz))``.
    """
    try:
        u0, u1, u2, u3 = u.tolist() if isinstance(u, np.ndarray) else u
        s0, s1, s2, s3 = u0 * u0, u1 * u1, u2 * u2, u3 * u3
    except (TypeError, ValueError):
        raise ValueError("expected four rotor speeds") from None
    k = params.thrust_coeff
    ak = params.arm * k
    thrust = k * (s0 + s1 + s2 + s3)
    return thrust, (ak * (s3 - s1), ak * (s2 - s0),
                    params.drag_coeff * (-s0 + s1 - s2 + s3))


def gyro_torque(omega, u, params: QuadParams) -> np.ndarray:
    """Gyroscopic torque of the spinning rotors, in the body frame."""
    if not params.gyro_enabled or params.rotor_inertia == 0.0:
        return np.zeros(3)
    relative_speed = -u[0] + u[1] - u[2] + u[3]
    return params.rotor_inertia * np.cross(omega, E3) * relative_speed


def rotated_inertia(eta, params: QuadParams) -> np.ndarray:
    """Inertia in Euler-angle coordinates, J_R = W^T J W."""
    w = w_matrix(eta)
    return w.T @ params.inertia @ w


def rotated_inertia_partials(eta, params: QuadParams) -> np.ndarray:
    """Analytic partials dJ_R/d(eta_k), shape (3, 3, 3):
    dW_k^T J W plus its transpose."""
    m = np.swapaxes(w_partials(eta), -1, -2) @ (params.inertia @ w_matrix(eta))
    return m + np.swapaxes(m, -1, -2)


def coriolis_matrix(eta, eta_dot, params: QuadParams) -> np.ndarray:
    """Coriolis/centrifugal matrix C = J_R_dot - G/2, from analytic partials.

    Row i of G is (dJ_R/d eta_i) @ eta_dot, so that (G @ eta_dot)_i equals
    the configuration gradient eta_dot^T (dJ_R/d eta_i) eta_dot of the
    rotational kinetic energy.
    """
    w = w_matrix(eta)
    wd = w_dot(eta, eta_dot)
    j = params.inertia
    jr_dot = wd.T @ j @ w + w.T @ j @ wd
    djr = rotated_inertia_partials(eta, params)
    g = np.stack([djr[k] @ eta_dot for k in range(3)])
    return jr_dot - 0.5 * g


def ne_rates(state, thrust, torque, tau_g, params: QuadParams) -> np.ndarray:
    """Newton-Euler state derivative from an explicit wrench."""
    eta = state[ETA]
    v = state[V]
    omega = state[OMEGA]
    r = rotation(eta)
    winv = w_inverse(eta)
    j = params.inertia
    out = np.empty(12)
    out[P] = r @ v
    out[ETA] = winv @ omega
    out[V] = (thrust / params.mass) * E3 - np.cross(omega, v) \
        - params.gravity * (r.T @ E3)
    out[OMEGA] = params.inertia_inv @ (torque + tau_g - np.cross(omega, j @ omega))
    return out


def ne_derivative(state, u, params: QuadParams) -> np.ndarray:
    """Newton-Euler model under rotor-speed input."""
    thrust, torque = mixer(u, params)
    tau_g = gyro_torque(state[OMEGA], u, params)
    return ne_rates(state, thrust, torque, tau_g, params)


def _gen_rates(state, thrust, torque, tau_g, params: QuadParams, revised):
    """Euler-Lagrange derivative.  The two models differ only in the
    generalized torque: W^T (M + tau_g) if revised, else M + tau_g."""
    eta = state[ETA]
    eta_dot = state[ETADOT]
    w = w_matrix(eta)
    w_inverse(eta)  # singularity guard; J_R is singular with W
    jr = w.T @ params.inertia @ w
    c = coriolis_matrix(eta, eta_dot, params)
    gen_torque = torque + tau_g
    if revised:
        gen_torque = w.T @ gen_torque
    out = np.empty(12)
    out[P] = state[PDOT]
    out[ETA] = eta_dot
    out[PDOT] = (thrust / params.mass) * (rotation(eta) @ E3) - params.gravity * E3
    out[ETADOT] = np.linalg.solve(jr, gen_torque - c @ eta_dot)
    return out


def el_lit_rates(state, thrust, torque, tau_g, params: QuadParams) -> np.ndarray:
    """Literature Euler-Lagrange derivative: generalized torque taken as M."""
    return _gen_rates(state, thrust, torque, tau_g, params, revised=False)


def rel_rates(state, thrust, torque, tau_g, params: QuadParams) -> np.ndarray:
    """Revised Euler-Lagrange derivative: generalized torque is W^T M."""
    return _gen_rates(state, thrust, torque, tau_g, params, revised=True)


def _gen_gyro(state, u, params: QuadParams) -> np.ndarray:
    omega = w_matrix(state[ETA]) @ state[ETADOT]
    return gyro_torque(omega, u, params)


def el_lit_derivative(state, u, params: QuadParams) -> np.ndarray:
    thrust, torque = mixer(u, params)
    return el_lit_rates(state, thrust, torque, _gen_gyro(state, u, params), params)


def rel_derivative(state, u, params: QuadParams) -> np.ndarray:
    thrust, torque = mixer(u, params)
    return rel_rates(state, thrust, torque, _gen_gyro(state, u, params), params)


def ne_attitude_in_eta(eta, eta_dot, torque, params: QuadParams) -> np.ndarray:
    """Euler-angle acceleration from the Newton-Euler attitude model written
    in eta coordinates: M = J W eta_dd + (J W_dot + S(W eta_dot) J W) eta_dot.

    Independent route to the same answer as the revised E-L model.
    """
    w = w_matrix(eta)
    w_inverse(eta)  # singularity guard
    j = params.inertia
    wd = w_dot(eta, eta_dot)
    omega = w @ eta_dot
    rhs = torque - (j @ wd + skew(omega) @ j @ w) @ eta_dot
    return np.linalg.solve(j @ w, rhs)


def body_to_gen(state) -> np.ndarray:
    """Convert (p, eta, v, omega) states (..., 12) to (p, eta, p_dot, eta_dot)."""
    state = np.asarray(state, float)
    eta = state[..., ETA]
    out = state.copy()
    out[..., PDOT] = matvec(rotation(eta), state[..., V])
    out[..., ETADOT] = matvec(w_inverse(eta), state[..., OMEGA])
    return out


def gen_to_body(state) -> np.ndarray:
    """Convert (p, eta, p_dot, eta_dot) states (..., 12) to (p, eta, v, omega)."""
    state = np.asarray(state, float)
    eta = state[..., ETA]
    out = state.copy()
    out[..., V] = matvec(np.swapaxes(rotation(eta), -1, -2), state[..., PDOT])
    out[..., OMEGA] = matvec(w_matrix(eta), state[..., ETADOT])
    return out
