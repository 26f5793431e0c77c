"""Feedback-linearization PID flight control and the gain-sweep study.

The truth plant for all closed-loop runs is the Newton-Euler model with
wrench-level inputs.  The inner attitude loop cancels the nonlinear
attitude dynamics using either the literature E-L terms (torque command
J_R nu + C eta_dot) or the revised E-L terms (the same command mapped
through W^-T), which is the locus of the comparison; the outer position
loop is identical for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fast import _attitude_terms, _check_ct, ne_rates_321
from .integrators import Diverged, Trajectory, _rk4_step, march, step_count
from .kinematics import (
    SINGULARITY_TOL,
    SingularConfiguration,
    rotation,
    w_matrix,
)
from .models import QuadParams

step_rk4 = _rk4_step(12)   # one RK4 step of the 12-float plant state

MAX_TILT = math.radians(60.0)
ERROR_LIMIT = math.pi / 2  # attitude error beyond this counts as diverged


class InfeasibleAttitude(Exception):
    """Commanded acceleration requires more tilt than allowed."""


@dataclass(frozen=True)
class Gains:
    """Outer position and inner attitude PID gains (scalars applied per axis)."""

    pos_kp: float = 6.0
    pos_kd: float = 4.0
    att_kp: float = 900.0
    att_ki: float = 8e3
    att_kd: float = 22.0

    def __post_init__(self):
        for name in ("pos_kp", "pos_kd", "att_kp", "att_ki", "att_kd"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class HelixSpec:
    """Reference trajectory: circle of given radius and angular rate with a
    constant climb rate.  Tangent yaw follows the horizontal velocity and
    needs a nonzero rate."""

    radius: float = 2.0
    rate: float = 1.4          # rad/s
    climb: float = 0.1         # m/s
    yaw_mode: str = "constant"  # or "tangent"
    yaw: float = 0.0
    duration: float = 60.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.radius, self.rate, self.climb,
                                       self.yaw, self.duration))):
            raise ValueError("helix fields must be finite")
        if self.radius <= 0 or self.duration <= 0:
            raise ValueError("radius and duration must be positive")
        if self.yaw_mode not in ("constant", "tangent"):
            raise ValueError(f"yaw_mode must be constant or tangent: {self.yaw_mode!r}")
        if self.yaw_mode == "tangent" and self.rate == 0:
            raise ValueError("tangent yaw needs a nonzero rate")


def helix_reference(t: float, spec: HelixSpec):
    """Reference position, velocity and acceleration (tuples of floats) and
    yaw at time t.  The tangent yaw is the heading of the velocity, made
    continuous: it equals atan2 of the velocity modulo 2 pi."""
    w = spec.rate
    r = spec.radius
    c, s = math.cos(w * t), math.sin(w * t)
    p = (r * c, r * s, spec.climb * t)
    pd = (-r * w * s, r * w * c, spec.climb)
    pdd = (-r * w * w * c, -r * w * w * s, 0.0)
    if spec.yaw_mode == "constant":
        psi = spec.yaw
    else:
        psi = w * t + math.copysign(math.pi / 2, w)
    return p, pd, pdd, psi


def position_outer_loop(p, p_dot, p_ref, pd_ref, pdd_ref, psi_ref,
                        gains: Gains, params: QuadParams):
    """Thrust magnitude and attitude reference from the commanded
    acceleration: PD on the position error plus the reference acceleration.

    The commanded specific force f = a_cmd + g e3 is realized by tilting the
    body z axis onto f; raises InfeasibleAttitude if that needs more than
    ``MAX_TILT`` or a non-positive vertical component.  Returns
    ``(thrust, (phi_ref, theta_ref, psi_ref))`` as floats.
    """
    kp, kd = gains.pos_kp, gains.pos_kd
    x0, x1, x2 = p
    v0, v1, v2 = p_dot
    r0, r1, r2 = p_ref
    s0, s1, s2 = pd_ref
    a0, a1, a2 = pdd_ref
    fx = a0 + kd * (s0 - v0) + kp * (r0 - x0)
    fy = a1 + kd * (s1 - v1) + kp * (r1 - x1)
    fz = a2 + kd * (s2 - v2) + kp * (r2 - x2) + params.gravity
    norm = math.hypot(fx, fy, fz)
    if fz <= 0.0 or fz / norm < math.cos(MAX_TILT):
        raise InfeasibleAttitude(
            f"commanded specific force {[fx, fy, fz]} exceeds tilt limit "
            f"{math.degrees(MAX_TILT):.0f} deg")
    u0, u1, u2 = fx / norm, fy / norm, fz / norm
    sp, cp = math.sin(psi_ref), math.cos(psi_ref)
    phi_ref = -math.asin(-sp * u0 + cp * u1)
    theta_ref = math.atan2(cp * u0 + sp * u1, u2)
    return params.mass * norm, (phi_ref, theta_ref, psi_ref)


def attitude_fl_pid(compensator: str, trig, eta_dot, err, int_err,
                    gains: Gains, params: QuadParams):
    """Body torque command from feedback linearization plus PID on the
    attitude error ``err`` = eta_ref - eta, with a constant reference (zero
    reference rates).  ``trig`` is (sin phi, cos phi, sin theta, cos theta)
    of the attitude, whose cos theta the caller has checked.

    ``compensator`` selects the model used for dynamic compensation:
    'el' applies M = J_R nu + C eta_dot (literature), 'rel' applies
    M = W^-T (J_R nu + C eta_dot), which exactly linearizes the true
    attitude dynamics.  Returns the torque as a tuple of floats.
    """
    if compensator not in ("el", "rel"):
        raise ValueError(f"compensator must be 'el' or 'rel': {compensator!r}")
    kp, ki, kd = gains.att_kp, gains.att_ki, gains.att_kd
    sf, cf, st, ct = trig
    v0, v1, v2 = eta_dot
    e0, e1, e2 = err
    i0, i1, i2 = int_err
    n0 = kd * -v0 + kp * e0 + ki * i0
    n1 = kd * -v1 + kp * e1 + ki * i1
    n2 = kd * -v2 + kp * e2 + ki * i2
    (j11, j12, j13, j22, j23, j33), (c0, c1, c2) = _attitude_terms(
        sf, cf, st, ct, eta_dot, params)
    t0 = j11 * n0 + j12 * n1 + j13 * n2 + c0
    t1 = j12 * n0 + j22 * n1 + j23 * n2 + c1
    t2 = j13 * n0 + j23 * n1 + j33 * n2 + c2
    if compensator == "el":
        return t0, t1, t2
    tt = st / ct   # W^-T (t0, t1, t2)
    return (t0, sf * tt * t0 + cf * t1 + (sf / ct) * t2,
            cf * tt * t0 - sf * t1 + (cf / ct) * t2)


class TrackingResult(Trajectory):
    """Closed-loop run record: row i is the attitude error eta_ref - eta
    at times[i] = i * dt."""

    @property
    def attitude_error(self) -> np.ndarray:
        return self.states

    @property
    def max_error(self) -> float:
        return float(np.abs(self.states).max()) if len(self) else math.inf


def run_tracking(compensator: str, spec: HelixSpec, gains: Gains,
                 params: QuadParams, dt: float = 1e-3) -> TrackingResult:
    """Simulate the closed loop on the Newton-Euler plant.

    ``integrators.march`` steps the plant; each control step in its loop
    unpacks the plant state once and writes its generalized rates R v and
    W^-1 omega in place, with the expressions of ``fast.ne_rates_321``, and
    hands its sin/cos of phi and theta and its attitude error to the torque.
    The wrench is held over the RK4 substages.  The plant sees no
    rotor-level gyroscopic torque (wrench commands are applied directly).
    Raises InfeasibleAttitude for a reference that is infeasible at t = 0;
    later infeasibility, gimbal lock or a runaway state or stage ends the
    run as diverged.  Raises ValueError for a step that is not finite and
    positive, or a run shorter than one step.
    """
    n_steps = step_count(spec.duration, dt)
    y = _reference_start(spec, gains, params).tolist()
    a0 = a1 = a2 = 0.0    # integral of the attitude error
    errors = np.empty((n_steps + 1, 3))
    error_row = memoryview(errors)   # float stores with no ndarray call

    def f(_t, yy):   # the plant under the wrench of the current step
        return ne_rates_321(yy, thrust, torque, params)

    def diverged(rows, reason):   # the first rows, up to diverged_step
        return TrackingResult(dt, errors[:rows], True, rows - 1, reason)

    try:
        for i, y in march(step_rk4, f, y, dt, n_steps):
            p_ref, pd_ref, pdd_ref, psi_ref = helix_reference(i * dt, spec)
            x0, x1, x2, phi, theta, psi, vx, vy, vz, wx, wy, wz = y
            sf, cf = math.sin(phi), math.cos(phi)
            st, ct = math.sin(theta), math.cos(theta)
            if abs(ct) <= SINGULARITY_TOL:
                _check_ct(ct, phi, theta, psi)
            sp, cp = math.sin(psi), math.cos(psi)
            tt = st / ct
            p_dot = (   # R v
                (cp * ct) * vx + (cp * st * sf - sp * cf) * vy
                + (cp * st * cf + sp * sf) * vz,
                (sp * ct) * vx + (sp * st * sf + cp * cf) * vy
                + (sp * st * cf - cp * sf) * vz,
                -st * vx + (ct * sf) * vy + (ct * cf) * vz)
            eta_dot = (wx + sf * tt * wy + cf * tt * wz,   # W^-1 omega
                       cf * wy - sf * wz, (sf * wy + cf * wz) / ct)
            thrust, (r0, r1, r2) = position_outer_loop(
                (x0, x1, x2), p_dot, p_ref, pd_ref, pdd_ref, psi_ref,
                gains, params)
            e0, e1, e2 = r0 - phi, r1 - theta, r2 - psi
            torque = attitude_fl_pid(compensator, (sf, cf, st, ct), eta_dot,
                                     (e0, e1, e2), (a0, a1, a2), gains, params)
            error_row[i, 0], error_row[i, 1], error_row[i, 2] = e0, e1, e2
            if max(abs(e0), abs(e1), abs(e2)) > ERROR_LIMIT:
                return diverged(i + 1, "attitude error limit exceeded")
            a0 += e0 * dt
            a1 += e1 * dt
            a2 += e2 * dt
    except (InfeasibleAttitude, SingularConfiguration) as exc:
        return diverged(i, str(exc))   # the controller, at step i
    except Diverged as exc:
        return diverged(exc.i + 1, exc.reason)   # the plant, after step i
    return TrackingResult(dt, errors)


def _reference_start(spec: HelixSpec, gains: Gains,
                     params: QuadParams) -> np.ndarray:
    """Plant state matched to the reference at t = 0 (feedforward attitude,
    reference velocity, attitude rate from a finite difference of the
    feedforward attitude)."""
    def ff_attitude(t):
        p_ref, pd_ref, pdd_ref, psi_ref = helix_reference(t, spec)
        _, eta_ref = position_outer_loop(p_ref, pd_ref, p_ref, pd_ref,
                                         pdd_ref, psi_ref, gains, params)
        return np.array(eta_ref)

    p_ref, pd_ref, _, _ = helix_reference(0.0, spec)
    h = 1e-4
    eta0 = ff_attitude(0.0)
    etad0 = (ff_attitude(h) - ff_attitude(-h)) / (2.0 * h)
    y = np.empty(12)
    y[0:3] = p_ref
    y[3:6] = eta0
    y[6:9] = rotation(eta0).T @ pd_ref
    y[9:12] = w_matrix(eta0) @ etad0
    return y


@dataclass
class SweepRow:
    compensator: str
    ki: float
    stable: bool
    max_error: float


@dataclass
class SweepReport:
    """Stability classification per (compensator, integral gain) cell."""

    rows: list[SweepRow] = field(default_factory=list)

    def min_destabilizing_ki(self, compensator: str) -> float | None:
        kis = [r.ki for r in self.rows
               if r.compensator == compensator and not r.stable]
        return min(kis) if kis else None

    def format_text(self) -> str:
        lines = ["compensator      Ki       stable   max|e_eta|"]
        for r in self.rows:
            lines.append(f"{r.compensator:<12}{r.ki:>10g}   "
                         f"{str(r.stable):<8} {r.max_error:.4e}")
        for comp in sorted({r.compensator for r in self.rows}):
            ki = self.min_destabilizing_ki(comp)
            lines.append(f"min destabilizing Ki for {comp}: "
                         f"{'none in grid' if ki is None else f'{ki:g}'}")
        return "\n".join(lines)

    def csv_rows(self):
        yield ["compensator", "ki", "stable", "max_error"]
        for r in self.rows:
            yield [r.compensator, repr(r.ki), str(r.stable), repr(r.max_error)]


DEFAULT_KI_GRID = (8e3, 10e3, 12e3, 14e3, 15.5e3, 16e3, 18e3)


def gain_sweep(compensators, ki_grid, gains: Gains, spec: HelixSpec,
               params: QuadParams, dt: float = 2e-3) -> SweepReport:
    """Classify closed-loop stability over a grid of integral gains."""
    ki_grid = sorted(ki_grid)
    if not ki_grid:
        raise ValueError("ki_grid must be nonempty")
    rows = []
    for comp in compensators:
        for ki in ki_grid:
            result = run_tracking(comp, spec, replace(gains, att_ki=ki),
                                  params, dt)
            rows.append(SweepRow(comp, ki, not result.diverged,
                                 result.max_error))
    return SweepReport(rows)
