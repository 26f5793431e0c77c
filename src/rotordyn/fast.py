"""Closed-form 321-sequence fast path for the model derivatives.

Hand-expanded scalar versions of the hot functions in ``models``,
specialized to the Tait-Bryan 321 sequence and a diagonal inertia.  The
generic implementations stay the reference; the test suite pins these to
them at machine tolerance.

Float-body convention: states and rotor speeds arrive as sequences
(list or tuple) of Python floats; ``lab.simulate_model`` turns an ndarray
rotor input into one before it calls a kernel.  Every kernel is one
straight-line body that makes no ndarray and calls no helper but
``models.mixer`` on the rotor speeds, ``_attitude_terms`` (shared with
``control``) and, in ``ne_derivative_321``, ``ne_rates_321``, the one
Newton-Euler body: a wrench plus the rotors' angular momentum h, which
``control`` passes as 0.0.  Each returns the derivative as a list of 12
floats, as ``integrators`` expects.

For 321 (eta = (phi, theta, psi), W independent of psi):

    W   = [[1, 0, -st], [0, cf, sf*ct], [0, -sf, cf*ct]]
    J_R = [[jx, 0, -jx*st],
           [0,  A,  B*ct],
           [-jx*st, B*ct, jx*st^2 + E*ct^2]]

with A = jy cf^2 + jz sf^2, B = (jy - jz) sf cf, E = jy sf^2 + jz cf^2.
"""

from __future__ import annotations

import math

from .kinematics import SINGULARITY_TOL, SingularConfiguration
from .models import QuadParams, mixer


def _check_ct(ct, phi, theta, psi):
    if abs(ct) <= SINGULARITY_TOL:
        raise SingularConfiguration(
            f"|det W| = |cos theta| = {abs(ct):.3e} <= {SINGULARITY_TOL:.1e} "
            f"at eta = ({phi}, {theta}, {psi})")


def ne_rates_321(y, thrust, tau, h, params: QuadParams) -> list:
    """Newton-Euler derivative at thrust, body torque tau (three floats) and
    rotor angular momentum h: J omega_dot + omega x J omega = tau
    + h (omega x e3), the gyroscopic term added only for a nonzero h."""
    _, _, _, phi, theta, psi, vx, vy, vz, wx, wy, wz = y
    sf, cf = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    if abs(ct) <= SINGULARITY_TOL:
        _check_ct(ct, phi, theta, psi)
    tx, ty, tz = tau
    if h:
        tx, ty = tx + h * wy, ty + -h * wx
    g = params.gravity
    jx, jy, jz = params.jx, params.jy, params.jz
    sp, cp = math.sin(psi), math.cos(psi)
    cpst, spst = cp * st, sp * st
    ctsf, ctcf = ct * sf, ct * cf
    tt = st / ct

    return [
        # p_dot = R v
        (cp * ct) * vx + (cpst * sf - sp * cf) * vy
        + (cpst * cf + sp * sf) * vz,
        (sp * ct) * vx + (spst * sf + cp * cf) * vy
        + (spst * cf - cp * sf) * vz,
        -st * vx + ctsf * vy + ctcf * vz,
        # eta_dot = W^-1 omega
        wx + sf * tt * wy + cf * tt * wz,
        cf * wy - sf * wz,
        (sf * wy + cf * wz) / ct,
        # v_dot = T/m e3 - omega x v - g R^T e3, R^T e3 = (-st, ct sf, ct cf)
        -(wy * vz - wz * vy) + g * st,
        -(wz * vx - wx * vz) - g * ctsf,
        thrust / params.mass - (wx * vy - wy * vx) - g * ctcf,
        # omega_dot = J^-1 (tau + h (omega x e3) - omega x J omega)
        (tx - (jz - jy) * wy * wz) / jx,
        (ty - (jx - jz) * wz * wx) / jy,
        (tz - (jy - jx) * wx * wy) / jz,
    ]


def _attitude_terms(sf, cf, st, ct, etad, params: QuadParams):
    """J_R and C @ eta_dot for the 321 sequence, as floats.

    Returns ``(jr, c_etad)``: the six upper-triangle entries
    (j11, j12, j13, j22, j23, j33) of the symmetric J_R, and C @ eta_dot.
    """
    jx, jy, jz = params.jx, params.jy, params.jz
    fd, td, pd = etad

    a = jy * cf * cf + jz * sf * sf
    b = (jy - jz) * sf * cf
    e = jy * sf * sf + jz * cf * cf
    c2f = cf * cf - sf * sf

    jr13 = -jx * st
    jr23 = b * ct
    jr33 = jx * st * st + e * ct * ct

    # dJ_R/dphi (nonzero block) and dJ_R/dtheta
    dA_f = -2.0 * b
    dBct_f = (jy - jz) * c2f * ct
    d33_f = 2.0 * b * ct * ct
    d13_t = -jx * ct
    dBct_t = -b * st
    d33_t = 2.0 * st * ct * (jx - e)

    # J_R_dot = dJR/dphi * phid + dJR/dtheta * thetad  (jrd11 = jrd12 = 0)
    jrd13 = d13_t * td
    jrd22 = dA_f * fd
    jrd23 = dBct_f * fd + dBct_t * td
    jrd33 = d33_f * fd + d33_t * td

    # (G @ etad)_i = etad^T (dJR/deta_i) etad ; dJR/dpsi = 0
    g0 = dA_f * td * td + 2.0 * dBct_f * td * pd + d33_f * pd * pd
    g1 = 2.0 * d13_t * fd * pd + 2.0 * dBct_t * td * pd + d33_t * pd * pd

    c_etad = (jrd13 * pd - 0.5 * g0,
              jrd22 * td + jrd23 * pd - 0.5 * g1,
              jrd13 * fd + jrd23 * td + jrd33 * pd)
    return (jx, 0.0, jr13, a, jr23, jr33), c_etad


def _gen_rates(y, u, params: QuadParams, revised: bool) -> list:
    """E-L derivative at rotor speeds ``u``: the mixer torque plus the rotor
    gyroscopic torque at omega = W eta_dot enters as the generalized torque
    tau (literature) or W^T tau (revised)."""
    thrust, (tx, ty, tz) = mixer(u, params)
    _, _, _, phi, theta, psi, xd, yd, zd, fd, td, pd = y
    sf, cf = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(psi), math.cos(psi)
    if abs(ct) <= SINGULARITY_TOL:
        _check_ct(ct, phi, theta, psi)
    gx = gy = 0.0
    if params.gyro_enabled and params.rotor_inertia != 0.0:
        s = params.rotor_inertia * (-u[0] + u[1] - u[2] + u[3])
        gx, gy = s * (cf * td + sf * ct * pd), -s * (fd - st * pd)
    tx, ty = tx + gx, ty + gy
    if revised:  # generalized torque W^T tau
        tx, ty, tz = (tx, cf * ty - sf * tz,
                      -st * tx + sf * ct * ty + cf * ct * tz)
    (a11, a12, a13, a22, a23, a33), (c0, c1, c2) = _attitude_terms(
        sf, cf, st, ct, (fd, td, pd), params)
    tm = thrust / params.mass
    # eta_dd = J_R^-1 (tau - C eta_dot), by the adjugate of the symmetric J_R
    r0, r1, r2 = tx - c0, ty - c1, tz - c2
    i11 = a22 * a33 - a23 * a23
    i12 = a13 * a23 - a12 * a33
    i13 = a12 * a23 - a13 * a22
    i22 = a11 * a33 - a13 * a13
    i23 = a12 * a13 - a11 * a23
    i33 = a11 * a22 - a12 * a12
    det = a11 * i11 + a12 * i12 + a13 * i13
    return [
        xd, yd, zd, fd, td, pd,
        # p_dd = T/m R e3 - g e3
        tm * (cp * st * cf + sp * sf),
        tm * (sp * st * cf - cp * sf),
        tm * (ct * cf) - params.gravity,
        (i11 * r0 + i12 * r1 + i13 * r2) / det,
        (i12 * r0 + i22 * r1 + i23 * r2) / det,
        (i13 * r0 + i23 * r1 + i33 * r2) / det,
    ]


def ne_derivative_321(y, u, params: QuadParams) -> list:
    """Newton-Euler derivative at rotor speeds ``u``: the mixer wrench and
    the rotors' angular momentum h = J_r (-u1 + u2 - u3 + u4)."""
    thrust, tau = mixer(u, params)
    h = 0.0
    if params.gyro_enabled and params.rotor_inertia != 0.0:
        h = params.rotor_inertia * (-u[0] + u[1] - u[2] + u[3])
    return ne_rates_321(y, thrust, tau, h, params)


def el_lit_derivative_321(y, u, params: QuadParams) -> list:
    """Literature Euler-Lagrange derivative at rotor speeds ``u``."""
    return _gen_rates(y, u, params, revised=False)


def rel_derivative_321(y, u, params: QuadParams) -> list:
    """Revised Euler-Lagrange derivative at rotor speeds ``u``."""
    return _gen_rates(y, u, params, revised=True)
