"""The 321 derivative kernels composed from helper calls.

``rotordyn.fast`` writes each kernel out as one straight-line body.  These
are the same kernels built from the helpers those bodies replaced: the
package's own ``_check_ct``, ``_attitude_terms`` and
``models.relative_rotor_speed``, plus local copies of the rotation R v,
the Euler-angle rates W^-1 omega, the gyroscopic term and the symmetric
solve, which the package no longer has.  The tests pin the fused kernels
to these bit for bit.
"""

import math

from rotordyn.fast import _attitude_terms, _check_ct
from rotordyn.models import mixer, relative_rotor_speed


def rotate(sf, cf, st, ct, sp, cp, x, y, z):
    """R (x, y, z): body->inertial rotation of a body-frame vector."""
    return ((cp * ct) * x + (cp * st * sf - sp * cf) * y
            + (cp * st * cf + sp * sf) * z,
            (sp * ct) * x + (sp * st * sf + cp * cf) * y
            + (sp * st * cf - cp * sf) * z,
            -st * x + (ct * sf) * y + (ct * cf) * z)


def w_inv(sf, cf, st, ct, a, b, c):
    """W^-1 (a, b, c): Euler-angle rates from body angular velocity."""
    tt = st / ct
    return (a + sf * tt * b + cf * tt * c, cf * b - sf * c,
            (sf * b + cf * c) / ct)


def gyro_body(wx, wy, u, params):
    """Rotor gyroscopic torque (x, y components; z is zero)."""
    if not params.gyro_enabled or params.rotor_inertia == 0.0:
        return 0.0, 0.0
    s = params.rotor_inertia * relative_rotor_speed(u)
    return s * wy, -s * wx


def solve_sym(jr, rhs):
    """Solve J_R x = rhs, J_R given as its six upper-triangle entries."""
    a11, a12, a13, a22, a23, a33 = jr
    r0, r1, r2 = rhs
    i11 = a22 * a33 - a23 * a23
    i12 = a13 * a23 - a12 * a33
    i13 = a12 * a23 - a13 * a22
    i22 = a11 * a33 - a13 * a13
    i23 = a12 * a13 - a11 * a23
    i33 = a11 * a22 - a12 * a12
    det = a11 * i11 + a12 * i12 + a13 * i13
    return ((i11 * r0 + i12 * r1 + i13 * r2) / det,
            (i12 * r0 + i22 * r1 + i23 * r2) / det,
            (i13 * r0 + i23 * r1 + i33 * r2) / det)


def ne_rates_321(y, thrust, tau, params, u=None):
    _, _, _, phi, theta, psi, vx, vy, vz, wx, wy, wz = y
    sf, cf = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    _check_ct(ct, phi, theta, psi)
    tx, ty, tz = tau
    if u is not None:
        gx, gy = gyro_body(wx, wy, u, params)
        tx, ty = tx + gx, ty + gy
    g = params.gravity
    jx, jy, jz = params.jx, params.jy, params.jz
    return [
        *rotate(sf, cf, st, ct, math.sin(psi), math.cos(psi), vx, vy, vz),
        *w_inv(sf, cf, st, ct, wx, wy, wz),
        -(wy * vz - wz * vy) + g * st,
        -(wz * vx - wx * vz) - g * (ct * sf),
        thrust / params.mass - (wx * vy - wy * vx) - g * (ct * cf),
        (tx - (jz - jy) * wy * wz) / jx,
        (ty - (jx - jz) * wz * wx) / jy,
        (tz - (jy - jx) * wx * wy) / jz,
    ]


def gen_rates(y, thrust, tau, params, revised, u=None):
    _, _, _, phi, theta, psi, xd, yd, zd, fd, td, pd = y
    sf, cf = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(psi), math.cos(psi)
    _check_ct(ct, phi, theta, psi)
    tx, ty, tz = tau
    if u is not None:
        gx, gy = gyro_body(fd - st * pd, cf * td + sf * ct * pd, u, params)
        tx, ty = tx + gx, ty + gy
    if revised:
        tx, ty, tz = (tx, cf * ty - sf * tz,
                      -st * tx + sf * ct * ty + cf * ct * tz)
    jr, (c0, c1, c2) = _attitude_terms(sf, cf, st, ct, (fd, td, pd), params)
    tm = thrust / params.mass
    return [
        xd, yd, zd, fd, td, pd,
        tm * (cp * st * cf + sp * sf),
        tm * (sp * st * cf - cp * sf),
        tm * (ct * cf) - params.gravity,
        *solve_sym(jr, (tx - c0, ty - c1, tz - c2)),
    ]


def ne_derivative_321(y, u, params):
    thrust, tau = mixer(u, params)
    return ne_rates_321(y, thrust, tau, params, u=u)


def el_lit_derivative_321(y, u, params):
    thrust, tau = mixer(u, params)
    return gen_rates(y, thrust, tau, params, revised=False, u=u)


def rel_derivative_321(y, u, params):
    thrust, tau = mixer(u, params)
    return gen_rates(y, thrust, tau, params, revised=True, u=u)
