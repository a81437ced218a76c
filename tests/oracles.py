"""Oracles of the fused plant and estimator steps, kept as tests only.

`derivative_scalars` is the stator equation (with the mechanics) as one
function on plain floats.  Four calls of it, composed as classical RK4,
are the reference `hfsense.motor.rk4_step` must equal bit for bit.  The
matrix form (`saliency_matrix`, `inductance_matrix`) is the independent
check of `derivative_scalars` itself.

`virtual_output_to_angle` is the angle recovery with its degenerate-radius
check as one function: the reference for the centre, radius check and
branch resolution inlined in `ProposedEstimator.step`.

`frame_rotate` and `Pi` are the frame rotation and the PI loop that
`SensorlessController.low_frequency_voltage` runs inline, operation for
operation.  `unwrapped_phase_at` unwraps the phase of G_d from omega -> 0; the
criterion-5 check and its unit test read it at the probe frequency.
"""

import math

import numpy as np

from hfsense.estimators import _locus_angle
from hfsense.motor import MotorParams
from hfsense.signal_ops import gd_frequency_response


class DegenerateSignalError(ValueError):
    """Raised when the virtual-output vector carries no saliency information."""


def virtual_output_to_angle(y1: float, y2: float, params: MotorParams,
                            prev_theta: float, min_radius: float = 0.0) -> float:
    """Recover the unwrapped angle from a virtual-output estimate.

    The locus is centred at (L0/(Ld Lq), 0); a point within min_radius of
    the centre carries no angle and raises DegenerateSignalError.
    """
    dx = y1 - params.L0 / params.det_L
    if math.hypot(dx, y2) <= min_radius:
        raise DegenerateSignalError("virtual output too close to the circle center")
    return _locus_angle(dx, y2, params.L1, prev_theta)


def saliency_matrix(theta: float) -> np.ndarray:
    """Angle-dependent part of the inductance: [[cos2t, sin2t], [sin2t, -cos2t]]."""
    c2 = math.cos(2.0 * theta)
    s2 = math.sin(2.0 * theta)
    return np.array([[c2, s2], [s2, -c2]])


def inductance_matrix(params: MotorParams, theta: float) -> np.ndarray:
    """L(theta) = L0*I + L1*Q(theta); symmetric positive definite, det = L_d*L_q."""
    return params.L0 * np.eye(2) + params.L1 * saliency_matrix(theta)


def derivative_scalars(n_p, R_s, L0, L1, detL, Phi, J, f,
                       ia, ib, th, om, va, vb, TL):
    """State derivative as plain floats: (dia, dib, dtheta, domega).

    di/dt = L(theta)^-1 [F(i, theta, omega) + v] with the adjugate inverse;
    dtheta/dt = n_p*omega; J*domega/dt = torque - f*omega - T_L.
    """
    c = math.cos(th)
    s = math.sin(th)
    c2 = c * c - s * s
    s2 = 2.0 * s * c
    w2 = 2.0 * n_p * om * L1
    # F = (2 n_p w L1 Q(theta) J - R_s I) i + n_p w Phi (sin, -cos)
    F1 = w2 * (s2 * ia - c2 * ib) - R_s * ia + n_p * om * Phi * s
    F2 = w2 * (-c2 * ia - s2 * ib) - R_s * ib - n_p * om * Phi * c
    u1 = F1 + va
    u2 = F2 + vb
    dia = ((L0 - L1 * c2) * u1 - L1 * s2 * u2) / detL
    dib = (-L1 * s2 * u1 + (L0 + L1 * c2) * u2) / detL
    dth = n_p * om
    dom = (n_p * Phi * (ib * c - ia * s) - f * om - TL) / J
    return dia, dib, dth, dom


def rk4_reference(params: MotorParams, h, ia, ib, th, om, va, va_mid, va_end,
                  vb, TL, drive=None):
    """One RK4 step as four `derivative_scalars` calls: the composition the
    simulator ran before its plant step was fused, operation for operation.

    Arguments and result as for `hfsense.motor.rk4_step`.
    """
    m = params
    consts = (m.n_p, m.R_s, m.L0, m.L1, m.det_L, m.Phi, m.J, m.f)
    hh = 0.5 * h   # 0.5 * h * x evaluates as (0.5 * h) * x
    h6 = h / 6.0
    driven = drive is not None
    if driven:
        thm, omm, the, ome = drive
    a1, b1, t1, o1 = derivative_scalars(*consts, ia, ib, th, om, va, vb, TL)
    if not driven:
        thm, omm = th + hh * t1, om + hh * o1
    a2, b2, t2, o2 = derivative_scalars(*consts, ia + hh * a1, ib + hh * b1,
                                        thm, omm, va_mid, vb, TL)
    if not driven:
        thm, omm = th + hh * t2, om + hh * o2
    a3, b3, t3, o3 = derivative_scalars(*consts, ia + hh * a2, ib + hh * b2,
                                        thm, omm, va_mid, vb, TL)
    if not driven:
        the, ome = th + h * t3, om + h * o3
    a4, b4, t4, o4 = derivative_scalars(*consts, ia + h * a3, ib + h * b3,
                                        the, ome, va_end, vb, TL)
    ia += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    ib += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    if not driven:
        th += h6 * (t1 + 2.0 * t2 + 2.0 * t3 + t4)
        om += h6 * (o1 + 2.0 * o2 + 2.0 * o3 + o4)
    return ia, ib, th, om


def frame_rotate(theta: float, x1: float, x2: float,
                 to_dq: bool = True) -> tuple[float, float]:
    """Planar rotation between stationary and (estimated) rotor frames.

    to_dq applies exp(-J*theta); the inverse direction applies exp(+J*theta).
    """
    c = math.cos(theta)
    s = math.sin(theta)
    if to_dq:
        return c * x1 + s * x2, -s * x1 + c * x2
    return c * x1 - s * x2, s * x1 + c * x2


class Pi:
    """Discrete PI with backward-Euler integral and clamping anti-windup."""

    def __init__(self, K_p: float, K_i: float, limit: float):
        self.K_p = K_p
        self.K_i = K_i
        self.limit = limit
        self.integ = 0.0

    def step(self, err: float, Ts: float) -> float:
        self.integ += self.K_i * err * Ts
        if self.integ > self.limit:
            self.integ = self.limit
        elif self.integ < -self.limit:
            self.integ = -self.limit
        out = self.K_p * err + self.integ
        if out > self.limit:
            return self.limit
        if out < -self.limit:
            return -self.limit
        return out


def unwrapped_phase_at(d: float, omega_target: float, n_grid: int = 4000) -> float:
    """Phase of G_d at omega_target, unwrapped from omega -> 0 [rad]."""
    omega = np.linspace(omega_target / n_grid, omega_target, n_grid)
    resp = gd_frequency_response(d, omega)
    return float(np.unwrap(np.angle(resp))[-1])
