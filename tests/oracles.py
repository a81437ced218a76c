"""Oracles of the fused plant and estimator steps, kept as tests only.

`rotor_derivative` is the stator equation (with the mechanics) as one
function on plain floats, in the rotor frame, where the inductance is
diag(L_d, L_q).  Four calls of it, composed as classical RK4 on the
(d, q) state and followed by the rotation of the new currents, are
`rk4_rotor_reference`: `hfsense.motor.rk4_step` must equal it bit for bit,
and under a prescribed drive the step maps of
`hfsense.motor.driven_step_tables` must meet it within
`driven_step_bound`, their rounding bound.  `derivative_scalars` wraps
`rotor_derivative` in the stationary frame; four calls of that are
`rk4_reference`, the frame cross-check of `rk4_step`.  The matrix form in
the stationary frame (`saliency_matrix`, `inductance_matrix`) is the
independent check of `derivative_scalars` itself.

`locus_angle` is the angle recovery from a point of the centred saliency
locus, with the branch resolved by continuity: the reference for the
recovery both estimator kernels run inline.  `virtual_output_to_angle`
adds the centre and the degenerate-radius check: the reference for those
steps of `ProposedEstimator.kernel`.

`Regressor`, `HighPass2` and `LowPass1` are the signal operators as
standalone steps: the delay/hold regressor that `ProposedEstimator.kernel`
runs inline, and the LTI filters that `ConventionalEstimator.kernel` and
the controller run inline, each operation for operation.  The filters take
their coefficients from `hfsense.signal_ops`, so each corner formula has
one home; the regressor keeps its own delay check and rebuild period, so
the kernel test pins the library's period.

`frame_rotate` and `Pi` are the frame rotation and the PI loop that
`SensorlessController.low_frequency_voltage` runs inline, operation for
operation.  `unwrapped_phase_at` unwraps the phase of G_d from omega -> 0; the
criterion-5 check and its unit test read it at the probe frequency.

`drive_omega_at` and `drive_angle_integral` are the drive profile's speed
and angle at one time, the reference for the tables `hfsense.sim.run`
builds per block of steps from `DriveProfile.omega_at` and
`DriveProfile.angle_integral`.
"""

import math

import numpy as np

from hfsense.motor import MotorParams
from hfsense.signal_ops import (
    gd_frequency_response,
    highpass_coefficients,
    lowpass_coefficients,
)


def locus_angle(dx: float, dy: float, L1: float, prev_theta: float) -> float:
    """Angle from a point (dx, dy) of the saliency locus, relative to its centre.

    The centred locus is -L1*(cos 2theta, sin 2theta) up to a positive scale,
    so the point is negated when L1 > 0 (L_d > L_q); 0.5*atan2 then gives
    the angle modulo pi, and the branch nearest prev_theta (the raw angle
    shifted by the nearest multiple of pi) is returned.
    """
    if L1 > 0.0:
        dx, dy = -dx, -dy
    raw = 0.5 * math.atan2(dy, dx)
    return raw + math.pi * round((prev_theta - raw) / math.pi)


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
    return locus_angle(dx, y2, params.L1, prev_theta)


def saliency_matrix(theta: float) -> np.ndarray:
    """Angle-dependent part of the inductance: [[cos2t, sin2t], [sin2t, -cos2t]]."""
    c2 = math.cos(2.0 * theta)
    s2 = math.sin(2.0 * theta)
    return np.array([[c2, s2], [s2, -c2]])


def inductance_matrix(params: MotorParams, theta: float) -> np.ndarray:
    """L(theta) = L0*I + L1*Q(theta); symmetric positive definite, det = L_d*L_q."""
    return params.L0 * np.eye(2) + params.L1 * saliency_matrix(theta)


def rotor_derivative(n_p, R_s, L_d, L_q, Phi, J, f,
                     i_d, i_q, th, om, va, vb, TL):
    """The stator equation in the rotor frame at theta, with the mechanics:
    (di_d, di_q, dtheta, domega) as plain floats.

    The inductance there is diag(L_d, L_q): the voltages are rotated to
    (d, q), and with w = n_p*omega, L_d di_d/dt = v_d - R_s i_d + w L_q i_q
    and L_q di_q/dt = v_q - R_s i_q - w (L_d i_d + Phi).  dtheta/dt = w;
    J*domega/dt = n_p Phi i_q - f*omega - T_L.
    """
    c = math.cos(th)
    s = math.sin(th)
    w = n_p * om
    v_d = c * va + s * vb
    v_q = c * vb - s * va
    dd = (v_d - R_s * i_d + w * L_q * i_q) / L_d
    dq = (v_q - R_s * i_q - w * (L_d * i_d + Phi)) / L_q
    dom = (n_p * Phi * i_q - f * om - TL) / J
    return dd, dq, w, dom


def derivative_scalars(n_p, R_s, L_d, L_q, Phi, J, f,
                       ia, ib, th, om, va, vb, TL):
    """State derivative in the stationary frame as plain floats: (dia, dib,
    dtheta, domega).

    The currents are rotated to (d, q) at theta, `rotor_derivative` gives
    their rotor-frame derivative, and it is rotated back with the frame's
    rotation w J i added.
    """
    c = math.cos(th)
    s = math.sin(th)
    i_d = c * ia + s * ib
    i_q = c * ib - s * ia
    dd, dq, w, dom = rotor_derivative(n_p, R_s, L_d, L_q, Phi, J, f,
                                      i_d, i_q, th, om, va, vb, TL)
    dia = c * dd - s * dq - w * ib
    dib = s * dd + c * dq + w * ia
    return dia, dib, w, dom


def rk4_rotor_reference(params: MotorParams, h, i_d, i_q, th, om, va, va_mid,
                        va_end, vb, TL, drive=None):
    """One RK4 step of the (d, q) state as four `rotor_derivative` calls,
    then the rotation of the new currents to the stationary frame: the
    reference of `hfsense.motor.rk4_step`.

    Arguments as for `rk4_step`, without the constants and the carried
    cos and sin; returns (ia, ib, i_d, i_q, theta, omega).  With drive =
    (theta, omega) at t+h/2 followed by (theta, omega) at t+h, prescribed,
    the mechanics are not integrated: the stages take the prescribed angle
    and speed, and the returned ones are those at t+h.  That is the
    reference of the maps from `hfsense.motor.driven_step_tables`.
    """
    m = params
    consts = (m.n_p, m.R_s, m.L_d, m.L_q, m.Phi, m.J, m.f)
    hh = 0.5 * h
    h6 = h / 6.0
    driven = drive is not None
    if driven:
        thm, omm, the, ome = drive
    d1, q1, t1, o1 = rotor_derivative(*consts, i_d, i_q, th, om, va, vb, TL)
    if not driven:
        thm, omm = th + hh * t1, om + hh * o1
    d2, q2, t2, o2 = rotor_derivative(*consts, i_d + hh * d1, i_q + hh * q1,
                                      thm, omm, va_mid, vb, TL)
    if not driven:
        thm, omm = th + hh * t2, om + hh * o2
    d3, q3, t3, o3 = rotor_derivative(*consts, i_d + hh * d2, i_q + hh * q2,
                                      thm, omm, va_mid, vb, TL)
    if not driven:
        the, ome = th + h * t3, om + h * o3
    d4, q4, t4, o4 = rotor_derivative(*consts, i_d + h * d3, i_q + h * q3,
                                      the, ome, va_end, vb, TL)
    i_d += h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    i_q += h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
    if driven:
        th, om = the, ome
    else:
        th += h6 * (t1 + 2.0 * t2 + 2.0 * t3 + t4)
        om += h6 * (o1 + 2.0 * o2 + 2.0 * o3 + o4)
    c = math.cos(th)
    s = math.sin(th)
    return c * i_d - s * i_q, s * i_d + c * i_q, i_d, i_q, th, om


def rk4_reference(params: MotorParams, h, ia, ib, th, om, va, va_mid, va_end,
                  vb, TL):
    """One RK4 step of the stationary-frame state (ia, ib, theta, omega) as
    four `derivative_scalars` calls; returns that state at t+h.

    The voltages and the load are as for `hfsense.motor.rk4_step`.  The
    step integrates the same equation as `rk4_step` in the other frame:
    the frame cross-check of that step.
    """
    m = params
    consts = (m.n_p, m.R_s, m.L_d, m.L_q, m.Phi, m.J, m.f)
    hh = 0.5 * h   # 0.5 * h * x evaluates as (0.5 * h) * x
    h6 = h / 6.0
    a1, b1, t1, o1 = derivative_scalars(*consts, ia, ib, th, om, va, vb, TL)
    a2, b2, t2, o2 = derivative_scalars(*consts, ia + hh * a1, ib + hh * b1,
                                        th + hh * t1, om + hh * o1, va_mid,
                                        vb, TL)
    a3, b3, t3, o3 = derivative_scalars(*consts, ia + hh * a2, ib + hh * b2,
                                        th + hh * t2, om + hh * o2, va_mid,
                                        vb, TL)
    a4, b4, t4, o4 = derivative_scalars(*consts, ia + h * a3, ib + h * b3,
                                        th + h * t3, om + h * o3, va_end,
                                        vb, TL)
    ia += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    ib += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    th += h6 * (t1 + 2.0 * t2 + 2.0 * t3 + t4)
    om += h6 * (o1 + 2.0 * o2 + 2.0 * o3 + o4)
    return ia, ib, th, om


def driven_step_bound(motor, h, i, i_next, volts, omegas):
    """Rounding bound on one driven step: 1e-14 of the largest current in
    it or of the current change h*|v|/L its voltage drives, widened by the
    growth 1 + h*rho of the RK4 stages, with rho the stator equation's
    largest rate.  At the shipped scenarios h*rho is about 1e-3, so the
    widening is nil.  It matters only on states that turn the rotor by
    radians (electrical) within one step, where the stages grow several
    times larger than the step's currents and the stage-by-stage oracle
    rounds accordingly."""
    L = min(motor.L_d, motor.L_q)
    rho = (motor.R_s + 2.0 * motor.n_p * max(map(abs, omegas))
           * abs(motor.L1)) / L
    scale = max(*map(abs, i), *map(abs, i_next),
                h * max(map(abs, volts)) / L)
    return 1e-14 * scale * (1.0 + h * rho)


class Regressor:
    """Delay minus weighted hold on both current axes: the high pass G_d.

    yf(t) = u(t - d) - (chi(t) - chi(t - 2d))/(2d), with chi the trapezoidal
    integral of the input u = (i_alpha, i_beta).  Both axes share one ring
    index over the last 2d/Ts samples: the delayed input sits d/Ts slots
    back, and the hold keeps a running sum of per-step increments (difference
    form: subtract the increment leaving the window, then add the new one) so
    the accumulator cannot grow on long runs; a periodic exact rebuild bounds
    floating-point drift.  The first output comes at sample 2d/Ts.  The
    delay must be an integer multiple of Ts.
    """

    _REBASE_EVERY = 1 << 16

    def __init__(self, d: float, Ts: float):
        n = round(d / Ts)
        if n < 1 or abs(n * Ts - d) > 1e-9 * d:
            raise ValueError(f"delay={d} is not an integer multiple of Ts={Ts}")
        self.n = n
        self._m = m = 2 * n  # hold window in samples
        self._u = ([0.0] * m, [0.0] * m)
        # unwritten slots hold zeros: subtracting them changes no sum
        self._inc = ([0.0] * m, [0.0] * m)
        self._sa = self._sb = 0.0
        self._i = 0
        self._cold = m + 1  # samples until the first output
        self._rebase_in = self._REBASE_EVERY

    def step(self, i_alpha: float, i_beta: float):
        """Absorb one sample per axis; once warm, return (yf_alpha, yf_beta)."""
        i = self._i
        ua, ub = self._u
        m = self._m
        if self._cold:
            self._cold -= 1
            if self._cold == m:  # first sample: no increment yet
                ua[0] = i_alpha
                ub[0] = i_beta
                self._i = 1
                return None
        ja = 0.5 * (ua[i - 1] + i_alpha)  # trapezoid, Ts factored out
        jb = 0.5 * (ub[i - 1] + i_beta)
        ca, cb = self._inc
        sa = self._sa - ca[i] + ja
        sb = self._sb - cb[i] + jb
        ca[i] = ja
        cb[i] = jb
        n = self.n
        da = ua[i - n]  # negative indices wrap: the input from d ago
        db = ub[i - n]
        ua[i] = i_alpha
        ub[i] = i_beta
        i += 1
        self._i = 0 if i == m else i
        self._rebase_in -= 1
        if not self._rebase_in:
            self._rebase_in = self._REBASE_EVERY
            sa = math.fsum(ca)
            sb = math.fsum(cb)
        self._sa = sa
        self._sb = sb
        if self._cold:
            return None
        return da - sa / m, db - sb / m


class LowPass1:
    """First-order low pass lam/(lam + s), bilinear discretization."""

    def __init__(self, lam: float, Ts: float, y0: float = 0.0):
        self.a1, self.b = lowpass_coefficients(lam, Ts)
        self._y = y0
        self._u = y0

    def step(self, u: float) -> float:
        self._y = self.a1 * self._y + self.b * (u + self._u)
        self._u = u
        return self._y


class HighPass2:
    """Second-order high pass 2s^2/(lam + s)^2 as a prewarped biquad."""

    def __init__(self, lam: float, Ts: float):
        self.b0, self.b1, self.b2, self.a1, self.a2 = \
            highpass_coefficients(lam, Ts)
        self._z1 = 0.0
        self._z2 = 0.0

    def step(self, u: float) -> float:
        # direct form II transposed
        y = self.b0 * u + self._z1
        self._z1 = self.b1 * u - self.a1 * y + self._z2
        self._z2 = self.b2 * u - self.a2 * y
        return y


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


def drive_omega_at(d, t: float) -> float:
    """Speed of the drive profile d at time t (mechanical rad/s)."""
    if d.kind == "constant":
        return d.omega
    if t <= d.t_ramp_start:
        return d.omega
    if t >= d.t_ramp_end:
        return d.omega_end
    frac = (t - d.t_ramp_start) / (d.t_ramp_end - d.t_ramp_start)
    return d.omega + frac * (d.omega_end - d.omega)


def drive_angle_integral(d, t: float) -> float:
    """Integral of the speed of the drive profile d from 0 to t (mechanical
    radians)."""
    if d.kind == "constant":
        return d.omega * t
    t0, t1 = d.t_ramp_start, d.t_ramp_end
    if t <= t0:
        return d.omega * t
    acc = d.omega * t0
    if t >= t1:
        acc += 0.5 * (d.omega + d.omega_end) * (t1 - t0)
        return acc + d.omega_end * (t - t1)
    w = drive_omega_at(d, t)
    return acc + 0.5 * (d.omega + w) * (t - t0)
