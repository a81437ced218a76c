"""Continuous-time IPMSM dynamics.

The machine is salient (L_d != L_q), so in the stationary (alpha-beta)
frame the inductance matrix depends on the electrical rotor angle, while
in the rotor (d-q) frame it is diag(L_d, L_q).  All functions here are
pure.  The plant is stepped by RK4 in the rotor frame, in one of two
forms that share one stage: the voltage rotated to (d, q) at the stage's
angle, and one division per axis.  `rk4_step` is the closed-loop step: the
stator equation and the mechanics, its four stages written inline on
plain floats because the simulator calls it once per integration step.
Its state is the rotor-frame currents (i_d, i_q) with theta, omega and the
cos and sin of theta, so one rotation per step gives the stationary-frame
currents the rest of the loop reads.  Under a prescribed drive each stage
is affine in the currents and in the held control voltage, so
`driven_step_tables` composes the four stages on numpy arrays along the
time axis, once per block of steps, into one affine map per step, with the
rotations from and back to the stationary frame folded in.  Their oracle
lives in tests/oracles.py: the rotor-frame stator equation as one
function.  `rk4_step` equals four calls of it composed as RK4 on the
(d, q) state, bit for bit; the driven maps match the same composition at
the prescribed angles within rounding.  Its stationary-frame wrapper, and
the matrix form of the inductance that wrapper is checked against,
cross-check the frame.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from math import cos, inf, isfinite, sin

import numpy as np


@dataclass(frozen=True)
class MotorParams:
    """Physical constants of the machine.

    Units: R_s [ohm], L_d/L_q [H], Phi [Wb], J [kg m^2], f [N m s/rad].
    """

    n_p: int
    R_s: float
    L_d: float
    L_q: float
    Phi: float
    J: float
    f: float = 1e-3  # viscous friction, not part of the datasheet set

    def __post_init__(self):
        for key in ("R_s", "L_d", "L_q", "Phi", "J", "f"):
            if not isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite "
                                 f"(got {getattr(self, key):g})")
        if not (isinstance(self.n_p, int) and self.n_p >= 1):
            raise ValueError(f"n_p must be an integer >= 1 (got {self.n_p!r})")
        # the plant and the drive compute with float(n_p)
        if self.n_p > sys.float_info.max or float(self.n_p) != self.n_p:
            raise ValueError(f"n_p must be an integer that a float holds "
                             f"exactly (got {self.n_p})")
        if self.L_d <= 0.0 or self.L_q <= 0.0:
            raise ValueError("inductances must be positive")
        # det_L = L_d * L_q divides the virtual output and the read-outs
        if not 0.0 < self.L_d * self.L_q < inf:
            raise ValueError(f"L_d * L_q = {self.L_d * self.L_q:g} is not a "
                             f"positive finite number (L_d = {self.L_d:g}, "
                             f"L_q = {self.L_q:g})")
        if self.L_d == self.L_q:
            raise ValueError("saliency required: L_d must differ from L_q")
        if self.R_s < 0.0:
            raise ValueError("R_s must be >= 0")
        if self.J <= 0.0:
            raise ValueError("J must be positive")

    # computed once per instance: the estimators read them every sample
    @cached_property
    def L0(self) -> float:
        return 0.5 * (self.L_d + self.L_q)

    @cached_property
    def L1(self) -> float:
        return 0.5 * (self.L_d - self.L_q)

    @cached_property
    def det_L(self) -> float:
        # L0^2 - L1^2 == L_d * L_q identically
        return self.L_d * self.L_q


# Parameters of the simulated machine (six pole pairs, 0.43 ohm stator).
SIM_MOTOR = MotorParams(n_p=6, R_s=0.43, L_d=5.74e-3, L_q=8.68e-3,
                        Phi=0.11, J=0.01)

# Parameters of the bench machine (three pole pairs).
BENCH_MOTOR = MotorParams(n_p=3, R_s=0.47, L_d=3.38e-3, L_q=5.07e-3,
                          Phi=0.39, J=0.01)


def virtual_output(params: MotorParams, theta: float) -> tuple[float, float]:
    """Exact position-bearing vector multiplying the probe in the averaged current.

    y_v = (1/(L_d L_q)) * (L0 - L1*cos2theta, -L1*sin2theta).
    """
    d = params.det_L
    return ((params.L0 - params.L1 * cos(2.0 * theta)) / d,
            (-params.L1 * sin(2.0 * theta)) / d)


def rk4_constants(params: MotorParams, h: float) -> tuple:
    """Constants of `rk4_step` for the step h, built once per run.

    n_p is a float here: the product n_p*x is the same as with the int, and
    float by float is the interpreter's fast path.
    """
    n_p = float(params.n_p)
    return (n_p, params.R_s, params.L_d, params.L_q, params.Phi, params.J,
            params.f, n_p * params.Phi, h, 0.5 * h, h / 6.0)


def rk4_step(kc, i_d, i_q, th, om, c, s, va, va_mid, va_end, vb, TL):
    """One classical RK4 step of the plant in the rotor frame.

    The state is (i_d, i_q, theta, omega), with (c, s) = (cos, sin) theta
    carried along; returns (ia, ib, i_d, i_q, theta, omega, c, s) at t+h,
    the stationary-frame currents first.  `kc` comes from `rk4_constants`.
    The alpha voltage is va at t, va_mid at t+h/2 (stages 2 and 3) and
    va_end at t+h; vb is held over the step.  The mechanics are integrated
    under the load torque TL.

    The inductance is diag(L_d, L_q) in the rotor frame, so each stage
    rotates only the voltage to its angle and takes one division per axis:
    with w = n_p omega,
      L_d di_d/dt = v_d - R_s i_d + w L_q i_q,
      L_q di_q/dt = v_q - R_s i_q - w (L_d i_d + Phi),
    dtheta/dt = w and J domega/dt = n_p Phi i_q - f omega - TL.  The stage
    points are formed in (d, q).  One rotation at the end gives (ia, ib);
    its cos and sin are the next step's stage-1 values.  The step shares
    only subexpressions whose sharing is exact, so it equals, bit for bit,
    four calls of the rotor-frame stator equation in tests/oracles.py
    composed as RK4 on the (d, q) state, plus the end rotation.
    """
    n_p, R_s, L_d, L_q, Phi, J, f, npPhi, h, hh, h6 = kc

    # stage 1 at t
    w1 = n_p * om
    dd1 = (c * va + s * vb - R_s * i_d + w1 * L_q * i_q) / L_d
    dq1 = (c * vb - s * va - R_s * i_q - w1 * (L_d * i_d + Phi)) / L_q
    o1 = (npPhi * i_q - f * om - TL) / J

    # stage 2 at t+h/2
    jd = i_d + hh * dd1
    jq = i_q + hh * dq1
    thm = th + hh * w1
    omm = om + hh * o1
    c = cos(thm)
    s = sin(thm)
    w2 = n_p * omm
    dd2 = (c * va_mid + s * vb - R_s * jd + w2 * L_q * jq) / L_d
    dq2 = (c * vb - s * va_mid - R_s * jq - w2 * (L_d * jd + Phi)) / L_q
    o2 = (npPhi * jq - f * omm - TL) / J

    # stage 3 at t+h/2
    jd = i_d + hh * dd2
    jq = i_q + hh * dq2
    thm = th + hh * w2
    omm = om + hh * o2
    c = cos(thm)
    s = sin(thm)
    w3 = n_p * omm
    dd3 = (c * va_mid + s * vb - R_s * jd + w3 * L_q * jq) / L_d
    dq3 = (c * vb - s * va_mid - R_s * jq - w3 * (L_d * jd + Phi)) / L_q
    o3 = (npPhi * jq - f * omm - TL) / J

    # stage 4 at t+h
    jd = i_d + h * dd3
    jq = i_q + h * dq3
    thm = th + h * w3
    omm = om + h * o3
    c = cos(thm)
    s = sin(thm)
    w4 = n_p * omm
    dd4 = (c * va_end + s * vb - R_s * jd + w4 * L_q * jq) / L_d
    dq4 = (c * vb - s * va_end - R_s * jq - w4 * (L_d * jd + Phi)) / L_q
    o4 = (npPhi * jq - f * omm - TL) / J

    i_d += h6 * (dd1 + 2.0 * dd2 + 2.0 * dd3 + dd4)
    i_q += h6 * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
    th += h6 * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
    om += h6 * (o1 + 2.0 * o2 + 2.0 * o3 + o4)
    c = cos(th)
    s = sin(th)
    return c * i_d - s * i_q, s * i_d + c * i_q, i_d, i_q, th, om, c, s


def driven_step_tables(params: MotorParams, h: float, th_t, om_t, th_m, om_m,
                       th_e, om_e, p_t, p_m, p_e):
    """RK4 steps of the currents under a prescribed drive, as affine maps.

    The arguments after the step h are arrays over a block of steps: the
    prescribed theta and omega at t, t+h/2 and t+h, and the alpha probe
    voltage at the same times.  With theta and omega given, each RK4 stage
    of the stator equation is affine in the currents and in the control
    voltage (vca, vcb) held over the step, so the whole step is
      ia+ = P[0]*ia + P[1]*ib + P[2]*vca + P[3]*vcb + P[4]
      ib+ = P[5]*ia + P[6]*ib + P[7]*vca + P[8]*vcb + P[9]
    with the probe and the back-EMF folded into the constant column.
    Returns P, a (10, n) array whose column k is the map of step k.  The
    stages are `rk4_step`'s, in the rotor frame, composed on the (d, q)
    state; the map then takes (ia, ib) to (d, q) at theta(t) and the new
    (d, q) back at theta(t+h).  It agrees with that composition taken stage
    by stage up to rounding, not bit for bit.
    """
    n_p = float(params.n_p)
    R_s, L_d, L_q, Phi = params.R_s, params.L_d, params.L_q, params.Phi
    hh = 0.5 * h
    h6 = h / 6.0
    drop = np.full(len(th_t), -R_s)  # the resistive column of each axis
    L = np.array([L_d, L_q])[:, None, None]
    c_t, c_m, c_e = np.cos(th_t), np.cos(th_m), np.cos(th_e)
    s_t, s_m, s_e = np.sin(th_t), np.sin(th_m), np.sin(th_e)

    def stage(c, s, om, p):
        # the stage derivative as a d row and a q row over the columns
        # (i_d, i_q, vca, vcb, 1): the voltage rotated to (d, q), one
        # division per axis
        w = n_p * om
        return np.stack([drop, w * L_q, c, s, c * p, -w * L_d, drop, -s, c,
                         -(s * p + w * Phi)]).reshape(2, 5, -1) / L

    def rates(rows, k, a):
        # the derivative at the stage point x + a*k, k the previous stage's
        # derivative: rows + a*M k, with the rate matrix M = rows[:, :2]
        return rows + a * (rows[:, 0:1] * k[0] + rows[:, 1:2] * k[1])

    k1 = stage(c_t, s_t, om_t, p_t)
    rows = stage(c_m, s_m, om_m, p_m)
    k2 = rates(rows, k1, hh)
    k3 = rates(rows, k2, hh)
    k4 = rates(stage(c_e, s_e, om_e, p_e), k3, h)
    P = h6 * (k1 + 2.0 * (k2 + k3) + k4)
    P[0, 0] += 1.0
    P[1, 1] += 1.0
    # (i_d, i_q) = R(-theta_t) (ia, ib) in the current columns, and
    # (ia+, ib+) = R(theta_e) (i_d+, i_q+) in the rows
    P[:, 0], P[:, 1] = (P[:, 0] * c_t - P[:, 1] * s_t,
                        P[:, 0] * s_t + P[:, 1] * c_t)
    return np.concatenate([c_e * P[0] - s_e * P[1], s_e * P[0] + c_e * P[1]])
