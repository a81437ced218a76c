"""Continuous-time IPMSM dynamics in the stationary (alpha-beta) frame.

The machine is salient (L_d != L_q), so the inductance matrix depends on the
electrical rotor angle.  All functions here are pure.  The plant is stepped
by RK4 in one of two forms.  `rk4_step` is the closed-loop step: the stator
equation and the mechanics, its four stages written inline on plain floats
because the simulator calls it once per integration step.  Under a
prescribed drive each stage is affine in the currents and in the held
control voltage, so `driven_step_tables` composes the four stages on numpy
arrays along the time axis, once per block of steps, into one affine map
per step.  Their oracles live in tests/oracles.py: the stator equation as
one function, which `rk4_step` matches bit for bit and the driven maps
match within rounding when four calls of it are composed as RK4, and the
matrix form of the inductance that function is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import cos, sin

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
        if self.n_p < 1:
            raise ValueError("n_p must be >= 1")
        if self.L_d <= 0.0 or self.L_q <= 0.0:
            raise ValueError("inductances must be positive")
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
    return (n_p, params.R_s, params.L0, params.L1, params.det_L, params.Phi,
            params.J, params.f, n_p * params.Phi, h, 0.5 * h, h / 6.0)


def rk4_step(kc, ia, ib, th, om, va, va_mid, va_end, vb, TL):
    """One classical RK4 step of the plant: (ia, ib, theta, omega) at t+h.

    `kc` comes from `rk4_constants`.  The alpha voltage is va at t, va_mid
    at t+h/2 (stages 2 and 3) and va_end at t+h; vb is held over the step.
    The mechanics are integrated under the load torque TL.

    Each stage is the stator equation
      di/dt = L(theta)^-1 [F(i, theta, omega) + v]   (adjugate inverse),
      F = (2 n_p omega L1 Q(theta) J - R_s I) i + n_p omega Phi (sin, -cos),
    with dtheta/dt = n_p*omega and
      J domega/dt = n_p Phi (ib cos - ia sin) - f omega - TL.
    It shares only subexpressions whose sharing is exact, so the step
    equals, bit for bit, four calls of the one-function stator equation in
    tests/oracles.py composed as RK4.
    """
    n_p, R_s, L0, L1, det_L, Phi, J, f, npPhi, h, hh, h6 = kc

    # stage 1 at t
    c = cos(th)
    s = sin(th)
    c2 = c * c - s * s
    s2 = 2.0 * s * c
    lc2 = L1 * c2
    ls2 = L1 * s2
    w1 = n_p * om
    g = 2.0 * w1 * L1
    e = w1 * Phi
    u1 = g * (s2 * ia - c2 * ib) - R_s * ia + e * s + va
    u2 = g * (-c2 * ia - s2 * ib) - R_s * ib - e * c + vb
    a1 = ((L0 - lc2) * u1 - ls2 * u2) / det_L
    b1 = (-ls2 * u1 + (L0 + lc2) * u2) / det_L
    o1 = (npPhi * (ib * c - ia * s) - f * om - TL) / J
    thm = th + hh * w1
    omm = om + hh * o1

    # stage 2 at t+h/2
    ja = ia + hh * a1
    jb = ib + hh * b1
    c = cos(thm)
    s = sin(thm)
    c2 = c * c - s * s
    s2 = 2.0 * s * c
    lc2 = L1 * c2
    ls2 = L1 * s2
    w2 = n_p * omm
    g = 2.0 * w2 * L1
    e = w2 * Phi
    u1 = g * (s2 * ja - c2 * jb) - R_s * ja + e * s + va_mid
    u2 = g * (-c2 * ja - s2 * jb) - R_s * jb - e * c + vb
    a2 = ((L0 - lc2) * u1 - ls2 * u2) / det_L
    b2 = (-ls2 * u1 + (L0 + lc2) * u2) / det_L
    o2 = (npPhi * (jb * c - ja * s) - f * omm - TL) / J
    thm = th + hh * w2
    omm = om + hh * o2

    # stage 3 at t+h/2
    ja = ia + hh * a2
    jb = ib + hh * b2
    c = cos(thm)
    s = sin(thm)
    c2 = c * c - s * s
    s2 = 2.0 * s * c
    lc2 = L1 * c2
    ls2 = L1 * s2
    w3 = n_p * omm
    g = 2.0 * w3 * L1
    e = w3 * Phi
    u1 = g * (s2 * ja - c2 * jb) - R_s * ja + e * s + va_mid
    u2 = g * (-c2 * ja - s2 * jb) - R_s * jb - e * c + vb
    a3 = ((L0 - lc2) * u1 - ls2 * u2) / det_L
    b3 = (-ls2 * u1 + (L0 + lc2) * u2) / det_L
    o3 = (npPhi * (jb * c - ja * s) - f * omm - TL) / J
    the = th + h * w3
    ome = om + h * o3

    # stage 4 at t+h
    ja = ia + h * a3
    jb = ib + h * b3
    c = cos(the)
    s = sin(the)
    c2 = c * c - s * s
    s2 = 2.0 * s * c
    lc2 = L1 * c2
    ls2 = L1 * s2
    w4 = n_p * ome
    g = 2.0 * w4 * L1
    e = w4 * Phi
    u1 = g * (s2 * ja - c2 * jb) - R_s * ja + e * s + va_end
    u2 = g * (-c2 * ja - s2 * jb) - R_s * jb - e * c + vb
    a4 = ((L0 - lc2) * u1 - ls2 * u2) / det_L
    b4 = (-ls2 * u1 + (L0 + lc2) * u2) / det_L

    ia += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    ib += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    o4 = (npPhi * (jb * c - ja * s) - f * ome - TL) / J
    th += h6 * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
    om += h6 * (o1 + 2.0 * o2 + 2.0 * o3 + o4)
    return ia, ib, th, om


def driven_step_tables(kc, th_t, om_t, th_m, om_m, th_e, om_e, p_t, p_m, p_e):
    """RK4 steps of the currents under a prescribed drive, as affine maps.

    The arguments are arrays over a block of steps: the prescribed theta and
    omega at t, t+h/2 and t+h, and the alpha probe voltage at the same
    times; `kc` comes from `rk4_constants`.  With theta and omega given,
    each RK4 stage of the stator equation is affine in the currents and in
    the control voltage (vca, vcb) held over the step, so the whole step is
      ia+ = P[0]*ia + P[1]*ib + P[2]*vca + P[3]*vcb + P[4]
      ib+ = P[5]*ia + P[6]*ib + P[7]*vca + P[8]*vcb + P[9]
    with the probe and the back-EMF folded into the constant column.
    Returns P, a (10, n) array whose column k is the map of step k.  It
    composes the same four stages as `rk4_step`, so the maps agree with
    the stage-by-stage step up to rounding, not bit for bit.
    """
    n_p, R_s, L0, L1, det_L, Phi = kc[:6]
    h, hh, h6 = kc[9:]

    def stage(th, om, p):
        # the stator equation di/dt = L^-1 (G i + v + emf) at one grid: the
        # rate matrix M = L^-1 G, and the derivative as a map of the columns
        # (ia, ib, vca, vcb, 1) at i = (ia, ib): rows (M, L^-1, L^-1 emf),
        # with the probe p in emf's alpha entry
        c = np.cos(th)
        s = np.sin(th)
        c2 = c * c - s * s
        s2 = 2.0 * s * c
        w = n_p * om
        g = 2.0 * w * L1
        e = w * Phi
        n11 = (L0 - L1 * c2) / det_L
        n12 = -L1 * s2 / det_L
        n22 = (L0 + L1 * c2) / det_L
        ga = g * s2 - R_s
        gb = -g * c2
        gd = -g * s2 - R_s
        m = (n11 * ga + n12 * gb, n11 * gb + n12 * gd,
             n12 * ga + n22 * gb, n12 * gb + n22 * gd)
        u1 = e * s + p
        u2 = -e * c
        rows = np.array([(m[0], m[1], n11, n12, n11 * u1 + n12 * u2),
                         (m[2], m[3], n12, n22, n12 * u1 + n22 * u2)])
        return m, rows

    def rates(m, rows, c, k):
        # derivative at the stage point i + c*k, k the previous stage's
        # derivative: rows + c*M k
        ka, kb = k
        return np.array([rows[0] + (c * m[0]) * ka + (c * m[1]) * kb,
                         rows[1] + (c * m[2]) * ka + (c * m[3]) * kb])

    _, k1 = stage(th_t, om_t, p_t)
    mid = stage(th_m, om_m, p_m)
    k2 = rates(*mid, hh, k1)
    k3 = rates(*mid, hh, k2)
    k4 = rates(*stage(th_e, om_e, p_e), h, k3)
    P = h6 * (k1 + 2.0 * (k2 + k3) + k4)
    P[0, 0] += 1.0
    P[1, 1] += 1.0
    return P.reshape(10, -1)
