"""Continuous-time IPMSM dynamics in the stationary (alpha-beta) frame.

The machine is salient (L_d != L_q), so the inductance matrix depends on the
electrical rotor angle.  All functions here are pure.  `derivative_scalars`
is the one definition of the stator equation (with the mechanics); it works
on plain floats because the simulator calls it four times per step.  The
matrix form (`inductance_matrix`, `saliency_matrix`) is kept as the
independent oracle it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


def saliency_matrix(theta: float) -> np.ndarray:
    """Angle-dependent part of the inductance: [[cos2t, sin2t], [sin2t, -cos2t]]."""
    c2 = math.cos(2.0 * theta)
    s2 = math.sin(2.0 * theta)
    return np.array([[c2, s2], [s2, -c2]])


def inductance_matrix(params: MotorParams, theta: float) -> np.ndarray:
    """L(theta) = L0*I + L1*Q(theta); symmetric positive definite, det = L_d*L_q."""
    return params.L0 * np.eye(2) + params.L1 * saliency_matrix(theta)


def virtual_output(params: MotorParams, theta: float) -> tuple[float, float]:
    """Exact position-bearing vector multiplying the probe in the averaged current.

    y_v = (1/(L_d L_q)) * (L0 - L1*cos2theta, -L1*sin2theta).
    """
    d = params.det_L
    return ((params.L0 - params.L1 * math.cos(2.0 * theta)) / d,
            (-params.L1 * math.sin(2.0 * theta)) / d)


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
