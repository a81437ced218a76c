"""Sensorless field-oriented controller: frame rotations, PI loops with
decoupling and current-measurement low passes.

The controller works in the estimated rotor frame; with a perfect angle this
is classical FOC.  The decoupling inductance is the average L0 (in a
misaligned frame the exact Ld/Lq split is not well defined anyway).  It
outputs the low-frequency voltage only; the simulator adds the probe.

`SensorlessController.low_frequency_voltage` is a fused kernel on plain
floats: one cos/sin pair for both rotations, the measurement low passes and
PI loops inline.  `LowPass1` and, in tests/oracles.py, `frame_rotate` and
`Pi` keep the reference arithmetic; they are the oracle the kernel is
tested against bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .motor import MotorParams
from .signal_ops import LowPass1


@dataclass(frozen=True)
class ControllerConfig:
    speed_kp: float = 1.0
    speed_ki: float = 5.0
    current_kp: float = 5.0
    current_ki: float = 5.0
    omega_ref: float = 0.5          # mechanical [rad/s]
    i_d_ref: float = 0.0
    i_q_limit: float = 20.0
    v_limit: float = 400.0          # below the 521 V bus
    # the corner must sit far below omega_h: probe ripple surviving the
    # feedback path re-enters the voltage as a parasitic injection that
    # distorts the demodulated saliency locus
    meas_lpf_cutoff: float = 100.0  # [rad/s]

    def __post_init__(self):
        for g in (self.speed_kp, self.speed_ki, self.current_kp, self.current_ki):
            if g < 0.0:
                raise ValueError("gains must be non-negative")
        for key in ("i_q_limit", "v_limit", "meas_lpf_cutoff"):
            if getattr(self, key) <= 0.0:
                raise ValueError(f"{key} must be positive")


class SensorlessController:
    """One control step per sample: rotate, filter, regulate, rotate back.

    The step keeps the operation order of `LowPass1.step` and of
    `frame_rotate` and `Pi.step` (tests/oracles.py), so its output is
    bit-identical to their composition.
    """

    def __init__(self, params: MotorParams, cfg: ControllerConfig, Ts: float):
        lpf = LowPass1(cfg.meas_lpf_cutoff, Ts)  # coefficients only
        # constants of one step, unpacked at once in the kernel
        self._k = (Ts, cfg.omega_ref, cfg.i_d_ref, params.n_p, params.L0,
                   params.Phi, lpf.a1, lpf.b,
                   cfg.speed_kp, cfg.speed_ki, cfg.i_q_limit,
                   cfg.current_kp, cfg.current_ki, cfg.v_limit)
        # low-pass state (output, previous input) per axis; PI integrators
        self._yd = self._ud = self._yq = self._uq = 0.0
        self._iw = self._id = self._iq = 0.0
        self._held = (0.0, 0.0)  # last valid control voltage (alpha-beta)

    def low_frequency_voltage(self, i_alpha: float, i_beta: float,
                              theta_hat: float | None,
                              omega_hat: float | None) -> tuple[float, float]:
        """Low-frequency control voltage in the stationary frame (no probe).

        Holds the last output while either estimate is invalid (None).
        """
        if theta_hat is None or omega_hat is None:
            return self._held
        (Ts, w_ref, i_d_ref, n_p, L, Phi, a1, b,
         kp_w, ki_w, lim_w, kp, ki, lim) = self._k
        c = math.cos(theta_hat)
        s = math.sin(theta_hat)
        # rotate into the estimated frame and low-pass the measurement
        i_d = c * i_alpha + s * i_beta
        i_q = -s * i_alpha + c * i_beta
        i_d_f = self._yd = a1 * self._yd + b * (i_d + self._ud)
        i_q_f = self._yq = a1 * self._yq + b * (i_q + self._uq)
        self._ud = i_d
        self._uq = i_q
        # speed loop
        err = w_ref - omega_hat
        integ = self._iw + ki_w * err * Ts
        if integ > lim_w:
            integ = lim_w
        elif integ < -lim_w:
            integ = -lim_w
        self._iw = integ
        i_q_ref = kp_w * err + integ
        if i_q_ref > lim_w:
            i_q_ref = lim_w
        elif i_q_ref < -lim_w:
            i_q_ref = -lim_w
        # d current loop
        err = i_d_ref - i_d_f
        integ = self._id + ki * err * Ts
        if integ > lim:
            integ = lim
        elif integ < -lim:
            integ = -lim
        self._id = integ
        pi_d = kp * err + integ
        if pi_d > lim:
            pi_d = lim
        elif pi_d < -lim:
            pi_d = -lim
        # q current loop
        err = i_q_ref - i_q_f
        integ = self._iq + ki * err * Ts
        if integ > lim:
            integ = lim
        elif integ < -lim:
            integ = -lim
        self._iq = integ
        pi_q = kp * err + integ
        if pi_q > lim:
            pi_q = lim
        elif pi_q < -lim:
            pi_q = -lim
        # decoupling and back-EMF feed-forward, then the voltage clamp
        np_w = n_p * omega_hat
        v_d = pi_d - L * np_w * i_q_f
        v_q = pi_q + L * np_w * i_d_f + np_w * Phi
        if v_d > lim:
            v_d = lim
        elif v_d < -lim:
            v_d = -lim
        if v_q > lim:
            v_q = lim
        elif v_q < -lim:
            v_q = -lim
        held = self._held = (c * v_d - s * v_q, s * v_d + c * v_q)
        return held
