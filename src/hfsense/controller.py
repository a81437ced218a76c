"""Sensorless field-oriented controller: frame rotations, PI loops with
decoupling and current-measurement low passes.

The controller works in the estimated rotor frame; with a perfect angle this
is classical FOC.  The decoupling inductance is the average L0 (in a
misaligned frame the exact Ld/Lq split is not well defined anyway).  It
outputs the low-frequency voltage only; the simulator adds the probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .motor import MotorParams
from .signal_ops import LowPass1


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
    """One control step per sample: rotate, filter, regulate, rotate back."""

    def __init__(self, params: MotorParams, cfg: ControllerConfig, Ts: float):
        self.params = params
        self.cfg = cfg
        self.Ts = Ts
        self._lpf_d = LowPass1(cfg.meas_lpf_cutoff, Ts)
        self._lpf_q = LowPass1(cfg.meas_lpf_cutoff, Ts)
        self._speed_pi = Pi(cfg.speed_kp, cfg.speed_ki, cfg.i_q_limit)
        self._pi_d = Pi(cfg.current_kp, cfg.current_ki, cfg.v_limit)
        self._pi_q = Pi(cfg.current_kp, cfg.current_ki, cfg.v_limit)
        self._L = params.L0
        self._held = (0.0, 0.0)  # last valid control voltage (alpha-beta)

    def low_frequency_voltage(self, i_alpha: float, i_beta: float,
                              theta_hat: float | None,
                              omega_hat: float | None) -> tuple[float, float]:
        """Low-frequency control voltage in the stationary frame (no probe).

        Holds the last output while either estimate is invalid (None).
        """
        if theta_hat is None or omega_hat is None:
            return self._held
        cfg = self.cfg
        Ts = self.Ts
        i_d, i_q = frame_rotate(theta_hat, i_alpha, i_beta, to_dq=True)
        i_d_f = self._lpf_d.step(i_d)
        i_q_f = self._lpf_q.step(i_q)
        i_q_ref = self._speed_pi.step(cfg.omega_ref - omega_hat, Ts)
        np_w = self.params.n_p * omega_hat
        v_d = self._pi_d.step(cfg.i_d_ref - i_d_f, Ts) - self._L * np_w * i_q_f
        v_q = self._pi_q.step(i_q_ref - i_q_f, Ts) + self._L * np_w * i_d_f \
            + np_w * self.params.Phi
        lim = cfg.v_limit
        v_d = min(max(v_d, -lim), lim)
        v_q = min(max(v_q, -lim), lim)
        va, vb = frame_rotate(theta_hat, v_d, v_q, to_dq=False)
        self._held = (va, vb)
        return va, vb
