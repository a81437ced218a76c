"""Discrete-time signal operators: probe, the delay/hold regressor and the
LTI HPF/LPF pair, plus frequency-response utilities.  The gradient LTV
demodulator that follows the regressor lives in `estimators`, tabulated per
carrier phase inside `ProposedEstimator`.

All operators run at a fixed sample period Ts.  The regressor's delay d must
be an exact integer multiple of Ts (the constructor rejects misaligned
values); sample alignment keeps the delay exact, which the equivalence checks
rely on.  The regressor returns None until it has absorbed its full 2d hold
window (not yet valid).

The estimators run these operators' steps inline in fused kernels: the
regressor in `ProposedEstimator.step`, the one kernel both forms of the new
pipeline run, and the filters in `ConventionalEstimator.step` and the
controller.  `Regressor`, `HighPass2` and `LowPass1` stay as the oracles
those kernels must match bit for bit; the kernels also take their constants
and initial state from instances of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class InjectionConfig:
    """Probe signal description: amplitude V_h, frequency omega_h = 2*pi/epsilon.

    `phi` is the demodulation phase of the conventional chain, `phi_p` the
    phase-loss compensation used inside the probe reference.
    """

    V_h: float = 1.0
    epsilon: float = 1e-3
    phi: float = 0.0
    phi_p: float = 0.0

    def __post_init__(self):
        if self.V_h <= 0.0:
            raise ValueError("V_h must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not (0.0 <= self.phi < TWO_PI and 0.0 <= self.phi_p < TWO_PI):
            raise ValueError("phases must lie in [0, 2*pi)")

    @property
    def omega_h(self) -> float:
        return TWO_PI / self.epsilon


def probe_signal(cfg: InjectionConfig, t: float) -> float:
    """Demodulation reference S(t) = -(V_h/2pi) * cos(omega_h t + phi_p)."""
    return -(cfg.V_h / TWO_PI) * math.cos(cfg.omega_h * t + cfg.phi_p)


def _steps_for(window: float, Ts: float, what: str) -> int:
    n = round(window / Ts)
    if n < 1 or abs(n * Ts - window) > 1e-9 * window:
        raise ValueError(f"{what}={window} is not an integer multiple of Ts={Ts}")
    return n


def carrier_steps(cfg: InjectionConfig, Ts: float) -> int:
    """Samples per probe period, N = epsilon/Ts; Ts must divide epsilon.

    Every carrier quantity sampled at t = k*Ts (or half a step later) then
    repeats with period N in k, so the kernels tabulate it once per phase
    j = k mod N instead of evaluating sin/cos per sample.
    """
    return _steps_for(cfg.epsilon, Ts, "epsilon")


class Regressor:
    """Delay minus weighted hold on both current axes: the high pass G_d.

    yf(t) = u(t - d) - (chi(t) - chi(t - 2d))/(2d), with chi the trapezoidal
    integral of the input u = (i_alpha, i_beta).  Both axes share one ring
    index over the last 2d/Ts samples: the delayed input sits d/Ts slots
    back, and the hold keeps a running sum of per-step increments (difference
    form: subtract the increment leaving the window, then add the new one) so
    the accumulator cannot grow on long runs; a periodic exact rebuild bounds
    floating-point drift.  The first output comes at sample 2d/Ts.
    """

    _REBASE_EVERY = 1 << 16

    def __init__(self, d: float, Ts: float):
        self.n = n = _steps_for(d, Ts, "delay")
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
        if lam <= 0.0:
            raise ValueError("corner must be positive")
        self.lam = lam
        a = lam * Ts
        self.b = a / (2.0 + a)
        self.a1 = (2.0 - a) / (2.0 + a)
        self._y = y0
        self._u = y0

    def step(self, u: float) -> float:
        self._y = self.a1 * self._y + self.b * (u + self._u)
        self._u = u
        return self._y


class HighPass2:
    """Second-order high pass 2s^2/(lam + s)^2 as a biquad.

    Bilinear with the corner prewarped, so the discrete gain and phase at
    omega = lam match the continuous filter exactly (unit gain, +90 deg at the
    corner is what the demodulation step depends on).  The double zero at
    z = 1 gives exact DC rejection regardless of warping.
    """

    def __init__(self, lam: float, Ts: float):
        if lam <= 0.0:
            raise ValueError("corner must be positive")
        self.lam = lam
        K = lam / math.tan(0.5 * lam * Ts)
        a0 = (lam + K) ** 2
        self.b0 = 2.0 * K * K / a0
        self.b1 = -2.0 * self.b0
        self.b2 = self.b0
        self.a1 = 2.0 * (lam - K) * (lam + K) / a0
        self.a2 = (lam - K) ** 2 / a0
        self._z1 = 0.0
        self._z2 = 0.0

    def step(self, u: float) -> float:
        # direct form II transposed
        y = self.b0 * u + self._z1
        self._z1 = self.b1 * u - self.a1 * y + self._z2
        self._z2 = self.b2 * u - self.a2 * y
        return y


def gd_frequency_response(d: float, omega) -> complex | np.ndarray:
    """G_d(j*omega) for the delay-minus-hold high pass.

    G_d(s) = exp(-d s) + (exp(-2 d s) - 1)/(2 d s); the removable singularity
    at omega = 0 is filled with the analytic limit 0.
    """
    if d <= 0.0:
        raise ValueError("d must be positive")
    om = np.asarray(omega, dtype=float)
    scalar = om.ndim == 0
    om = np.atleast_1d(om)
    out = np.empty(om.shape, dtype=complex)
    nz = om != 0.0
    s = 1j * om[nz] * d
    out[nz] = np.exp(-s) + (np.exp(-2.0 * s) - 1.0) / (2.0 * s)
    out[~nz] = 0.0
    return out[0] if scalar else out


def hpf_frequency_response(lam: float, omega) -> complex | np.ndarray:
    s = 1j * np.asarray(omega, dtype=float)
    return 2.0 * s * s / (lam + s) ** 2


def lpf_frequency_response(lam: float, omega) -> complex | np.ndarray:
    s = 1j * np.asarray(omega, dtype=float)
    return lam / (lam + s)


def bode_table(response: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Columns (omega_rad_s, mag_db, phase_deg_unwrapped) for a response grid."""
    with np.errstate(divide="ignore"):
        mag = 20.0 * np.log10(np.abs(response))
    phase = np.degrees(np.unwrap(np.angle(response)))
    return np.column_stack([omega, mag, phase])
