"""Discrete-time signal operators as constants: the probe, the sample
period and the coefficients of the LTI HPF/LPF pair, plus
frequency-response utilities.

Every operator runs inline in a fused kernel at a fixed sample period Ts:
the delay/hold regressor and the gradient LTV demodulator in
`ProposedEstimator.kernel` (the one kernel both forms of the new pipeline
run), the filters in `ConventionalEstimator.kernel` and in the controller.
Block runs of `ProposedEstimator.step` take the regressor, which has finite
memory, from array operations past the first 2N samples (its hold window);
the filters feed back on their own output, so they step sample by sample.
This module gives those kernels what they are built from.  `sample_period`
is the one place that turns N, the samples per probe period, into
Ts = epsilon/N, so Ts divides epsilon and the regressor's delay of N
samples is exact, which the equivalence checks rely on.
`highpass_coefficients` and `lowpass_coefficients` are the filters'
corners discretized, each with its checks.  The operators' standalone
step oracles, which the kernels must match bit for bit, are in
tests/oracles.py.
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
        for key in ("V_h", "epsilon"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite "
                                 f"(got {getattr(self, key):g})")
        if not (0.0 <= self.phi < TWO_PI and 0.0 <= self.phi_p < TWO_PI):
            raise ValueError("phases must lie in [0, 2*pi)")

    @property
    def omega_h(self) -> float:
        return TWO_PI / self.epsilon


def probe_signal(cfg: InjectionConfig, t: float) -> float:
    """Demodulation reference S(t) = -(V_h/2pi) * cos(omega_h t + phi_p)."""
    return -(cfg.V_h / TWO_PI) * math.cos(cfg.omega_h * t + cfg.phi_p)


def sample_period(cfg: InjectionConfig, N: int) -> float:
    """Sample period Ts = epsilon/N of a run with N samples per probe period.

    Every carrier quantity sampled at t = k*Ts (or half a step later) then
    repeats with period N in k, so the kernels tabulate it once per phase
    j = k mod N instead of evaluating sin/cos per sample.  The regressor's
    delay is one probe period, N samples, and its hold window 2N.
    """
    if not (isinstance(N, int) and N >= 1):
        raise ValueError(f"steps per probe period must be an integer >= 1 "
                         f"(got {N!r})")
    return cfg.epsilon / N


def lowpass_coefficients(lam: float, Ts: float) -> tuple[float, float]:
    """(a1, b) of the first-order low pass lam/(lam + s), bilinear:
    y+ = a1*y + b*(u + u_prev).  A corner and Ts whose product overflows
    raise ValueError."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"corner must be positive and finite (got {lam:g})")
    a = lam * Ts
    if a == math.inf:
        raise ValueError(f"corner {lam:g} rad/s at Ts = {Ts:g} s overflows "
                         "the low-pass coefficients")
    return (2.0 - a) / (2.0 + a), a / (2.0 + a)


def highpass_coefficients(lam: float, Ts: float) -> tuple[float, ...]:
    """(b0, b1, b2, a1, a2) of the second-order high pass 2s^2/(lam + s)^2
    as a biquad, run in direct form II transposed.

    Bilinear with the corner prewarped, so the discrete gain and phase at
    omega = lam match the continuous filter exactly.  The LTI chain builds
    it at lam = omega_h, where that unit gain and +90 deg are what its
    read-out scale and demodulation phase assume.  The double zero at z = 1
    gives exact DC rejection regardless of warping.  The prewarp
    tan(lam*Ts/2) holds only below the Nyquist rate: lam*Ts >= pi raises
    ValueError (at omega_h, a probe period of N <= 2 samples), and so does
    a corner and Ts whose prewarp or denominator underflows to 0, or whose
    coefficients overflow (a Ts below about 1e-154).
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"corner must be positive and finite (got {lam:g})")
    if lam * Ts >= math.pi:
        raise ValueError(f"corner {lam:g} rad/s is not below the Nyquist "
                         f"rate pi/Ts = {math.pi / Ts:g} rad/s")
    try:
        K = lam / math.tan(0.5 * lam * Ts)
        a0 = (lam + K) ** 2
        b0 = 2.0 * K * K / a0
        coefficients = (b0, -2.0 * b0, b0, 2.0 * (lam - K) * (lam + K) / a0,
                        (lam - K) ** 2 / a0)
    except ZeroDivisionError:
        raise ValueError(f"corner {lam:g} rad/s at Ts = {Ts:g} s underflows "
                         "the biquad coefficients") from None
    except OverflowError:
        pass
    else:
        if all(map(math.isfinite, coefficients)):
            return coefficients
    raise ValueError(f"corner {lam:g} rad/s at Ts = {Ts:g} s overflows the "
                     "biquad coefficients")


# G_d(s) = sum over j >= 2 of (-1)^j (j + 1 - 2^j)/(j + 1)! (d s)^j, whose
# closed form cancels to rounding noise at small |d s|: the terms j = 2..13,
# highest first, which below |d s| = 0.2 hold G_d as closely as the closed
# form does above it
_GD_SERIES = [(-1) ** j * (j + 1 - 2 ** j) / math.factorial(j + 1)
              for j in range(13, 1, -1)]
_GD_SERIES_RADIUS = 0.2


def gd_frequency_response(d: float, omega) -> complex | np.ndarray:
    """G_d(j*omega) for the delay-minus-hold high pass.

    G_d(s) = exp(-d s) + (exp(-2 d s) - 1)/(2 d s), taken from its Taylor
    series about s = 0 below |d s| = 0.2, where the closed form cancels:
    so G_d(0) is the limit 0, and a d*omega that underflows gives 0, not a
    0/0.
    """
    if d <= 0.0:
        raise ValueError("d must be positive")
    om = np.asarray(omega, dtype=float)
    scalar = om.ndim == 0
    x = np.atleast_1d(om) * d
    out = np.empty(x.shape, dtype=complex)
    near = np.abs(x) < _GD_SERIES_RADIUS
    # (d s)^2 = -x^2, real, so an x^2 that underflows leaves the phase at 0
    xn, sf = x[near], 1j * x[~near]
    out[near] = -(xn * xn) * np.polyval(_GD_SERIES, 1j * xn)
    out[~near] = np.exp(-sf) + (np.exp(-2.0 * sf) - 1.0) / (2.0 * sf)
    return out[0] if scalar else out


def hpf_frequency_response(lam: float, omega) -> complex | np.ndarray:
    """2s^2/(lam + s)^2 at s = j*omega, evaluated as 2*(s/(lam + s))^2,
    which stays finite where s*s would overflow (omega above ~1e154)."""
    s = 1j * np.asarray(omega, dtype=float)
    return 2.0 * (s / (lam + s)) ** 2


def lpf_frequency_response(lam: float, omega) -> complex | np.ndarray:
    s = 1j * np.asarray(omega, dtype=float)
    return lam / (lam + s)


def bode_table(response: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Columns (omega_rad_s, mag_db, phase_deg_unwrapped) for a response grid."""
    with np.errstate(divide="ignore"):
        mag = 20.0 * np.log10(np.abs(response))
    phase = np.degrees(np.unwrap(np.angle(response)))
    return np.column_stack([omega, mag, phase])
