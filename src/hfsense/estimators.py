"""Position estimators and their supporting pieces.

Two pipelines extract the rotor angle from the injection ripple in the
measured currents:

* `ProposedEstimator` - delay minus weighted hold (a high-pass by
  construction) followed by a gradient LTV demodulator per axis.  The
  demodulator takes one sampled gradient step per sample, linear in its
  state and input, so a sample costs one inline regressor step plus one
  update x+ = a_j*x + c_j*yf per axis with (a_j, c_j) tabulated per carrier
  phase (`ProposedEstimator._phase_table`).
* `ConventionalEstimator` - LTI high-pass, demodulation by sin(omega_h t +
  phi), LTI low-pass, then rescaling.

`BlockFormEstimator` re-expresses the proposed pipeline in the conventional
HPF/demod/LPF block layout (demod phase phi_p + 3*pi/2, LPF replaced by the
scaled LTV flow); it exists to verify numerically that the two forms
coincide.  It derives only its own per-phase table and its own read-out
constant (state per unit of virtual output) and runs `ProposedEstimator`'s
step, so the new pipeline has one kernel.

All three estimators produce the angle modulo pi from the centred saliency
locus through `_locus_angle`, which also resolves the branch by continuity
with the previous estimate; each calls it once per sample.  Magnetic-polarity
disambiguation is out of scope.

Each estimator steps by the integer sample index k (the sample time is
k*Ts): `step(k, i_alpha, i_beta)` looks up its per-phase constants at
carrier phase k mod N, with N = epsilon/Ts samples per probe period.

The per-sample steps of both kernels (the new pipeline's and the LTI
chain's) are fused: the delay/hold regressor, filters, centre and radius
check run inline on float state, with the arithmetic and operation order of
the standalone operators (`Regressor`, `HighPass2`, `LowPass1`, and
`virtual_output_to_angle` in tests/oracles.py), which stay the oracles the
kernels are tested against bit for bit.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass

import numpy as np

from .motor import MotorParams, virtual_output
from .signal_ops import (
    TWO_PI,
    HighPass2,
    InjectionConfig,
    LowPass1,
    Regressor,
    carrier_steps,
    probe_signal,
)


def wrap_mod_pi(err):
    """Wrap an angle difference into (-pi/2, pi/2] (mod-pi identification)."""
    return -((-np.asarray(err) + 0.5 * math.pi) % math.pi - 0.5 * math.pi)


def _locus_angle(dx: float, dy: float, L1: float, prev_theta: float) -> float:
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


def rmsd(t, theta_true, theta_hat, t1: float, t2: float) -> float:
    """Root-mean-square deviation of the angle estimate over [t1, t2].

    The per-sample error is wrapped modulo pi before squaring; the mean is a
    trapezoidal quadrature over the window.
    """
    t = np.asarray(t)
    if t2 <= t1:
        raise ValueError("need t2 > t1")
    if t1 < t[0] - 1e-12 or t2 > t[-1] + 1e-12:
        raise ValueError("window outside the trace")
    m = (t >= t1) & (t <= t2)
    if np.count_nonzero(m) < 2:
        raise ValueError(f"window [{t1:g}, {t2:g}] holds fewer than 2 samples")
    e = wrap_mod_pi(np.asarray(theta_hat)[m] - np.asarray(theta_true)[m])
    return float(math.sqrt(np.trapezoid(e * e, t[m]) / (t[m][-1] - t[m][0])))


class ProposedEstimator:
    """Delay/hold regressor plus per-axis gradient flows (the new pipeline).

    The delay is exactly one probe period (d = epsilon) and the hold window is
    2d.  Each axis demodulates its regressor output yf with a sampled
    gradient step of the scalar LTV flow dx/dt = -gamma*S^2(t)*x +
    gamma*S(t)*yf and reads x/epsilon; under persistent excitation of S the
    state contracts exponentially toward the coefficient of S in yf.
    Per-axis adaptation gains may differ.
    Compensation gains (ell1, ell2, ell3) rescale the raw virtual-output
    estimate before the angle recovery; (1, 0, 1) is the identity.
    """

    def __init__(self, params: MotorParams, cfg: InjectionConfig, Ts: float,
                 gamma_alpha: float = 1e4, gamma_beta: float = 1e4,
                 ell: tuple[float, float, float] = (1.0, 0.0, 1.0),
                 theta0: float = 0.0):
        if ell[0] == 0.0 or ell[2] == 0.0:
            raise ValueError("ell1 and ell3 must be nonzero")
        if gamma_alpha <= 0.0 or gamma_beta <= 0.0:
            raise ValueError("gamma must be positive")
        self.cfg = cfg
        self.Ts = Ts
        # the kernel runs this regressor's step inline on its ring lists;
        # building it keeps its misaligned-delay check the one check
        reg = Regressor(cfg.epsilon, Ts)
        # per phase j: ((a, c) of the alpha flow, (a, c) of the beta flow)
        self._table = list(zip(self._phase_table(gamma_alpha),
                               self._phase_table(gamma_beta)))
        unit = self._state_per_output(params)
        # seed the demodulators at the assumed initial angle so the loop
        # does not open on a transient pointing nowhere
        y10, y20 = virtual_output(params, theta0)
        self.theta_hat = theta0
        self.yv1 = y10
        self.yv2 = y20
        self.low_confidence = True
        # constants of one step, unpacked at once in the kernel: the locus
        # centre (L0/(Ld Lq), 0) and the radius within which a point carries
        # no angle
        self._k = (len(self._table), reg.n, reg._m, reg._REBASE_EVERY,
                   *reg._u, *reg._inc, unit, *ell,
                   params.L0 / params.det_L,
                   0.1 * abs(params.L1) / params.det_L, params.L1)
        # regressor state, then the demodulator state (x_alpha, x_beta)
        self._s = (reg._i, reg._sa, reg._sb, reg._cold, reg._rebase_in,
                   unit * y10, unit * y20)

    @property
    def x(self) -> tuple[float, float]:
        """Demodulator state (x_alpha, x_beta); yv is ell applied to x
        divided by `_state_per_output` (epsilon)."""
        return self._s[5:]

    def _state_per_output(self, params: MotorParams) -> float:
        """Demodulator state per unit of virtual output: x/epsilon reads yv."""
        return self.cfg.epsilon

    def _phase_table(self, gamma: float) -> list[tuple[float, float]]:
        """(a, c) per phase j with x+ = a*x + c*yf.

        The sampled gradient step x+ = x + Ts*gamma*S_j*(yf - S_j*x), with
        S_j = S(j*Ts) the probe reference at the sample.  With Ts dividing
        epsilon it depends on the sample index k only through the carrier
        phase j = k mod N, so a = 1 - Ts*gamma*S_j^2 and c = Ts*gamma*S_j
        are tabulated once.
        """
        g = self.Ts * gamma
        S = [probe_signal(self.cfg, j * self.Ts)
             for j in range(carrier_steps(self.cfg, self.Ts))]
        return [(1.0 - g * s * s, g * s) for s in S]

    def step(self, k: int, i_alpha: float, i_beta: float):
        """Advance to sample k; return (theta_hat, yv1, yv2) or None until warm."""
        (N, n, m, rebase, ua, ub, inc_a, inc_b, unit, ell1, ell2, ell3,
         centre, r_min, L1) = self._k
        i, sa, sb, cold, rebase_in, xa, xb = self._s
        # this sample's phase constants; read first, so that a k that is not
        # an integer raises TypeError before any state changes
        (aa, ca), (ab, cb) = self._table[k % N]
        # delay minus hold: Regressor.step inline, in its operation order
        if cold:
            cold -= 1
            if cold == m:  # first sample: no increment yet
                ua[0] = i_alpha
                ub[0] = i_beta
                self._s = (1, sa, sb, cold, rebase_in, xa, xb)
                return None
        ja = 0.5 * (ua[i - 1] + i_alpha)  # trapezoid, Ts factored out
        jb = 0.5 * (ub[i - 1] + i_beta)
        sa = sa - inc_a[i] + ja
        sb = sb - inc_b[i] + jb
        inc_a[i] = ja
        inc_b[i] = jb
        da = ua[i - n]  # negative indices wrap: the input from d ago
        db = ub[i - n]
        ua[i] = i_alpha
        ub[i] = i_beta
        i += 1
        if i == m:
            i = 0
        rebase_in -= 1
        if not rebase_in:
            rebase_in = rebase
            sa = math.fsum(inc_a)
            sb = math.fsum(inc_b)
        if cold:
            self._s = (i, sa, sb, cold, rebase_in, xa, xb)
            return None
        yfa = da - sa / m
        yfb = db - sb / m
        xa = aa * xa + ca * yfa
        xb = ab * xb + cb * yfb
        self._s = (i, sa, sb, cold, rebase_in, xa, xb)
        y1 = self.yv1 = ell1 * (xa / unit) + ell2
        y2 = self.yv2 = ell3 * (xb / unit)
        dx = y1 - centre
        if math.hypot(dx, y2) <= r_min:
            self.low_confidence = True  # hold the previous angle
        else:
            self.theta_hat = _locus_angle(dx, y2, L1, self.theta_hat)
            self.low_confidence = False
        return self.theta_hat, y1, y2


@dataclass(frozen=True)
class LtiChainConfig:
    """Filter corners of the conventional chain.

    Defaults follow lambda_h = omega_h and lambda_ell = max(sqrt(omega_h *
    omega_star), 1); omega_star is the nominal (electrical-excitation) speed
    scale of the application.
    """

    lambda_h: float
    lambda_ell: float

    @classmethod
    def from_injection(cls, cfg: InjectionConfig, omega_star: float,
                       lambda_h: float | None = None,
                       lambda_ell: float | None = None) -> "LtiChainConfig":
        lh = cfg.omega_h if lambda_h is None else lambda_h
        ll = max(math.sqrt(cfg.omega_h * omega_star), 1.0) if lambda_ell is None \
            else lambda_ell
        return cls(lh, ll)

    def __post_init__(self):
        if self.lambda_h <= 0.0:
            raise ValueError("lambda_h must be positive")
        if self.lambda_ell < 1.0:
            raise ValueError("lambda_ell must be >= 1")


class ConventionalEstimator:
    """LTI high-pass / demodulate / low-pass chain (the textbook pipeline).

    The step keeps the operation order of `HighPass2.step` and
    `LowPass1.step`, so its output is bit-identical to their composition.
    """

    def __init__(self, params: MotorParams, cfg: InjectionConfig, Ts: float,
                 chain: LtiChainConfig, theta0: float = 0.0):
        # demodulation carrier per phase j = k mod N
        self._demod = [math.sin(cfg.omega_h * j * Ts + cfg.phi)
                       for j in range(carrier_steps(cfg, Ts))]
        hpf = HighPass2(chain.lambda_h, Ts)
        lpf = LowPass1(chain.lambda_ell, Ts)
        scale = 2.0 * cfg.omega_h * params.det_L / cfg.V_h
        # constants of one step, unpacked at once in the kernel
        self._k = (len(self._demod), hpf.b0, hpf.b1, hpf.b2, hpf.a1,
                   hpf.a2, lpf.a1, lpf.b, scale, params.det_L, params.L0,
                   params.L1)
        # biquad state (z1, z2) and low-pass state (output, previous input)
        # per axis; the low passes start at the output matching the assumed
        # initial angle
        y10, y20 = virtual_output(params, theta0)
        ya = y10 * params.det_L / scale
        yb = y20 * params.det_L / scale
        self._s = (0.0, 0.0, 0.0, 0.0, ya, ya, yb, yb)
        self.theta_hat = theta0
        self.yv1 = y10
        self.yv2 = y20

    def step(self, k: int, i_alpha: float, i_beta: float):
        """Advance to sample k; return (theta_hat, yv1, yv2)."""
        (N, b0, b1, b2, a1, a2, la, lb, scale, det_L, L0, L1) = self._k
        za1, za2, zb1, zb2, ya, ua, yb, ub = self._s
        # high pass, direct form II transposed
        yha = b0 * i_alpha + za1
        za1 = b1 * i_alpha - a1 * yha + za2
        za2 = b2 * i_alpha - a2 * yha
        yhb = b0 * i_beta + zb1
        zb1 = b1 * i_beta - a1 * yhb + zb2
        zb2 = b2 * i_beta - a2 * yhb
        demod = self._demod[k % N]
        # demodulate and low-pass
        da = yha * demod
        db = yhb * demod
        ya = la * ya + lb * (da + ua)
        yb = la * yb + lb * (db + ub)
        self._s = (za1, za2, zb1, zb2, ya, da, yb, db)
        Ya = scale * ya
        Yb = scale * yb
        y1 = self.yv1 = Ya / det_L
        y2 = self.yv2 = Yb / det_L
        theta = self.theta_hat = _locus_angle(Ya - L0, Yb, L1, self.theta_hat)
        return theta, y1, y2


class BlockFormEstimator(ProposedEstimator):
    """Proposed pipeline in conventional block layout (for the equivalence check).

    High pass = delay minus hold, demodulation phase phi_p + 3*pi/2, low
    pass = 0.5*(V_h/2pi)^2 times the LTV flow dz/dt = -gamma*S^2*z + gamma*u,
    then the conventional rescaling 2*omega_h*det_L/V_h.  Only the per-phase
    table and the read-out constant are this layout's, each from its own
    derivation (not shared with ProposedEstimator, so the equivalence check
    still compares two derivations); the regressor, the per-phase update,
    the degenerate-radius hold and the angle recovery are
    `ProposedEstimator.step`'s.
    """

    def __init__(self, params: MotorParams, cfg: InjectionConfig, Ts: float,
                 gamma_alpha: float = 1e4, gamma_beta: float = 1e4,
                 theta0: float = 0.0):
        super().__init__(params, cfg, Ts, gamma_alpha, gamma_beta,
                         theta0=theta0)

    def _state_per_output(self, params: MotorParams) -> float:
        """Low-pass state per unit of virtual output: yv = scale*(g*z)/det_L
        with the low-pass gain g and the conventional rescaling scale."""
        cfg = self.cfg
        scale = 2.0 * cfg.omega_h * params.det_L / cfg.V_h
        return params.det_L / (scale * (0.5 * (cfg.V_h / TWO_PI) ** 2))

    def _phase_table(self, gamma: float) -> list[tuple[float, float]]:
        """(a, c) per phase j with z+ = a*z + c*yf.

        z+ = z + Ts*(gamma*u - gamma*S_j^2*z), with the demodulated input
        u = yf*sin(omega_h*j*Ts + phi_p + 3*pi/2) and the flow's own decay
        both sampled at t = j*Ts.  The demodulation phase follows phi_p, as
        the operator form's reference S(t) does.
        """
        cfg, Ts = self.cfg, self.Ts
        table = []
        for j in range(carrier_steps(cfg, Ts)):
            S = probe_signal(cfg, j * Ts)
            demod = math.sin(cfg.omega_h * j * Ts + cfg.phi_p + 1.5 * math.pi)
            table.append((1.0 - Ts * gamma * S * S, Ts * gamma * demod))
        return table

    # The same kernel on its own copy of the code object: CPython 3.11
    # specializes attribute access per code object, so one code object
    # serving both classes, alternated every sample as in
    # equivalence_deviation, misses every specialized lookup (-13% steps/s
    # on the estimator_replay benchmark).
    step = types.FunctionType(ProposedEstimator.step.__code__.replace(),
                              globals(), "step")


class Pll:
    """Type-2 tracking loop turning the angle estimate into a speed estimate."""

    def __init__(self, K_p: float, K_i: float, n_p: int, theta0: float = 0.0):
        if K_p <= 0.0 or K_i <= 0.0:
            raise ValueError("PLL gains must be positive")
        self.K_p = K_p
        self.K_i = K_i
        self.n_p = n_p
        self.eta1 = theta0
        self.eta2 = 0.0
        self.omega_hat = 0.0

    def step(self, theta_hat: float, Ts: float) -> float:
        e = theta_hat - self.eta1
        omega_hat_p = self.K_p * e + self.K_i * self.eta2
        self.eta1 += Ts * omega_hat_p
        self.eta2 += Ts * e
        self.omega_hat = omega_hat_p / self.n_p
        return self.omega_hat


def fit_compensation(t, yv1, yv2, params: MotorParams, omega_e: float,
                     t_start: float = 0.0) -> tuple[float, float, float]:
    """Fit (ell1, ell2, ell3) from a constant-speed virtual-output trace.

    Matches the mean and amplitude of the measured components to the exact
    virtual output: ell1/ell3 correct the amplitudes, ell2 the mean of the
    first component (the second is zero-mean).  Needs at least two electrical
    revolutions past t_start so the extremes are observed.
    """
    t = np.asarray(t)
    m = t >= t_start
    span = (t[m][-1] - t[m][0]) * abs(omega_e)
    if span < 2.0 * TWO_PI:
        raise ValueError("trace shorter than two electrical revolutions")
    y1 = np.asarray(yv1)[m]
    y2 = np.asarray(yv2)[m]
    amp_target = abs(params.L1) / params.det_L
    mean_target = params.L0 / params.det_L
    a1 = 0.5 * (y1.max() - y1.min())
    a2 = 0.5 * (y2.max() - y2.min())
    if a1 <= 0.0 or a2 <= 0.0:
        raise ValueError("flat virtual-output trace")
    ell1 = amp_target / a1
    ell3 = amp_target / a2
    ell2 = mean_target - ell1 * 0.5 * (y1.max() + y1.min())
    return ell1, ell2, ell3


def synthesize_injection_current(params: MotorParams, cfg: InjectionConfig,
                                 theta, t, i_bar=(0.0, 0.0),
                                 phase_err: float = 0.0,
                                 ripple_scale: float = 1.0) -> np.ndarray:
    """Currents built directly from the averaged decomposition (no ODE).

    i(t) = i_bar + epsilon * y_v(theta(t)) * S_dist(t), with `theta` the
    electrical angle at each sample of `t` and y_v as in `virtual_output`.
    S_dist may carry an artificial phase shift or amplitude scale, mimicking
    the losses seen on hardware.  Returns an (n, 2) array.
    """
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != t.shape:
        raise ValueError(f"theta has {theta.size} angles for {t.size} samples")
    d = params.det_L
    y1 = (params.L0 - params.L1 * np.cos(2.0 * theta)) / d
    y2 = (-params.L1 * np.sin(2.0 * theta)) / d
    S = (-ripple_scale * cfg.V_h / TWO_PI) * np.cos(cfg.omega_h * t + phase_err)
    eps = cfg.epsilon
    return np.column_stack([i_bar[0] + eps * y1 * S, i_bar[1] + eps * y2 * S])
