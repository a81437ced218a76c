"""Fixed-step simulation of the motor coupled to controller, probe injection
and estimators.

One step loop, `run`, serves both mechanics modes:

* closed loop - the sensorless FOC drives the machine from the estimates
  (or from the true state in sensor mode, which isolates estimator error),
  and RK4 integrates currents, angle and speed;
* driven - the angle and speed follow a prescribed profile, as on a dyno
  bench; RK4 integrates the currents and takes the mechanics from the
  profile at each substep time.

Every RK4 stage calls `motor.derivative_scalars`, the only stator equation.

Controller and estimators advance once per integration step (single cadence,
no PWM).  The probe voltage is evaluated analytically at the RK4 substep
times; holding it constant over a step would alias a fixed fraction of the
ripple and mask the second-order averaging remainder.  Since Ts divides the
probe period, those values are tabulated once per carrier phase k mod N.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .controller import ControllerConfig, SensorlessController
from .estimators import (
    ConventionalEstimator,
    LtiChainConfig,
    Pll,
    ProposedEstimator,
    synthesize_injection_current,
)
from .motor import MotorParams, derivative_scalars
from .signal_ops import TWO_PI, InjectionConfig, carrier_steps
# not called here; it stays importable from this module, where
# bench/run.py's tracer wraps it by name
from .signal_ops import probe_signal  # noqa: F401

TRACE_COLUMNS = [
    "t", "theta", "theta_wrapped", "omega",
    "i_alpha", "i_beta", "v_alpha", "v_beta",
    "prop_theta_hat", "prop_omega_hat", "prop_yv1", "prop_yv2", "prop_valid",
    "conv_theta_hat", "conv_omega_hat", "conv_yv1", "conv_yv2", "conv_valid",
]

ESTIMATOR_KINDS = ("proposed", "conventional", "both", "none")

# trace values of an absent estimator: theta_hat, omega_hat, yv1, yv2, valid
_NO_ESTIMATE = (0.0,) * 5


class SimulationDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class LoadProfile:
    """Load torque as a function of time: constant, piecewise or sinusoidal."""

    kind: str = "constant"
    value: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0           # [Hz], sinusoidal only
    times: tuple = ()                # piecewise breakpoints
    values: tuple = ()               # piecewise levels (len(times) + 1)

    def __post_init__(self):
        if self.kind not in ("constant", "piecewise", "sinusoidal"):
            raise ValueError(f"unknown load kind {self.kind!r}")
        if self.kind == "piecewise" and len(self.values) != len(self.times) + 1:
            raise ValueError("piecewise load needs len(values) == len(times) + 1")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("piecewise load times must be strictly increasing")

    def torque(self, t: float) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "sinusoidal":
            return self.value + self.amplitude * math.sin(
                2.0 * math.pi * self.frequency * t)
        return self.values[bisect_right(self.times, t)]


@dataclass(frozen=True)
class DriveProfile:
    """Prescribed mechanical speed for driven-speed runs.

    constant: omega(t) = omega; reversal: omega until t_ramp_start, linear
    ramp to omega_end by t_ramp_end, then omega_end.  Angle comes from the
    exact integral of the profile.
    """

    kind: str = "constant"
    omega: float = 0.0               # mechanical [rad/s]
    omega_end: float = 0.0
    t_ramp_start: float = 0.0
    t_ramp_end: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "reversal"):
            raise ValueError(f"unknown drive profile {self.kind!r}")
        if self.kind == "reversal" and self.t_ramp_end <= self.t_ramp_start:
            raise ValueError("reversal needs t_ramp_end > t_ramp_start")

    def omega_at(self, t: float) -> float:
        if self.kind == "constant":
            return self.omega
        if t <= self.t_ramp_start:
            return self.omega
        if t >= self.t_ramp_end:
            return self.omega_end
        frac = (t - self.t_ramp_start) / (self.t_ramp_end - self.t_ramp_start)
        return self.omega + frac * (self.omega_end - self.omega)

    def angle_integral(self, t: float) -> float:
        """Integral of omega from 0 to t (mechanical radians)."""
        if self.kind == "constant":
            return self.omega * t
        t0, t1 = self.t_ramp_start, self.t_ramp_end
        if t <= t0:
            return self.omega * t
        acc = self.omega * t0
        if t >= t1:
            acc += 0.5 * (self.omega + self.omega_end) * (t1 - t0)
            return acc + self.omega_end * (t - t1)
        w = self.omega_at(t)
        return acc + 0.5 * (self.omega + w) * (t - t0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one run; a value object, safe to share."""

    motor: MotorParams
    injection: InjectionConfig = InjectionConfig()
    controller: ControllerConfig = ControllerConfig()
    load: LoadProfile = LoadProfile()
    drive: DriveProfile | None = None
    mode: str = "closed_loop"        # closed_loop | driven
    estimator: str = "both"
    gamma_alpha: float = 1e4
    gamma_beta: float = 1e4
    ell: tuple[float, float, float] = (1.0, 0.0, 1.0)
    lambda_h: float | None = None    # default omega_h
    lambda_ell: float | None = None  # default max(sqrt(omega_h*omega_star), 1)
    omega_star: float = 0.5
    pll_kp: float = 5.0
    pll_ki: float = 0.01
    theta0_est: float = 0.0
    steps_per_period: int = 50       # Ts = epsilon / steps_per_period
    duration: float = 10.0
    decimation: int = 10
    noise_std: float = 0.0
    seed: int = 0
    theta0: float = 0.0              # initial electrical angle
    omega0: float = 0.0
    i_alpha0: float = 0.0
    i_beta0: float = 0.0
    sensor_mode: bool = False
    injection_enabled: bool = True
    divergence_limit: float = 500.0

    def __post_init__(self):
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.estimator!r}")
        if self.mode not in ("closed_loop", "driven"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "driven" and self.drive is None:
            raise ValueError("driven mode needs a drive profile")
        if self.steps_per_period < 2:
            raise ValueError("steps_per_period must be >= 2")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        if self.noise_std < 0.0:
            raise ValueError("noise level must be >= 0")
        if self.estimator == "none" and not self.sensor_mode \
                and self.mode == "closed_loop":
            raise ValueError("closed loop without estimator requires sensor mode")
        if self.duration <= self.warmup:
            raise ValueError("duration must exceed the operator warm-up")
        for key in ("gamma_alpha", "gamma_beta", "pll_kp", "pll_ki"):
            if getattr(self, key) <= 0.0:
                raise ValueError(f"{key} must be positive")
        if self.ell[0] == 0.0 or self.ell[2] == 0.0:
            raise ValueError("ell1 and ell3 must be nonzero")
        if self.omega_star < 0.0:
            raise ValueError("omega_star must be >= 0")
        chain = self.chain  # rejects invalid corners
        if self.estimator in ("conventional", "both") \
                and chain.lambda_h * self.Ts >= math.pi:
            raise ValueError(f"lambda_h = {chain.lambda_h:g} rad/s is not below "
                             f"the Nyquist rate pi/Ts = {math.pi / self.Ts:g} "
                             "rad/s")

    @cached_property
    def chain(self) -> LtiChainConfig:
        """Corners of the LTI chain, defaults resolved."""
        return LtiChainConfig.from_injection(self.injection, self.omega_star,
                                             self.lambda_h, self.lambda_ell)

    @property
    def Ts(self) -> float:
        return self.injection.epsilon / self.steps_per_period

    @property
    def warmup(self) -> float:
        return 2.0 * self.injection.epsilon

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.Ts))


class Trace:
    """Column-oriented run record; always carries the full documented schema."""

    def __init__(self, data: dict[str, np.ndarray],
                 columns: list[str] | None = None):
        self.columns = list(columns) if columns is not None else list(TRACE_COLUMNS)
        for c in self.columns:
            if c not in data:
                raise ValueError(f"missing trace column {c!r}")
        self.data = data

    def __getattr__(self, name):
        # note: must not touch self.data via attribute lookup here, or
        # unpickling (empty __dict__) recurses
        data = self.__dict__.get("data")
        if data is not None and name in data:
            return data[name]
        raise AttributeError(name)

    def __len__(self):
        return len(self.data[self.columns[0]])


def check_window(cfg: ScenarioConfig, t1: float, t2: float):
    """Reject a window [t1, t2] that is empty or leaves [0, duration]."""
    if not 0.0 <= t1 < t2 <= cfg.duration:
        raise ValueError(f"window [{t1:g}, {t2:g}] s must satisfy "
                         f"0 <= t1 < t2 <= duration = {cfg.duration:g} s")


def _build_estimators(cfg: ScenarioConfig):
    prop = conv = None
    if cfg.estimator in ("proposed", "both"):
        prop = ProposedEstimator(cfg.motor, cfg.injection, cfg.Ts,
                                 cfg.gamma_alpha, cfg.gamma_beta,
                                 cfg.ell, cfg.theta0_est)
    if cfg.estimator in ("conventional", "both"):
        conv = ConventionalEstimator(cfg.motor, cfg.injection, cfg.Ts,
                                     cfg.chain, cfg.theta0_est)
    return prop, conv


def _probe_tables(cfg: ScenarioConfig):
    """Probe voltage per carrier phase j at t = j*Ts and at the half step."""
    inj = cfg.injection
    Vh = inj.V_h if cfg.injection_enabled else 0.0
    Ts = cfg.Ts
    n = carrier_steps(inj, Ts)
    wh = inj.omega_h
    return ([Vh * math.sin(wh * j * Ts) for j in range(n)],
            [Vh * math.sin(wh * (j + 0.5) * Ts) for j in range(n)])


def _noise(cfg: ScenarioConfig, n: int):
    """Seeded sensor noise per step and axis, or None without noise.

    A memoryview indexes to Python floats; numpy scalars would make every
    estimator and controller operation downstream slower.
    """
    if cfg.noise_std == 0.0:
        return None
    rng = np.random.default_rng(cfg.seed)
    return memoryview(rng.normal(0.0, cfg.noise_std, size=(n + 1, 2)))


def run(cfg: ScenarioConfig, columns=None) -> Trace:
    """Simulate one scenario; one record per `decimation` steps.

    `columns` selects trace columns (default: all of TRACE_COLUMNS); an
    unknown name, a repeated one or an empty selection raises ValueError.  Closed-loop mode integrates the
    mechanics; driven mode takes them from the drive profile at t, t+Ts/2
    and t+Ts.  The controller regulates in the true frame in sensor mode and
    in driven mode (as on a dyno bench), else in the estimated frame;
    estimators only ever see the measured currents.
    """
    cols = list(columns) if columns is not None else list(TRACE_COLUMNS)
    for c in cols:
        if c not in TRACE_COLUMNS:
            raise ValueError(f"unknown trace column {c!r}")
    if not cols or len(set(cols)) != len(cols):
        raise ValueError(f"trace columns {cols} must be non-empty and distinct")
    mp = cfg.motor
    Ts = cfg.Ts
    n_steps = cfg.n_steps
    prop, conv = _build_estimators(cfg)
    pll_p = Pll(cfg.pll_kp, cfg.pll_ki, mp.n_p, cfg.theta0_est) if prop else None
    pll_c = Pll(cfg.pll_kp, cfg.pll_ki, mp.n_p, cfg.theta0_est) if conv else None
    ctrl = SensorlessController(mp, cfg.controller, Ts)
    noise = _noise(cfg, n_steps)
    torque = cfg.load.torque
    driven = cfg.mode == "driven"
    true_frame = driven or cfg.sensor_mode
    drives_with_conv = cfg.estimator == "conventional"
    if driven:
        angle, omega_at = cfg.drive.angle_integral, cfg.drive.omega_at

    # hot-loop locals, passed to derivative_scalars by position
    np_, Rs, L0, L1 = mp.n_p, mp.R_s, mp.L0, mp.L1
    detL, Phi, J, fr = mp.det_L, mp.Phi, mp.J, mp.f
    deriv = derivative_scalars
    v_probe, v_probe_mid = _probe_tables(cfg)
    n_car = len(v_probe)
    lim = cfg.divergence_limit
    dec = cfg.decimation
    h = Ts
    hh = 0.5 * h   # 0.5 * h * x evaluates as (0.5 * h) * x
    h6 = h / 6.0

    ia, ib = cfg.i_alpha0, cfg.i_beta0
    th0 = th = cfg.theta0
    om = cfg.omega0
    TL = 0.0  # stays 0 in driven mode, where the mechanics are prescribed

    n_rec = n_steps // dec + 1
    rec = {c: np.zeros(n_rec) for c in cols}
    writes = [(rec[c], TRACE_COLUMNS.index(c)) for c in rec]
    ri = 0

    for k in range(n_steps + 1):
        t = k * Ts
        if driven:
            th = th0 + np_ * angle(t)
            om = omega_at(t)
        vpa = v_probe[k % n_car]
        if noise is None:
            ia_m, ib_m = ia, ib
        else:
            ia_m = ia + noise[k, 0]
            ib_m = ib + noise[k, 1]

        p_valid = False
        if prop is not None:
            p_valid = prop.step(t, ia_m, ib_m) is not None
            if p_valid:
                pll_p.step(prop.theta_hat, Ts)
        if conv is not None:
            conv.step(t, ia_m, ib_m)
            pll_c.step(conv.theta_hat, Ts)

        if true_frame:
            th_c, om_c = th, om
        elif drives_with_conv:
            th_c, om_c = conv.theta_hat, pll_c.omega_hat
        elif p_valid:
            th_c, om_c = prop.theta_hat, pll_p.omega_hat
        else:
            th_c = om_c = None
        vca, vcb = ctrl.low_frequency_voltage(ia_m, ib_m, th_c, om_c)

        if k % dec == 0:
            row = (t, th, th % TWO_PI, om, ia, ib, vca + vpa, vcb)
            if prop is None:
                row += _NO_ESTIMATE
            else:
                row += (prop.theta_hat, pll_p.omega_hat, prop.yv1, prop.yv2,
                        float(p_valid))
            if conv is None:
                row += _NO_ESTIMATE
            else:
                row += (conv.theta_hat, pll_c.omega_hat, conv.yv1, conv.yv2,
                        1.0)
            for arr, j in writes:
                arr[ri] = row[j]
            ri += 1

        if k == n_steps:
            break

        # RK4 over [t, t+Ts]; control voltage held, probe continuous
        te = t + h
        if driven:
            tm = t + hh
            thm, omm = th0 + np_ * angle(tm), omega_at(tm)
            the, ome = th0 + np_ * angle(te), omega_at(te)
        else:
            TL = torque(t)
        try:
            a1, b1, t1, o1 = deriv(np_, Rs, L0, L1, detL, Phi, J, fr,
                                   ia, ib, th, om, vca + vpa, vcb, TL)
            vam = vca + v_probe_mid[k % n_car]
            if not driven:
                thm, omm = th + hh * t1, om + hh * o1
            a2, b2, t2, o2 = deriv(np_, Rs, L0, L1, detL, Phi, J, fr,
                                   ia + hh * a1, ib + hh * b1, thm, omm,
                                   vam, vcb, TL)
            if not driven:
                thm, omm = th + hh * t2, om + hh * o2
            a3, b3, t3, o3 = deriv(np_, Rs, L0, L1, detL, Phi, J, fr,
                                   ia + hh * a2, ib + hh * b2, thm, omm,
                                   vam, vcb, TL)
            if not driven:
                the, ome = th + h * t3, om + h * o3
            a4, b4, t4, o4 = deriv(np_, Rs, L0, L1, detL, Phi, J, fr,
                                   ia + h * a3, ib + h * b3, the, ome,
                                   vca + v_probe[(k + 1) % n_car], vcb, TL)
            ia += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            ib += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            if not driven:
                th += h6 * (t1 + 2.0 * t2 + 2.0 * t3 + t4)
                om += h6 * (o1 + 2.0 * o2 + 2.0 * o3 + o4)
        except (ValueError, OverflowError) as exc:
            # a non-finite state reached math.cos or overflowed a stage
            raise SimulationDiverged(
                f"state not finite in the step from t={t:.6f}: {exc}") from exc
        if not (-lim < ia < lim and -lim < ib < lim) or not math.isfinite(th):
            raise SimulationDiverged(
                f"state out of bounds at t={te:.6f}: i=({ia:.3g},{ib:.3g})")

    return Trace(rec, cols)


def averaging_residual(cfg: ScenarioConfig, t1: float, t2: float):
    """Remainder of the averaged current decomposition over [t1, t2].

    Runs the scenario twice with identical inputs, probe on and off, and
    forms r(t) = i_on - i_off - epsilon*y_v(theta)*S(t), with the ripple
    model of `synthesize_injection_current` (the plant's probe, without the
    estimator-side phase phi_p).  Returns (t, r) restricted to the window
    plus the max norm; r is O(epsilon^2) when the averaging identity holds.
    """
    check_window(cfg, t1, t2)
    base = replace(cfg, estimator="none", decimation=1)
    if base.mode == "closed_loop" and not base.sensor_mode:
        raise ValueError("paired runs need sensor mode (identical control law)")
    cols = ["t", "theta", "i_alpha", "i_beta"]
    tr_on = run(replace(base, injection_enabled=True), cols)
    tr_off = run(replace(base, injection_enabled=False), cols)
    t = tr_on.t
    if not np.array_equal(t, tr_off.t):
        raise ValueError("paired runs disagree on cadence")
    m = (t >= t1) & (t <= t2)
    tw = t[m]
    ripple = synthesize_injection_current(cfg.motor, cfg.injection,
                                          tr_on.theta[m], tw)
    r = np.column_stack([tr_on.i_alpha[m] - tr_off.i_alpha[m],
                         tr_on.i_beta[m] - tr_off.i_beta[m]]) - ripple
    return tw, r, float(np.max(np.abs(r)))
