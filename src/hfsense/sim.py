"""Fixed-step simulation of the motor coupled to controller, probe injection
and estimators.

`ScenarioConfig` checks a run whole when it is built.  It owns the LTI
chain's one corner, lambda_ell (`corner` resolves its default; the high
pass sits at omega_h), and rejects a non-finite float field, an initial
angle too large for a float to resolve, a steps_per_period outside
[2, 4096], a step size or step count that is not a usable number, and a
drive whose electrical angle is not or that comes with a load torque or
start speed it would override.  It then builds what `run` builds from it,
the controller and the estimators of its pipelines, whose own checks name
the keys: a filter whose coefficients at that step size are not usable
(the controller's measurement low pass, the LTI chain's pair), an
adaptation gain whose sampled flow does not contract
(`estimators.check_contraction`) and a read-out constant out of a float's
range.

One step loop, `run`, serves both mechanics modes; a run is driven
exactly when its scenario has a drive profile:

* closed loop - the sensorless FOC drives the machine from the estimates
  (or from the true state in sensor mode, which isolates estimator error),
  and RK4 integrates currents, angle and speed, the currents in the rotor
  frame;
* driven - the angle and speed follow the prescribed profile, as on a dyno
  bench; the mechanics at t, t+Ts/2 and t+Ts come from tables of the
  profile, built one block of steps at a time.

A closed-loop step makes one call to `motor.rk4_step`.  The loop carries
the plant's (i_d, i_q) and the cos and sin of theta from one call to the
next, converting the initial (i_alpha, i_beta) once before it; each call
also returns the (i_alpha, i_beta) that the measurement, the estimators,
the divergence check and the trace read.  A driven step is two multiply-add
lines on (i_alpha, i_beta): the rotor-frame RK4 step of the currents is
affine in them and in the held control voltage, and
`motor.driven_step_tables` builds its ten coefficients per step, the frame
rotations folded in, along with the profile tables.  Both forms integrate
the same rotor-frame stage, and their oracle is in tests/oracles.py.

The controller and the estimator it reads, the first of the run's
`pipelines`, advance once per integration step (single cadence, no PWM).
That estimator's kernel is one generator, open for
the whole run: each step feeds it one measured sample and takes its
estimate back, with no call that unpacks and writes back its state.  An
estimator that only observes (the LTI chain when the new pipeline closes
the loop, both estimators in a driven run and in sensor mode) sees the
same measured currents, buffered per block of `_BLOCK` steps, and advances
by one `step` call per block; each estimator writes its own trace columns.
The probe voltage is evaluated analytically at the RK4 substep times;
holding it constant over a step would alias a fixed fraction of the ripple
and mask the second-order averaging remainder.  Since Ts = epsilon/N, the
probe at the start, middle and end of a step is tabulated once per carrier
phase k mod N, which the loop counts instead of computing.

A recorded step is six stores, one per state column (theta, omega, the
currents and the voltages), each through a memoryview of its column
array; every column the trace leaves out is stored into one spare row.
`t` and `theta_wrapped` are filled after the loop, from `record_times` and
the stored theta, with the values of k*Ts and Python's theta % (2*pi).
The recorded estimates are checked once, after the loop: one that is not
finite ends the run in `SimulationDiverged`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .controller import ControllerConfig, SensorlessController
from .estimators import (
    ConventionalEstimator,
    ProposedEstimator,
    synthesize_injection_current,
    window_mask,
)
from .motor import MotorParams, driven_step_tables, rk4_constants, rk4_step
from .signal_ops import TWO_PI, InjectionConfig, sample_period
# not called here; it stays importable from this module, where
# bench/run.py's tracer wraps it by name
from .signal_ops import probe_signal  # noqa: F401

# each estimator kind's pipelines, by trace prefix; the first closes the loop
_PIPELINES = {"proposed": ("prop",), "conventional": ("conv",),
              "both": ("prop", "conv"), "none": ()}
ESTIMATOR_KINDS = tuple(_PIPELINES)

# the columns sim.run writes, then those each estimator writes after its
# prefix, in the order of the `out` sequences of its step; an absent
# estimator's columns stay 0
_PLANT_COLUMNS = ["t", "theta", "theta_wrapped", "omega",
                  "i_alpha", "i_beta", "v_alpha", "v_beta"]
# the plant columns the step loop stores; t and theta_wrapped are derived
# from the step index and theta after it
_STATE_COLUMNS = ("theta", "omega", "i_alpha", "i_beta", "v_alpha", "v_beta")
_ESTIMATE_COLUMNS = ("theta_hat", "omega_hat", "yv1", "yv2", "valid")
TRACE_COLUMNS = _PLANT_COLUMNS + [
    f"{prefix}_{c}" for prefix in dict.fromkeys(sum(_PIPELINES.values(), ()))
    for c in _ESTIMATE_COLUMNS]


# the nominal (electrical-excitation) speed scale of lambda_ell's default,
# max(sqrt(omega_h*_SPEED_SCALE), 1) [rad/s]
_SPEED_SCALE = 0.5
# the most samples per probe period: the per-phase tables of a run, which
# ScenarioConfig builds whole, stay small
_MAX_PHASES = 1 << 12
# the largest initial angle, in magnitude [rad]: below it a float resolves
# an angle to 2**-31 rad or finer
_MAX_ANGLE = 2.0 ** 22


class SimulationDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class DriveProfile:
    """Prescribed mechanical speed for driven-speed runs.

    constant: omega(t) = omega; reversal: omega until t_ramp_start >= 0,
    linear ramp to omega_end by t_ramp_end, then omega_end.  Angle comes
    from the exact integral of the profile from t = 0, so a ramp under way
    at t = 0 starts at t_ramp_start = 0 with omega its speed there.  A
    constant profile takes no ramp keys.
    Both methods take an array of times and work elementwise, so `run`
    tabulates a block of steps per call; their scalar forms are the `==`
    oracles in tests/oracles.py.
    """

    kind: str = "constant"
    omega: float = 0.0               # mechanical [rad/s]
    omega_end: float = 0.0
    t_ramp_start: float = 0.0
    t_ramp_end: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "reversal"):
            raise ValueError(f"unknown drive profile {self.kind!r}")
        for key in ("omega", "omega_end", "t_ramp_start", "t_ramp_end"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite "
                                 f"(got {getattr(self, key):g})")
        if self.kind == "constant":
            for key in ("omega_end", "t_ramp_start", "t_ramp_end"):
                if getattr(self, key) != 0.0:
                    raise ValueError(f"a constant profile takes no {key} "
                                     f"(got {getattr(self, key):g})")
        elif not 0.0 <= self.t_ramp_start < self.t_ramp_end:
            raise ValueError(f"reversal needs 0 <= t_ramp_start < t_ramp_end "
                             f"(got t_ramp_start = {self.t_ramp_start:g}, "
                             f"t_ramp_end = {self.t_ramp_end:g})")
        else:
            # angle_integral's terms at t_ramp_end, where the ramp ends; the
            # ramp's length, between two finite times >= 0, is finite
            start = self.omega * self.t_ramp_start
            end = start + 0.5 * (self.omega + self.omega_end) * (
                self.t_ramp_end - self.t_ramp_start)
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ValueError(
                    f"reversal from t_ramp_start = {self.t_ramp_start:g} to "
                    f"t_ramp_end = {self.t_ramp_end:g} at omega = "
                    f"{self.omega:g}, omega_end = {self.omega_end:g}: the "
                    "ramp's angle is not a finite number")

    def omega_at(self, t) -> np.ndarray:
        """Speed at each of the times t (mechanical rad/s)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full(t.shape, self.omega, dtype=float)
        t0, t1 = self.t_ramp_start, self.t_ramp_end
        frac = (t - t0) / (t1 - t0)
        return np.where(t <= t0, self.omega, np.where(
            t >= t1, self.omega_end,
            self.omega + frac * (self.omega_end - self.omega)))

    def angle_integral(self, t) -> np.ndarray:
        """Integral of omega from 0 to each of the times t (mechanical rad)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return self.omega * t
        t0, t1 = self.t_ramp_start, self.t_ramp_end
        acc = self.omega * t0
        after = acc + 0.5 * (self.omega + self.omega_end) * (t1 - t0)
        return np.where(t <= t0, self.omega * t, np.where(
            t >= t1, after + self.omega_end * (t - t1),
            acc + 0.5 * (self.omega + self.omega_at(t)) * (t - t0)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one run, driven exactly when it has a drive
    profile; a value object, safe to share."""

    motor: MotorParams
    injection: InjectionConfig = InjectionConfig()
    controller: ControllerConfig = ControllerConfig()
    load_torque: float = 0.0         # [N m], closed loop (no drive) only
    drive: DriveProfile | None = None  # prescribed speed: the run is driven
    estimator: str = "both"
    gamma_alpha: float = 1e4
    gamma_beta: float = 1e4
    ell: tuple[float, float, float] = (1.0, 0.0, 1.0)
    lambda_ell: float | None = None  # default: see `corner`
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
        for key in ("steps_per_period", "decimation", "seed"):
            if not isinstance(getattr(self, key), int):
                raise ValueError(f"{key} must be an integer "
                                 f"(got {getattr(self, key)!r})")
        if len(self.ell) != 3:
            raise ValueError(f"ell must have three gains (got {self.ell!r})")
        if not 2 <= self.steps_per_period <= _MAX_PHASES:
            raise ValueError(f"steps_per_period must lie in [2, {_MAX_PHASES}]")
        finite = {key: getattr(self, key) for key in (
            "load_torque", "theta0", "theta0_est", "omega0", "i_alpha0",
            "i_beta0", "duration", "noise_std")}
        finite.update(zip(("ell1", "ell2", "ell3"), self.ell))
        for key, value in finite.items():
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite (got {value:g})")
        for key in ("theta0", "theta0_est"):
            if not abs(getattr(self, key)) < _MAX_ANGLE:
                raise ValueError(f"|{key}| must be below 2**22 rad, within "
                                 "which a float resolves the angle "
                                 f"(got {getattr(self, key):g})")
        Ts = self.Ts
        if Ts == 0.0:
            raise ValueError(f"Ts = epsilon/steps_per_period underflows to 0 "
                             f"(epsilon = {self.injection.epsilon:g})")
        if not math.isfinite(self.duration / Ts):
            raise ValueError(f"duration/Ts = {self.duration:g} s / {Ts:g} s "
                             "is not a finite number of steps")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        if self.noise_std < 0.0:
            raise ValueError("noise level must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")
        if not self.divergence_limit > 0.0:
            raise ValueError(f"divergence_limit must be positive "
                             f"(got {self.divergence_limit:g})")
        if not self.pipelines and not self.sensor_mode and self.drive is None:
            raise ValueError("closed loop without estimator requires sensor mode")
        if self.duration <= self.warmup:
            raise ValueError("duration must exceed the operator warm-up")
        if self.drive is not None:
            # a drive prescribes the speed, which no load or start speed moves
            for key in ("load_torque", "omega0"):
                if getattr(self, key) != 0.0:
                    raise ValueError(f"{key} = {getattr(self, key):g} has no "
                                     "effect on a driven run, whose drive "
                                     "prescribes the speed")
            # the prescribed electrical angle at the run's ends and the ramp's
            d = self.drive
            ends = np.clip([0.0, d.t_ramp_start, d.t_ramp_end, self.duration],
                           0.0, self.duration)
            with np.errstate(all="ignore"):
                theta = self.theta0 + self.motor.n_p * d.angle_integral(ends)
            if not np.isfinite(theta).all():
                raise ValueError("the drive's electrical angle theta0 + n_p * "
                                 "angle(omega, omega_end, t_ramp_start, "
                                 "t_ramp_end) is not finite within duration")
        for key in ("gamma_alpha", "gamma_beta", "pll_kp", "pll_ki"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite "
                                 f"(got {getattr(self, key):g})")
        if self.ell[0] == 0.0 or self.ell[2] == 0.0:
            raise ValueError("ell1 and ell3 must be nonzero")
        if not 1.0 <= self.corner < math.inf:
            raise ValueError(f"lambda_ell must be >= 1 and finite "
                             f"(got {self.corner:g})")
        # the parts `run` builds, each with its own checks at Ts, naming the
        # keys: the filters' coefficients, the demodulator gains'
        # contraction and the read-out constants
        SensorlessController(self.motor, self.controller, Ts)
        _build_estimators(self)

    @cached_property
    def corner(self) -> float:
        """lambda_ell, default max(sqrt(omega_h*_SPEED_SCALE), 1)."""
        return (max(math.sqrt(self.injection.omega_h * _SPEED_SCALE), 1.0)
                if self.lambda_ell is None else self.lambda_ell)

    @property
    def pipelines(self) -> tuple[str, ...]:
        """The trace prefixes of the run's estimators, from `_PIPELINES`."""
        return _PIPELINES[self.estimator]

    @property
    def Ts(self) -> float:
        return sample_period(self.injection, self.steps_per_period)

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


def _too_large(cfg: ScenarioConfig, exc: Exception) -> ValueError:
    return ValueError(f"scenario too large: duration = {cfg.duration:g} s "
                      f"is {cfg.n_steps} steps of {cfg.steps_per_period} per "
                      "probe period, which cannot be allocated "
                      f"({str(exc) or type(exc).__name__})")


def record_times(cfg: ScenarioConfig) -> np.ndarray:
    """The `t` column of `run`: k*Ts at every `decimation`-th step k."""
    try:
        return np.arange(0, cfg.n_steps + 1, cfg.decimation) * cfg.Ts
    except (MemoryError, OverflowError) as exc:
        raise _too_large(cfg, exc) from None


def _build_estimators(cfg: ScenarioConfig) -> dict:
    """The estimators of the run's pipelines, by trace prefix."""
    gains = (cfg.pll_kp, cfg.pll_ki)
    N = cfg.steps_per_period
    build = {"prop": lambda: ProposedEstimator(
                 cfg.motor, cfg.injection, N, cfg.gamma_alpha, cfg.gamma_beta,
                 cfg.ell, cfg.theta0_est, gains),
             "conv": lambda: ConventionalEstimator(
                 cfg.motor, cfg.injection, N, cfg.corner, cfg.theta0_est,
                 gains)}
    return {prefix: build[prefix]() for prefix in cfg.pipelines}


def _estimate_out(rec: dict, prefix: str, spare: np.ndarray):
    """The `out` sequences of one estimator's step: a memoryview of each of
    its columns, of the spare row for a column the trace leaves out; None
    if none is recorded."""
    names = [f"{prefix}_{c}" for c in _ESTIMATE_COLUMNS]
    if not any(c in rec for c in names):
        return None
    return tuple(memoryview(rec.get(c, spare)) for c in names)


def _probe_tables(cfg: ScenarioConfig):
    """Probe voltage per carrier phase j at j*Ts, the half step and (j+1)*Ts."""
    inj = cfg.injection
    Vh = inj.V_h if cfg.injection_enabled else 0.0
    Ts = cfg.Ts
    wh = inj.omega_h
    phases = range(cfg.steps_per_period)
    at_step = [Vh * math.sin(wh * j * Ts) for j in phases]
    at_mid = [Vh * math.sin(wh * (j + 0.5) * Ts) for j in phases]
    return at_step, at_mid, at_step[1:] + at_step[:1]


def _noise(cfg: ScenarioConfig, n: int):
    """Seeded sensor noise per step, one view per axis, or None without noise.

    The (n+1, 2) draw is read through two 1-D memoryviews of its columns:
    they index to Python floats without a copy, where numpy scalars would
    make every estimator and controller operation downstream slower.
    """
    if cfg.noise_std == 0.0:
        return None
    rng = np.random.default_rng(cfg.seed)
    draw = rng.normal(0.0, cfg.noise_std, size=(n + 1, 2))
    return memoryview(draw[:, 0]), memoryview(draw[:, 1])


# steps per block of driven-mode tables: whole-run tables of a 10 s run would
# take about 300 MB with the step maps' temporaries, and per-block numpy
# calls cost little at this size
_BLOCK = 1024


def _drive_block(cfg: ScenarioConfig, probe, k0: int, k1: int):
    """Driven steps k0 <= k < k1 as twelve memoryviews: the prescribed angle
    and speed at t = k*Ts, then the ten coefficients of each step's map.

    theta = theta0 + n_p*angle and omega are computed on the grids t,
    t + 0.5*Ts and t + Ts, each element as the per-step expression would
    be, and handed with the `probe` arrays at the steps' phases to
    `motor.driven_step_tables`; indexed, the views give Python floats.
    A drive that overflows floats gives inf or NaN here without a warning;
    the loop's bound check reports it as SimulationDiverged, in one line.
    """
    Ts = cfg.Ts
    t = np.arange(k0, k1) * Ts
    mech = []
    with np.errstate(all="ignore"):
        for tg in (t, t + 0.5 * Ts, t + Ts):
            mech += (cfg.theta0 + cfg.motor.n_p * cfg.drive.angle_integral(tg),
                     cfg.drive.omega_at(tg))
        j = np.arange(k0, k1) % cfg.steps_per_period
        maps = driven_step_tables(cfg.motor, Ts, *mech,
                                  *(p[j] for p in probe))
    return [memoryview(x) for x in (*mech[:2], *maps)]


def _check_estimates(rec: dict, prefixes, dec: int, Ts: float):
    """SimulationDiverged at the first record, every dec steps of Ts, of a
    recorded theta_hat, omega_hat, yv1 or yv2 of the estimators by trace
    prefix that is not finite, naming its column and time."""
    bad = []
    for name in (f"{p}_{c}" for p in prefixes for c in _ESTIMATE_COLUMNS[:4]):
        col = rec.get(name)
        if col is not None and not np.isfinite(col).all():
            bad.append((int(np.argmin(np.isfinite(col))), name))
    if bad:
        r, name = min(bad, key=lambda b: b[0])
        raise SimulationDiverged(f"recorded estimate {name} not finite at "
                                 f"t={r * dec * Ts:.6f}")


def run(cfg: ScenarioConfig, columns=None) -> Trace:
    """Simulate one scenario; one record per `decimation` steps.

    `columns` selects trace columns (default: all of TRACE_COLUMNS); an
    unknown name, a repeated one or an empty selection raises ValueError.
    Without a drive profile the closed loop integrates the mechanics under
    the constant load torque `load_torque`; a driven run reads them at t,
    t+Ts/2 and t+Ts from tables of the drive profile, built per block of
    `_BLOCK` steps with the affine maps that advance its currents.
    The controller regulates in the true frame in sensor mode and in a
    driven run (as on a dyno bench), else in the frame of the first of
    `cfg.pipelines`; estimators only ever see the measured currents.  The
    estimator the controller reads runs one generator of its kernel for
    the whole run: each step pushes the measured sample into its feed and
    takes the estimate back, and the generator is closed when the run ends
    or diverges, which writes the estimator's state back.  Every other
    estimator only observes, and advances once per block over the block's
    measured currents, or not at all if none of its columns is recorded.
    Each estimator writes its own trace columns.  A recorded step stores
    the six state columns (theta, omega, i_alpha, i_beta, v_alpha, v_beta);
    every column left out of the trace goes to one shared spare row.  `t`
    and `theta_wrapped` are filled from `record_times` and theta once the
    loop ends.  A scenario whose per-step arrays cannot be allocated raises
    ValueError ("scenario too large") before any step.
    A recorded theta_hat, omega_hat, yv1 or yv2 that is not finite raises
    SimulationDiverged once the loop ends, naming the column and the time
    of its first such record; the loop's own bound check, on the currents,
    stops a closed loop that such an estimate drives off.
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
    ctrl = SensorlessController(mp, cfg.controller, Ts)
    n_rec = n_steps // cfg.decimation + 1
    driven = cfg.drive is not None
    v_probe, v_probe_mid, v_probe_end = tables = _probe_tables(cfg)
    # numpy copies, which each driven block indexes at its steps' phases
    probe = [np.array(v) for v in tables] if driven else None
    estimators = _build_estimators(cfg)
    try:
        # arrays of n_steps; numpy refuses a size beyond the host at once
        noise = _noise(cfg, n_steps)
        rec = {c: np.zeros(n_rec) for c in cols}
        # the write target of every column the trace leaves out
        spare = np.zeros(n_rec)
        # the state columns the loop stores: theta also when only
        # theta_wrapped is recorded
        state = [rec.get(c, spare) for c in _STATE_COLUMNS]
        if "theta" not in rec and "theta_wrapped" in rec:
            state[0] = np.zeros(n_rec)
    except (MemoryError, OverflowError) as exc:
        raise _too_large(cfg, exc) from None
    if noise is not None:
        noise_a, noise_b = noise
    # the prefix of the estimator whose angle and speed the controller reads
    closer = None if driven or cfg.sensor_mode else cfg.pipelines[0]
    dec = cfg.decimation
    closing = None
    observers = []
    for prefix, est in estimators.items():
        out = _estimate_out(rec, prefix, spare)
        if prefix == closer:
            # one generator of the kernel for the whole run, fed one
            # measured sample per step
            feed = []
            push = feed.append
            closing = est.kernel(iter(feed.pop, None), out, dec)
        elif out is not None:
            observers.append((est.step, out))
    # measured currents of the block, for the observers
    buffered = bool(observers)
    buf_a = [0.0] * _BLOCK
    buf_b = [0.0] * _BLOCK

    kc = rk4_constants(mp, Ts)
    n_car = cfg.steps_per_period
    lim = cfg.divergence_limit

    ia, ib = cfg.i_alpha0, cfg.i_beta0
    th = cfg.theta0
    om = cfg.omega0
    TL = cfg.load_torque  # closed loop only: a drive prescribes th, om
    # closed loop only: the plant's rotor-frame currents, and the cos and
    # sin of theta that the next step starts from
    c = math.cos(th)
    s = math.sin(th)
    i_d = c * ia + s * ib
    i_q = c * ib - s * ia

    # memoryviews store each Python float without numpy's __setitem__
    r_th, r_om, r_ia, r_ib, r_va, r_vb = map(memoryview, state)
    ri = 0
    j = 0  # carrier phase k mod n_car

    try:
        for k0 in range(0, n_steps + 1, _BLOCK):
            k1 = min(k0 + _BLOCK, n_steps + 1)
            if driven:
                (th_t, om_t, p0, p1, p2, p3, p4, p5, p6, p7, p8,
                 p9) = _drive_block(cfg, probe, k0, k1)
            for k in range(k0, k1):
                kb = k - k0
                if driven:
                    th = th_t[kb]
                    om = om_t[kb]
                if noise is None:
                    ia_m, ib_m = ia, ib
                else:
                    ia_m = ia + noise_a[k]
                    ib_m = ib + noise_b[k]
                if buffered:
                    buf_a[kb] = ia_m
                    buf_b[kb] = ib_m

                if closing is None:
                    th_c, om_c = th, om
                else:
                    push((k, ia_m, ib_m))
                    # None while not warm yet: the controller holds
                    th_c, om_c = next(closing) or (None, None)
                vca, vcb = ctrl.low_frequency_voltage(ia_m, ib_m, th_c, om_c)
                va = vca + v_probe[j]

                if k % dec == 0:
                    r_th[ri] = th
                    r_om[ri] = om
                    r_ia[ri] = ia
                    r_ib[ri] = ib
                    r_va[ri] = va
                    r_vb[ri] = vcb
                    ri += 1

                if k == n_steps:
                    break

                # RK4 over [t, t+Ts]; control voltage held, probe continuous
                if driven:
                    ia, ib = (p0[kb] * ia + p1[kb] * ib + p2[kb] * vca
                              + p3[kb] * vcb + p4[kb],
                              p5[kb] * ia + p6[kb] * ib + p7[kb] * vca
                              + p8[kb] * vcb + p9[kb])
                else:
                    try:
                        ia, ib, i_d, i_q, th, om, c, s = rk4_step(
                            kc, i_d, i_q, th, om, c, s, va,
                            vca + v_probe_mid[j], vca + v_probe_end[j], vcb,
                            TL)
                    except (ValueError, OverflowError) as exc:
                        # a non-finite state reached math.cos or overflowed
                        # a stage
                        raise SimulationDiverged(
                            f"state not finite in the step from "
                            f"t={k * Ts:.6f}: {exc}") from exc
                # a non-finite theta makes the currents NaN: through the end
                # rotation in closed loop (an infinite one raises in
                # math.cos), through the step maps' frame rotations in
                # driven mode, where an overflowing drive also lands
                if not (-lim < ia < lim and -lim < ib < lim):
                    raise SimulationDiverged(
                        f"state out of bounds at t={k * Ts + Ts:.6f}: "
                        f"i=({ia:.3g},{ib:.3g})")
                j += 1
                if j == n_car:
                    j = 0

            n = k1 - k0
            for step, out in observers:
                step(k0, buf_a[:n], buf_b[:n], out, dec)
    finally:
        # the closer writes its state back, also when the run diverges
        if closing is not None:
            closing.close()
    _check_estimates(rec, estimators, dec, Ts)
    if "t" in rec:
        rec["t"][:] = record_times(cfg)
    if "theta_wrapped" in rec:
        np.remainder(state[0], TWO_PI, out=rec["theta_wrapped"])
    return Trace(rec, cols)


def averaging_residual(cfg: ScenarioConfig, t1: float, t2: float):
    """Remainder of the averaged current decomposition over [t1, t2].

    Runs the scenario twice with identical inputs, probe on and off, and
    forms r(t) = i_on - i_off - epsilon*y_v(theta)*S(t), with the ripple
    model of `synthesize_injection_current` (the plant's probe, without the
    estimator-side phase phi_p).  Returns (t, r) restricted to the window
    plus the max norm; r is O(epsilon^2) when the averaging identity holds.
    The window takes the samples that `estimators.window_mask` takes, as
    `rmsd` does, and is checked on the runs' record grid before either run.
    The probe-off run records only the currents: the ripple model reads the
    probe-on run's angle, and both runs share n_steps and Ts, so their
    rows fall at the same times.
    """
    if cfg.drive is None and not cfg.sensor_mode:
        raise ValueError("paired runs need sensor mode (identical control law)")
    base = replace(cfg, estimator="none", decimation=1)
    m = window_mask(record_times(base), t1, t2)
    tr_on = run(replace(base, injection_enabled=True),
                ["t", "theta", "i_alpha", "i_beta"])
    tr_off = run(replace(base, injection_enabled=False),
                 ["i_alpha", "i_beta"])
    tw = tr_on.t[m]
    ripple = synthesize_injection_current(cfg.motor, cfg.injection,
                                          tr_on.theta[m], tw)
    r = np.column_stack([tr_on.i_alpha[m] - tr_off.i_alpha[m],
                         tr_on.i_beta[m] - tr_off.i_beta[m]]) - ripple
    return tw, r, float(np.max(np.abs(r)))
