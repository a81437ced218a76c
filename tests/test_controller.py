"""Controller tests: frame rotations, PI behaviour, voltage assembly, and
the fused controller step against the standalone operators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hfsense.controller import ControllerConfig, SensorlessController
from hfsense.signal_ops import InjectionConfig
from hfsense.sim import DriveProfile, ScenarioConfig, run
from conftest import SIM_MOTOR
from oracles import LowPass1, Pi, frame_rotate

finite = st.floats(-1e3, 1e3, allow_nan=False)


@given(theta=st.floats(-10.0, 10.0), x=finite, y=finite)
def test_frame_rotation_round_trip(theta, x, y):
    d, q = frame_rotate(theta, x, y, to_dq=True)
    xb, yb = frame_rotate(theta, d, q, to_dq=False)
    assert xb == pytest.approx(x, abs=1e-9)
    assert yb == pytest.approx(y, abs=1e-9)
    # rotations preserve length
    assert math.hypot(d, q) == pytest.approx(math.hypot(x, y), abs=1e-9)


def test_frame_rotation_orientation():
    # the alpha axis maps onto the d axis when theta = 0,
    # and onto the q axis after a quarter electrical turn
    assert frame_rotate(0.0, 1.0, 0.0) == pytest.approx((1.0, 0.0))
    assert frame_rotate(0.5 * math.pi, 1.0, 0.0) == pytest.approx((0.0, -1.0))


def test_pi_proportional_and_integral():
    pi = Pi(2.0, 10.0, limit=100.0)
    assert pi.step(1.0, Ts=0.1) == pytest.approx(2.0 + 1.0)
    assert pi.step(1.0, Ts=0.1) == pytest.approx(2.0 + 2.0)


def test_pi_clamps_and_antiwindup():
    pi = Pi(1.0, 100.0, limit=5.0)
    for _ in range(100):
        out = pi.step(10.0, Ts=0.1)
    assert out == 5.0
    assert pi.integ == 5.0  # the integrator is clamped, not wound up
    # recovery is immediate once the error reverses
    assert pi.step(-20.0, Ts=0.01) < 0.0


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(speed_kp=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["speed_kp", "speed_ki", "current_kp",
                                 "current_ki", "omega_ref", "i_d_ref",
                                 "i_q_limit", "v_limit", "meas_lpf_cutoff"])
def test_controller_config_rejects_non_finite(key, value):
    """A NaN or infinite gain, reference or limit is rejected when the
    config is built, naming the field."""
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        ControllerConfig(**{key: value})


def _controller(**kw):
    return SensorlessController(SIM_MOTOR, ControllerConfig(**kw), Ts=2e-5)


def test_back_emf_feedforward():
    """With zero currents and no regulation error the q voltage is the
    back-EMF term n_p * omega * Phi."""
    ctrl = _controller(omega_ref=10.0)
    va, vb = ctrl.low_frequency_voltage(0.0, 0.0, theta_hat=0.0,
                                       omega_hat=10.0)
    expect_q = SIM_MOTOR.n_p * 10.0 * SIM_MOTOR.Phi  # 6.6 V
    assert vb == pytest.approx(expect_q, rel=1e-9)
    assert va == pytest.approx(0.0, abs=1e-9)


def test_voltage_limit():
    ctrl = _controller(omega_ref=0.0, v_limit=10.0)
    va, vb = ctrl.low_frequency_voltage(100.0, 100.0, 0.3, 0.0)
    assert math.hypot(va, vb) <= 10.0 * math.sqrt(2.0) + 1e-9


def test_hold_while_estimates_invalid():
    ctrl = _controller()
    v1 = ctrl.low_frequency_voltage(1.0, 0.5, 0.2, 0.1)
    held = ctrl.low_frequency_voltage(9.9, 9.9, None, None)
    assert held == v1


class _ComposedController:
    """The controller step composed from the standalone operators:
    frame_rotate -> LowPass1 x2 -> Pi x3 -> clamp -> frame_rotate."""

    def __init__(self, params, cfg, Ts):
        self.params, self.cfg, self.Ts = params, cfg, Ts
        self.lpf_d = LowPass1(cfg.meas_lpf_cutoff, Ts)
        self.lpf_q = LowPass1(cfg.meas_lpf_cutoff, Ts)
        self.speed_pi = Pi(cfg.speed_kp, cfg.speed_ki, cfg.i_q_limit)
        self.pi_d = Pi(cfg.current_kp, cfg.current_ki, cfg.v_limit)
        self.pi_q = Pi(cfg.current_kp, cfg.current_ki, cfg.v_limit)
        self.held = (0.0, 0.0)
        self.clamped = 0  # samples with a clamped voltage

    def step(self, i_alpha, i_beta, theta, omega):
        if theta is None or omega is None:
            return self.held
        p, cfg, Ts = self.params, self.cfg, self.Ts
        i_d, i_q = frame_rotate(theta, i_alpha, i_beta, to_dq=True)
        i_d_f = self.lpf_d.step(i_d)
        i_q_f = self.lpf_q.step(i_q)
        i_q_ref = self.speed_pi.step(cfg.omega_ref - omega, Ts)
        np_w = p.n_p * omega
        v_d = self.pi_d.step(cfg.i_d_ref - i_d_f, Ts) - p.L0 * np_w * i_q_f
        v_q = self.pi_q.step(i_q_ref - i_q_f, Ts) + p.L0 * np_w * i_d_f \
            + np_w * p.Phi
        lim = cfg.v_limit
        if max(abs(v_d), abs(v_q)) > lim:
            self.clamped += 1
        v_d = min(max(v_d, -lim), lim)
        v_q = min(max(v_q, -lim), lim)
        self.held = frame_rotate(theta, v_d, v_q, to_dq=False)
        return self.held


@pytest.mark.parametrize("swap", [False, True], ids=["ld_below_lq", "ld_above_lq"])
def test_fused_step_matches_composed_operators(swap):
    """Bit for bit over 3000 seeded samples that saturate the speed and
    current integrators and the voltage clamp and hold on invalid estimates."""
    motor = replace(SIM_MOTOR, L_d=SIM_MOTOR.L_q, L_q=SIM_MOTOR.L_d) \
        if swap else SIM_MOTOR
    assert (motor.L_d > motor.L_q) == swap
    cfg = ControllerConfig(speed_kp=1.0, speed_ki=2e3, current_kp=0.5,
                           current_ki=2e4, omega_ref=0.5, i_d_ref=0.1,
                           i_q_limit=2.0, v_limit=8.0)
    Ts = 2e-5
    rng = np.random.default_rng(11)
    n = 3000
    # speed estimates far below, far above and near the reference
    omega = np.repeat([-20.0, 0.5, 20.0, 0.5, -4.0, 0.5], n // 6) \
        + rng.normal(0.0, 0.5, n)
    # a rotating frame, so the filtered d and q currents swing both ways
    theta = 2.0 * math.pi * np.arange(n) / 1000.0 + rng.normal(0.0, 0.3, n)
    cur = np.array([4.0, 0.0]) + rng.normal(0.0, 2.0, (n, 2))
    held = rng.random(n) < 0.05
    fused = SensorlessController(motor, cfg, Ts)
    ref = _ComposedController(motor, cfg, Ts)
    bounds = {"speed": set(), "d": set(), "q": set()}
    mismatches = []
    for k in range(n):
        th = None if held[k] and k % 2 else float(theta[k])
        om = None if held[k] and not k % 2 else float(omega[k])
        args = (float(cur[k, 0]), float(cur[k, 1]), th, om)
        got = fused.low_frequency_voltage(*args)
        want = ref.step(*args)
        if got != want:
            mismatches.append((k, got, want))
        for key, pi in (("speed", ref.speed_pi), ("d", ref.pi_d),
                        ("q", ref.pi_q)):
            if abs(pi.integ) == pi.limit:
                bounds[key].add(math.copysign(1.0, pi.integ))
    assert not mismatches, mismatches[:3]
    # the inputs reach every branch of the step
    assert bounds == {"speed": {-1.0, 1.0}, "d": {-1.0, 1.0}, "q": {-1.0, 1.0}}
    assert 0.1 * n < ref.clamped < 0.9 * n
    assert held.sum() > 0.02 * n


def _applied_voltage(injection_enabled):
    """Trace of the voltage the simulator applies when the controller's own
    output is exactly zero (all gains zero, rotor held at rest)."""
    zero = ControllerConfig(speed_kp=0.0, speed_ki=0.0, current_kp=0.0,
                            current_ki=0.0, omega_ref=0.0)
    cfg = ScenarioConfig(motor=SIM_MOTOR, controller=zero,
                         drive=DriveProfile("constant", omega=0.0),
                         injection=InjectionConfig(V_h=1.0, epsilon=1e-3),
                         injection_enabled=injection_enabled,
                         estimator="none", steps_per_period=20,
                         duration=0.01, decimation=1)
    return run(cfg, ["t", "v_alpha", "v_beta"])


def test_step_adds_probe():
    """Each simulation step adds the probe V_h sin(omega_h t) to v_alpha."""
    tr = _applied_voltage(True)
    assert tr.v_alpha == pytest.approx(np.sin(2000.0 * math.pi * tr.t),
                                       abs=1e-12)
    assert tr.v_alpha[5] == pytest.approx(1.0)  # quarter period: sin = 1
    assert np.all(tr.v_beta == 0.0)


def test_probe_can_be_disabled():
    tr = _applied_voltage(False)
    assert np.all(tr.v_alpha == 0.0)
    assert np.all(tr.v_beta == 0.0)


def test_fused_speed_integral_matches_composed_operators():
    """Bit for bit over 3000 seeded samples that keep every integrator and
    the voltage clamp inside their limits, so each rounding of the speed
    loop's ki_w*err*Ts reaches the output; on these inputs the product
    rounds differently from ki_w*(err*Ts) on many samples."""
    cfg = ControllerConfig(speed_kp=0.2, speed_ki=50.0, current_kp=0.5,
                           current_ki=200.0, omega_ref=0.5, i_q_limit=20.0,
                           v_limit=400.0)
    Ts = 2e-5
    rng = np.random.default_rng(7)
    n = 3000
    omega = cfg.omega_ref + rng.normal(0.0, 2.0, n)
    theta = 2.0 * math.pi * np.arange(n) / 1000.0 + rng.normal(0.0, 0.3, n)
    cur = rng.normal(0.0, 2.0, (n, 2))
    fused = SensorlessController(SIM_MOTOR, cfg, Ts)
    ref = _ComposedController(SIM_MOTOR, cfg, Ts)
    regrouped = 0
    mismatches = []
    for k in range(n):
        args = (float(cur[k, 0]), float(cur[k, 1]), float(theta[k]),
                float(omega[k]))
        err = cfg.omega_ref - args[3]
        regrouped += cfg.speed_ki * err * Ts != cfg.speed_ki * (err * Ts)
        got = fused.low_frequency_voltage(*args)
        want = ref.step(*args)
        if got != want:
            mismatches.append((k, got, want))
        for pi in (ref.speed_pi, ref.pi_d, ref.pi_q):
            assert abs(pi.integ) < 0.5 * pi.limit, k
    assert not mismatches, mismatches[:3]
    assert ref.clamped == 0
    assert regrouped > 0.1 * n
