"""Controller tests: frame rotations, PI behaviour, voltage assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hfsense.controller import (
    ControllerConfig,
    Pi,
    SensorlessController,
    frame_rotate,
)
from hfsense.motor import SIM_MOTOR
from hfsense.signal_ops import InjectionConfig
from hfsense.sim import DriveProfile, ScenarioConfig, run

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


def _applied_voltage(injection_enabled):
    """Trace of the voltage the simulator applies when the controller's own
    output is exactly zero (all gains zero, rotor held at rest)."""
    zero = ControllerConfig(speed_kp=0.0, speed_ki=0.0, current_kp=0.0,
                            current_ki=0.0, omega_ref=0.0)
    cfg = ScenarioConfig(motor=SIM_MOTOR, controller=zero, mode="driven",
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
